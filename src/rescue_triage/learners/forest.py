"""Random forest: bagged Gini trees with sqrt(d) feature subsampling per
split; the score is the fraction of trees voting positive.

Tree t of a forest grows from its own stream ``rng_from(seed, 101, t)``, so a
share group's fit on one fold shares trees between specs: a smaller
``n_trees`` takes a prefix of a larger forest, and a depth cap c takes the
tree grown under a looser cap when that tree drew no feature sample at depth
c or deeper. Its nodes there are leaves under either cap, and above them it
drew the same samples. ``fit_folds`` makes that fit for all folds of a CV
job (a fold chunk) at once: the folds' trees grow as one ``LockstepForest``,
each tree on its own fold's rows and bins. Consecutive folds share a forest
up to ``_FOREST_ROWS`` bootstrap rows, and a fold with more grows alone.

* ``LockstepForest`` grows all trees of one or more forests in lockstep,
  each tree on its own fit's rows and bins. Each step pops one node from
  every tree's own depth-first stack, so every tree draws its per-node
  feature sample from its own stream in the same pre-order as a tree grown
  alone; ``grow_classification_tree`` steps the forest until a given tree is
  finished. The fits' rows lie end to end, and a node is a ``[start,
  stop)`` range of one int32 row array, reordered in place when it splits
  (as in Louppe's PhD thesis, 2014). A node counts only its sampled
  features, each in a run of as many histogram cells as its fit gives that
  feature bins, and scores only their real cuts; it batches and partitions
  its rows through ``tree``, as boosting does. Gini cost with a
  ``min_samples_leaf`` floor; nodes hold the positive-class fraction. Tree t
  depends only on its own stream and fit, so a forest grown for more trees
  than a model keeps gives that model as a prefix. The forest records the
  deepest depth at which each tree drew, which tells whether a tighter depth
  cap would have grown the same tree.
* ``FeatureSampler`` draws the feature samples of one forest step, for all
  its trees at once, exactly as each tree's
  ``Generator.choice(d, k, replace=False)`` would: Floyd's algorithm over
  Lemire-bounded 32-bit draws, then numpy's shuffle, gathered from per-tree
  buffers of raw generator output (Lemire, "Fast random integer generation
  in an interval", ACM TOMACS 2019).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from ..records import rng_from
from .tree import _EPS_GAIN, Bins, TreeArrays, _batches, _partition, bin_columns, check_trees, ensemble_values

_TREE_STREAM = 101
_NO_CAP = 2**31
# at most this many bootstrap rows in one forest, which bounds its memory (4 MB of int32 row
# indices): a fold chunk's folds grow together up to it, and a fold with more grows alone
_FOREST_ROWS = 1 << 20


@dataclass(frozen=True)
class State:
    trees: tuple[TreeArrays, ...]


def share_key(params: dict) -> tuple:
    """Specs of one seed with equal keys differ only in ``n_trees`` and ``max_depth``."""
    return params["min_samples_leaf"], params["n_bins"]


def fit_folds(group: list[dict], folds: list[tuple], rngs) -> Iterator[tuple[int, int, State]]:
    """Yield ``(fold, i, state)`` for every fold of (Xs, y) and every params
    dict of one share group, a depth cap at a time; each fold draws its
    forest seed from its rng. The folds grow together in forests of at most
    ``_FOREST_ROWS`` bootstrap rows, each fold's trees on its own rows and
    bins: see ``_fit_together``."""
    min_samples_leaf, n_bins = share_key(group[0])
    seeds = [int(rng.integers(0, 2**32)) for rng in rngs]
    n_trees = max(p["n_trees"] for p in group)
    for lo, hi in _batches([len(y) for _, y in folds], n_trees, 0, _FOREST_ROWS):
        fits = [(bin_columns(X, n_bins), y) for X, y in folds[lo:hi]]
        for f, i, state in _fit_together(group, fits, seeds[lo:hi], min_samples_leaf):
            yield lo + f, i, state


def _fit_together(
    group: list[dict], fits: list[tuple[Bins, np.ndarray]], seeds: list[int], min_samples_leaf: int
) -> Iterator[tuple[int, int, State]]:
    """``fit_folds`` on the folds that share a forest. The loosest depth cap
    grows every fold's trees, as many as any spec asks, as one forest, and
    its specs are yielded; each other cap c keeps those trees but regrows,
    from the tree's own stream and in one forest across the folds, each tree
    that drew a sample at depth c or deeper. A tree is dropped once no cap
    still to come takes it, so the specs' states are the only other holders."""
    need: dict[int, int] = {}  # trees each depth cap needs
    for p in group:
        cap = _cap(p["max_depth"])
        need[cap] = max(need.get(cap, 0), p["n_trees"])
    loosest = max(need)
    max_features = max(1, int(round(math.sqrt(fits[0][0].codes.shape[1]))))
    ids = [(f, t) for f in range(len(fits)) for t in range(max(need.values()))]  # (fold of fits, tree)
    loose, deepest_draw = _grow(fits, seeds, ids, loosest, min_samples_leaf, max_features)
    yield from _states(group, len(fits), loosest, loose)
    tighter = [cap for cap in need if cap != loosest]
    loose = {key: t for key, t in loose.items() if any(key[1] < need[c] and deepest_draw[key] < c for c in tighter)}
    for cap in tighter:
        redo = [key for key in ids if key[1] < need[cap] and deepest_draw[key] >= cap]
        yield from _states(group, len(fits), cap, {
            **loose, **_grow(fits, seeds, redo, cap, min_samples_leaf, max_features)[0]})


def _states(group: list[dict], n_folds: int, cap: int, trees: dict) -> Iterator[tuple[int, int, State]]:
    """(fold, i, state) of each spec of depth cap ``cap`` on each fold, from
    its (fold, tree) trees."""
    for f in range(n_folds):
        for i, p in enumerate(group):
            if _cap(p["max_depth"]) == cap:
                yield f, i, State(tuple(trees[f, t] for t in range(p["n_trees"])))


def _cap(max_depth: Optional[int]) -> int:
    return _NO_CAP if max_depth is None else max_depth


def _grow(
    fits: list[tuple[Bins, np.ndarray]], seeds: list[int], ids: list[tuple[int, int]], max_depth: int,
    min_samples_leaf: int, max_features: int,
) -> tuple[dict, dict]:
    """The listed (fold, tree) trees, fold f's on ``fits[f]`` from its forest
    seed ``seeds[f]``, grown as one forest, and the deepest depth at which
    each drew a feature sample, both by (fold, tree). The forest and its
    streams are garbage once this returns, so they are not held while the
    trees are scored."""
    # each tree draws its bootstrap rows, then its feature samples, from its own stream
    rngs = [rng_from(seeds[f], _TREE_STREAM, t) for f, t in ids]
    n = [len(y) for _, y in fits]
    roots = ((f, rng.integers(0, n[f], n[f]).astype(np.int32)) for (f, _), rng in zip(ids, rngs))
    forest = LockstepForest(fits, roots, rngs, max_depth, min_samples_leaf, max_features)
    trees = {key: grow_classification_tree(forest, t) for t, key in enumerate(ids)}
    return trees, dict(zip(ids, forest.deepest_draw.tolist()))


def check(state: State, arity: int) -> None:
    if not state.trees:
        raise ValueError("state.trees: a forest needs at least one tree")
    check_trees(state.trees, arity)


def score(state: State, X: np.ndarray) -> np.ndarray:
    votes = np.zeros(len(X), dtype=np.int64)
    for lo, block in ensemble_values(state.trees, X):
        votes[lo : lo + block.shape[1]] += (block >= 0.5).sum(axis=0)
    return votes / len(state.trees)


# numpy's ``Generator.choice(d, k, replace=False)`` uses Floyd's algorithm
# unless d > _FLOYD_MAX_ITEMS and k > d // 50, where it takes a tail shuffle,
# which FeatureSampler lacks; a forest's k = round(sqrt(d)) never gets there
_FLOYD_MAX_ITEMS = 10_000
_U32 = np.uint64(0xFFFFFFFF)
# samples' worth of 32-bit draws a tree's buffer holds between refills
_SAMPLES_PER_FILL = 64


class FeatureSampler:
    """Every tree's ``Generator.choice(d, k, replace=False)`` feature samples,
    drawn for many trees at once and equal to numpy's, draw for draw.

    numpy draws such a sample by Floyd's algorithm: for j = d - k .. d - 1, a
    value v in [0, j] (no draw when j is 0), taking j instead when v is
    already in the sample; then it shuffles the sample, swapping slot i with a
    value in [0, i] for i = k - 1 .. 1. Each value in [0, j] is Lemire's
    bounded draw, ``(u * (j + 1)) >> 32`` of a 32-bit draw u, redrawn while the
    low 32 bits of that product fall below ``2^32 mod (j + 1)``. So every
    sample takes the same draws, one per bound (Floyd's nonzero j, then the
    shuffle's i), unless a draw is redrawn, at odds below (j + 1) / 2^32:
    ``sample`` gathers them for all of a step's trees as one array and
    redraws a row with such a draw one value at a time.

    Tree t's buffer holds the next 32-bit draws of its generator: numpy
    returns the low half of a 64-bit output first and holds the high half
    back (``has_uint32``), read once per tree here, when the sampler is made.
    A generator's later draws are undefined: the sampler reads ahead of it.
    """

    def __init__(self, rngs: Iterable[np.random.Generator], d: int, k: int):
        if d > _FLOYD_MAX_ITEMS and k > d // 50:
            raise ValueError(
                f"feature sampling draws at most d // 50 of d > {_FLOYD_MAX_ITEMS:,} features, got {k:,} of {d:,}"
            )
        self.d, self.k = d, k
        bounds = [j for j in range(d - k, d) if j] + list(range(k - 1, 0, -1))
        self.excl = np.array(bounds, dtype=np.uint64) + np.uint64(1)
        self.threshold = np.uint64(2**32) % self.excl
        self.width = _SAMPLES_PER_FILL * max(1, len(bounds))
        self.gens = [rng.bit_generator for rng in rngs]
        states = [g.state for g in self.gens]
        self.held = [st["uinteger"] if st["has_uint32"] else None for st in states]
        self.buf = np.empty((len(self.gens), self.width), dtype=np.uint32)
        self.pos = np.full(len(self.gens), self.width)  # every buffer used up

    def _refill(self, t: int) -> None:
        """Move tree t's unread draws to the front of its buffer and fill the rest."""
        buf, width = self.buf[t], self.width
        at = width - int(self.pos[t])
        buf[:at] = buf[width - at :]
        if self.held[t] is not None:
            buf[at] = self.held[t]
            at += 1
        # each 64-bit output is two draws, low half first
        new = self.gens[t].random_raw((width - at + 1) // 2).astype("<u8", copy=False).view("<u4")
        buf[at:] = new[: width - at]
        self.held[t] = int(new[-1]) if len(new) > width - at else None
        self.pos[t] = 0

    def _redraw(self, t: int) -> list[int]:
        """Tree t's next sample's bounded draws, one value at a time."""
        out = []
        for excl, threshold in zip(self.excl.tolist(), self.threshold.tolist()):
            while True:
                if self.pos[t] == self.width:
                    self._refill(t)
                m = int(self.buf[t, self.pos[t]]) * excl
                self.pos[t] += 1
                if (m & 0xFFFFFFFF) >= threshold:
                    break
            out.append(m >> 32)
        return out

    def sample(self, trees: np.ndarray) -> np.ndarray:
        """(len(trees), k) int64: row i is the next sample of tree ``trees[i]``;
        the trees are distinct."""
        n_draws = len(self.excl)
        for t in trees[self.pos[trees] + n_draws > self.width].tolist():
            self._refill(t)
        start = self.pos[trees]
        m = self.buf[trees[:, None], start[:, None] + np.arange(n_draws)].astype(np.uint64) * self.excl
        draws = (m >> np.uint64(32)).astype(np.int64)
        self.pos[trees] = start + n_draws
        for i in np.flatnonzero(((m & _U32) < self.threshold).any(axis=1)).tolist():
            self.pos[trees[i]] = start[i]
            draws[i] = self._redraw(int(trees[i]))
        rows, d, k = np.arange(len(trees)), self.d, self.k
        out = np.zeros((len(trees), k), dtype=np.int64)
        col = 0
        for s, j in enumerate(range(d - k, d)):
            if j:  # Floyd: the draw, or j when the draw is already taken
                v = draws[:, col]
                col += 1
                out[:, s] = np.where((out[:, :s] == v[:, None]).any(axis=1), j, v)
        for i in range(k - 1, 0, -1):
            r = draws[:, col]
            col += 1
            swapped = out[rows, r]
            out[rows, r] = out[:, i]
            out[:, i] = swapped
        return out


class LockstepForest:
    """The Gini trees of one or more random forests, grown in lockstep.

    Each of ``fits`` is a binned matrix and its 0/1 labels. Tree t grows on
    the t-th of ``roots``, a (fit, rows) pair: row indices into that fit,
    repeats allowed. A tree splits only on its own fit's bins and edges, so
    it is the tree it would be grown alone. Each ``step`` pops one node from
    every unfinished tree's own depth-first stack and splits the popped
    nodes with ``_split_batch``. A node splits only below ``max_depth``,
    when it is impure and has at least ``2 * min_samples_leaf`` rows; only
    then does its tree's rng draw ``max_features`` candidate features, so
    each tree draws from its own stream in the same pre-order as a tree
    grown alone. The draws of a step go through one ``FeatureSampler`` call,
    and ``deepest_draw[t]`` is the deepest depth at which tree t drew (-1 if
    it never did).

    The fits' rows lie end to end in ``keys``, each row's codes times 2 plus
    its label. The roots lie end to end in ``rows`` (int32), as indices
    into those stacked rows; a node is a ``[start, stop)`` range of it.
    ``stack[t, :height[t]]`` is tree t's stack: each pending node's start,
    stop, positives, depth, and the node whose right child it is (-1 if
    none). Every unfinished tree gets one node per step, so a node's id is
    the step that popped it: ids are in depth-first pre-order, a left child
    is its parent + 1, and a tree finished at step s has s + 1 nodes. Node
    fields are kept in (step, column) arrays; the trees of one fit finished
    at a step are cut out of them together and held in ``done`` until taken.
    """

    def __init__(
        self, fits: list[tuple[Bins, np.ndarray]], roots: Iterable[tuple[int, np.ndarray]],
        rngs: list[np.random.Generator], max_depth: int, min_samples_leaf: int, max_features: int,
    ):
        self.max_depth, self.msl = max_depth, min_samples_leaf
        roots = list(roots)  # before the sampler: a generator of roots draws them from the same rngs
        d = fits[0][0].codes.shape[1]
        self.sampler = FeatureSampler(rngs, d, min(max_features, d))
        # code * 2 + label: a node's negatives and positives per cell come from one bincount
        self.keys = np.concatenate([(b.codes * 2 + y[:, None]).astype(np.int32) for b, y in fits])
        self.n_bins = np.array([b.n_bins for b, _ in fits])
        self.edges = np.full((len(fits), d, max(b.edges.shape[1] for b, _ in fits)), np.nan)
        for f, (b, _) in enumerate(fits):
            self.edges[f, :, : b.edges.shape[1]] = b.edges
        self.fit = np.array([f for f, _ in roots], dtype=np.int64)
        sizes = np.array([len(r) for _, r in roots], dtype=np.int64)
        positives = [int(fits[f][1][r].sum()) for f, r in roots]
        self.rows = np.concatenate([r for _, r in roots] or [np.zeros(0, dtype=np.int32)], dtype=np.int32)
        # each root's rows as indices into the stacked fits: plus its fit's first row
        fit_rows = np.array([len(y) for _, y in fits])
        self.rows += np.repeat((np.cumsum(fit_rows) - fit_rows).astype(np.int32)[self.fit], sizes)
        self.stack = np.zeros((len(roots), 16, 5), dtype=np.int64)
        self.stack[:, 0, 0], self.stack[:, 0, 1] = np.cumsum(sizes) - sizes, np.cumsum(sizes)
        self.stack[:, 0, 2], self.stack[:, 0, 4] = positives, -1
        self.height = np.ones(len(roots), dtype=np.int64)
        self.deepest_draw = np.full(len(roots), -1)
        self.live = list(range(len(roots)))
        self.done: dict[int, TreeArrays] = {}
        self.n_steps = 0
        # node fields by (step, column): feature, threshold, value, right child; tree t's column is
        # ``column[t]``, and only unfinished trees keep theirs when the steps run out
        self.fields = [np.empty((16, len(roots)), dt) for dt in (np.int32, np.float64, np.float64, np.int32)]
        self.column = np.arange(len(roots))

    def _split_batch(self, start, sizes, pos, fit, slots):
        """The best Gini split of every node of a step, in batches. Node i
        holds ``rows[start[i] : start[i] + sizes[i]]`` of fit ``fit[i]``,
        ``pos[i]`` of them positive, and counts its features ``slots[i]``.
        Each (node, slot) has a run of as many cells as its fit has bins of
        that feature; one cumsum over the batch, less the sum before each
        run, gives every cell's rows and positives at or left of it. Only a
        run's real cuts are scored, and a slot of one bin scores -inf. A
        cut costs +inf if a side has under ``msl`` rows; a slot's gain is the
        node's Gini impurity less its least cost. The first cut of the first
        best slot wins if its gain exceeds ``_EPS_GAIN``, and the node's
        range of ``rows`` is reordered in place, left rows first. Returns per
        node the feature (-1 for a leaf), the threshold, and the left child's
        row count and positives."""
        n_nodes, width, msl = len(sizes), slots.shape[1], self.msl
        feature, threshold = np.full(n_nodes, -1, dtype=np.int32), np.zeros(n_nodes)
        left_rows, left_pos = np.zeros(n_nodes, dtype=np.int64), np.zeros(n_nodes, dtype=np.int64)
        # Python floats: ``x ** 2`` (libm pow) and numpy's x * x differ in the last bit
        # for about 1 in 1,300 fractions p / n
        gini = np.array([1.0 - (p / n) ** 2 - ((n - p) / n) ** 2 for p, n in zip(pos.tolist(), sizes.tolist())])
        runs = self.n_bins[fit[:, None], slots]  # (node, slot)'s cells: its fit's bins of the slot's feature
        # a node costs its gathered keys, its histogram cells and its cuts
        for lo, hi in _batches(sizes * width + 2 * runs.sum(axis=1) - width, 1, 0):
            k, node, feats, run = sizes[lo:hi], np.arange(hi - lo), slots[lo:hi], runs[lo:hi].ravel()
            at = np.repeat(start[lo:hi] - (np.cumsum(k) - k), k) + np.arange(k.sum())  # the batch's places in rows
            cat = self.rows[at]
            keys = np.take(self.keys, cat[:, None] * self.keys.shape[1] + np.repeat(feats, k, axis=0))
            base = np.cumsum(run) - run  # each run's first cell
            # each (row, slot)'s cell in its node's histogram, times 2, plus the row's label
            cells = np.repeat((2 * base).reshape(-1, width), k, axis=0)
            cells += keys
            hist = np.bincount(cells.ravel(), minlength=2 * int(run.sum()))
            left = np.zeros((len(hist) // 2 + 1, 2), dtype=np.int64)  # negatives, positives before each cell
            np.cumsum(hist.reshape(-1, 2), axis=0, out=left[1:])
            n_cuts = run - 1
            first_cut = np.cumsum(n_cuts) - n_cuts
            cut_run = np.repeat(np.arange(len(run)), n_cuts)
            cut = np.arange(len(cut_run)) - first_cut[cut_run]  # each real cut's code
            run_base = base[cut_run]
            # rows and positives left of every cut; integers, so exact in any order
            neg, pl = (left[run_base + cut + 1] - left[run_base]).T
            nl, cut_node = neg + pl, cut_run // width
            kk, p = k[cut_node], pos[lo:hi][cut_node]
            nr, pr = kk - nl, p - pl
            gl = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
            gr = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
            cost = (nl * gl + nr * gr) / kk
            cost[(nl < msl) | (nr < msl)] = np.inf
            # each slot's least cost, a min per slot and then the best slot: a single argmin over
            # the node's cuts could tie two costs that ``gini - cost`` rounds apart
            least = np.minimum.reduceat(np.append(cost, np.inf), first_cut)
            least[n_cuts == 0] = np.inf
            gain = gini[lo:hi, None] - least.reshape(-1, width)
            slot = np.argmax(gain, axis=1)
            split = gain[node, slot] > _EPS_GAIN
            # each split node's first cut at its slot's least cost
            hit = np.flatnonzero(cost == least[cut_run])
            first = hit[np.searchsorted(cut_run[hit], (node * width + slot)[split])]
            code = np.zeros(hi - lo, dtype=np.int64)
            code[split] = cut[first]
            feature[lo:hi] = f = np.where(split, feats[node, slot], -1)
            threshold[lo:hi] = np.where(split, self.edges[fit[lo:hi], f, code], 0.0)
            grouped, bounds = _partition(cat, keys, k, np.where(split, slot, -1), 2 * code + 1)
            self.rows[at[np.repeat(split, k)]] = grouped
            left_rows[lo:hi] = np.diff(bounds)[0::2]
            left_pos[lo:hi][split] = pl[first]
        return feature, threshold, left_rows, left_pos

    def step(self) -> None:
        j, trees = self.n_steps, np.array(self.live)
        self.height[trees] -= 1
        start, stop, pos, depth, right_of = self.stack[trees, self.height[trees]].T
        k = stop - start
        ids = np.flatnonzero((depth < self.max_depth) & (k >= 2 * self.msl) & (pos > 0) & (pos < k))
        feature, threshold = np.full(len(trees), -1, dtype=np.int32), np.zeros(len(trees))
        if len(ids):
            drawing = trees[ids]
            slots = self.sampler.sample(drawing)
            self.deepest_draw[drawing] = np.maximum(self.deepest_draw[drawing], depth[ids])
            with np.errstate(divide="ignore", invalid="ignore"):  # cuts that leave a side empty are never chosen
                feature[ids], threshold[ids], left_rows, left_pos = self._split_batch(
                    start[ids], k[ids], pos[ids], self.fit[drawing], slots)
            split = feature[ids] >= 0
            i, left_rows, left_pos = ids[split], left_rows[split], left_pos[split]
            t, height = trees[i], self.height[trees[i]]
            if height.max(initial=0) + 2 > self.stack.shape[1]:  # out of height: double it
                self.stack = np.concatenate([self.stack, np.empty_like(self.stack)], axis=1)
            mid, below = start[i] + left_rows, depth[i] + 1
            self.stack[t, height] = np.stack([mid, stop[i], pos[i] - left_pos, below, np.full(len(i), j)], axis=1)
            self.stack[t, height + 1] = np.stack([start[i], mid, left_pos, below, np.full(len(i), -1)], axis=1)
            self.height[t] += 2

        if j == len(self.fields[0]):  # out of steps: half as many again, in columns of the unfinished trees only
            grown = [np.empty((j + j // 2, len(trees)), a.dtype) for a in self.fields]
            for a, b in zip(self.fields, grown):
                np.take(a, self.column[trees], axis=1, out=b[:j])
            self.fields, self.column[trees] = grown, np.arange(len(trees))
        node_feature, node_threshold, node_value, node_right = self.fields
        column = self.column[trees]
        node_feature[j, column], node_threshold[j, column], node_value[j, column] = feature, threshold, pos / k
        node_right[j, column] = -1
        is_right = right_of >= 0
        node_right[right_of[is_right], column[is_right]] = j
        self.n_steps = j = j + 1

        alive = self.height[trees] > 0
        self.live, finished = trees[alive].tolist(), trees[~alive]
        # the trees of one fit share their arrays' blocks, so a fit's trees keep no other fit's alive
        for fit in np.unique(self.fit[finished]).tolist():
            done = finished[self.fit[finished] == fit]
            feature, threshold, value, right = (a[:j, self.column[done]].T.copy() for a in self.fields)
            left = np.where(feature >= 0, np.arange(1, j + 1, dtype=np.int32), np.int32(-1))
            for i, t in enumerate(done.tolist()):
                self.done[t] = TreeArrays(feature[i], threshold[i], left[i], right[i], value[i])


def grow_classification_tree(forest: LockstepForest, t: int) -> TreeArrays:
    """Tree t of ``forest``, taken out of it: the forest steps until tree t is
    finished. Each step grows every unfinished tree, so taking the trees in
    any order costs the steps of growing the whole forest once."""
    while t not in forest.done and forest.live:
        forest.step()
    return forest.done.pop(t)
