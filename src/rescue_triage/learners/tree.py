"""Histogram-based decision trees, grown and scored in batches.

Continuous features are quantized once per fit into at most ``n_bins``
ordered bins, so split search reduces to bin-count cumsums. Stored
thresholds are in original feature units; a sample goes left when
value < threshold, which for a training row is the same as code <= cut.

Split search runs no Python loop per node or feature: each grower splits
nodes whose splits do not depend on each other in batches, the forest's by
Gini (``_split_batch``) and boosting's by gradient and hessian
(``_newton_split``). Both share one histogram step, ``_histograms``: each
feature has its own run of cells (``StackedBins``, per-feature bins as in
LightGBM, Ke et al., NeurIPS 2017), filled by one ``bincount`` per statistic
and summed left of every cut by one cumsum per run width. A node takes the
first best cut of the first best feature whose gain exceeds ``_EPS_GAIN``,
and one stable sort, ``_partition``, puts each split node's left rows, then
its right rows. A batch holds at most ``_BATCH_CELLS`` (2^16) gathered and
histogram cells, about 0.5 MB per int64 array.

* ``LockstepForest`` (random forest) grows all trees of a forest in
  lockstep. Each step pops one node from every tree's own depth-first stack,
  so every tree draws its per-node feature sample from its own stream in the
  same pre-order as a tree grown alone; ``grow_classification_tree`` steps
  the forest until a given tree is finished. A node is a ``[start, stop)``
  range of one row array per forest, reordered in place when it splits (as
  in Louppe's PhD thesis, 2014), and counts only its sampled features'
  cells. Gini cost with a ``min_samples_leaf`` floor; nodes hold the
  positive-class fraction. Tree t depends only on its own stream, so a
  forest grown for more trees than a model keeps gives that model as a
  prefix. The forest records the deepest depth at which each tree drew,
  which tells whether a tighter depth cap would have grown the same tree.
* ``FeatureSampler`` draws the feature samples of one forest step, for all
  its trees at once, exactly as each tree's
  ``Generator.choice(d, k, replace=False)`` would: Floyd's algorithm over
  Lemire-bounded 32-bit draws, then numpy's shuffle, gathered from per-tree
  buffers of raw generator output (Lemire, "Fast random integer generation
  in an interval", ACM TOMACS 2019).
* ``LockstepRound`` (boosting) holds one round's trees of several boosting
  lanes, one lane per (CV fold, learning rate, depth cap) of a grid fit.
  Each lane's rows sit at its own offset of one flat stack, so lanes may
  differ in size, and each splits on its own fold's bins (``StackedBins``);
  every level of every lane splits in one batch. Boosting draws no random
  numbers, so each tree grows one level at a time over every feature, and a
  level is kept as arrays over its nodes. Nodes hold -G / (H + lambda);
  node sums G and H are ``ndarray.sum`` over the node's rows in row order.
  ``_preorder`` renumbers every lane's tree to depth-first pre-order at
  once, a level at a time.
  ``grow_second_order_tree`` grows every lane's tree on its first call of a
  round and returns one lane's tree per call.

Either way, a node's sums and split depend only on its own rows, so which
trees share a batch changes no tree.

``ensemble_values`` walks all trees of an ensemble together when scoring and
yields the leaf values block by block, in tree order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np
from numpy.typing import NDArray

from .base import InvalidHyperparameter, check_shape


@dataclass(frozen=True)
class TreeArrays:
    """Flat tree: internal nodes carry feature/threshold, leaves carry value."""

    feature: NDArray[np.int32]  # -1 for leaves
    threshold: NDArray[np.float64]  # split point in original units
    left: NDArray[np.int32]  # child ids
    right: NDArray[np.int32]
    value: NDArray[np.float64]  # node payload (class fraction or leaf weight)


def check_trees(trees: Iterable[TreeArrays], arity: int) -> None:
    """Fail, naming ``state.trees[i]`` and the array, unless every tree's
    arrays are one non-empty length, its feature indices lie in [-1, arity),
    and every internal node's children come after it (trees are stored in
    pre-order), so a walk ends."""
    for i, t in enumerate(trees):
        path, n = f"state.trees[{i}]", len(t.feature)
        for name in ("feature", "threshold", "left", "right", "value"):
            check_shape(f"{path}.{name}", getattr(t, name), (max(n, 1),))
        if ((t.feature < -1) | (t.feature >= arity)).any():
            raise ValueError(f"{path}.feature: feature index outside [-1, {arity})")
        internal = np.flatnonzero(t.feature >= 0)
        for name in ("left", "right"):
            child = getattr(t, name)[internal]
            if ((child <= internal) | (child >= n)).any():
                raise ValueError(f"{path}.{name}: child id not between its node and {n}")


@dataclass(frozen=True)
class Bins:
    """A fit's binned matrix: ``codes[i, f] <= c`` is equivalent to
    ``X[i, f] < edges[f, c]`` for every cut c below ``n_bins[f] - 1``."""

    codes: np.ndarray   # (n, d) int32
    n_bins: np.ndarray  # (d,) bins per feature; a feature with one bin never splits
    edges: np.ndarray   # (d, max(2, max bins)) cut points, NaN-padded


def bin_columns(X: np.ndarray, n_bins: int) -> Bins:
    """Quantize every column into at most ``n_bins`` ordered integer codes.

    Columns with few distinct values keep exact midpoint edges, so binning
    loses nothing for binary or small-integer features.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    codes = np.empty((n, d), dtype=np.int32)
    edges: list[np.ndarray] = []
    for j in range(d):
        vals = np.unique(X[:, j])
        if len(vals) <= n_bins:
            e = (vals[:-1] + vals[1:]) / 2.0
        else:
            qs = np.quantile(X[:, j], np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
            e = np.unique(qs)
        codes[:, j] = np.searchsorted(e, X[:, j], side="right")
        edges.append(e)
    bins = np.array([len(e) + 1 for e in edges])
    padded = np.full((d, int(bins.max(initial=2))), np.nan)
    for j, e in enumerate(edges):
        padded[j, : len(e)] = e
    return Bins(codes, bins, padded)


@dataclass(frozen=True)
class StackedBins:
    """The bins of several fits whose lanes grow together (``LockstepRound``),
    or of one forest's fit (``LockstepForest``).

    A node's histogram has ``n_cells`` cells: feature f's codes count from
    cell ``offset[f]``, as many cells as the fits give f bins at most, and
    features of one width lie side by side. Each ``runs`` entry (first cell,
    features, width) is such a block of features at least two cells wide.
    ``cells`` holds each lane's rows' cells, code plus offset, lane after
    lane.

    Fit t's edges are ``edges[t]``, padded to the widest fit, and its cuts
    are ``cut_feature[t]`` and ``cut_code[t]`` (a row goes left when its
    code is at most the cut), feature by feature and in order within a
    feature. A cut reads the cell ``cut_cell[t, v]``: a row goes left when
    its cell is at most that one. Fits with fewer cuts than the most are
    padded with code -1 of feature 0, a cut that leaves no row on its left.
    """

    cells: np.ndarray        # (rows, d)
    n_cells: int
    offset: np.ndarray       # (d,)
    runs: tuple[tuple[int, int, int], ...]
    edges: np.ndarray        # (fits, d, max bins)
    cut_feature: np.ndarray  # (fits, cuts)
    cut_code: np.ndarray     # (fits, cuts)
    cut_cell: np.ndarray     # (fits, cuts)


def stack_bins(bins: list[Bins], fits: Iterable[int]) -> StackedBins:
    """``bins`` stacked for lanes whose rows are those of fits ``fits``, in order."""
    d = len(bins[0].n_bins)
    width = np.max([b.n_bins for b in bins], axis=0)
    order = np.argsort(width, kind="stable")
    offset = np.empty(d, dtype=np.int64)
    offset[order] = np.cumsum(width[order]) - width[order]
    runs = []
    for w in np.unique(width[width > 1]).tolist():
        features = order[width[order] == w]
        runs.append((int(offset[features[0]]), len(features), w))
    edges = np.full((len(bins), d, max(b.edges.shape[1] for b in bins)), np.nan)
    n_cuts = max(1, max(int(b.n_bins.sum()) - d for b in bins))
    cut_feature, cut_code = np.zeros((len(bins), n_cuts), dtype=np.int64), np.full((len(bins), n_cuts), -1)
    for t, b in enumerate(bins):
        edges[t, :, : b.edges.shape[1]] = b.edges
        k = int(b.n_bins.sum()) - d
        cut_feature[t, :k] = np.repeat(np.arange(d), b.n_bins - 1)
        cut_code[t, :k] = np.concatenate([np.arange(n - 1) for n in b.n_bins.tolist()])
    return StackedBins(
        np.concatenate([bins[t].codes for t in fits]) + offset, int(width.sum()), offset, tuple(runs), edges,
        cut_feature, cut_code, offset[cut_feature] + cut_code,
    )


_EPS_GAIN = 1e-12
# cap on a batch's arrays, which bounds its memory: gathered cells (rows x
# features) plus histogram cells (nodes x cells) of a split batch; the nodes,
# and the (tree, row) pairs, of a scoring walk
_BATCH_CELLS = 1 << 16


def _batches(sizes: list[int], per_row: int, per_node: int):
    """[lo, hi) ranges of items, each counting size * per_row + per_node
    cells, that stay within ``_BATCH_CELLS``; a larger item goes alone."""
    lo, used = 0, 0
    for i, k in enumerate(sizes):
        cells = k * per_row + per_node
        if i > lo and used + cells > _BATCH_CELLS:
            yield lo, i
            lo, used = i, 0
        used += cells
    yield lo, len(sizes)


def _histograms(bins: StackedBins, cells: np.ndarray, seg: np.ndarray, m: int, weights) -> np.ndarray:
    """The histograms of a batch of m nodes, where row r's cells ``cells[r]``
    count for node ``seg[r]``: row ``s * m + i`` holds at each cell the sum of
    statistic s (``weights[s]`` per row, None to count rows) over node i's
    rows whose cell in that feature is at most it."""
    n_cells, columns = bins.n_cells, cells.shape[1]
    at = (cells + (seg * n_cells)[:, None]).ravel()  # each (row, column)'s cell of its node's histogram
    hist = np.concatenate([np.bincount(at, None if w is None else w.repeat(columns), m * n_cells) for w in weights])
    hist = hist.reshape(-1, n_cells)
    for first, count, width in bins.runs:
        run = slice(first, first + count * width)
        hist[:, run] = hist[:, run].reshape(len(hist), count, width).cumsum(axis=2).reshape(len(hist), -1)
    return hist


def _partition(cat: np.ndarray, cells: np.ndarray, seg: np.ndarray, column: np.ndarray, cut_cell: np.ndarray):
    """The rows ``cat`` of a batch's split nodes, grouped by one stable sort:
    each node's left rows (cell ``cells[r, column[node]]`` at most its
    ``cut_cell``), then its right rows, each keeping their order; and the
    2 * nodes + 1 bounds of those runs. A node of column -1 does not split."""
    m, width = len(column), cells.shape[1]
    chosen = np.take(cells, np.arange(0, cells.size, width) + column[seg])  # each row's cell in its node's column
    # 2 * node, + 1 if right; the rows of a node that does not split go last
    side = np.where(column[seg] >= 0, seg * 2 + (chosen > cut_cell[seg]), 2 * m)
    grouped = np.take(cat, np.argsort(side, kind="stable"))
    bounds = np.zeros(2 * m + 1, dtype=np.int64)
    np.cumsum(np.bincount(side, minlength=2 * m + 1)[: 2 * m], out=bounds[1:])
    return grouped[: bounds[-1]], bounds


def _split_batch(bins: StackedBins, cut_cells, y, rows, start, sizes, pos, slots, msl: int):
    """The best Gini split of every node of a forest step, in batches. Node i
    holds ``rows[start[i] : start[i] + sizes[i]]``, ``pos[i]`` of them
    positive; it counts the cells of its features ``slots[i]``, and cut c of
    feature f reads its left sums at ``cut_cells[f, c]``. A cut costs +inf if
    a side has under ``msl`` rows; gain is the node's Gini impurity less the
    cost. The first best cut of the first best slot wins if its gain exceeds
    ``_EPS_GAIN``, and the node's range of ``rows`` is reordered in place,
    left rows first. Returns per node the feature (-1 for a leaf), the
    threshold, and the left child's row count and positives."""
    n_nodes, n_cells, width = len(sizes), bins.n_cells, slots.shape[1]
    feature, threshold = np.full(n_nodes, -1, dtype=np.int32), np.zeros(n_nodes)
    left_rows, left_pos = np.zeros(n_nodes, dtype=np.int64), np.zeros(n_nodes, dtype=np.int64)
    # Python floats: ``x ** 2`` (libm pow) and numpy's x * x differ in the last bit
    # for about 1 in 1,300 fractions p / n
    gini = np.array([1.0 - (p / n) ** 2 - ((n - p) / n) ** 2 for p, n in zip(pos.tolist(), sizes.tolist())])
    for lo, hi in _batches(sizes.tolist(), width, n_cells + width * cut_cells.shape[1]):
        k, node, feats = sizes[lo:hi], np.arange(hi - lo), slots[lo:hi]
        seg = np.repeat(node, k)
        at = np.repeat(start[lo:hi] - (np.cumsum(k) - k), k) + np.arange(len(seg))  # the batch's places in rows
        cat = rows[at]
        cells = bins.cells[cat[:, None], feats[seg]]
        hist = _histograms(bins, cells, seg, len(k), (None, y[cat]))
        # (node, slot, cut) sums left of every cut; integers, so exact in any order
        nl, pl = np.take(hist.reshape(2, -1), cut_cells[feats] + (node * n_cells)[:, None, None], axis=1)
        kk, p = k[:, None, None], pos[lo:hi, None, None]
        nr, pr = kk - nl, p - pl
        gl = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gr = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        cost = (nl * gl + nr * gr) / kk
        cost[(nl < msl) | (nr < msl)] = np.inf
        gain = gini[lo:hi, None] - cost.min(axis=2)
        slot = np.argmax(gain, axis=1)
        cut = np.argmin(cost[node, slot], axis=1)
        split = gain[node, slot] > _EPS_GAIN
        feature[lo:hi] = f = np.where(split, feats[node, slot], -1)
        threshold[lo:hi] = np.where(split, bins.edges[0, f, cut], 0.0)
        grouped, bounds = _partition(cat, cells, seg, np.where(split, slot, -1), cut_cells[f, cut])
        rows[at[split[seg]]] = grouped
        left_rows[lo:hi], left_pos[lo:hi] = np.diff(bounds)[0::2], pl[node, slot, cut]
    return feature, threshold, left_rows, left_pos


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
    """The Gini trees of one random forest, grown in lockstep.

    Tree t grows on the t-th of ``roots`` (its training rows, repeats
    allowed). Each ``step`` pops one node from every unfinished tree's own
    depth-first stack and splits the popped nodes with ``_split_batch``. A
    node splits only below ``max_depth``, when it is impure and has at least
    ``2 * min_samples_leaf`` rows; only then does its tree's rng draw
    ``max_features`` candidate features, so each tree draws from its own
    stream in the same pre-order as a tree grown alone. The draws of a step
    go through one ``FeatureSampler`` call, and ``deepest_draw[t]`` is the
    deepest depth at which tree t drew (-1 if it never did).

    The roots lie end to end in ``rows``; a node is a ``[start, stop)`` range
    of it. ``stack[t, :height[t]]`` is tree t's stack: each pending node's
    start, stop, positives, depth, and the node whose right child it is (-1
    if none). Every unfinished tree gets one node per step, so a node's id is
    the step that popped it: ids are in depth-first pre-order, a left child
    is its parent + 1, and a tree finished at step s has s + 1 nodes. Node
    fields are kept in (step, tree) arrays; the trees finished at a step are
    cut out of them together and held in ``done`` until taken.
    """

    def __init__(
        self, bins: Bins, y: np.ndarray, roots: Iterable[np.ndarray], rngs: list[np.random.Generator],
        max_depth: int, min_samples_leaf: int, max_features: int,
    ):
        self.y, self.max_depth, self.msl = y, max_depth, min_samples_leaf
        roots = list(roots)  # before the sampler: a generator of roots draws them from the same rngs
        d = bins.codes.shape[1]
        self.sampler = FeatureSampler(rngs, d, min(max_features, d))
        self.bins = stack_bins([bins], [0])
        # each (feature, cut)'s left-sum cell; past a feature's last cut, its last cell: the node's total
        cuts = np.minimum(np.arange(bins.edges.shape[1] - 1), bins.n_bins[:, None] - 1)
        self.cut_cells = self.bins.offset[:, None] + cuts
        self.rows = np.concatenate(roots) if roots else np.zeros(0, dtype=np.int32)
        sizes = np.array([len(r) for r in roots], dtype=np.int64)
        self.stack = np.zeros((len(roots), 16, 5), dtype=np.int64)
        self.stack[:, 0, 0], self.stack[:, 0, 1] = np.cumsum(sizes) - sizes, np.cumsum(sizes)
        self.stack[:, 0, 2], self.stack[:, 0, 4] = [int(y[r].sum()) for r in roots], -1
        self.height = np.ones(len(roots), dtype=np.int64)
        self.deepest_draw = np.full(len(roots), -1)
        self.live = list(range(len(roots)))
        self.done: dict[int, TreeArrays] = {}
        self.n_steps = 0
        # node fields by (step, tree): feature, threshold, value, right child
        self.fields = [np.empty((16, len(roots)), dt) for dt in (np.int32, np.float64, np.float64, np.int32)]

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
                feature[ids], threshold[ids], left_rows, left_pos = _split_batch(
                    self.bins, self.cut_cells, self.y, self.rows, start[ids], k[ids], pos[ids], slots, self.msl)
            split = feature[ids] >= 0
            i, left_rows, left_pos = ids[split], left_rows[split], left_pos[split]
            t, height = trees[i], self.height[trees[i]]
            if height.max(initial=0) + 2 > self.stack.shape[1]:  # out of height: double it
                self.stack = np.concatenate([self.stack, np.empty_like(self.stack)], axis=1)
            mid, below = start[i] + left_rows, depth[i] + 1
            self.stack[t, height] = np.stack([mid, stop[i], pos[i] - left_pos, below, np.full(len(i), j)], axis=1)
            self.stack[t, height + 1] = np.stack([start[i], mid, left_pos, below, np.full(len(i), -1)], axis=1)
            self.height[t] += 2

        if j == len(self.fields[0]):  # out of steps: double the step capacity
            self.fields = [np.concatenate([a, np.empty_like(a)]) for a in self.fields]
        node_feature, node_threshold, node_value, node_right = self.fields
        node_feature[j, trees], node_threshold[j, trees], node_value[j, trees] = feature, threshold, pos / k
        node_right[j, trees] = -1
        is_right = right_of >= 0
        node_right[right_of[is_right], trees[is_right]] = j
        self.n_steps = j = j + 1

        alive = self.height[trees] > 0
        self.live, finished = trees[alive].tolist(), trees[~alive].tolist()
        if finished:
            feature, threshold, value, right = (a[:j, finished].T.copy() for a in self.fields)
            left = np.where(feature >= 0, np.arange(1, j + 1, dtype=np.int32), np.int32(-1))
            for i, t in enumerate(finished):
                self.done[t] = TreeArrays(feature[i], threshold[i], left[i], right[i], value[i])


def grow_classification_tree(forest: LockstepForest, t: int) -> TreeArrays:
    """Tree t of ``forest``, taken out of it: the forest steps until tree t is
    finished. Each step grows every unfinished tree, so taking the trees in
    any order costs the steps of growing the whole forest once."""
    while t not in forest.done and forest.live:
        forest.step()
    return forest.done.pop(t)


def _newton_split(bins: StackedBins, cat, sizes, table, gh, G, H, lam: float):
    """The best second-order split of every node of one batch (Chen &
    Guestrin, KDD 2016): the nodes' rows are ``cat`` in runs of ``sizes``,
    with gradients ``gh[0]`` and hessians ``gh[1]``; node i splits on fit
    ``table[i]``'s cuts, and its rows' sums are ``G[i]`` and ``H[i]``.

    ``_histograms`` gives the gradient and hessian sums left of every cut,
    and only a fit's own cuts are scored. A node takes the first best cut of
    the first best feature whose gain exceeds ``_EPS_GAIN``, and a feature
    with a NaN gain never wins; a cut must leave rows on both sides. Returns
    per node the feature (-1 for a leaf) and the threshold, then the split
    nodes' rows and bounds as ``_partition`` groups them.
    """
    m, d, n_cells = len(sizes), bins.cells.shape[1], bins.n_cells
    node = np.arange(m)
    seg, cells = np.repeat(node, sizes), np.take(bins.cells, cat, axis=0)
    hist = _histograms(bins, cells, seg, m, gh)
    feats, cut_cell = bins.cut_feature[table], bins.cut_cell[table]
    gl, hl = np.take(hist.reshape(2, -1), cut_cell + (node * n_cells)[:, None], axis=1)
    # a cut leaves rows on both sides iff it lies in [min, max) of the node's cells
    starts, at_feature = np.cumsum(sizes) - sizes, feats + (node * d)[:, None]
    lo, hi = (np.take(ufunc.reduceat(cells, starts), at_feature) for ufunc in (np.minimum, np.maximum))
    gr, hr = G[:, None] - gl, H[:, None] - hl
    gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - (G * G / (H + lam))[:, None])
    gain[(cut_cell < lo) | (cut_cell >= hi)] = -np.inf
    nan = np.isnan(gain)
    if nan.any():
        barred = np.zeros((m, d), dtype=bool)
        barred[np.nonzero(nan)[0], feats[nan]] = True
        gain[barred[node[:, None], feats]] = -np.inf
    best = np.argmax(gain, axis=1)
    split = gain[node, best] > _EPS_GAIN
    f = np.where(split, feats[node, best], -1).astype(np.int32)
    threshold = np.where(split, bins.edges[table, f, bins.cut_code[table, best]], 0.0)
    return (f, threshold, *_partition(cat, cells, seg, f, cut_cell[node, best]))


class LockstepRound:
    """One boosting round's regression trees, one per lane, grown together.

    Lane m's rows are rows ``start[m]`` to ``start[m + 1]`` of ``bins.cells``
    and of the flat ``grad``, ``hess`` and ``row_value``; lanes may differ in
    size. Lane m splits on the cuts of fit ``table[m]`` of ``bins``. Every
    level of every lane splits in one ``_newton_split`` call per batch; a
    node's sums and splits depend only on its own rows and fit, so each
    lane's tree is the tree it would be grown alone. Trees are held in
    ``done`` until taken.
    """

    def __init__(
        self, bins: StackedBins, table: np.ndarray, start: np.ndarray, grad: np.ndarray, hess: np.ndarray,
        max_depth: np.ndarray, reg_lambda: float, row_value: np.ndarray,
    ):
        self.bins, self.table, self.start = bins, table, start
        self.grad, self.hess, self.row_value = grad, hess, row_value
        self.max_depth, self.lam = max_depth, reg_lambda
        self.done: Optional[dict[int, TreeArrays]] = None

    def grow(self) -> None:
        """Every lane's tree, level by level; nodes hold -G / (H + lambda), and
        with lambda 0 a node whose hessian sum is 0 raises InvalidHyperparameter.
        A node with at least two rows splits below its lane's ``max_depth``.
        Entry i of ``row_value`` is set to the value of the leaf row i lands in.

        A level is arrays over its nodes, lane by lane: ``cat`` holds their
        rows, node by node in row order, in runs of ``sizes``; the next level
        holds each split node's left child, then its right child."""
        # a node's histogram has at most d * max_bins cells, which bounds a batch
        d, max_bins, lam = self.bins.cells.shape[1], self.bins.edges.shape[-1], self.lam
        gh = np.stack([self.grad, self.hess])
        lane, sizes, cat = np.arange(len(self.start) - 1), np.diff(self.start), np.arange(self.start[-1])
        levels, depth = [], 0  # per level: each node's lane, feature, threshold, value, and whether it split
        with np.errstate(divide="ignore", invalid="ignore"):  # masked cuts are never chosen
            while len(lane):
                # each node's sums over a contiguous run of its rows: the bits of ``grad[rows].sum()``;
                # ``take`` keeps the rows C-contiguous, where ``gh[:, cat]`` would interleave them
                level_gh, ends = np.take(gh, cat, axis=1) if depth else gh, np.cumsum(sizes).tolist()
                G, H = np.array([np.add.reduce(level_gh[:, a:b], axis=1) for a, b in zip([0] + ends, ends)]).T
                denominator = H + lam
                if not denominator.all():
                    raise InvalidHyperparameter(
                        f"XGB: reg_lambda {lam!r} leaves a node whose hessian sum is 0 without a value; "
                        "use a positive reg_lambda"
                    )
                value = -G / denominator
                # every row takes its node's value; a split node's rows take their child's on the next level
                self.row_value[cat] = value.repeat(sizes)
                feature, threshold = np.full(len(lane), -1, dtype=np.int32), np.zeros(len(lane))
                grows = (depth < self.max_depth[lane]) & (sizes >= 2)
                if grows.all():
                    rows, rows_gh = cat, level_gh
                else:
                    keep = grows.repeat(sizes)
                    rows, rows_gh = np.compress(keep, cat), np.compress(keep, level_gh, axis=1)
                grows = np.flatnonzero(grows)
                next_cat, next_sizes = [cat[:0]], [sizes[:0]]
                row_at = [0] + np.cumsum(sizes[grows]).tolist()
                for lo, hi in _batches(sizes[grows].tolist(), d, d * max_bins) if len(grows) else ():
                    batch = grows[lo:hi]
                    feature[batch], threshold[batch], grouped, bounds = _newton_split(
                        self.bins, rows[row_at[lo] : row_at[hi]], sizes[batch], self.table[lane[batch]],
                        rows_gh[:, row_at[lo] : row_at[hi]], G[batch], H[batch], lam)
                    next_cat.append(grouped)
                    next_sizes.append(np.diff(bounds).reshape(-1, 2)[feature[batch] >= 0].ravel())
                split = feature >= 0
                levels.append((lane, feature, threshold, value, split))
                lane, sizes, cat = lane[split].repeat(2), np.concatenate(next_sizes), np.concatenate(next_cat)
                depth += 1
        self.done = _preorder(levels, len(self.start) - 1)


def grow_second_order_tree(lockstep: LockstepRound, m: int) -> TreeArrays:
    """Lane m's tree of the round, taken out of it; the first call grows every
    lane's tree."""
    if lockstep.done is None:
        lockstep.grow()
    return lockstep.done.pop(m)


def _preorder(levels: list[tuple], n_lanes: int) -> dict[int, TreeArrays]:
    """Every lane's tree from its levels, renumbered to depth-first pre-order,
    left first, a level at a time over all lanes: a left child comes right
    after its parent, a right child right after its left sibling's subtree."""
    size = np.zeros(0, dtype=np.int64)
    sizes = []  # per level, each node's subtree size; deepest first
    for *_, split in reversed(levels):
        below = size
        size = np.ones(len(split), dtype=np.int64)
        size[split] += below[0::2] + below[1::2]
        sizes.append(below)
    first = np.concatenate(([0], np.cumsum(size)))  # each lane's first node in the flat arrays
    feature, threshold, value = np.empty(first[-1], dtype=np.int32), np.empty(first[-1]), np.empty(first[-1])
    left, right = np.full(first[-1], -1, dtype=np.int32), np.full(first[-1], -1, dtype=np.int32)
    pre = np.zeros(n_lanes, dtype=np.int64)  # each node's id in its lane's tree
    for (lane, f, thr, v, split), below in zip(levels, reversed(sizes)):
        at = first[lane] + pre
        feature[at], threshold[at], value[at] = f, thr, v
        kids = np.empty((len(below) // 2, 2), dtype=np.int64)
        kids[:, 0] = pre[split] + 1
        kids[:, 1] = kids[:, 0] + below[0::2]
        left[at[split]], right[at[split]] = kids[:, 0], kids[:, 1]
        pre = kids.ravel()
    bounds = first.tolist()
    return {
        m: TreeArrays(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b])
        for m, (a, b) in enumerate(zip(bounds, bounds[1:]))
    }


def ensemble_values(trees: list[TreeArrays], X: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(lo, block)``: ``block[i, j]`` is the value of the leaf that row
    lo + j of X reaches in the i-th tree of the block.

    Consecutive trees with at most ``_BATCH_CELLS`` nodes in all are walked
    together, over row blocks of at most ``_BATCH_CELLS`` (tree, row) pairs.
    Blocks come in tree order: all row blocks of one group of trees, then the
    next group.
    """
    X = np.asarray(X, dtype=np.float64)
    for t0, t1 in _batches([len(t.feature) for t in trees], 1, 0) if trees else ():
        group = trees[t0:t1]
        sizes = [len(t.feature) for t in group]
        start = np.cumsum([0] + sizes[:-1], dtype=np.int32)
        feature = np.concatenate([t.feature for t in group])
        threshold = np.concatenate([t.threshold for t in group])
        left = np.concatenate([t.left + s for t, s in zip(group, start)])
        right = np.concatenate([t.right + s for t, s in zip(group, start)])
        value = np.concatenate([t.value for t in group])
        step = max(1, _BATCH_CELLS // len(group))
        for lo in range(0, len(X), step):
            xb = X[lo : lo + step]
            node = np.repeat(start, len(xb))  # pair i is (tree i // len(xb), row i % len(xb))
            walking = np.flatnonzero(feature[node] >= 0)
            while walking.size:
                nd = node[walking]
                go_left = xb[walking % len(xb), feature[nd]] < threshold[nd]
                node[walking] = np.where(go_left, left[nd], right[nd])
                walking = walking[feature[node[walking]] >= 0]
            yield lo, value[node].reshape(len(group), len(xb))
