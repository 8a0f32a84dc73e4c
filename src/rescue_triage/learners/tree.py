"""Histogram-based decision trees, grown and scored in batches.

Continuous features are quantized once per fit into at most ``n_bins``
ordered bins, so split search reduces to bin-count cumsums. Stored
thresholds are in original feature units; a sample goes left when
value < threshold, which for a training row is the same as code <= cut.

Split search runs no Python loop per node or feature: each grower splits
nodes whose splits do not depend on each other in batches, the random
forest's by Gini (``forest.LockstepForest``) and boosting's by gradient and
hessian (``_newton_split``). Both count per-feature bins as in LightGBM (Ke
et al., NeurIPS 2017) with one ``bincount`` and sum them left of each cut
with cumsums. Boosting's nodes count every feature through ``_histograms``
(``StackedBins``: each feature has its own run of cells); a forest node
counts only its sampled features. A node takes the first best cut of the
first best feature whose gain exceeds ``_EPS_GAIN``, and one stable sort of
a 16-bit key, ``_partition``, puts each split node's left rows, then its
right rows. A batch holds at most ``_BATCH_CELLS`` (2^16) gathered and
histogram cells, about 0.5 MB per int64 array.

``LockstepRound`` (boosting) holds one round's trees of several boosting
lanes, one lane per (CV fold, learning rate, depth cap) of a grid fit. Each
lane's rows sit at its own offset of one flat stack, so lanes may differ in
size, and each splits on its own fold's bins (``StackedBins``); every level
of every lane splits in one batch. Boosting draws no random numbers, so
each tree grows one level at a time over every feature, and a level is kept
as arrays over its nodes. Nodes hold -G / (H + lambda); node sums G and H
are ``ndarray.sum`` over the node's rows in row order. ``_preorder``
renumbers every lane's tree to depth-first pre-order at once, a level at a
time. ``grow_second_order_tree`` grows every lane's tree on its first call
of a round and returns one lane's tree per call.

In both growers a node's sums and split depend only on its own rows and
fit, so which trees share a batch changes no tree.

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
    """The bins of several fits whose lanes grow together (``LockstepRound``).

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


def _batches(sizes, per_row: int, per_node: int, cap: Optional[int] = None):
    """[lo, hi) ranges of items, each counting size * per_row + per_node
    cells, that stay within ``cap`` cells (``_BATCH_CELLS`` if None); a
    larger item goes alone."""
    cap = _BATCH_CELLS if cap is None else cap
    ends = np.cumsum(np.asarray(sizes, dtype=np.int64) * per_row + per_node)  # cells up to each item's end
    lo = 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + cap, side="right")))
        yield lo, hi
        lo = hi


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


def _partition(cat: np.ndarray, cells: np.ndarray, sizes: np.ndarray, column: np.ndarray, cut_cell: np.ndarray):
    """The rows ``cat`` of a batch's nodes, node i's in a run of ``sizes[i]``,
    with the split nodes' rows grouped by one stable sort: each node's left
    rows (cell ``cells[r, column[i]]`` at most its ``cut_cell[i]``), then its
    right rows, each keeping their order; and the 2 * nodes + 1 bounds of
    those runs. A node of column -1 does not split."""
    m, width = len(column), cells.shape[1]
    row_column = np.repeat(column, sizes)
    chosen = np.take(cells, np.arange(0, cells.size, width) + row_column)  # each row's cell in its node's column
    # 2 * node, + 1 if right; the rows of a node that does not split go last. Every node costs at
    # least 3 of a batch's ``_BATCH_CELLS`` (2 rows, 1 column, 1 cell), so m <= 2^16 // 3 = 21,845 and
    # the key fits 16 bits, where numpy's stable argsort is a radix sort
    side = (chosen > np.repeat(cut_cell, sizes)).astype(np.uint16)
    side += np.repeat(np.arange(0, 2 * m, 2, dtype=np.uint16), sizes)
    side[row_column < 0] = 2 * m
    order = np.argsort(side, kind="stable")
    bounds = np.zeros(2 * m + 1, dtype=np.int64)
    np.cumsum(np.bincount(side, minlength=2 * m + 1)[: 2 * m], out=bounds[1:])
    return np.take(cat, order[: bounds[-1]]), bounds


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
    return (f, threshold, *_partition(cat, cells, sizes, f, cut_cell[node, best]))


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
                for lo, hi in _batches(sizes[grows], d, d * max_bins):
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
    for t0, t1 in _batches([len(t.feature) for t in trees], 1, 0):
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
