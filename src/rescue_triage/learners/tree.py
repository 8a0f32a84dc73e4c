"""Histogram-based decision trees: one depth-first grower, two split criteria.

Continuous features are quantized once per fit into at most ``n_bins``
ordered bins; split search then reduces to bin-count cumsums, which keeps
desk-scale forests fast without native code. Stored thresholds are in
original feature units; a sample goes left when value < threshold.

``_grow`` owns everything the two tree kinds share: the node stack and the
DFS pre-order node ids, parent/child links, the depth cap, the per-feature
scan for the best gain, the partition and the flat ``TreeArrays``. A
criterion supplies the rest:

* ``_Gini`` (random forest): class counts, the positive-class fraction as
  leaf value, a ``min_samples_leaf`` floor, and Gini gain over a fresh
  sample of ``max_features`` features at each node that may split;
* ``_SecondOrder`` (boosting): gradient/hessian sums, the leaf weight
  -G / (H + lambda), and the second-order gain over every feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TreeArrays:
    """Flat tree: internal nodes carry feature/threshold, leaves carry value."""

    feature: np.ndarray   # int32, -1 for leaves
    threshold: np.ndarray  # float64, split point in original units
    left: np.ndarray      # int32 child ids
    right: np.ndarray
    value: np.ndarray     # float64 leaf payload (class fraction or leaf weight)

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] < self.threshold[nd]
            node[idx[go_left]] = self.left[nd[go_left]]
            node[idx[~go_left]] = self.right[nd[~go_left]]
            active = self.feature[node] >= 0
        return self.value[node]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeArrays":
        return cls(
            feature=np.asarray(d["feature"], dtype=np.int32),
            threshold=np.asarray(d["threshold"], dtype=np.float64),
            left=np.asarray(d["left"], dtype=np.int32),
            right=np.asarray(d["right"], dtype=np.int32),
            value=np.asarray(d["value"], dtype=np.float64),
        )


def bin_columns(X: np.ndarray, n_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Quantize every column into ordered integer codes.

    Returns (codes, edges) where ``codes[i, j] <= c`` is equivalent to
    ``X[i, j] < edges[j][c]``. Columns with few distinct values keep exact
    midpoint edges, so binning loses nothing for binary or small-integer
    features.
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
    return codes, edges


_EPS_GAIN = 1e-12


class _Gini:
    """Gini impurity split criterion with a leaf-size floor."""

    def __init__(self, y, min_samples_leaf, max_features, rng):
        self.y, self.min_samples_leaf, self.max_features, self.rng = y, min_samples_leaf, max_features, rng

    def node(self, idx):
        yi = self.y[idx]
        k, pos = len(idx), int(yi.sum())
        return k, yi, pos, 1.0 - (pos / k) ** 2 - ((k - pos) / k) ** 2

    def value(self, node) -> float:
        k, _, pos, _ = node
        return pos / k

    def split_features(self, node, d: int):
        """Features to scan; none when the node is pure or too small."""
        k, _, pos, _ = node
        if k < 2 * self.min_samples_leaf or pos == 0 or pos == k:
            return ()
        return self.rng.choice(d, size=min(self.max_features, d), replace=False)

    def gain(self, node, c: np.ndarray, nb: int):
        """(best gain, its bin) over the cuts of one feature's codes ``c``."""
        k, yi, pos, parent_gini = node
        # negative and positive counts per bin in one pass
        both = np.bincount(c + nb * yi, minlength=2 * nb)
        nl = np.cumsum(both[:nb] + both[nb:])[:-1]
        pl = np.cumsum(both[nb:])[:-1]
        nr = k - nl
        pr = pos - pl
        gl = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gr = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        cost = (nl * gl + nr * gr) / k
        cost[(nl < self.min_samples_leaf) | (nr < self.min_samples_leaf)] = np.inf
        ci = int(np.argmin(cost))
        return parent_gini - cost[ci], ci


class _SecondOrder:
    """Second-order (Newton) regression criterion with an L2 leaf penalty."""

    def __init__(self, grad, hess, reg_lambda):
        self.grad, self.hess, self.reg_lambda = grad, hess, reg_lambda

    def node(self, idx):
        gi, hi = self.grad[idx], self.hess[idx]
        G, H = float(gi.sum()), float(hi.sum())
        return len(idx), gi, hi, G, H, G * G / (H + self.reg_lambda)

    def value(self, node) -> float:
        _, _, _, G, H, _ = node
        return -G / (H + self.reg_lambda)

    def split_features(self, node, d: int):
        return range(d) if node[0] >= 2 else ()

    def gain(self, node, c: np.ndarray, nb: int):
        k, gi, hi, G, H, parent_term = node
        lam = self.reg_lambda
        gl = np.cumsum(np.bincount(c, weights=gi, minlength=nb))[:-1]
        hl = np.cumsum(np.bincount(c, weights=hi, minlength=nb))[:-1]
        nl = np.cumsum(np.bincount(c, minlength=nb))[:-1]
        gr = G - gl
        hr = H - hl
        gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_term)
        gain[(nl < 1) | (nl > k - 1)] = -np.inf
        ci = int(np.argmax(gain))
        return gain[ci], ci


def _grow(codes: np.ndarray, edges: list[np.ndarray], max_depth: int, crit) -> TreeArrays:
    """Greedy depth-first tree; node ids are in DFS pre-order, left first.

    ``crit`` supplies ``node(idx)`` (the node's statistics), ``value(node)``,
    ``split_features(node, d)`` and ``gain(node, codes, n_bins)`` -> (gain,
    bin). A node becomes a leaf at max depth, when the criterion offers no
    features to scan, or when no cut gains more than ``_EPS_GAIN``.
    """
    n, d = codes.shape
    n_bins = [len(e) + 1 for e in edges]
    rows: list[list] = []  # per node: feature, threshold, left, right, value
    stack: list[tuple[np.ndarray, int, int, bool]] = [(np.arange(n), 0, -1, False)]
    # masked cuts may divide by zero; they are never chosen
    with np.errstate(divide="ignore", invalid="ignore"):
        while stack:
            idx, depth, parent, is_right = stack.pop()
            node_id = len(rows)
            if parent >= 0:
                rows[parent][3 if is_right else 2] = node_id
            node = crit.node(idx)
            rows.append([-1, 0.0, -1, -1, crit.value(node)])
            if depth >= max_depth:
                continue

            best_gain, best_f, best_code = _EPS_GAIN, -1, -1
            for f in crit.split_features(node, d):
                if n_bins[f] < 2:
                    continue
                gain, code = crit.gain(node, codes[idx, f], n_bins[f])
                if gain > best_gain:
                    best_gain, best_f, best_code = gain, int(f), code
            if best_f < 0:
                continue

            rows[node_id][:2] = best_f, float(edges[best_f][best_code])
            mask = codes[idx, best_f] <= best_code
            # push left last so it is grown first (ids in DFS pre-order)
            stack.append((idx[~mask], depth + 1, node_id, True))
            stack.append((idx[mask], depth + 1, node_id, False))

    feature, threshold, left, right, value = zip(*rows)
    i32, f64 = np.int32, np.float64
    return TreeArrays(np.asarray(feature, i32), np.asarray(threshold, f64),
                      np.asarray(left, i32), np.asarray(right, i32), np.asarray(value, f64))


def grow_classification_tree(
    codes: np.ndarray, y: np.ndarray, edges: list[np.ndarray], max_depth: int,
    min_samples_leaf: int, max_features: int, rng: np.random.Generator,
) -> TreeArrays:
    """Gini tree with per-node feature subsampling; leaves hold the
    positive-class fraction."""
    return _grow(codes, edges, max_depth, _Gini(y, min_samples_leaf, max_features, rng))


def grow_second_order_tree(
    codes: np.ndarray, grad: np.ndarray, hess: np.ndarray, edges: list[np.ndarray],
    max_depth: int, reg_lambda: float,
) -> TreeArrays:
    """Regression tree on gradient/hessian sums; leaves hold -G / (H + lambda)."""
    return _grow(codes, edges, max_depth, _SecondOrder(grad, hess, reg_lambda))
