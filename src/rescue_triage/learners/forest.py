"""Random forest: bagged Gini trees with sqrt(d) feature subsampling per
split; the score is the fraction of trees voting positive."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..records import rng_from
from .tree import LockstepForest, bin_columns, ensemble_values, grow_classification_tree

_TREE_STREAM = 101


def share_key(params: dict) -> tuple:
    """Specs of one seed with equal keys differ only in ``n_trees``."""
    return params["max_depth"], params["min_samples_leaf"], params["n_bins"]


def fit_grid(group: list[dict], X: np.ndarray, y: np.ndarray, rngs) -> Iterator[tuple[int, dict]]:
    """Yield ``(i, state)`` for every params dict of one share group. Its specs
    draw the same forest seed and share one forest, grown to the largest
    ``n_trees``; a smaller one is its first ``n_trees`` trees."""
    trees = _grow(X, y, *share_key(group[0]), int(rngs[0].integers(0, 2**32)), max(p["n_trees"] for p in group))
    for i, params in enumerate(group):
        yield i, {"trees": trees[: params["n_trees"]]}


def _grow(X: np.ndarray, y: np.ndarray, max_depth, min_samples_leaf: int, n_bins: int, seed: int, n_trees: int):
    """The trees of one forest. The forest and its streams are garbage once
    this returns, so they are not held while the trees are scored."""
    n, d = X.shape
    # each tree draws its bootstrap rows, then its feature samples, from its own stream
    rngs = [rng_from(seed, _TREE_STREAM, t) for t in range(n_trees)]
    roots = (tree_rng.integers(0, n, n).astype(np.int32) for tree_rng in rngs)
    forest = LockstepForest(
        bin_columns(X, n_bins), y, roots, rngs, 2**31 if max_depth is None else max_depth, min_samples_leaf,
        max(1, int(round(math.sqrt(d)))),
    )
    return [grow_classification_tree(forest, t) for t in range(n_trees)]


def score(state: dict, X: np.ndarray) -> np.ndarray:
    votes = np.zeros(len(X), dtype=np.int64)
    for lo, block in ensemble_values(state["trees"], X):
        votes[lo : lo + block.shape[1]] += (block >= 0.5).sum(axis=0)
    return votes / len(state["trees"])
