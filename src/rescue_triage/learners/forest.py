"""Random forest: bagged Gini trees with sqrt(d) feature subsampling per
split; the score is the fraction of trees voting positive."""

from __future__ import annotations

import math

import numpy as np

from ..records import rng_from
from .tree import LockstepForest, bin_columns, ensemble_values, grow_classification_tree

_TREE_STREAM = 101


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> dict:
    n, d = X.shape
    bins = bin_columns(X, params["n_bins"])
    max_depth = params["max_depth"] if params["max_depth"] is not None else 2**31
    max_features = max(1, int(round(math.sqrt(d))))
    seed = int(rng.integers(0, 2**32))

    # each tree draws its bootstrap rows, then its feature samples, from its own stream
    rngs = [rng_from(seed, _TREE_STREAM, t) for t in range(params["n_trees"])]
    roots = (tree_rng.integers(0, n, n).astype(np.int32) for tree_rng in rngs)
    forest = LockstepForest(bins, y, roots, rngs, max_depth, params["min_samples_leaf"], max_features)
    return {"trees": [grow_classification_tree(forest, t) for t in range(params["n_trees"])]}


def score(state: dict, X: np.ndarray) -> np.ndarray:
    votes = np.zeros(len(X), dtype=np.int64)
    for lo, block in ensemble_values(state["trees"], X):
        votes[lo : lo + block.shape[1]] += (block >= 0.5).sum(axis=0)
    return votes / len(state["trees"])
