"""Random forest: bagged Gini trees with sqrt(d) feature subsampling per
split; the score is the fraction of trees voting positive.

Tree t of a forest grows from its own stream ``rng_from(seed, 101, t)``, so a
share group's fit on one fold shares trees between specs: a smaller
``n_trees`` takes a prefix of a larger forest, and a depth cap c takes the
tree grown under a looser cap when that tree drew no feature sample at depth
c or deeper. Its nodes there are leaves under either cap, and above them it
drew the same samples. ``fit_folds`` makes that fit for each fold in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..records import rng_from
from .tree import Bins, LockstepForest, TreeArrays, bin_columns, check_trees, ensemble_values, grow_classification_tree

_TREE_STREAM = 101
_NO_CAP = 2**31


@dataclass(frozen=True)
class State:
    trees: tuple[TreeArrays, ...]


def share_key(params: dict) -> tuple:
    """Specs of one seed with equal keys differ only in ``n_trees`` and ``max_depth``."""
    return params["min_samples_leaf"], params["n_bins"]


def fit_folds(group: list[dict], folds: list[tuple], rngs) -> Iterator[tuple[int, int, State]]:
    """Yield ``(fold, i, state)`` for every fold of (Xs, y) and every params
    dict of one share group, a fold at a time; on a fold, the specs draw one
    forest seed from its rng. The loosest depth cap's forest grows to the
    largest ``n_trees``; each other cap c keeps its trees but regrows, from
    the tree's own stream, each one that drew a sample at depth c or deeper."""
    min_samples_leaf, n_bins = share_key(group[0])
    need: dict[int, int] = {}  # trees each depth cap needs
    for p in group:
        cap = _cap(p["max_depth"])
        need[cap] = max(need.get(cap, 0), p["n_trees"])
    loosest = max(need)
    for f, ((X, y), rng) in enumerate(zip(folds, rngs)):
        seed, bins = int(rng.integers(0, 2**32)), bin_columns(X, n_bins)
        max_features = max(1, int(round(math.sqrt(X.shape[1]))))
        trees, deepest_draw = _grow(bins, y, seed, range(max(need.values())), loosest, min_samples_leaf, max_features)
        forests = {loosest: trees}
        for cap, n_trees in need.items():
            if cap != loosest:
                redo = [t for t in range(n_trees) if deepest_draw[t] >= cap]
                regrown = dict(zip(redo, _grow(bins, y, seed, redo, cap, min_samples_leaf, max_features)[0]))
                forests[cap] = [regrown.get(t, trees[t]) for t in range(n_trees)]
        for i, p in enumerate(group):
            yield f, i, State(tuple(forests[_cap(p["max_depth"])][: p["n_trees"]]))


def _cap(max_depth: Optional[int]) -> int:
    return _NO_CAP if max_depth is None else max_depth


def _grow(
    bins: Bins, y: np.ndarray, seed: int, tree_ids, max_depth: int, min_samples_leaf: int, max_features: int
) -> tuple[list[TreeArrays], np.ndarray]:
    """The listed trees of one forest, and the deepest depth at which each drew
    a feature sample. The forest and its streams are garbage once this
    returns, so they are not held while the trees are scored."""
    n = len(y)
    # each tree draws its bootstrap rows, then its feature samples, from its own stream
    rngs = [rng_from(seed, _TREE_STREAM, t) for t in tree_ids]
    roots = (tree_rng.integers(0, n, n).astype(np.int32) for tree_rng in rngs)
    forest = LockstepForest(bins, y, roots, rngs, max_depth, min_samples_leaf, max_features)
    return [grow_classification_tree(forest, t) for t in range(len(rngs))], forest.deepest_draw


def check(state: State, arity: int) -> None:
    if not state.trees:
        raise ValueError("state.trees: a forest needs at least one tree")
    check_trees(state.trees, arity)


def score(state: State, X: np.ndarray) -> np.ndarray:
    votes = np.zeros(len(X), dtype=np.int64)
    for lo, block in ensemble_values(state.trees, X):
        votes[lo : lo + block.shape[1]] += (block >= 0.5).sum(axis=0)
    return votes / len(state.trees)
