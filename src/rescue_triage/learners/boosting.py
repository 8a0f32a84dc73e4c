"""Gradient-boosted trees on logistic loss.

Additive regression trees with second-order leaf weights, shrinkage, a
depth cap and an L2 leaf penalty. The initial margin is the log-odds of the
training prior; the per-round training loss is recorded in the state.

``fit_folds`` fits one share group (specs that differ only in rounds,
learning rate and depth cap) on a chunk of CV folds at once: every (fold,
learning rate, depth cap) is one lane of each round's ``LockstepRound``, so
a round of all its trees splits level by level in a few batches. Each lane's
trees are the trees its spec grows alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import stable_sigmoid
from .tree import (
    LockstepRound, TreeArrays, bin_columns, check_trees, ensemble_values, grow_second_order_tree, stack_bins,
)


@dataclass(frozen=True)
class State:
    trees: tuple[TreeArrays, ...]
    base_margin: float
    learning_rate: float
    train_loss: tuple[float, ...]  # before the first round, then after each


def share_key(params: dict) -> tuple:
    """Specs with equal keys grow together in lockstep lanes."""
    return params["n_bins"], params["reg_lambda"]


def fit_folds(group: list[dict], folds: list[tuple], rngs) -> Iterator[tuple[int, int, State]]:
    """Yield ``(fold, i, state)`` for every fold of (Xs, y) and every params
    dict of one share group, as soon as its rounds are grown. Every (fold,
    ``learning_rate``, ``max_depth``) triple is one lane of each round's
    ``LockstepRound`` and runs to the most rounds asked of its pair; a
    spec's state on a fold is the first ``n_rounds`` trees and ``n_rounds +
    1`` losses of that fold's lane. Each fold bins its own rows, and its
    lanes' rows are its codes, once per lane. Boosting draws no random
    numbers, so ``rngs`` is unused."""
    n_bins, reg_lambda = share_key(group[0])
    pair_of = [(params["learning_rate"], params["max_depth"]) for params in group]
    rounds = {}
    for pair, params in zip(pair_of, group):
        rounds[pair] = max(rounds.get(pair, 0), params["n_rounds"])
    # longest first, so the lanes still growing are a prefix; a fold's lanes of equal rounds stay adjacent
    lanes = sorted(((f, pair) for f in range(len(folds)) for pair in rounds), key=lambda lane: -rounds[lane[1]])
    bases = []
    for _, fold_y in folds:
        prior = float(np.clip(fold_y.mean(), 1e-12, 1.0 - 1e-12))
        bases.append(math.log(prior / (1.0 - prior)))
    table = np.array([f for f, _ in lanes])  # each lane's fold
    stacked = stack_bins([bin_columns(Xs, n_bins) for Xs, _ in folds], table)
    depth = np.array([pair[1] for _, pair in lanes])
    start = np.cumsum([0] + [len(folds[f][1]) for f in table])
    y = np.concatenate([folds[f][1] for f in table])
    lr = np.concatenate([np.full(len(folds[f][1]), pair[0], dtype=np.float64) for f, pair in lanes])
    margin = np.concatenate([np.full(len(folds[f][1]), bases[f]) for f in table])
    leaf_value = np.empty(len(y))  # each training row's leaf in its lane's newest tree
    # runs of adjacent lanes of one fold, whose rows form one (lanes, n) block
    breaks = [m for m in range(1, len(lanes)) if table[m] != table[m - 1]]
    runs = list(zip([0] + breaks, breaks + [len(lanes)]))

    def mean_losses(k: int) -> list[float]:
        """The first k lanes' mean logistic loss, each the bits of ``np.mean``
        of its rows' terms: a row of a 2-D block sums as that row alone."""
        z, labels = margin[: start[k]], y[: start[k]]
        terms = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - labels * z  # log(1 + e^z) - y*z, stably
        out = []
        for lo, hi in runs:
            hi, n = min(hi, k), start[lo + 1] - start[lo]
            if lo < hi:
                out += (terms[start[lo] : start[hi]].reshape(hi - lo, n).sum(axis=1) / n).tolist()
        return out

    trees = [[] for _ in lanes]
    losses = [[loss] for loss in mean_losses(len(lanes))]
    lane_of = {lane: m for m, lane in enumerate(lanes)}
    for r in range(max(rounds.values()) + 1):
        for i, params in enumerate(group):
            if params["n_rounds"] == r:
                for f in range(len(folds)):
                    m = lane_of[f, pair_of[i]]
                    yield f, i, State(tuple(trees[m][:r]), bases[f], pair_of[i][0], tuple(losses[m][: r + 1]))
        k = sum(rounds[pair] > r for _, pair in lanes)
        if k == 0:
            break
        rows = slice(0, start[k])
        p = stable_sigmoid(margin[rows])
        lockstep = LockstepRound(
            stacked, table[:k], start[: k + 1], p - y[rows], p * (1.0 - p), depth[:k], reg_lambda, leaf_value[rows]
        )
        for m in range(k):
            trees[m].append(grow_second_order_tree(lockstep, m))
        margin[rows] += lr[rows] * leaf_value[rows]
        for m, loss in enumerate(mean_losses(k)):
            losses[m].append(loss)


def check(state: State, arity: int) -> None:
    check_trees(state.trees, arity)
    if len(state.train_loss) != len(state.trees) + 1:
        raise ValueError(f"state.train_loss: expected {len(state.trees) + 1} entries, got {len(state.train_loss)}")


def decision_margin(state: State, X: np.ndarray) -> np.ndarray:
    margin = np.full(len(X), state.base_margin)
    for lo, block in ensemble_values(state.trees, X):
        part = margin[lo : lo + block.shape[1]]
        for values in block:  # added in tree order
            part += state.learning_rate * values
    return margin


def score(state: State, X: np.ndarray) -> np.ndarray:
    return stable_sigmoid(decision_margin(state, X))
