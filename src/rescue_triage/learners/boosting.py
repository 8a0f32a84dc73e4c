"""Gradient-boosted trees on logistic loss.

Additive regression trees with second-order leaf weights, shrinkage, a
depth cap and an L2 leaf penalty. The initial margin is the log-odds of the
training prior; the per-round training loss is recorded in the state.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .base import stable_sigmoid
from .tree import Bins, LockstepRound, bin_columns, ensemble_values, grow_second_order_tree


def _logloss(margin: np.ndarray, y: np.ndarray) -> float:
    # log(1 + e^z) - y*z, computed stably
    softplus = np.maximum(margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
    return float(np.mean(softplus - y * margin))


def share_key(params: dict) -> tuple:
    """Specs with equal keys grow together in lockstep lanes."""
    return params["n_bins"], params["reg_lambda"]


def fit_grid(group: list[dict], X: np.ndarray, y: np.ndarray, rngs) -> Iterator[tuple[int, dict]]:
    """Yield ``(i, state)`` for every params dict of one share group as soon
    as its rounds are grown. The group grows in lockstep: each
    (``learning_rate``, ``max_depth``) pair is one lane that runs to the most
    rounds asked of it, and a spec's state is the first ``n_rounds`` trees and
    ``n_rounds + 1`` losses of its lane. Boosting draws no random numbers, so
    ``rngs`` is unused."""
    n = len(y)
    prior = float(np.clip(y.mean(), 1e-12, 1.0 - 1e-12))
    base = math.log(prior / (1.0 - prior))
    n_bins, reg_lambda = share_key(group[0])
    lane_of = [(params["learning_rate"], params["max_depth"]) for params in group]
    rounds = {}
    for lane, params in zip(lane_of, group):
        rounds[lane] = max(rounds.get(lane, 0), params["n_rounds"])
    lanes = sorted(rounds, key=rounds.get, reverse=True)  # the lanes still growing are always a prefix
    lr = np.array([lane[0] for lane in lanes], dtype=np.float64)[:, None]
    bins = bin_columns(X, n_bins)
    codes = np.tile(bins.codes, (len(lanes), 1))  # lane m's rows are rows m * n to (m + 1) * n

    margin = np.full((len(lanes), n), base)
    leaf_value = np.empty((len(lanes), n))  # each training row's leaf in the lane's newest tree
    trees = [[] for _ in lanes]
    losses = [[_logloss(row, y)] for row in margin]
    for r in range(rounds[lanes[0]] + 1):
        for i, params in enumerate(group):
            if params["n_rounds"] == r:
                m = lanes.index(lane_of[i])
                yield i, {
                    "trees": trees[m][:r],
                    "base_margin": base,
                    "learning_rate": params["learning_rate"],
                    "train_loss": losses[m][: r + 1],
                }
        k = sum(rounds[lane] > r for lane in lanes)
        if k == 0:
            break
        p = stable_sigmoid(margin[:k])
        grad = p - y
        hess = p * (1.0 - p)
        lockstep = LockstepRound(
            Bins(codes[: k * n], bins.n_bins, bins.edges), grad.ravel(), hess.ravel(),
            [lane[1] for lane in lanes[:k]], reg_lambda, leaf_value[:k].ravel(),
        )
        for m in range(k):
            trees[m].append(grow_second_order_tree(lockstep, m))
        margin[:k] += lr[:k] * leaf_value[:k]
        for m in range(k):
            losses[m].append(_logloss(margin[m], y))


def decision_margin(state: dict, X: np.ndarray) -> np.ndarray:
    margin = np.full(len(X), state["base_margin"])
    for lo, block in ensemble_values(state["trees"], X):
        part = margin[lo : lo + block.shape[1]]
        for values in block:  # added in tree order
            part += state["learning_rate"] * values
    return margin


def score(state: dict, X: np.ndarray) -> np.ndarray:
    return stable_sigmoid(decision_margin(state, X))
