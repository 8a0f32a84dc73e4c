"""Gradient-boosted trees on logistic loss.

Additive regression trees with second-order leaf weights, shrinkage, a
depth cap and an L2 leaf penalty. The initial margin is the log-odds of the
training prior; the per-round training loss is recorded in the state.
"""

from __future__ import annotations

import math

import numpy as np

from .base import stable_sigmoid
from .tree import bin_columns, ensemble_values, grow_second_order_tree


def _logloss(margin: np.ndarray, y: np.ndarray) -> float:
    # log(1 + e^z) - y*z, computed stably
    softplus = np.maximum(margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
    return float(np.mean(softplus - y * margin))


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> dict:
    lr = params["learning_rate"]
    bins = bin_columns(X, params["n_bins"])
    prior = float(np.clip(y.mean(), 1e-12, 1.0 - 1e-12))
    base = math.log(prior / (1.0 - prior))

    margin = np.full(len(y), base)
    leaf_value = np.empty(len(y))  # each training row's leaf in the newest tree
    trees = []
    losses = [_logloss(margin, y)]
    for _ in range(params["n_rounds"]):
        p = stable_sigmoid(margin)
        grad = p - y
        hess = p * (1.0 - p)
        tree = grow_second_order_tree(
            bins, grad, hess,
            max_depth=params["max_depth"],
            reg_lambda=params["reg_lambda"],
            row_value=leaf_value,
        )
        trees.append(tree)
        margin = margin + lr * leaf_value
        losses.append(_logloss(margin, y))
    return {
        "trees": trees,
        "base_margin": base,
        "learning_rate": lr,
        "train_loss": losses,
    }


def decision_margin(state: dict, X: np.ndarray) -> np.ndarray:
    margin = np.full(len(X), state["base_margin"])
    for lo, block in ensemble_values(state["trees"], X):
        part = margin[lo : lo + block.shape[1]]
        for values in block:  # added in tree order
            part += state["learning_rate"] * values
    return margin


def score(state: dict, X: np.ndarray) -> np.ndarray:
    return stable_sigmoid(decision_margin(state, X))
