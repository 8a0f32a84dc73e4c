"""Logistic regression trained by full-batch gradient descent.

L2 applies to the weights, not the intercept. Weights start at zero, which
makes label swaps mirror the whole trajectory. Stops on the gradient
infinity norm or the epoch cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .base import check_shape, stable_sigmoid


@dataclass(frozen=True)
class State:
    w: NDArray[np.float64]
    b: float
    epochs_run: int


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> State:
    lam = params["l2"]
    lr = params["learning_rate"]
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    epochs_run = 0
    for epoch in range(params["max_epochs"]):
        p = stable_sigmoid(X @ w + b)
        err = (p - y) / n
        gw = X.T @ err + lam * w
        gb = float(err.sum())
        epochs_run = epoch + 1
        if max(np.abs(gw).max(initial=0.0), abs(gb)) <= params["tol"]:
            break
        w -= lr * gw
        b -= lr * gb
    return State(w=w, b=b, epochs_run=epochs_run)


def check(state: State, arity: int) -> None:
    check_shape("state.w", state.w, (arity,))


def score(state: State, X: np.ndarray) -> np.ndarray:
    return stable_sigmoid(X @ state.w + state.b)
