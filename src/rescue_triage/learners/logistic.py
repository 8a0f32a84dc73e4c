"""Logistic regression trained by full-batch gradient descent.

L2 applies to the weights, not the intercept. Weights start at zero, which
makes label swaps mirror the whole trajectory. Stops on the gradient
infinity norm or the epoch cap.
"""

from __future__ import annotations

import numpy as np

from .base import stable_sigmoid


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> dict:
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
    return {"w": w.tolist(), "b": b, "epochs_run": epochs_run}


def score(state: dict, X: np.ndarray) -> np.ndarray:
    w = np.asarray(state["w"])
    return stable_sigmoid(X @ w + state["b"])
