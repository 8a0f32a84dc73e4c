"""K-nearest neighbors over the standardized training set.

Euclidean distance; ties in distance resolve by training index, so
predictions are reproducible and match an exhaustive scan exactly.
"""

from __future__ import annotations

import numpy as np


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> dict:
    return {"X": X.tolist(), "y": y.tolist(), "k": params["k"]}


def score(state: dict, X: np.ndarray) -> np.ndarray:
    train = np.asarray(state["X"], dtype=np.float64)
    labels = np.asarray(state["y"], dtype=np.float64)
    k = min(state["k"], len(train))
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * X @ train.T
        + np.sum(train * train, axis=1)[None, :]
    )
    # a stable sort keeps equal distances in training order
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return labels[nearest].mean(axis=1)
