"""Multilayer perceptron classifier: one ReLU hidden layer, sigmoid output,
cross-entropy loss, seeded mini-batch gradient descent.

The output layer starts at zero, so an untrained network scores exactly 0.5
and relabelled training mirrors the whole trajectory.
"""

from __future__ import annotations

import numpy as np

from .base import stable_sigmoid


def init_params(d: int, hidden: int, rng: np.random.Generator) -> dict:
    return {
        "W1": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hidden)),
        "b1": np.zeros(hidden),
        "w2": np.zeros(hidden),
        "b2": 0.0,
    }


def _scores_and_grads(params: dict, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict]:
    """Output scores and the analytic gradients of the mean cross-entropy."""
    W1, b1, w2, b2 = params["W1"], params["b1"], params["w2"], params["b2"]
    n = len(X)
    pre = X @ W1 + b1
    act = np.maximum(pre, 0.0)
    z = act @ w2 + b2
    p = stable_sigmoid(z)

    dz = (p - y) / n
    dw2 = act.T @ dz
    db2 = float(dz.sum())
    dact = np.outer(dz, w2)
    dpre = dact * (pre > 0.0)
    dW1 = X.T @ dpre
    db1 = dpre.sum(axis=0)
    return p, {"W1": dW1, "b1": db1, "w2": dw2, "b2": db2}


def loss_and_grads(params: dict, X: np.ndarray, y: np.ndarray) -> tuple[float, dict]:
    """Mean cross-entropy and its analytic gradients (for the
    finite-difference gradient check; training needs only the gradients)."""
    p, grads = _scores_and_grads(params, X, y)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)))
    return loss, grads


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> dict:
    n, d = X.shape
    lr = params["learning_rate"]
    batch_size = params["batch_size"]
    net = init_params(d, params["hidden"], rng)
    for _ in range(params["epochs"]):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = perm[start : start + batch_size]
            _, grads = _scores_and_grads(net, X[batch], y[batch])
            net["W1"] = net["W1"] - lr * grads["W1"]
            net["b1"] = net["b1"] - lr * grads["b1"]
            net["w2"] = net["w2"] - lr * grads["w2"]
            net["b2"] = net["b2"] - lr * grads["b2"]
    return net


def score(state: dict, X: np.ndarray) -> np.ndarray:
    act = np.maximum(X @ np.asarray(state["W1"]) + np.asarray(state["b1"]), 0.0)
    return stable_sigmoid(act @ np.asarray(state["w2"]) + state["b2"])
