"""Multilayer perceptron classifier: one ReLU hidden layer, sigmoid output,
cross-entropy loss, seeded mini-batch gradient descent.

The output layer starts at zero, so an untrained network scores exactly 0.5
and relabelled training mirrors the whole trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .base import check_shape, stable_sigmoid


@dataclass(frozen=True)
class State:
    W1: NDArray[np.float64]  # (d, hidden)
    b1: NDArray[np.float64]
    w2: NDArray[np.float64]
    b2: float


def init_params(d: int, hidden: int, rng: np.random.Generator) -> dict:
    return {
        "W1": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, hidden)),
        "b1": np.zeros(hidden),
        "w2": np.zeros(hidden),
        "b2": 0.0,
    }


def _views(flat: np.ndarray, d: int, hidden: int) -> tuple[np.ndarray, ...]:
    """(W1, b1, w2, b2) as views of one flat vector; b2 has length 1."""
    a, b = d * hidden, d * hidden + hidden
    return flat[:a].reshape(d, hidden), flat[a:b], flat[b : b + hidden], flat[-1:]


def _backprop(net: tuple, X: np.ndarray, y: np.ndarray, grads: tuple) -> np.ndarray:
    """Output scores of X; the analytic gradients of the mean cross-entropy
    are written into ``grads``, views laid out as ``_views`` gives them."""
    W1, b1, w2, b2 = net
    gW1, gb1, gw2, gb2 = grads
    pre = X @ W1 + b1
    act = np.maximum(pre, 0.0)
    p = stable_sigmoid(act @ w2 + b2)

    dz = (p - y) / len(X)
    np.matmul(act.T, dz, out=gw2)
    np.sum(dz, keepdims=True, out=gb2)
    dpre = dz[:, None] * w2
    dpre *= pre > 0.0
    np.matmul(X.T, dpre, out=gW1)
    np.sum(dpre, axis=0, out=gb1)
    return p


def loss_and_grads(params: dict, X: np.ndarray, y: np.ndarray) -> tuple[float, dict]:
    """Mean cross-entropy and its analytic gradients (for the
    finite-difference gradient check; training needs only the gradients)."""
    d, hidden = np.shape(params["W1"])
    gW1, gb1, gw2, gb2 = grads = _views(np.empty(d * hidden + 2 * hidden + 1), d, hidden)
    p = _backprop((params["W1"], params["b1"], params["w2"], params["b2"]), X, y, grads)
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)))
    return loss, {"W1": gW1, "b1": gb1, "w2": gw2, "b2": float(gb2[0])}


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> State:
    """Mini-batch descent: each epoch gathers the rows once in a fresh random
    order and steps over consecutive slices; all parameters live in one flat
    ``theta`` and take one update per step."""
    n, d = X.shape
    lr = params["learning_rate"]
    batch_size = params["batch_size"]
    hidden = params["hidden"]
    init = init_params(d, hidden, rng)
    theta = np.concatenate([init["W1"].ravel(), init["b1"], init["w2"], [init["b2"]]])
    g = np.empty_like(theta)
    net, grads = _views(theta, d, hidden), _views(g, d, hidden)
    for _ in range(params["epochs"]):
        perm = rng.permutation(n)
        Xp, yp = X[perm], y[perm]
        for start in range(0, n, batch_size):
            _backprop(net, Xp[start : start + batch_size], yp[start : start + batch_size], grads)
            theta -= lr * g
    W1, b1, w2, b2 = net
    return State(W1=W1, b1=b1, w2=w2, b2=float(b2[0]))


def check(state: State, arity: int) -> None:
    check_shape("state.W1", state.W1, (arity, None))
    hidden = state.W1.shape[1]
    check_shape("state.b1", state.b1, (hidden,))
    check_shape("state.w2", state.w2, (hidden,))


def score(state: State, X: np.ndarray) -> np.ndarray:
    act = np.maximum(X @ state.W1 + state.b1, 0.0)
    return stable_sigmoid(act @ state.w2 + state.b2)
