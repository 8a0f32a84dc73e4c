"""Multilayer perceptron classifier: one ReLU hidden layer, sigmoid output,
cross-entropy loss, seeded mini-batch gradient descent.

The output layer starts at zero, so an untrained network scores exactly 0.5
and relabelled training mirrors the whole trajectory.

``fit_folds`` is the one training loop. It takes one share group (specs
that differ only in ``learning_rate``) and a chunk of CV folds, and trains
every (fold, learning rate) pair as a lane of one flat ``theta``. Each step
is one ``_backprop`` over a block of lanes: its products are the same BLAS
calls on the same operands as each lane's alone, so a lane's state does not
depend on the lanes it trained with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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


def _initial_theta(d: int, hidden: int, rng: np.random.Generator) -> np.ndarray:
    """``init_params`` as one flat vector, laid out as ``_views`` reads it."""
    init = init_params(d, hidden, rng)
    return np.concatenate([init["W1"].ravel(), init["b1"], init["w2"], [init["b2"]]])


def share_key(params: dict) -> tuple:
    """Specs of one seed with equal keys start from the same ``W1`` and see the
    same batches on the same rows: they differ only in ``learning_rate``."""
    return params["hidden"], params["epochs"], params["batch_size"]


def _views(flat: np.ndarray, d: int, hidden: int) -> tuple[np.ndarray, ...]:
    """(W1, b1, w2, b2) as views of the last axis of ``flat``, one parameter
    vector per leading index, shaped to broadcast over a batch: (..., d,
    hidden), (..., 1, hidden), (..., hidden, 1) and (..., 1, 1)."""
    a, b = d * hidden, d * hidden + hidden
    lead = flat.shape[:-1]
    return (
        flat[..., :a].reshape(*lead, d, hidden),
        flat[..., a:b].reshape(*lead, 1, hidden),
        flat[..., b : b + hidden].reshape(*lead, hidden, 1),
        flat[..., -1:].reshape(*lead, 1, 1),
    )


def _backprop(net: tuple, X: np.ndarray, y: np.ndarray, grads: tuple) -> np.ndarray:
    """Output scores (..., B, 1) of the batch X (..., B, d) with labels y
    (..., B, 1); the analytic gradients of each lane's mean cross-entropy
    are written into ``grads``. ``net`` and ``grads`` are ``_views``, with
    any leading lane axes, which X and y broadcast over."""
    W1, b1, w2, b2 = net
    gW1, gb1, gw2, gb2 = grads
    pre = X @ W1
    pre += b1
    act = np.maximum(pre, 0.0)
    z = act @ w2
    z += b2
    p = stable_sigmoid(z)

    dz = p - y
    dz /= X.shape[-2]
    np.matmul(act.swapaxes(-1, -2), dz, out=gw2)
    np.add.reduce(dz, axis=-2, keepdims=True, out=gb2)
    dpre = dz * w2.swapaxes(-1, -2)
    dpre *= pre > 0.0
    np.matmul(X.swapaxes(-1, -2), dpre, out=gW1)
    np.add.reduce(dpre, axis=-2, keepdims=True, out=gb1)
    return p


def loss_and_grads(params: dict, X: np.ndarray, y: np.ndarray) -> tuple[float, dict]:
    """Mean cross-entropy and its analytic gradients (for the
    finite-difference gradient check; training needs only the gradients)."""
    d, hidden = np.shape(params["W1"])
    net = params["W1"], np.reshape(params["b1"], (1, hidden)), np.reshape(params["w2"], (hidden, 1)), params["b2"]
    gW1, gb1, gw2, gb2 = grads = _views(np.empty(d * hidden + 2 * hidden + 1), d, hidden)
    p = _backprop(net, X, np.asarray(y, dtype=np.float64)[:, None], grads)[:, 0]
    eps = 1e-12
    loss = float(-np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)))
    return loss, {"W1": gW1, "b1": gb1[0], "w2": gw2[:, 0], "b2": float(gb2[0, 0])}


def fit_folds(group: list[dict], folds: list[tuple], rngs) -> Iterator[tuple[int, int, State]]:
    """Yield ``(fold, i, state)`` for every fold of (Xs, y) and every params
    dict of one share group, trained as (fold, learning rate) lanes by
    mini-batch descent. Each fold draws its ``W1``, then one row order per
    epoch, from ``rngs[fold]``; its learning-rate lanes share those draws.

    Every step of an epoch is one ``_backprop`` on one block of lanes, built
    as views once: a block per full batch, of the folds that still have one
    there (folds with more full batches come first, so those are a prefix),
    then each fold's ragged last batch as a block of all its rate lanes.
    Padding that batch would change its sums, so it is not padded. A lone
    lane steps on 2-D operands, with no lane axes."""
    hidden, epochs, batch_size = share_key(group[0])
    d = folds[0][0].shape[1]
    order = sorted(range(len(folds)), key=lambda f: -(len(folds[f][1]) // batch_size))
    sizes = [len(folds[f][1]) for f in order]
    theta = np.empty((len(folds), len(group), d * hidden + 2 * hidden + 1))
    for i, f in enumerate(order):
        theta[i] = _initial_theta(d, hidden, rngs[f])
    g = np.empty_like(theta)
    Xb = np.empty((len(folds), 1, max(sizes), d))  # each fold's rows in this epoch's order
    yb = np.empty((len(folds), 1, max(sizes), 1))
    rates = np.array([params["learning_rate"] for params in group], dtype=np.float64)
    lr = np.broadcast_to(rates[:, None], (len(folds), len(group), 1))
    # each step's lanes, as an index into the (fold, rate) axes, and its rows
    blocks = [
        (slice(sum(n >= (s + 1) * batch_size for n in sizes)), slice(s * batch_size, (s + 1) * batch_size))
        for s in range(sizes[0] // batch_size)
    ]
    blocks += [(i, slice(n - n % batch_size, n)) for i, n in enumerate(sizes) if n % batch_size]
    if len(folds) == len(group) == 1:  # a lone lane: no lane axes
        blocks = [((0, 0), rows) for _, rows in blocks]
    steps = [
        (_views(theta[at], d, hidden), Xb[at][..., rows, :], yb[at][..., rows, :], _views(g[at], d, hidden),
         theta[at], lr[at], g[at])
        for at, rows in blocks
    ]
    ys = [np.asarray(folds[f][1], dtype=np.float64) for f in order]
    for _ in range(epochs):
        for i, f in enumerate(order):
            perm = rngs[f].permutation(sizes[i])
            np.take(folds[f][0], perm, axis=0, out=Xb[i, 0, : sizes[i]])
            np.take(ys[i], perm, out=yb[i, 0, : sizes[i], 0])
        for net, X, y, grads, lane_theta, rate, lane_g in steps:
            _backprop(net, X, y, grads)
            lane_theta -= np.multiply(lane_g, rate, out=lane_g)  # the gradient is spent: scaled in place
    for i, f in enumerate(order):
        for r in range(len(group)):
            W1, b1, w2, b2 = _views(theta[i, r].copy(), d, hidden)
            yield f, r, State(W1=W1, b1=b1[0], w2=w2[:, 0], b2=float(b2[0, 0]))


def check(state: State, arity: int) -> None:
    check_shape("state.W1", state.W1, (arity, None))
    hidden = state.W1.shape[1]
    check_shape("state.b1", state.b1, (hidden,))
    check_shape("state.w2", state.w2, (hidden,))


def score(state: State, X: np.ndarray) -> np.ndarray:
    act = np.maximum(X @ state.W1 + state.b1, 0.0)
    return stable_sigmoid(act @ state.w2 + state.b2)
