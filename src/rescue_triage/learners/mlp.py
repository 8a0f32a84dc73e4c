"""Multilayer perceptron classifier: one ReLU hidden layer, sigmoid output,
cross-entropy loss, seeded mini-batch gradient descent.

The output layer starts at zero, so an untrained network scores exactly 0.5
and relabelled training mirrors the whole trajectory.

Several fits train together as lanes: ``fit_folds`` takes one share group
(specs that differ only in ``learning_rate``) and a chunk of CV folds, and
steps every (fold, learning rate) lane's full batches with one stacked
product. Each lane's products are the same BLAS calls on the same operands
as its own ``fit``, so every lane equals ``fit`` bit for bit.
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
    vector per leading index; b2 has length 1."""
    a, b = d * hidden, d * hidden + hidden
    lead = flat.shape[:-1]
    return flat[..., :a].reshape(*lead, d, hidden), flat[..., a:b], flat[..., b : b + hidden], flat[..., -1:]


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


def _stacked_backprop(net: tuple, X: np.ndarray, y: np.ndarray, grads: tuple) -> None:
    """``_backprop`` of a block of lanes at once: ``net`` and ``grads`` are
    (fold, rate, ...) views, and X (fold, 1, B, d) and y (fold, 1, B, 1) hold
    each fold's batch, which its learning-rate lanes share."""
    W1, b1, w2, b2 = net
    gW1, gb1, gw2, gb2 = grads
    pre = X @ W1 + b1[..., None, :]
    act = np.maximum(pre, 0.0)
    p = stable_sigmoid(act @ w2[..., None] + b2[..., None, :])

    dz = (p - y) / X.shape[-2]
    np.matmul(act.swapaxes(-1, -2), dz, out=gw2[..., None])
    np.sum(dz, axis=-2, out=gb2)
    dpre = dz * w2[..., None, :]
    dpre *= pre > 0.0
    np.matmul(X.swapaxes(-1, -2), dpre, out=gW1)
    np.sum(dpre, axis=-2, out=gb1)


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
    theta = _initial_theta(d, hidden, rng)
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


def fit_folds(group: list[dict], folds: list[tuple], rngs) -> Iterator[tuple[int, int, State]]:
    """Yield ``(fold, i, state)`` for every fold of (Xs, y) and every params
    dict of one share group, trained as (fold, learning rate) lanes: the state
    equals ``fit(group[i], *folds[fold], rng)`` with ``rng`` in the state
    ``rngs[fold]`` is given in. A fold's lanes share that RNG's draws, since
    each of their fits would draw the same ``W1`` and permutations from it.

    Each epoch every fold gathers its rows once in its own order. The lanes'
    full batches step together, one stacked product for the folds that still
    have a full batch left (folds with more full batches come first, so those
    are a prefix); then each lane steps its ragged last batch on its own with
    ``_backprop``. Padding that batch would change its sums, so it is not
    padded. A lone lane is ``fit`` itself."""
    if len(folds) * len(group) == 1:
        yield 0, 0, fit(group[0], *folds[0], rngs[0])
        return
    hidden, epochs, batch_size = share_key(group[0])
    d = folds[0][0].shape[1]
    order = sorted(range(len(folds)), key=lambda f: -(len(folds[f][1]) // batch_size))
    sizes = [len(folds[f][1]) for f in order]
    full = [n // batch_size for n in sizes]
    theta = np.empty((len(folds), len(group), d * hidden + 2 * hidden + 1))
    for i, f in enumerate(order):
        theta[i] = _initial_theta(d, hidden, rngs[f])
    g = np.empty_like(theta)
    net, grads = _views(theta, d, hidden), _views(g, d, hidden)
    rates = [params["learning_rate"] for params in group]
    lr = np.array(rates, dtype=np.float64)[:, None]
    # per stacked step: its rows, and the views of its block, the folds
    # that still have a full batch there
    steps = []
    for s in range(full[0]):
        k = sum(m > s for m in full)
        rows = slice(s * batch_size, (s + 1) * batch_size)
        steps.append((k, rows, tuple(v[:k] for v in net), tuple(v[:k] for v in grads)))
    lanes = {
        (i, r): (tuple(v[i, r] for v in net), tuple(v[i, r] for v in grads))
        for i in range(len(order))
        for r in range(len(group))
    }
    Xb = np.empty((len(folds), max(sizes), d))
    yb = np.empty((len(folds), max(sizes)))
    ys = [np.asarray(folds[f][1], dtype=np.float64) for f in order]
    for _ in range(epochs):
        for i, f in enumerate(order):
            perm = rngs[f].permutation(sizes[i])
            np.take(folds[f][0], perm, axis=0, out=Xb[i, : sizes[i]])
            np.take(ys[i], perm, out=yb[i, : sizes[i]])
        for k, rows, block, block_grads in steps:
            _stacked_backprop(block, Xb[:k, None, rows], yb[:k, None, rows, None], block_grads)
            theta[:k] -= lr * g[:k]
        for i in range(len(order)):
            if full[i] * batch_size < sizes[i]:
                rows = slice(full[i] * batch_size, sizes[i])
                for r, rate in enumerate(rates):
                    _backprop(lanes[i, r][0], Xb[i, rows], yb[i, rows], lanes[i, r][1])
                    theta[i, r] -= rate * g[i, r]
    for i, f in enumerate(order):
        for r in range(len(group)):
            W1, b1, w2, b2 = lanes[i, r][0]
            yield f, r, State(W1=W1.copy(), b1=b1.copy(), w2=w2.copy(), b2=float(b2[0]))


def check(state: State, arity: int) -> None:
    check_shape("state.W1", state.W1, (arity, None))
    hidden = state.W1.shape[1]
    check_shape("state.b1", state.b1, (hidden,))
    check_shape("state.w2", state.w2, (hidden,))


def score(state: State, X: np.ndarray) -> np.ndarray:
    act = np.maximum(X @ state.W1 + state.b1, 0.0)
    return stable_sigmoid(act @ state.w2 + state.b2)
