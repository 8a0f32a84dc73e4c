"""Linear SVM: hinge loss with L2, trained by mini-batch stochastic
subgradient descent (decreasing Pegasos step), scores calibrated onto
[0, 1] by fitting a logistic link to the training margins.
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
    platt_a: float
    platt_b: float


def _platt_calibrate(margins: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Newton fit of sigmoid(a*m + b) to smoothed targets.

    Target smoothing keeps the fit finite on separable data.
    """
    n_pos = float(y.sum())
    n_neg = float(len(y) - n_pos)
    t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    a, b = 1.0, 0.0
    for _ in range(100):
        p = stable_sigmoid(a * margins + b)
        ga = float(np.sum((p - t) * margins))
        gb = float(np.sum(p - t))
        w = p * (1.0 - p)
        haa = float(np.sum(w * margins * margins)) + 1e-12
        hab = float(np.sum(w * margins))
        hbb = float(np.sum(w)) + 1e-12
        det = haa * hbb - hab * hab
        if abs(det) < 1e-300:
            break
        da = (hbb * ga - hab * gb) / det
        db = (haa * gb - hab * ga) / det
        a -= da
        b -= db
        if max(abs(da), abs(db)) < 1e-12:
            break
    return a, b


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> State:
    lam = params["l2"]
    batch_size = params["batch_size"]
    n, d = X.shape
    ys = 2.0 * y - 1.0
    w = np.zeros(d)
    b = 0.0
    t = 0
    for _ in range(params["epochs"]):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = perm[start : start + batch_size]
            t += 1
            eta = 1.0 / (lam * t)
            margins = ys[batch] * (X[batch] @ w + b)
            viol = margins < 1.0
            w *= 1.0 - eta * lam
            if viol.any():
                scale = eta / len(batch)
                w += scale * (ys[batch][viol] @ X[batch][viol])
                b += scale * float(ys[batch][viol].sum())

    train_margins = X @ w + b
    a, c = _platt_calibrate(train_margins, y)
    # the documented contract keeps score non-decreasing in the margin
    a = max(a, 1e-6)
    return State(w=w, b=b, platt_a=a, platt_b=c)


def check(state: State, arity: int) -> None:
    check_shape("state.w", state.w, (arity,))


def score(state: State, X: np.ndarray) -> np.ndarray:
    margins = X @ state.w + state.b
    return stable_sigmoid(state.platt_a * margins + state.platt_b)
