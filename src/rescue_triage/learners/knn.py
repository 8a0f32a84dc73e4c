"""K-nearest neighbors over the standardized training set.

Euclidean distance; ties in distance resolve by training index, so
predictions are reproducible and match an exhaustive scan exactly.

Scoring walks the query rows in blocks of at most ``_BLOCK_CELLS`` distances,
so its working set does not grow with the number of query rows. Each row's
k nearest come from a partition, not a sort: every distance below the k-th
smallest, then the lowest-index distances equal to it. That is the set a
stable sort of the row puts first, NaN distances last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .base import check_shape

_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class State:
    X: NDArray[np.float64]  # the standardized training rows
    y: NDArray[np.int64]
    k: int


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> State:
    return State(X=X, y=y, k=params["k"])


def check(state: State, arity: int) -> None:
    check_shape("state.X", state.X, (None, arity))
    check_shape("state.y", state.y, (len(state.X),))
    if state.k < 1:
        raise ValueError(f"state.k: expected at least 1, got {state.k}")


def _positives_among_nearest(d2: np.ndarray, positive: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``d2``, the number of positive labels among its k nearest."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    below = d2 < kth
    tied = d2 == kth
    short = np.isnan(kth[:, 0])
    if short.any():
        # fewer than k distances are numbers: take them all, then NaN by index
        nan = np.isnan(d2[short])
        below[short] = ~nan
        tied[short] = nan
    need = k - np.count_nonzero(below, axis=1)
    excess = np.count_nonzero(tied, axis=1) > need
    if excess.any():
        # more ties at the k-th distance than places left: the lowest indices
        rows = tied[excess]
        tied[excess] = rows & (np.cumsum(rows, axis=1) <= need[excess, None])
    return np.count_nonzero((below | tied) & positive, axis=1)


def score(state: State, X: np.ndarray) -> np.ndarray:
    positive = state.y == 1
    k = min(state.k, len(state.X))
    x_sq = np.sum(X * X, axis=1)
    train_sq = np.sum(state.X * state.X, axis=1)
    step = max(1, _BLOCK_CELLS // max(1, len(state.X)))
    out = np.empty(len(X))
    for lo in range(0, len(X), step):
        hi = lo + step
        d2 = 2.0 * X[lo:hi] @ state.X.T
        np.subtract(x_sq[lo:hi, None], d2, out=d2)
        d2 += train_sq
        out[lo:hi] = _positives_among_nearest(d2, positive, k) / k
    return out
