"""Naive Bayes: Gaussian per-feature class conditionals with a variance
floor, Bernoulli treatment (Laplace-smoothed) for 0/1 features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .base import binary_columns, check_shape


@dataclass(frozen=True)
class ClassStats:
    """One class's log prior and per-feature statistics."""

    log_prior: float
    mean: NDArray[np.float64]
    var: NDArray[np.float64]
    bernoulli_p: NDArray[np.float64]  # one entry per binary column


@dataclass(frozen=True)
class State:
    binary: NDArray[np.bool_]
    var_floor: float
    class0: ClassStats
    class1: ClassStats


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> State:
    var_floor = params["var_floor"]
    n = len(X)
    binary = binary_columns(X)

    stats = []
    for cls in (0, 1):
        rows = X[y == cls]
        n_c = len(rows)
        stats.append(ClassStats(
            log_prior=float(np.log(n_c / n)),
            mean=rows.mean(axis=0),
            var=rows.var(axis=0) + var_floor,
            bernoulli_p=(rows[:, binary].sum(axis=0) + 1.0) / (n_c + 2.0),
        ))
    return State(binary, var_floor, *stats)


def check(state: State, arity: int) -> None:
    check_shape("state.binary", state.binary, (arity,))
    for name in ("class0", "class1"):
        stats = getattr(state, name)
        check_shape(f"state.{name}.mean", stats.mean, (arity,))
        check_shape(f"state.{name}.var", stats.var, (arity,))
        check_shape(f"state.{name}.bernoulli_p", stats.bernoulli_p, (np.count_nonzero(state.binary),))


def _class_loglik(stats: ClassStats, binary: np.ndarray, X: np.ndarray) -> np.ndarray:
    ll = np.full(len(X), stats.log_prior, dtype=np.float64)

    cont = ~binary
    if cont.any():
        xc = X[:, cont]
        ll += np.sum(
            -0.5 * np.log(2.0 * np.pi * stats.var[cont]) - (xc - stats.mean[cont]) ** 2 / (2.0 * stats.var[cont]),
            axis=1,
        )
    if binary.any():
        xb = X[:, binary]
        ll += np.sum(xb * np.log(stats.bernoulli_p) + (1.0 - xb) * np.log(1.0 - stats.bernoulli_p), axis=1)
    return ll


def score(state: State, X: np.ndarray) -> np.ndarray:
    ll0 = _class_loglik(state.class0, state.binary, X)
    ll1 = _class_loglik(state.class1, state.binary, X)
    m = np.maximum(ll0, ll1)
    e0 = np.exp(ll0 - m)
    e1 = np.exp(ll1 - m)
    return e1 / (e0 + e1)
