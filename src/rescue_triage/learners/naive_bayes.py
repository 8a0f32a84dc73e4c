"""Naive Bayes: Gaussian per-feature class conditionals with a variance
floor, Bernoulli treatment (Laplace-smoothed) for 0/1 features."""

from __future__ import annotations

import numpy as np

from .base import binary_columns


def fit(params: dict, X: np.ndarray, y: np.ndarray, rng) -> dict:
    var_floor = params["var_floor"]
    n = len(X)
    binary = binary_columns(X)

    state: dict = {"binary": binary.astype(int).tolist(), "var_floor": var_floor}
    for cls in (0, 1):
        rows = X[y == cls]
        n_c = len(rows)
        mean = rows.mean(axis=0)
        var = rows.var(axis=0) + var_floor
        bern = (rows[:, binary].sum(axis=0) + 1.0) / (n_c + 2.0)
        state[f"class{cls}"] = {
            "log_prior": float(np.log(n_c / n)),
            "mean": mean.tolist(),
            "var": var.tolist(),
            "bernoulli_p": bern.tolist(),
        }
    return state


def _class_loglik(cstate: dict, binary: np.ndarray, X: np.ndarray) -> np.ndarray:
    mean = np.asarray(cstate["mean"])
    var = np.asarray(cstate["var"])
    ll = np.full(len(X), cstate["log_prior"], dtype=np.float64)

    cont = ~binary
    if cont.any():
        xc = X[:, cont]
        ll += np.sum(
            -0.5 * np.log(2.0 * np.pi * var[cont]) - (xc - mean[cont]) ** 2 / (2.0 * var[cont]),
            axis=1,
        )
    if binary.any():
        p = np.asarray(cstate["bernoulli_p"])
        xb = X[:, binary]
        ll += np.sum(xb * np.log(p) + (1.0 - xb) * np.log(1.0 - p), axis=1)
    return ll


def score(state: dict, X: np.ndarray) -> np.ndarray:
    binary = np.asarray(state["binary"], dtype=bool)
    ll0 = _class_loglik(state["class0"], binary, X)
    ll1 = _class_loglik(state["class1"], binary, X)
    m = np.maximum(ll0, ll1)
    e0 = np.exp(ll0 - m)
    e1 = np.exp(ll1 - m)
    return e1 / (e0 + e1)
