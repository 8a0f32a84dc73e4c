"""Seven classifiers behind one train/predict/score interface.

``train(spec, X, y)`` fits any of SVM, RF, XGB, K-NN, NB, LR or MLPC on raw
feature rows; ``train_folds(specs, X, y, folds)`` fits several specs on each
of several CV folds' rows, the one fold loop of tuning and RFECV, sharing
what a kind can share between them. RF, XGB and MLPC each fit a share group
on all folds through their module's ``fit_folds``, their only training
path: RF grows the folds' trees as one forest for the group's specs, XGB
grows the group's (fold, learning rate, depth cap) triples as lanes of one
lockstep fit, and MLPC trains its (fold, learning rate) pairs as lanes of one
stacked fit. ``train`` of such a kind is a group of one spec on one fold.
Scores are probability-like values in [0, 1] and predictions threshold them
at 0.5. A model file holds a ``TrainedModel`` and its kind's ``State``
dataclass, read back bit-exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..records import read_json, rng_from, write_json
from . import boosting, forest, knn, logistic, mlp, naive_bayes, svm
from .base import (
    DEFAULT_SEARCH_SPACES,
    FORMAT_VERSION,
    ArityMismatch,
    InvalidHyperparameter,
    ModelKind,
    ModelSpec,
    SingleClassTraining,
    Standardizer,
    TrainedModel,
    check_training_inputs,
)
__all__ = [
    "ModelKind",
    "ModelSpec",
    "TrainedModel",
    "Standardizer",
    "InvalidHyperparameter",
    "SingleClassTraining",
    "ArityMismatch",
    "DEFAULT_SEARCH_SPACES",
    "train",
    "train_folds",
    "share_groups",
    "save_model",
    "load_model",
]

# each kind's module, with its State dataclass, score(state, Xs) on standardized
# Xs and check(state, arity) for a state read from a file; a kind that fits
# candidates together (RF, XGB, MLPC) has share_key(params) and, for one share
# group, fit_folds(params list, [(Xs, y) per fold], rngs per fold) yielding
# (fold, index, state), and no fit; any other kind has
# fit(params, Xs, y, rng) -> state
_KINDS = {
    ModelKind.SVM: svm,
    ModelKind.RF: forest,
    ModelKind.XGB: boosting,
    ModelKind.KNN: knn,
    ModelKind.NB: naive_bayes,
    ModelKind.LR: logistic,
    ModelKind.MLPC: mlp,
}

# fixed per-kind stream ids so RNG draws never overlap across kinds
_KIND_STREAM = {kind: 1000 + i for i, kind in enumerate(ModelKind)}


def share_groups(specs: Sequence[ModelSpec]) -> list[list[int]]:
    """Indices into specs, in groups that are fit together: specs of one kind
    and seed whose kind's ``share_key`` agrees. A spec of a kind without
    ``share_key`` is a group of its own. Groups come in order of first member."""
    groups: dict = {}
    for i, spec in enumerate(specs):
        module = _KINDS[spec.kind]
        key = (spec.kind, spec.seed, module.share_key(spec.hyperparameters)) if hasattr(module, "share_key") else i
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _fit_group(kind: ModelKind, params: list[dict], folds: list[tuple], seed: int) -> Iterator[tuple[int, int, object]]:
    """(fold, index into params, state) of one share group on each fold's
    standardized (Xs, y); every fit draws from a fresh stream of the seed."""
    module, fresh = _KINDS[kind], lambda: rng_from(seed, _KIND_STREAM[kind])
    if hasattr(module, "fit_folds"):
        return module.fit_folds(params, folds, [fresh() for _ in folds])
    return ((f, 0, module.fit(params[0], Xs, y, fresh())) for f, (Xs, y) in enumerate(folds))


def train_folds(
    specs: Sequence[ModelSpec], X, y, folds: Sequence, feature_names: tuple[str, ...] = ()
) -> Iterator[tuple[int, int, TrainedModel]]:
    """Fit every spec on the rows ``folds[f]`` of (X, y) for each fold f,
    standardizing each fold once; yields ``(f, index into specs, model)`` as
    models are ready, so a caller can score and drop one before the next is
    fit. A fold is anything that indexes rows: an index array, or
    ``slice(None)`` for all of them. Each ``share_groups`` group is one fit per
    fold, or one fit of all folds for a kind with ``fit_folds``; each model
    equals ``train`` of its spec alone on its fold's rows."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    prepared = []
    for rows in folds:
        Xf, yf = check_training_inputs(X[rows], y[rows])
        std = Standardizer.fit(Xf)
        prepared.append((std, std.transform(Xf), yf))
    for group in share_groups(specs):
        kind, seed = specs[group[0]].kind, specs[group[0]].seed
        params = [specs[i].hyperparameters for i in group]
        for f, j, state in _fit_group(kind, params, [(Xs, yf) for _, Xs, yf in prepared], seed):
            yield f, group[j], TrainedModel(
                format_version=FORMAT_VERSION, spec=specs[group[j]], standardizer=prepared[f][0],
                arity=X.shape[1], decision_threshold=0.5, feature_names=tuple(feature_names), state=state,
            )


def train(spec: ModelSpec, X, y, feature_names: tuple[str, ...] = ()) -> TrainedModel:
    """Fit the spec on (X, y); deterministic given (spec, data)."""
    [(_, _, model)] = train_folds([spec], X, y, [slice(None)], feature_names)
    return model


def save_model(model: TrainedModel, path: str | Path) -> None:
    write_json(path, model)


def load_model(path: str | Path) -> TrainedModel:
    return read_json(path, TrainedModel)
