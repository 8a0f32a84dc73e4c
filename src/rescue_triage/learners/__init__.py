"""Seven classifiers behind one train/predict/score interface.

``train(spec, X, y)`` fits any of SVM, RF, XGB, K-NN, NB, LR or MLPC on raw
feature rows; ``train_grid(specs, X, y)`` fits several specs on the same rows
and shares what a kind can share between them. Scores are probability-like
values in [0, 1] and predictions threshold them at 0.5. A model file holds a
``TrainedModel`` and its kind's ``State`` dataclass, read back bit-exactly.
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
    "train_grid",
    "share_groups",
    "save_model",
    "load_model",
]

# each kind's module, with its State dataclass, score(state, Xs) on standardized
# Xs, check(state, arity) for a state read from a file, and either fit(params,
# Xs, y, rng) -> state or, for a kind that fits candidates together,
# share_key(params) and fit_grid(params list, Xs, y, rngs) yielding (index,
# state) for one share group
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
    ``fit_grid`` is a group of its own. Groups come in order of first member."""
    groups: dict = {}
    for i, spec in enumerate(specs):
        module = _KINDS[spec.kind]
        key = (spec.kind, spec.seed, module.share_key(spec.hyperparameters)) if hasattr(module, "fit_grid") else i
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def train_grid(
    specs: Sequence[ModelSpec], X, y, feature_names: tuple[str, ...] = ()
) -> Iterator[tuple[int, TrainedModel]]:
    """Fit every spec on (X, y), standardizing once; yields ``(index into
    specs, model)`` as each model is ready, so a caller can score and drop
    one model before the next is fit. Each ``share_groups`` group is one fit,
    and each model equals ``train`` of its spec alone."""
    X, y = check_training_inputs(np.asarray(X, dtype=np.float64), y)
    std = Standardizer.fit(X)
    Xs = std.transform(X)
    for group in share_groups(specs):
        kind = specs[group[0]].kind
        module = _KINDS[kind]
        params = [specs[i].hyperparameters for i in group]
        rngs = [rng_from(specs[i].seed, _KIND_STREAM[kind]) for i in group]
        fit_grid = getattr(module, "fit_grid", None)
        for j, state in fit_grid(params, Xs, y, rngs) if fit_grid else [(0, module.fit(params[0], Xs, y, rngs[0]))]:
            spec = specs[group[j]]
            yield group[j], TrainedModel(
                format_version=FORMAT_VERSION, spec=spec, standardizer=std, arity=X.shape[1],
                decision_threshold=0.5, feature_names=tuple(feature_names), state=state,
            )


def train(spec: ModelSpec, X, y, feature_names: tuple[str, ...] = ()) -> TrainedModel:
    """Fit the spec on (X, y); deterministic given (spec, data)."""
    [(_, model)] = train_grid([spec], X, y, feature_names)
    return model


def save_model(model: TrainedModel, path: str | Path) -> None:
    write_json(path, model)


def load_model(path: str | Path) -> TrainedModel:
    return read_json(path, TrainedModel)
