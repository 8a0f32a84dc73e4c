"""Seven classifiers behind one train/predict/score interface.

``train(spec, X, y)`` fits any of SVM, RF, XGB, K-NN, NB, LR or MLPC on raw
feature rows; ``train_grid(specs, X, y)`` fits several specs on the same rows
and shares what a kind can share between them. Scores are probability-like
values in [0, 1] and predictions threshold them at 0.5. Models serialize to a
versioned JSON text format that round-trips scores bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..records import asjson, check_keys, read_json, rng_from
from . import boosting, forest, knn, logistic, mlp, naive_bayes, svm
from .base import (
    DEFAULT_SEARCH_SPACES,
    ArityMismatch,
    InvalidHyperparameter,
    ModelKind,
    ModelSpec,
    SingleClassTraining,
    Standardizer,
    TrainedModel,
    check_training_inputs,
)
from .tree import TreeArrays

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
    "model_to_dict",
    "model_from_dict",
]

# each kind's module, with score(state, Xs) on standardized Xs and either
# fit(params, Xs, y, rng) -> state or, for a kind that fits candidates
# together, share_key(params) and fit_grid(params list, Xs, y, rngs) yielding
# (index, state) for one share group
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
                spec=spec, standardizer=std, state=state, arity=X.shape[1], feature_names=tuple(feature_names)
            )


def train(spec: ModelSpec, X, y, feature_names: tuple[str, ...] = ()) -> TrainedModel:
    """Fit the spec on (X, y); deterministic given (spec, data)."""
    [(_, model)] = train_grid([spec], X, y, feature_names)
    return model


# ---------------------------------------------------------------------------
# JSON model format

FORMAT_VERSION = 1


def _jsonable(obj):
    if isinstance(obj, TreeArrays):
        return {"__tree__": obj.to_dict()}
    if isinstance(obj, np.ndarray):
        return {"__array__": obj.tolist()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _restore(obj):
    if isinstance(obj, dict):
        if "__tree__" in obj:
            return TreeArrays.from_dict(obj["__tree__"])
        if "__array__" in obj:
            return np.asarray(obj["__array__"], dtype=np.float64)
        return {k: _restore(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_restore(v) for v in obj]
    return obj


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "spec": asjson(model.spec),
        "standardizer": model.standardizer.to_dict(),
        "arity": model.arity,
        "decision_threshold": model.decision_threshold,
        "feature_names": list(model.feature_names),
        "state": _jsonable(model.state),
    }


_MODEL_KEYS = ("format_version", "spec", "standardizer", "arity", "decision_threshold", "feature_names", "state")


def model_from_dict(d: dict) -> TrainedModel:
    check_keys(d, _MODEL_KEYS, "model")
    if d["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {d['format_version']!r}")
    return TrainedModel(
        spec=ModelSpec.from_dict(d["spec"]),
        standardizer=Standardizer.from_dict(d["standardizer"]),
        state=_restore(d["state"]),
        arity=int(d["arity"]),
        decision_threshold=float(d["decision_threshold"]),
        feature_names=tuple(d["feature_names"]),
    )


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model)), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_dict(read_json(path, dict))
