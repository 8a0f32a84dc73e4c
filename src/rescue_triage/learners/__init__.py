"""Seven classifiers behind one train/predict/score interface.

``train(spec, X, y)`` fits any of SVM, RF, XGB, K-NN, NB, LR or MLPC on raw
feature rows; scores are probability-like values in [0, 1] and predictions
threshold them at 0.5. Models serialize to a versioned JSON text format that
round-trips scores bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..records import check_keys, rng_from
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
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]

# each kind's module, with fit(params, Xs, y, rng) -> state and score(state, Xs) on standardized Xs
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


def train(spec: ModelSpec, X, y, feature_names: tuple[str, ...] = ()) -> TrainedModel:
    """Fit the spec on (X, y); deterministic given (spec, data)."""
    X, y = check_training_inputs(np.asarray(X, dtype=np.float64), y)
    std = Standardizer.fit(X)
    rng = rng_from(spec.seed, _KIND_STREAM[spec.kind])
    state = _KINDS[spec.kind].fit(spec.hyperparameters, std.transform(X), y, rng)
    return TrainedModel(
        spec=spec,
        standardizer=std,
        state=state,
        arity=X.shape[1],
        feature_names=tuple(feature_names),
    )


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
        "spec": model.spec.to_dict(),
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
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
