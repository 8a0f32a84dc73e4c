"""Shared learner machinery: specs, schemas, standardization, model container.

Every classifier trains behind the same contract: ``train(spec, X, y)``
standardizes features with statistics from the training rows only, fits the
kind-specific state, and returns an immutable TrainedModel whose ``score``
lies in [0, 1] and whose ``predict`` thresholds the score at 0.5 (the
threshold is configurable). Identical (spec, data) pairs produce identical
models regardless of scheduling: every random stream derives from the spec
seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from enum import Enum
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from ..records import check_keys, from_dict


class ModelKind(Enum):
    SVM = "SVM"
    RF = "RF"
    XGB = "XGB"
    KNN = "KNN"
    NB = "NB"
    LR = "LR"
    MLPC = "MLPC"


class InvalidHyperparameter(ValueError):
    pass


class SingleClassTraining(ValueError):
    pass


class ArityMismatch(ValueError):
    pass


def _pos_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _pos_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0


def _nonneg_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 0


def _opt_pos_int(v) -> bool:
    return v is None or _pos_int(v)


# name -> (default, validator, description)
SCHEMAS: dict[ModelKind, dict[str, tuple]] = {
    ModelKind.KNN: {
        "k": (5, _pos_int, "neighbor count"),
    },
    ModelKind.RF: {
        "n_trees": (100, _pos_int, "ensemble size"),
        "max_depth": (None, _opt_pos_int, "tree depth cap (None = unbounded)"),
        "min_samples_leaf": (1, _pos_int, "minimum samples per leaf"),
        "n_bins": (32, lambda v: _pos_int(v) and v >= 2, "histogram bins per feature"),
    },
    ModelKind.XGB: {
        "n_rounds": (50, lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
                     "boosting rounds (0 = prior-only)"),
        "learning_rate": (0.1, _pos_real, "shrinkage"),
        "max_depth": (3, _pos_int, "tree depth cap"),
        "reg_lambda": (1.0, _nonneg_real, "L2 leaf penalty"),
        "n_bins": (32, lambda v: _pos_int(v) and v >= 2, "histogram bins per feature"),
    },
    ModelKind.NB: {
        "var_floor": (1e-9, _pos_real, "Gaussian variance floor"),
    },
    ModelKind.LR: {
        "l2": (1e-2, _nonneg_real, "L2 strength"),
        "learning_rate": (0.5, _pos_real, "gradient step size"),
        "max_epochs": (500, _pos_int, "epoch cap"),
        "tol": (1e-6, _nonneg_real, "gradient-norm stop tolerance"),
    },
    ModelKind.SVM: {
        "l2": (1e-2, _pos_real, "L2 strength"),
        "epochs": (30, _pos_int, "passes over the data"),
        "batch_size": (32, _pos_int, "subgradient batch size"),
    },
    ModelKind.MLPC: {
        "hidden": (8, _pos_int, "hidden layer width"),
        "learning_rate": (0.1, _pos_real, "gradient step size"),
        "epochs": (200, _pos_int, "training epochs"),
        "batch_size": (32, _pos_int, "mini-batch size"),
    },
}

# desk-scale default grids for hyperparameter search
DEFAULT_SEARCH_SPACES: dict[ModelKind, dict[str, list]] = {
    ModelKind.KNN: {"k": [3, 5, 7, 9]},
    ModelKind.RF: {"n_trees": [100, 300], "max_depth": [None, 10]},
    ModelKind.XGB: {"n_rounds": [50, 200], "learning_rate": [0.1, 0.3], "max_depth": [2, 3]},
    ModelKind.LR: {"l2": [1e-4, 1e-3, 1e-2, 1e-1, 1.0]},
    ModelKind.SVM: {"l2": [1e-4, 1e-3, 1e-2, 1e-1, 1.0]},
    ModelKind.NB: {"var_floor": [1e-9]},
    ModelKind.MLPC: {"hidden": [8, 32], "learning_rate": [0.01, 0.1]},
}


def resolve_hyperparameters(kind: ModelKind, given: Mapping) -> dict:
    """Validate against the kind's schema and fill defaults."""
    schema = SCHEMAS[kind]
    unknown = set(given) - set(schema)
    if unknown:
        raise InvalidHyperparameter(f"{kind.value}: unknown hyperparameters {sorted(unknown)}")
    resolved = {}
    for name, (default, validator, description) in schema.items():
        value = given.get(name, default)
        if not validator(value):
            raise InvalidHyperparameter(
                f"{kind.value}: bad value {value!r} for {name} ({description})"
            )
        resolved[name] = value
    return resolved


@dataclass(frozen=True)
class ModelSpec:
    """A classifier kind, its resolved hyperparameters, and the RNG seed."""

    kind: ModelKind
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "hyperparameters", resolve_hyperparameters(self.kind, self.hyperparameters)
        )

    @property
    def display_name(self) -> str:
        return "K-NN" if self.kind is ModelKind.KNN else self.kind.value

    @classmethod
    def from_dict(cls, d: Mapping, path: str = "ModelSpec") -> "ModelSpec":
        """Strict inverse of records.asjson: every key it writes, and no other;
        errors name the key path."""
        check_keys(d, ("kind", "hyperparameters", "seed"), path)
        return from_dict(cls, d, path=path)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-scoring learned from training rows only.

    Columns whose training values are all 0/1 pass through unchanged so that
    Bernoulli treatment and distance scales stay meaningful. A column whose
    mean or std is not finite (it overflows float64) is refused, naming it.
    """

    mean: NDArray[np.float64]
    std: NDArray[np.float64]
    binary_mask: NDArray[np.bool_]

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        binary = binary_columns(X)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            mean = X.mean(axis=0)
            std = X.std(axis=0)
        mean[binary] = 0.0
        std[binary] = 1.0
        std[std == 0.0] = 1.0
        for name, stat in (("mean", mean), ("std", std)):
            bad = np.flatnonzero(~np.isfinite(stat))
            if bad.size:
                raise ValueError(f"training column {bad[0]}: its {name} is {stat[bad[0]]}, not a finite float64")
        return cls(mean=mean, std=std, binary_mask=binary)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


FORMAT_VERSION = 2

_SQRT_MAX = float(np.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True)
class TrainedModel:
    """An opaque fitted classifier with hard predictions and [0, 1] scores. As
    read from a model file, its JSON spec, standardizer and state are built and
    their shapes checked against arity once the format version is checked,
    and every number in its threshold, standardizer and state must be finite."""

    format_version: int
    spec: dict  # a ModelSpec once built
    standardizer: dict  # a Standardizer once built
    arity: int
    decision_threshold: float
    feature_names: tuple[str, ...]
    state: dict  # the kind module's State once built

    def __post_init__(self):
        if isinstance(self.spec, ModelSpec):
            return
        from . import _KINDS  # late import to avoid a cycle

        if self.format_version != FORMAT_VERSION:
            raise ValueError(f"format_version: got model format {self.format_version}, can read only {FORMAT_VERSION}")
        object.__setattr__(self, "spec", ModelSpec.from_dict(self.spec, "spec"))
        module = _KINDS[self.spec.kind]
        object.__setattr__(self, "standardizer", from_dict(Standardizer, self.standardizer, path="standardizer"))
        object.__setattr__(self, "state", from_dict(module.State, self.state, path="state"))
        for name in ("mean", "std", "binary_mask"):
            check_shape(f"standardizer.{name}", getattr(self.standardizer, name), (self.arity,))
        if self.feature_names and len(self.feature_names) != self.arity:
            raise ValueError(f"feature_names: expected {self.arity} names, got {len(self.feature_names)}")
        module.check(self.state, self.arity)
        for name in ("decision_threshold", "standardizer", "state"):
            check_finite_numbers(getattr(self, name), name)

    def _check(self, X: np.ndarray) -> tuple[np.ndarray, bool]:
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.arity:
            raise ArityMismatch(f"expected {self.arity} features, got shape {X.shape}")
        check_finite(X, "query")
        return X, single

    def score(self, X) -> np.ndarray | float:
        """Probability-like score in [0, 1]; monotone in the internal margin."""
        from . import _KINDS  # late import to avoid a cycle

        X, single = self._check(X)
        Xs = self.standardizer.transform(X)
        # every kind's score stays finite while the squares of the standardized
        # values do; beyond that, products overflow and scores saturate or turn NaN
        big = ~(np.abs(Xs) <= _SQRT_MAX)
        if big.any():
            row, col = np.argwhere(big)[0]
            raise ValueError(
                f"query row {row}, column {col}: its standardized value {Xs[row, col]} is beyond "
                f"{_SQRT_MAX:.4g}, where its square overflows float64"
            )
        s = _KINDS[self.spec.kind].score(self.state, Xs)
        nan = np.flatnonzero(np.isnan(s))
        if nan.size:
            raise ValueError(f"{self.spec.kind.value} score of query row {nan[0]} is NaN; its values overflow the model")
        s = np.clip(s, 0.0, 1.0)
        return float(s[0]) if single else s

    def predict(self, X) -> np.ndarray | int:
        s = self.score(X)
        if isinstance(s, float):
            return int(s >= self.decision_threshold)
        return (s >= self.decision_threshold).astype(np.int64)


def binary_columns(X: np.ndarray) -> np.ndarray:
    """Mask of the columns whose values are all 0 or 1."""
    return np.all((X == 0.0) | (X == 1.0), axis=0)


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so no
    exponent overflows."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    t = 1.0 + e
    return np.where(z >= 0, 1.0 / t, e / t)


def check_shape(path: str, array: np.ndarray, shape: tuple) -> None:
    """Fail, naming path, unless array has shape; a None entry matches any length."""
    if array.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, array.shape)):
        raise ValueError(f"{path}: expected shape {shape}, got {array.shape}")


def check_finite(X: np.ndarray, what: str) -> None:
    """Fail, naming its row and column, on the first NaN or infinite cell of X."""
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise ValueError(f"{what} row {row}, column {col} is {X[row, col]}; inputs must be finite")


def check_finite_numbers(value, path: str) -> None:
    """Fail, naming its key path, on the first NaN or infinity in value: a
    float, a numeric array, or a dataclass or tuple holding them."""
    if is_dataclass(value) or isinstance(value, tuple):
        for key, item in vars(value).items() if is_dataclass(value) else enumerate(value):
            check_finite_numbers(item, f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]")
    elif isinstance(value, (float, np.ndarray)) and not np.isfinite(value).all():
        at = tuple(np.argwhere(~np.isfinite(value))[0])
        raise ValueError(f"{path}{''.join(f'[{i}]' for i in at)}: {np.asarray(value)[at]} is not a finite number")


def check_training_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    if X.ndim != 2 or not X.shape[1]:
        raise ValueError(f"X must be a 2-D matrix with at least one feature column, got shape {X.shape}")
    check_finite(X, "training")
    if len(X) != len(y):
        raise ValueError("X and y lengths differ")
    if len(X) < 2:
        raise ValueError("need at least 2 training rows")
    classes = set(np.unique(y))
    if not classes <= {0, 1}:
        raise ValueError(f"labels must be 0/1, got {sorted(classes)}")
    if len(classes) < 2:
        raise SingleClassTraining("training data contains a single class")
    return X, y
