"""Shared domain types for the rescue triage pipeline.

Every other module depends only on the types defined here. All types are
immutable after construction and safe to share across parallel workers.

JSONL wire format (one UTF-8 JSON object per line):

* rescue record: ``{"case_id": str, "vitals": {...}|null, "notes": [str],
  "label": "psychiatric"|"non_psychiatric"|"unknown"}`` where the vitals
  object holds ``systolic_bp``, ``respiratory_rate``, ``gcs``,
  ``circulation_normal``, ``pulse_rhythm_regular`` (each nullable).
* feature vector: an object with the ten keys of ``FEATURE_ORDER``.
* feature row (``features.jsonl``): ``FeatureRow``, written by ``asjson``.

A JSON artifact is one dataclass, written by ``asjson`` and read back by
``read_json``/``read_jsonl``, whose errors name the file, line and key path.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

GCS_MIN = 3
GCS_MAX = 15

# Fixed encoding order: five vitals-derived entries, then the five
# text-derived presence bits. Serialization and model arity rely on it.
VITAL_FEATURE_NAMES = (
    "gcs",
    "circulation_normal",
    "systolic_bp",
    "pulse_rhythm_regular",
    "respiratory_rate",
)
TEXT_FEATURE_NAMES = (
    "preillness",
    "intoxication",
    "alcoholism",
    "mental_abnormality",
    "psychiatric_symptoms",
)
FEATURE_ORDER = VITAL_FEATURE_NAMES + TEXT_FEATURE_NAMES

BINARY_FEATURE_NAMES = ("circulation_normal", "pulse_rhythm_regular") + TEXT_FEATURE_NAMES


class Label(Enum):
    """Case outcome label; UNKNOWN is permitted only before labeling."""

    PSYCHIATRIC = "psychiatric"
    NON_PSYCHIATRIC = "non_psychiatric"
    UNKNOWN = "unknown"


# validation issue kinds
NEGATIVE_VITAL = "negative_vital"
GCS_OUT_OF_RANGE = "gcs_out_of_range"
EMPTY_CASE_ID = "empty_case_id"
BAD_VALUE = "bad_value"


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation found while validating a raw record."""

    kind: str
    field: str
    value: object

    def __str__(self) -> str:
        return f"{self.kind}: field {self.field!r} = {self.value!r}"


class RecordValidationError(ValueError):
    """Raised by validate_record; carries every issue found, not just the first."""

    def __init__(self, issues: Sequence[ValidationIssue], case_id: str = ""):
        self.issues = list(issues)
        self.case_id = case_id
        detail = "; ".join(str(i) for i in self.issues)
        super().__init__(f"invalid record {case_id!r}: {detail}")


class MissingVitalError(ValueError):
    """A vitals field is still absent where a complete set is required."""

    def __init__(self, missing: Sequence[str]):
        self.missing = list(missing)
        super().__init__(f"missing vitals: {', '.join(self.missing)}")


def _vital_issue(name: str, value) -> Optional[str]:
    """The issue kind of one present vitals value, or None when it is valid.

    Blood pressure and respiratory rate must be finite and positive; GCS must
    be a finite integer in [GCS_MIN, GCS_MAX]; the two flags are not checked.
    """
    if name in BINARY_FEATURE_NAMES:
        return None
    if not math.isfinite(value) or (name == "gcs" and value != int(value)):
        return BAD_VALUE
    if name == "gcs":
        return None if GCS_MIN <= value <= GCS_MAX else GCS_OUT_OF_RANGE
    return NEGATIVE_VITAL if value <= 0 else None


@dataclass(frozen=True)
class Vitals:
    """Health vitals for one case. Fields are optional until imputation.

    Present values are validated at construction by ``_vital_issue``; a bad
    value raises RecordValidationError naming every offending field.
    """

    systolic_bp: Optional[float] = None
    respiratory_rate: Optional[float] = None
    gcs: Optional[int] = None
    circulation_normal: Optional[bool] = None
    pulse_rhythm_regular: Optional[bool] = None

    def __post_init__(self):
        issues = []
        for name in VITALS_FIELDS:
            value = getattr(self, name)
            kind = None if value is None else _vital_issue(name, value)
            if kind:
                issues.append(ValidationIssue(kind, name, value))
        if issues:
            raise RecordValidationError(issues)

    def missing_fields(self) -> list[str]:
        return [name for name in VITALS_FIELDS if getattr(self, name) is None]

    @property
    def complete(self) -> bool:
        return not self.missing_fields()


# Vitals' field names in declaration order, which is not VITAL_FEATURE_NAMES'.
VITALS_FIELDS = tuple(f.name for f in fields(Vitals))


@dataclass(frozen=True)
class RescueRecord:
    """One merged rescue case: vitals, free-text notes, ground-truth label."""

    case_id: str
    vitals: Optional[Vitals] = None
    notes: tuple[str, ...] = ()
    label: Label = Label.UNKNOWN

    def __post_init__(self):
        if not self.case_id or not self.case_id.strip():
            raise RecordValidationError(
                [ValidationIssue(EMPTY_CASE_ID, "case_id", self.case_id)], self.case_id
            )
        object.__setattr__(self, "notes", tuple(self.notes))


@dataclass(frozen=True)
class TextFeatures:
    """One slot per keyword category; a populated slot holds the matched keyword."""

    preillness: Optional[str] = None
    intoxication: Optional[str] = None
    alcoholism: Optional[str] = None
    mental_abnormality: Optional[str] = None
    psychiatric_symptoms: Optional[str] = None

    def slot(self, name: str) -> Optional[str]:
        if name not in TEXT_FEATURE_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def presence_bits(self) -> tuple[float, ...]:
        return tuple(0.0 if self.slot(n) is None else 1.0 for n in TEXT_FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureVector:
    """The ten model-ready features, in the fixed FEATURE_ORDER encoding.

    Every entry must be finite and boolean-derived entries exactly 0 or 1;
    serialization round-trips bit-exactly through JSON.
    """

    gcs: float
    circulation_normal: float
    systolic_bp: float
    pulse_rhythm_regular: float
    respiratory_rate: float
    preillness: float
    intoxication: float
    alcoholism: float
    mental_abnormality: float
    psychiatric_symptoms: float

    def __post_init__(self):
        for name in FEATURE_ORDER:
            v = getattr(self, name)
            if name in BINARY_FEATURE_NAMES:
                if v not in (0.0, 1.0):
                    raise ValueError(f"{name} must be 0 or 1, got {v!r}")
            elif not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in FEATURE_ORDER], dtype=np.float64)

    @classmethod
    def from_array(cls, arr: Sequence[float]) -> "FeatureVector":
        if len(arr) != len(FEATURE_ORDER):
            raise ValueError(f"expected {len(FEATURE_ORDER)} entries, got {len(arr)}")
        return cls(**{n: float(v) for n, v in zip(FEATURE_ORDER, arr)})

    def to_dict(self) -> dict:
        return {n: getattr(self, n) for n in FEATURE_ORDER}

    @classmethod
    def from_dict(cls, d: Mapping[str, float]) -> "FeatureVector":
        return cls(**{n: float(d[n]) for n in FEATURE_ORDER})


@dataclass(frozen=True)
class FeatureRow:
    """One line of features.jsonl: a case's label and its feature vector."""

    case_id: str
    label: Label
    features: FeatureVector


@dataclass(frozen=True)
class ConfusionMatrix:
    """TP/FP/TN/FN counts; the source of every scalar metric."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v < 0 or v != int(v):
                raise ValueError(f"{f.name} must be a non-negative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class RelevanceScore:
    """Relevance of one feature: mean occurrence in the observed group (x)
    against the reference group (y), scored as the relative deviation ratio
    and its percent; both scores are None when the reference mean is zero."""

    feature_name: str
    observed_mean: float
    reference_mean: float
    score: Optional[float]
    score_percent: Optional[float]
    zero_reference: bool


def validate_record(raw: Mapping[str, object]) -> RescueRecord:
    """Build a RescueRecord from one ingest row, applying every invariant.

    Collects all violations instead of stopping at the first and raises a
    single RecordValidationError naming each offending field and value.
    """
    issues: list[ValidationIssue] = []

    case_id = str(raw.get("case_id", "") or "").strip()
    if not case_id:
        issues.append(ValidationIssue(EMPTY_CASE_ID, "case_id", raw.get("case_id")))

    def numeric(field: str, value):
        try:
            return float(value)
        except (TypeError, ValueError):
            issues.append(ValidationIssue(BAD_VALUE, field, value))
            return None

    def flag(field: str, value) -> Optional[bool]:
        if isinstance(value, bool):
            return value
        if value in (0, 1, 0.0, 1.0):
            return bool(value)
        if isinstance(value, str) and value.strip().lower() in ("true", "false"):
            return value.strip().lower() == "true"
        issues.append(ValidationIssue(BAD_VALUE, field, value))
        return None

    vitals: dict = {}
    for name in VITALS_FIELDS:
        value = raw.get(name)
        if value is None or value == "":
            continue
        value = flag(name, value) if name in BINARY_FEATURE_NAMES else numeric(name, value)
        kind = None if value is None else _vital_issue(name, value)
        if kind:
            issues.append(ValidationIssue(kind, name, value))
        elif value is not None:
            vitals[name] = int(value) if name == "gcs" else value

    notes_raw = raw.get("notes")
    if notes_raw is None:
        notes: tuple[str, ...] = ()
    elif isinstance(notes_raw, str):
        notes = (notes_raw,) if notes_raw else ()
    else:
        notes = tuple(str(n) for n in notes_raw)

    label_raw = raw.get("label")
    if label_raw is None or label_raw == "":
        label = Label.UNKNOWN
    elif isinstance(label_raw, Label):
        label = label_raw
    else:
        try:
            label = Label(str(label_raw).strip().lower())
        except ValueError:
            issues.append(ValidationIssue(BAD_VALUE, "label", label_raw))
            label = Label.UNKNOWN

    if issues:
        raise RecordValidationError(issues, case_id)

    return RescueRecord(case_id=case_id, vitals=Vitals(**vitals) if vitals else None, notes=notes, label=label)


def to_feature_vector(vitals: Vitals, text: TextFeatures) -> FeatureVector:
    """Deterministic fixed-order encoding of complete vitals plus text slots.

    Text slots map present -> 1, none -> 0. Raises MissingVitalError when any
    vitals field is still absent (imputation must run first).
    """
    missing = vitals.missing_fields()
    if missing:
        raise MissingVitalError(missing)
    return FeatureVector(
        **{n: float(getattr(vitals, n)) for n in VITAL_FEATURE_NAMES},
        **dict(zip(TEXT_FEATURE_NAMES, text.presence_bits())),
    )


def check_unique_case_ids(records: Iterable[RescueRecord]) -> None:
    """Corpus-level invariant: case ids must be unique."""
    seen: set[str] = set()
    for rec in records:
        if rec.case_id in seen:
            raise ValueError(f"duplicate case_id {rec.case_id!r}")
        seen.add(rec.case_id)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus binary labels in model-ready form.

    ``y`` uses 1 for psychiatric, 0 for non-psychiatric. Column order follows
    ``feature_names``.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    case_ids: tuple[str, ...] = ()

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and y (n,) with matching n")
        if X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names must match X columns")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "case_ids", tuple(self.case_ids))

    def __len__(self) -> int:
        return self.X.shape[0]

    @classmethod
    def from_vectors(
        cls,
        vectors: Sequence[FeatureVector],
        labels: Sequence[Label],
        case_ids: Sequence[str] = (),
    ) -> "Dataset":
        X = np.array([v.to_array() for v in vectors], dtype=np.float64)
        y = np.array([1 if l == Label.PSYCHIATRIC else 0 for l in labels], dtype=np.int64)
        return cls(X=X, y=y, feature_names=FEATURE_ORDER, case_ids=tuple(case_ids))

    def select(self, names: Sequence[str]) -> "Dataset":
        """Return a new dataset restricted to the named feature columns, in
        the order given; an unknown or repeated name is a ValueError naming it."""
        unknown = [n for n in names if n not in self.feature_names]
        if unknown:
            raise ValueError(f"unknown feature names {unknown}; the columns are {list(self.feature_names)}")
        repeated = sorted({n for i, n in enumerate(names) if n in names[:i]})
        if repeated:
            raise ValueError(f"feature names given more than once: {repeated}")
        idx = [self.feature_names.index(n) for n in names]
        return Dataset(self.X[:, idx], self.y, tuple(names), self.case_ids)

    def take(self, indices: Sequence[int]) -> "Dataset":
        ids = tuple(self.case_ids[i] for i in indices) if self.case_ids else ()
        return Dataset(self.X[np.asarray(indices)], self.y[np.asarray(indices)], self.feature_names, ids)


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for (seed, task-id...) streams."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *[int(s) & 0xFFFFFFFF for s in stream]])


# ---------------------------------------------------------------------------
# JSONL serialization


def record_to_dict(rec: RescueRecord) -> dict:
    vitals = None if rec.vitals is None else {name: getattr(rec.vitals, name) for name in VITALS_FIELDS}
    return {
        "case_id": rec.case_id,
        "vitals": vitals,
        "notes": list(rec.notes),
        "label": rec.label.value,
    }


def record_from_dict(d: Mapping[str, object]) -> RescueRecord:
    """Read one corpus.jsonl object by the rules of validate_record, with
    the ``vitals`` object flattened into the row."""
    return validate_record({**d, **(d.get("vitals") or {})})


def asjson(obj):
    """JSON data of obj: a dataclass as ``asdict`` gives it, with every enum,
    as a value or a key, written as its value, and every array as a list."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj):
        return {f.name: asjson(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {asjson(k): asjson(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [asjson(v) for v in obj]
    return obj


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(asjson(obj), indent=2), encoding="utf-8")


def read_json(path: str | Path, cls):
    """The JSON file at path built as cls (a dataclass, or any type a
    dataclass field may have) by the rules of from_dict; errors name the file."""
    try:
        return _build(cls, json.loads(Path(path).read_text(encoding="utf-8")), ConfigError, cls.__name__)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def write_jsonl(path: str | Path, items: Iterable, to_dict: Callable = lambda x: x) -> int:
    """Write items as one JSON object per line; returns the line count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(json.dumps(to_dict(item), ensure_ascii=False))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str | Path, cls) -> Iterator:
    """Each non-blank line of the file built as cls, as read_json builds a
    file; errors name the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    yield _build(cls, json.loads(line), ConfigError, cls.__name__)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc


# ---------------------------------------------------------------------------
# Config loading


class ConfigError(ValueError):
    """A config or artifact object that does not match its dataclass's fields
    and types."""


@cache
def _schema(cls) -> tuple[dict, frozenset, frozenset]:
    """(type hints, init field names, required field names) of a dataclass."""
    init = [f for f in fields(cls) if f.init]
    required = {f.name for f in init if f.default is MISSING and f.default_factory is MISSING}
    return get_type_hints(cls), frozenset(f.name for f in init), frozenset(required)


def check_keys(d, names, path: str, required=None, error: type[ValueError] = ValueError) -> None:
    """Fail unless d is a JSON object whose keys are among names and include
    every required one (default: all of names); errors name the keys."""
    if not isinstance(d, Mapping):
        raise error(f"{path}: expected an object, got {type(d).__name__}")
    if set(d) - set(names):
        raise error(f"{path}: unknown keys {sorted(set(d) - set(names))}")
    missing = set(names if required is None else required) - set(d)
    if missing:
        raise error(f"{path}: missing keys {sorted(missing)}")


def from_dict(cls, d, error: type[ValueError] = ConfigError, path: str = ""):
    """Build dataclass cls from a JSON object, strictly.

    Unknown and missing required keys fail; Optional, nested dataclass,
    ``dict[K, X]`` and tuple fields are built recursively, an enum from its
    value, an ``NDArray[dtype]`` from a rectangular list; scalars are
    type-checked (a JSON bool only fills a bool, an integer fills a float and
    is converted). Errors, including the class's own validation, are raised
    as ``error`` and name the dotted key path.
    """
    path = path or cls.__name__
    hints, names, required = _schema(cls)
    check_keys(d, names, path, required, error)
    values = {k: _build(hints[k], v, error, f"{path}.{k}") for k, v in d.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc


def _build(hint, value, error: type[ValueError], path: str):
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _build(hint, value, error, path)
    if is_dataclass(hint):
        return from_dict(hint, value, error, path)
    if hint is dict or origin is dict:
        if not isinstance(value, Mapping):
            raise error(f"{path}: expected an object, got {type(value).__name__}")
        if not args:
            return dict(value)
        return {_build(args[0], k, error, path): _build(args[1], v, error, f"{path}.{k}") for k, v in value.items()}
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise error(f"{path}: expected a list, got {type(value).__name__}")
        types = [args[0]] * len(value) if args[1:] == (...,) else args
        if len(types) != len(value):
            raise error(f"{path}: expected {len(types)} items, got {len(value)}")
        return tuple(_build(t, v, error, f"{path}[{i}]") for i, (t, v) in enumerate(zip(types, value)))
    if origin is np.ndarray:  # NDArray[dtype]
        dtype = np.dtype(get_args(args[1])[0])
        try:
            array = np.array(value if isinstance(value, list) else None)
        except ValueError:  # a ragged list
            array = np.array(None)
        if array.ndim == 0 or (array.size and array.dtype.kind not in {"b": "b", "i": "i", "f": "if"}[dtype.kind]):
            raise error(f"{path}: expected a rectangular list of {dtype} values")
        if dtype.kind == "i" and np.any(array.astype(dtype) != array):
            raise error(f"{path}: values out of range for {dtype}")
        return array.astype(dtype)
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError as exc:
            raise error(f"{path}: {exc}") from exc
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, hint) and (hint is bool or not isinstance(value, bool)):
        return value
    raise error(f"{path}: expected {hint.__name__}, got {type(value).__name__} {value!r}")

