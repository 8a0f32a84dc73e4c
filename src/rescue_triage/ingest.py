"""Raw rescue-export ingestion: merge, reduce, filter, impute.

Multi-file CSV exports are merged into one row per case id, duplicate
columns are dropped, definite outliers (negative vitals, quote/bracket
noise) are scrubbed, remaining numeric outliers are replaced via the IQR
rule, and missing numerics are mean-imputed. The result is converted to
validated RescueRecords and written as JSONL.

Comma-joined cells: when merged rows disagree, all distinct values are kept
joined by commas in first-seen order. Numeric typing later takes the first
finite numeric part of such a cell (the earliest reading wins) and logs it.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .records import RescueRecord, RecordValidationError, validate_record

log = logging.getLogger(__name__)

NUMERIC = "numeric"
TEXT = "text"
BOOLEAN = "boolean"

_TRUE_TOKENS = {"true", "1", "yes", "ja", "wahr", "y"}
_FALSE_TOKENS = {"false", "0", "no", "nein", "falsch", "n"}

# quotation/bracket characters carry no signal in information columns
_AMBIGUOUS_CHARS_RE = re.compile(r"[\"'«»„“”()\[\]{}]")


class IngestError(ValueError):
    pass


class MissingKeyColumn(IngestError):
    def __init__(self, table_index: int, key_column: str):
        self.table_index = table_index
        super().__init__(f"table {table_index} lacks key column {key_column!r}")


class TooFewValues(IngestError):
    pass


class AllOutliers(IngestError):
    pass


class ColumnAllMissing(IngestError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} has no present values to average")


@dataclass
class Table:
    """A plain row table: ordered column names plus one dict per row."""

    columns: list[str]
    rows: list[dict]

    def copy(self) -> "Table":
        return Table(list(self.columns), [dict(r) for r in self.rows])


@dataclass(frozen=True)
class IngestConfig:
    """Declarative knobs for the ingest pipeline.

    ``circulation_normalization`` maps raw circulation tokens (lowercased)
    to the 0/1 normality flag. The default mapping is a documented guess for
    the undefined numeric codes seen in the wild ("3" reads as abnormal);
    override it per corpus. ``aliases`` is a manual token-level misspelling
    map applied to text cells.
    """

    key_column: str = "case_id"
    drop_columns: tuple[str, ...] = ()
    column_types: dict[str, str] = field(default_factory=dict)
    iqr_multiplier: float = 1.5
    negative_forbidden_columns: tuple[str, ...] = ("systolic_bp", "respiratory_rate", "pulse_rate")
    circulation_normalization: dict[str, int] = field(
        default_factory=lambda: {"normal": 1, "abnormal": 0, "1": 1, "0": 0, "3": 0}
    )
    aliases: dict[str, str] = field(default_factory=dict)
    # column mapping used when converting the merged table to RescueRecords
    vital_columns: dict[str, str] = field(
        default_factory=lambda: {
            "systolic_bp": "systolic_bp",
            "respiratory_rate": "respiratory_rate",
            "gcs": "gcs",
            "circulation_normal": "circulation",
            "pulse_rhythm_regular": "pulse_rhythm",
        }
    )
    note_columns: tuple[str, ...] = ("notes",)
    label_column: str = "label"
    label_map: dict[str, str] = field(
        default_factory=lambda: {
            "psychiatric": "psychiatric",
            "psych": "psychiatric",
            "1": "psychiatric",
            "true": "psychiatric",
            "non_psychiatric": "non_psychiatric",
            "nonpsychiatric": "non_psychiatric",
            "other": "non_psychiatric",
            "0": "non_psychiatric",
            "false": "non_psychiatric",
        }
    )

    def __post_init__(self):
        if self.iqr_multiplier <= 0:
            raise IngestError("iqr_multiplier must be > 0")
        if self.key_column in self.drop_columns:
            raise IngestError("key_column cannot be dropped")
        unknown = {c: t for c, t in self.column_types.items() if t not in (NUMERIC, TEXT, BOOLEAN)}
        if unknown:
            raise IngestError(f"column_types: unknown types {unknown}; expected {NUMERIC}, {TEXT} or {BOOLEAN}")
        object.__setattr__(self, "drop_columns", tuple(self.drop_columns))
        object.__setattr__(self, "negative_forbidden_columns", tuple(self.negative_forbidden_columns))
        object.__setattr__(self, "note_columns", tuple(self.note_columns))


def load_csv(path: str | Path, delimiter: str = ",") -> Table:
    """Read a CSV with header row; empty cells become None."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            return Table([], [])
        columns = list(reader.fieldnames)
        rows = []
        for raw in reader:
            rows.append({c: (raw.get(c) or None) for c in columns})
    return Table(columns, rows)


def merge_cases(tables: Sequence[Table], cfg: IngestConfig) -> Table:
    """Merge row tables into one row per case id.

    Within a case and column, equal values collapse to one cell; differing
    values are comma-joined in first-seen order. Case order follows first
    appearance across the input tables.
    """
    key = cfg.key_column
    for i, t in enumerate(tables):
        if key not in t.columns:
            raise MissingKeyColumn(i, key)

    columns: list[str] = [key]
    for t in tables:
        for c in t.columns:
            if c not in columns:
                columns.append(c)

    merged: dict[str, dict[str, list[str]]] = {}
    order: list[str] = []
    for t in tables:
        for row in t.rows:
            case = row.get(key)
            if case is None or str(case).strip() == "":
                log.warning("dropping row with empty %s", key)
                continue
            case = str(case)
            if case not in merged:
                merged[case] = {}
                order.append(case)
            cell = merged[case]
            for c in t.columns:
                if c == key:
                    continue
                value = row.get(c)
                if value is None or str(value) == "":
                    continue
                parts = cell.setdefault(c, [])
                if str(value) not in parts:
                    parts.append(str(value))

    rows = []
    for case in order:
        row: dict = {key: case}
        for c in columns:
            if c == key:
                continue
            parts = merged[case].get(c)
            row[c] = ",".join(parts) if parts else None
        rows.append(row)
    return Table(columns, rows)


def reduce_columns(table: Table, cfg: IngestConfig) -> Table:
    """Drop configured columns, then collapse columns whose cell contents are
    identical on every row (first name kept). Removals are logged."""
    out = table.copy()
    for c in cfg.drop_columns:
        if c in out.columns:
            out.columns.remove(c)
            for row in out.rows:
                row.pop(c, None)
            log.info("dropped column %r (configured)", c)

    seen: dict[tuple, str] = {}
    removed = []
    for c in list(out.columns):
        signature = tuple(repr(row.get(c)) for row in out.rows)
        if signature in seen:
            removed.append(c)
            out.columns.remove(c)
            for row in out.rows:
                row.pop(c, None)
            log.info("dropped column %r (duplicate of %r)", c, seen[signature])
        else:
            seen[signature] = c
    return out


@dataclass(frozen=True)
class IqrResult:
    cleaned: list[float]
    outlier_indices: tuple[int, ...]
    replacement: Optional[float]
    low_fence: float
    high_fence: float


def iqr_filter(values: Sequence[float], multiplier: float = 1.5) -> IqrResult:
    """Replace out-of-fence values by the mean of the in-fence ones.

    Q1/Q3 use linear interpolation on the sorted sample; fences are
    [Q1 - m*IQR, Q3 + m*IQR]. Requires at least 4 finite values.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 4 or not np.all(np.isfinite(arr)):
        finite = int(np.isfinite(arr).sum())
        raise TooFewValues(f"need >= 4 finite values, got {finite} of {arr.size}")
    q1, q3 = np.quantile(arr, [0.25, 0.75])
    iqr = q3 - q1
    low = q1 - multiplier * iqr
    high = q3 + multiplier * iqr
    inside = (arr >= low) & (arr <= high)
    if not inside.any():
        raise AllOutliers(f"fences [{low}, {high}] exclude every value")
    outliers = np.flatnonzero(~inside)
    if outliers.size == 0:
        return IqrResult(list(arr), (), None, low, high)
    replacement = float(arr[inside].mean())
    cleaned = arr.copy()
    cleaned[~inside] = replacement
    return IqrResult(list(cleaned), tuple(int(i) for i in outliers), replacement, low, high)


def _first_numeric_part(cell: str) -> Optional[float]:
    for part in str(cell).split(","):
        try:
            value = float(part)
        except ValueError:
            continue
        if math.isfinite(value):
            return value
    return None


def scrub_cells(table: Table, cfg: IngestConfig) -> Table:
    """Remove definite outliers and noise, in place on a copy.

    Strips quotation/bracket characters from text cells, applies the manual
    alias map, and blanks negative values in columns where a negative vital
    is physically impossible.
    """
    out = table.copy()
    for row in out.rows:
        for c in out.columns:
            value = row.get(c)
            if value is None:
                continue
            ctype = cfg.column_types.get(c, TEXT)
            if ctype == TEXT and isinstance(value, str):
                cleaned = _AMBIGUOUS_CHARS_RE.sub("", value)
                for wrong, right in cfg.aliases.items():
                    cleaned = re.sub(rf"\b{re.escape(wrong)}\b", right, cleaned)
                row[c] = cleaned if cleaned.strip() else None
            elif c in cfg.negative_forbidden_columns:
                num = _first_numeric_part(value) if isinstance(value, str) else value
                if num is not None and num < 0:
                    log.info("blanked negative %s=%r (definite outlier)", c, value)
                    row[c] = None
    return out


def type_cells(table: Table, cfg: IngestConfig) -> Table:
    """Convert cells to their configured types (numeric, boolean)."""
    out = table.copy()
    circ_col = cfg.vital_columns.get("circulation_normal")
    for row in out.rows:
        for c in out.columns:
            value = row.get(c)
            if value is None or not isinstance(value, str):
                continue
            ctype = cfg.column_types.get(c, TEXT)
            if c == circ_col:
                token = value.split(",")[0].strip().lower()
                mapped = cfg.circulation_normalization.get(token)
                if mapped is None:
                    log.warning("unmapped circulation token %r; left missing", value)
                row[c] = None if mapped is None else bool(mapped)
            elif ctype == NUMERIC:
                num = _first_numeric_part(value)
                if "," in value:
                    log.info("multi-valued numeric cell %s=%r; using first part", c, value)
                if num is None:
                    log.warning("unparseable numeric cell %s=%r; left missing", c, value)
                row[c] = num
            elif ctype == BOOLEAN:
                token = value.split(",")[0].strip().lower()
                if token in _TRUE_TOKENS:
                    row[c] = True
                elif token in _FALSE_TOKENS:
                    row[c] = False
                else:
                    log.warning("unparseable boolean cell %s=%r; left missing", c, value)
                    row[c] = None
    return out


@dataclass(frozen=True)
class ColumnFilterReport:
    column: str
    outlier_count: int
    replacement: Optional[float]


def apply_iqr(table: Table, cfg: IngestConfig) -> tuple[Table, list[ColumnFilterReport]]:
    """Run the IQR rule over every numeric column; returns the filter log."""
    out = table.copy()
    reports = []
    for c in out.columns:
        if cfg.column_types.get(c) != NUMERIC:
            continue
        present = [(i, row[c]) for i, row in enumerate(out.rows) if row.get(c) is not None]
        if len(present) < 4:
            log.warning("column %r has %d values; IQR filter skipped", c, len(present))
            continue
        values = [v for _, v in present]
        result = iqr_filter(values, cfg.iqr_multiplier)
        for pos, cleaned in zip((i for i, _ in present), result.cleaned):
            out.rows[pos][c] = cleaned
        reports.append(ColumnFilterReport(c, len(result.outlier_indices), result.replacement))
        if result.outlier_indices:
            log.info(
                "column %r: replaced %d outliers with %.6g",
                c, len(result.outlier_indices), result.replacement,
            )
    return out, reports


def impute(table: Table, cfg: IngestConfig) -> Table:
    """Fill missing numeric cells with the column mean over present values.

    Missing booleans are left absent but flagged in the log. A numeric
    column with no present values raises ColumnAllMissing.
    """
    out = table.copy()
    for c in out.columns:
        ctype = cfg.column_types.get(c)
        if ctype == NUMERIC:
            present = [row[c] for row in out.rows if row.get(c) is not None]
            missing = sum(1 for row in out.rows if row.get(c) is None)
            if missing == 0:
                continue
            if not present:
                raise ColumnAllMissing(c)
            mean = float(np.mean(present))
            for row in out.rows:
                if row.get(c) is None:
                    row[c] = mean
            log.info("imputed %d cells in %r with mean %.6g", missing, c, mean)
        elif ctype == BOOLEAN:
            missing = sum(1 for row in out.rows if row.get(c) is None)
            if missing:
                log.warning("column %r: %d missing booleans left absent", c, missing)
    return out


def table_to_records(table: Table, cfg: IngestConfig) -> tuple[list[RescueRecord], list[tuple[int, RecordValidationError]]]:
    """Convert the cleaned table into validated RescueRecords.

    Returns the valid records plus (row index, error) pairs for rows that
    failed validation.
    """
    records: list[RescueRecord] = []
    errors: list[tuple[int, RecordValidationError]] = []
    for i, row in enumerate(table.rows):
        raw: dict = {"case_id": row.get(cfg.key_column)}
        for canonical, column in cfg.vital_columns.items():
            raw[canonical] = row.get(column)
        notes = [str(row[c]) for c in cfg.note_columns if row.get(c) is not None]
        raw["notes"] = notes
        label_cell = row.get(cfg.label_column)
        if label_cell is not None:
            token = str(label_cell).split(",")[0].strip().lower()
            raw["label"] = cfg.label_map.get(token, "unknown")
        try:
            records.append(validate_record(raw))
        except RecordValidationError as err:
            errors.append((i, err))
    return records, errors


def ingest_tables(tables: Sequence[Table], cfg: IngestConfig) -> tuple[list[RescueRecord], list[tuple[int, RecordValidationError]]]:
    """Full ingest pipeline: merge, reduce, scrub, IQR, impute, validate."""
    table = merge_cases(tables, cfg)
    table = reduce_columns(table, cfg)
    table = scrub_cells(table, cfg)
    table = type_cells(table, cfg)
    table, _ = apply_iqr(table, cfg)
    table = impute(table, cfg)
    return table_to_records(table, cfg)
