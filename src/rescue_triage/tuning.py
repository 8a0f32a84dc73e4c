"""Hyperparameter search, cross-validation, train/test splitting and the
per-model evaluation table.

Search candidates are ranked by mean CV accuracy (ties resolve to the first
candidate in deterministic enumeration order). The evaluation table is
shaped like the reporting convention used downstream: one row per model,
five metrics as percentages with two decimals.
"""

from __future__ import annotations

import csv
import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import metrics as _metrics
from .learners import ModelKind, ModelSpec, share_groups, train, train_grid
from .records import Dataset, rng_from

log = logging.getLogger(__name__)


class DegenerateFolds(ValueError):
    pass


class EmptyPartition(ValueError):
    pass


class EmptySpace(ValueError):
    pass


@dataclass(frozen=True)
class CvSpec:
    """K-fold layout; stratified folds preserve class counts within one."""

    folds: int = 5
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass(frozen=True)
class SearchSpec:
    """Grid or random exploration of a hyperparameter space.

    Space values are lists of candidates. Grid mode visits every combination;
    random mode visits a seeded sample of ``budget`` combinations of that
    grid, drawn without replacement, so a budget covering the whole space
    visits exactly the grid (in a seeded order).
    """

    mode: str = "grid"
    space: dict = field(default_factory=dict)
    budget: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("grid", "random"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.mode == "random" and self.budget < 1:
            raise ValueError("random search budget must be >= 1")


def split_train_test(
    data: Dataset, ratio: float, seed: int, stratified: bool = True
) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive, seeded-shuffle split; ratio is the train share.

    Per-class (stratified) or global sample counts round half-up.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    n = len(data)
    rng = rng_from(seed, 7001)
    if stratified:
        train_idx: list[int] = []
        test_idx: list[int] = []
        for cls in (0, 1):
            members = np.flatnonzero(data.y == cls)
            perm = members[rng.permutation(len(members))]
            n_train = int(np.floor(len(perm) * ratio + 0.5))
            train_idx.extend(perm[:n_train])
            test_idx.extend(perm[n_train:])
        train_idx.sort()
        test_idx.sort()
    else:
        perm = rng.permutation(n)
        n_train = int(np.floor(n * ratio + 0.5))
        train_idx = sorted(perm[:n_train].tolist())
        test_idx = sorted(perm[n_train:].tolist())
    if not train_idx or not test_idx:
        raise EmptyPartition(f"split {ratio} of {n} rows leaves an empty side")
    return data.take(train_idx), data.take(test_idx)


def make_folds(y: np.ndarray, cv: CvSpec) -> list[np.ndarray]:
    """Validation-index arrays for each fold."""
    n = len(y)
    if cv.folds > n:
        raise ValueError(f"cannot make {cv.folds} folds from {n} rows")
    rng = rng_from(cv.seed, 7002)
    if cv.stratified:
        assignment = np.empty(n, dtype=np.int64)
        for cls in np.unique(y):
            members = np.flatnonzero(y == cls)
            perm = members[rng.permutation(len(members))]
            assignment[perm] = np.arange(len(perm)) % cv.folds
        folds = [np.flatnonzero(assignment == f) for f in range(cv.folds)]
    else:
        perm = rng.permutation(n)
        folds = [np.sort(part) for part in np.array_split(perm, cv.folds)]
    if any(len(f) == 0 for f in folds):
        raise ValueError("fold layout produced an empty fold")
    return folds


def fold_pairs(y: np.ndarray, cv: CvSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train_idx, val_idx) per fold of make_folds.

    Raises DegenerateFolds when a fold's training side lacks both classes.
    """
    pairs = []
    for i, val_idx in enumerate(make_folds(y, cv)):
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[val_idx] = False
        train_idx = np.flatnonzero(train_mask)
        if len(np.unique(y[train_idx])) < 2:
            raise DegenerateFolds(f"fold {i}: training side has a single class")
        pairs.append((train_idx, val_idx))
    return pairs


def fold_accuracy(model, X: np.ndarray, y: np.ndarray) -> float:
    """Accuracy of the model's hard predictions on one validation fold."""
    return _metrics.metrics(_metrics.confusion(y, model.predict(X))).accuracy


@dataclass(frozen=True)
class CvResult:
    fold_scores: tuple[float, ...]
    mean: float


def _fold_scores(job) -> list[float]:
    """One CV job: fit a share group of specs on a fold's training rows and
    return each model's accuracy on the fold's validation rows."""
    specs, X, y, train_idx, val_idx = job
    X_val, y_val = X[val_idx], y[val_idx]
    scores = [0.0] * len(specs)
    for i, model in train_grid(specs, X[train_idx], y[train_idx]):
        scores[i] = fold_accuracy(model, X_val, y_val)
    return scores


def cross_validate(specs: Sequence[ModelSpec], data: Dataset, cv: CvSpec, map_fn: Callable = map) -> list[CvResult]:
    """Per fold, train every spec on the k-1 other folds, evaluate on the
    held-out one; one CvResult of fold accuracies and their mean per spec.

    One job per (fold, ``share_groups`` group), fold-major, run by ``map_fn``:
    the builtin ``map`` here or a process pool's in its workers. Results are
    taken in job order, so the scores are the same either way. Raises
    DegenerateFolds when a fold's training side lacks both classes.
    """
    groups = share_groups(specs)
    jobs = [
        ([specs[i] for i in group], data.X, data.y, train_idx, val_idx)
        for train_idx, val_idx in fold_pairs(data.y, cv)
        for group in groups
    ]
    scores: list[list[float]] = [[] for _ in specs]
    for k, fold_scores in enumerate(map_fn(_fold_scores, jobs)):
        for i, score in zip(groups[k % len(groups)], fold_scores):
            scores[i].append(score)
    return [CvResult(tuple(s), float(np.mean(s))) for s in scores]


def _enumerate_grid(space: dict) -> list[dict]:
    names = sorted(space)
    for name in names:
        if not isinstance(space[name], (list, tuple)):
            raise ValueError(f"grid mode needs a value list for {name!r}")
        if len(space[name]) == 0:
            raise EmptySpace(f"no values for {name!r}")
    combos = []
    for values in itertools.product(*(space[n] for n in names)):
        combos.append(dict(zip(names, values)))
    return combos


def _draw_candidates(search: SearchSpec) -> list[dict]:
    if not search.space:
        raise EmptySpace("empty hyperparameter space")
    grid = _enumerate_grid(search.space)
    if search.mode == "grid":
        return grid
    rng = rng_from(search.seed, 7003)
    order = rng.permutation(len(grid))[: min(search.budget, len(grid))]
    return [grid[i] for i in order]


@dataclass(frozen=True)
class LeaderboardEntry:
    spec: ModelSpec
    mean_score: float
    fold_scores: tuple[float, ...]


@dataclass(frozen=True)
class SearchResult:
    best: ModelSpec
    leaderboard: tuple[LeaderboardEntry, ...]


def search(
    kind: ModelKind,
    search_spec: SearchSpec,
    cv: CvSpec,
    data: Dataset,
    model_seed: int = 0,
    map_fn: Callable = map,
) -> SearchResult:
    """Evaluate every candidate by mean CV accuracy and return the winner;
    ``map_fn`` runs the CV jobs, as in ``cross_validate``.

    Ties resolve to the earliest candidate in enumeration order.
    """
    specs = [ModelSpec(kind, params, seed=model_seed) for params in _draw_candidates(search_spec)]
    entries = [
        LeaderboardEntry(spec, result.mean, result.fold_scores)
        for spec, result in zip(specs, cross_validate(specs, data, cv, map_fn))
    ]
    ranked = sorted(range(len(entries)), key=lambda i: (-entries[i].mean_score, i))
    leaderboard = tuple(entries[i] for i in ranked)
    return SearchResult(best=leaderboard[0].spec, leaderboard=leaderboard)


@dataclass(frozen=True)
class EvalRow:
    name: str
    spec: ModelSpec
    report: Optional[_metrics.MetricsReport]
    error: Optional[str] = None


def _eval_row(job) -> EvalRow:
    """One evaluation job: a spec trained on the train set and scored on the
    test set, or its failure as an error row."""
    spec, train_set, test_set = job
    try:
        model = train(spec, train_set.X, train_set.y)
        s = np.asarray(model.score(test_set.X))
        y_pred = (s >= model.decision_threshold).astype(int)
        return EvalRow(spec.display_name, spec, _metrics.evaluate_predictions(test_set.y, y_pred, scores=s))
    except Exception as exc:  # propagate per-model failure into the table
        return EvalRow(spec.display_name, spec, None, error=str(exc))


def evaluate_all(
    specs: Sequence[ModelSpec], train_set: Dataset, test_set: Dataset, map_fn: Callable = map
) -> list[EvalRow]:
    """Train each spec on train_set, evaluate on the held-out test_set; one
    job per spec, run by ``map_fn`` as in ``cross_validate``.

    Per-model failures become error rows instead of aborting the table and
    are logged in spec order. Rows are ordered by test accuracy descending.
    """
    if not specs:
        raise ValueError("need at least one model spec")
    rows = list(map_fn(_eval_row, [(spec, train_set, test_set) for spec in specs]))
    for row in rows:
        if row.error is not None:
            log.error("evaluation failed for %s: %s", row.name, row.error)
    rows.sort(
        key=lambda r: (
            -(r.report.accuracy if r.report and r.report.accuracy is not None else -1.0),
            r.name,
        )
    )
    return rows


METRIC_COLUMNS = ("accuracy", "sensitivity", "specificity", "precision", "f1")


def _fmt_pct(value: Optional[float]) -> str:
    return "NA" if value is None else f"{100.0 * value:.2f}"


def write_metrics_csv(rows: Sequence[EvalRow], path: str | Path) -> None:
    """Model-by-metric table: percentages with two decimals, NA when undefined."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", *METRIC_COLUMNS])
        for row in rows:
            if row.report is None:
                writer.writerow([row.name] + ["NA"] * len(METRIC_COLUMNS))
            else:
                writer.writerow([row.name] + [_fmt_pct(getattr(row.report, m)) for m in METRIC_COLUMNS])


def write_roc_csv(points: Sequence[tuple[float, float]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr"])
        for fpr, tpr in points:
            writer.writerow([repr(float(fpr)), repr(float(tpr))])
