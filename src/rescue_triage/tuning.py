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
from .learners import ModelKind, ModelSpec, TrainedModel, share_groups, train, train_folds
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


def fold_chunks(folds: int, workers: int) -> list[list[int]]:
    """Fold indices 0..folds-1 in min(workers, folds) runs of consecutive
    folds, the longer runs first: the fold axis of a stage's CV jobs, so that
    one share group's folds fill the stage's workers in one round."""
    return [chunk.tolist() for chunk in np.array_split(np.arange(folds), min(workers, folds))]


def _fold_scores(job) -> list[list[float]]:
    """One CV job: fit a share group of specs on each of a chunk of folds'
    training rows; per fold, each model's accuracy on its validation rows."""
    specs, X, y, pairs = job
    scores = [[0.0] * len(specs) for _ in pairs]
    for f, i, model in train_folds(specs, X, y, [train_idx for train_idx, _ in pairs]):
        val_idx = pairs[f][1]
        scores[f][i] = fold_accuracy(model, X[val_idx], y[val_idx])
    return scores


def cross_validate(
    specs: Sequence[ModelSpec], data: Dataset, cv: CvSpec, map_fn: Callable = map, workers: int = 1
) -> list[tuple[float, ...]]:
    """Per fold, train every spec on the k-1 other folds, evaluate on the
    held-out one; each spec's fold accuracies, in fold order.

    One job per (``share_groups`` group, ``fold_chunks`` chunk), the chunks
    following the ``workers`` that ``map_fn`` runs the jobs on: the builtin
    ``map`` here or a process pool's in its workers. A job fits its group on
    its folds through ``train_folds``, so XGB and MLPC fit a chunk's folds
    as lanes of one fit. Results are taken in job order, so the scores are
    the same for any map and any worker count.
    Raises DegenerateFolds when a fold's training side lacks both classes.
    """
    groups = share_groups(specs)
    pairs = fold_pairs(data.y, cv)
    chunks = fold_chunks(len(pairs), workers)
    jobs = [
        ([specs[i] for i in group], data.X, data.y, [pairs[f] for f in chunk]) for group in groups for chunk in chunks
    ]
    scores: list[list[float]] = [[] for _ in specs]
    job_groups = [group for group in groups for _ in chunks]
    for group, job_scores in zip(job_groups, map_fn(_fold_scores, jobs)):
        for fold_scores in job_scores:
            for i, score in zip(group, fold_scores):
                scores[i].append(score)
    return [tuple(s) for s in scores]


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
class Candidate:
    """One search candidate of a kind, as leaderboard.json lists it: its
    resolved hyperparameters and its CV accuracy, mean and per fold."""

    hyperparameters: dict
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


def search(
    kind: ModelKind,
    search_spec: SearchSpec,
    cv: CvSpec,
    data: Dataset,
    model_seed: int = 0,
    map_fn: Callable = map,
    workers: int = 1,
) -> tuple[Candidate, ...]:
    """Every candidate with its CV accuracy, best mean first; ``map_fn`` runs
    the CV jobs on ``workers``, as in ``cross_validate``.

    Ties resolve to the earliest candidate in enumeration order.
    """
    specs = [ModelSpec(kind, params, seed=model_seed) for params in _draw_candidates(search_spec)]
    candidates = [
        Candidate(spec.hyperparameters, float(np.mean(scores)), scores)
        for spec, scores in zip(specs, cross_validate(specs, data, cv, map_fn, workers))
    ]
    return tuple(sorted(candidates, key=lambda c: -c.mean_accuracy))


@dataclass(frozen=True)
class EvalRow:
    """One table row; ``model`` is the fit it scored if its job kept it."""

    name: str
    spec: ModelSpec
    report: Optional[_metrics.MetricsReport]
    error: Optional[str] = None
    model: Optional[TrainedModel] = field(default=None, compare=False, repr=False)


def _eval_row(job) -> EvalRow:
    """One evaluation job: a spec trained on the train set and scored on the
    test set, with its model if asked to keep it, or its failure as an error
    row."""
    spec, train_set, test_set, keep = job
    try:
        model = train(spec, train_set.X, train_set.y, feature_names=train_set.feature_names)
        s = np.asarray(model.score(test_set.X))
        y_pred = (s >= model.decision_threshold).astype(int)
        report = _metrics.evaluate_predictions(test_set.y, y_pred, scores=s)
        return EvalRow(spec.display_name, spec, report, model=model if keep else None)
    except Exception as exc:  # propagate per-model failure into the table
        return EvalRow(spec.display_name, spec, None, error=str(exc))


def evaluate_all(
    specs: Sequence[ModelSpec],
    train_set: Dataset,
    test_set: Dataset,
    map_fn: Callable = map,
    keep_model: Optional[ModelSpec] = None,
) -> list[EvalRow]:
    """Train each spec on train_set, evaluate on the held-out test_set; one
    job per spec, run by ``map_fn`` as in ``cross_validate``. The row of the
    spec equal to ``keep_model`` carries its model; the others' models are
    not sent back from a pool's workers.

    Per-model failures become error rows instead of aborting the table and
    are logged in spec order. Rows are ordered by test accuracy descending.
    """
    if not specs:
        raise ValueError("need at least one model spec")
    rows = list(map_fn(_eval_row, [(spec, train_set, test_set, spec == keep_model) for spec in specs]))
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
