"""Feature selection: pre-training relevance filter and post-training RFECV.

The filter scores each text feature by the relative deviation between its
mean occurrence in psychiatric and non-psychiatric cases and keeps features
scoring at or above the threshold (default 3, on the ratio scale: the
feature occurs at least four times as often in one group). RFECV then
iteratively drops the feature with the lowest permutation importance and
keeps the subset with the best mean CV score.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# train stays importable as featselect.train, a name perfbench/layers.py wraps
from .learners import ModelSpec, train, train_folds  # noqa: F401
from .records import Dataset, FeatureVector, RelevanceScore, TEXT_FEATURE_NAMES, rng_from
from .tuning import CvSpec, fold_accuracy, fold_chunks, fold_pairs

log = logging.getLogger(__name__)


def relative_deviation(x: float, y: float) -> Optional[float]:
    """|x - y| / |y|, the deviation of x relative to the reference y; None
    when the reference is zero."""
    return None if y == 0 else abs(x - y) / abs(y)


@dataclass(frozen=True)
class SelectionReport:
    """selection_report.json: the relevance filter's outcome over the scored features."""

    threshold: float
    selected: tuple[str, ...]
    rejected: tuple[str, ...]
    scores: tuple[RelevanceScore, ...]


def filter_select(
    patient_vectors: Sequence[FeatureVector],
    nonpatient_vectors: Sequence[FeatureVector],
    threshold: float = 3.0,
    feature_names: Sequence[str] = TEXT_FEATURE_NAMES,
) -> SelectionReport:
    """Score features by relative_deviation of their group means and apply the threshold.

    x is the mean over psychiatric cases, y over everyone else. A zero
    reference mean is flagged per feature (score None) rather than raised;
    such maximally discriminative features are selected.
    """
    if not patient_vectors or not nonpatient_vectors:
        raise ValueError("both groups must be non-empty")
    scores: list[RelevanceScore] = []
    selected: list[str] = []
    rejected: list[str] = []
    for name in feature_names:
        x = float(np.mean([getattr(v, name) for v in patient_vectors]))
        y = float(np.mean([getattr(v, name) for v in nonpatient_vectors]))
        score = relative_deviation(x, y)
        if score is None:
            log.warning("feature %r has zero reference mean; flagged", name)
        percent = None if score is None else score * 100.0
        scores.append(RelevanceScore(name, x, y, score, percent, zero_reference=score is None))
        keep = score is None or score >= threshold
        (selected if keep else rejected).append(name)
    return SelectionReport(threshold, tuple(selected), tuple(rejected), tuple(scores))


@dataclass(frozen=True)
class RfecvStep:
    features: tuple[str, ...]
    mean_score: float
    fold_scores: tuple[float, ...]


def _best_step(steps: Sequence[RfecvStep]) -> int:
    """Index of the step with the best mean score; ties go to the smaller subset."""
    return max(range(len(steps)), key=lambda i: (steps[i].mean_score, -len(steps[i].features)))


@dataclass(frozen=True)
class RfecvResult:
    """rfecv_report.json: every step's features and fold scores, with their
    exact mean, the features of the step ``_best_step`` picks, and the
    feature each step after the first dropped, in order."""

    best_features: tuple[str, ...]
    elimination_order: tuple[str, ...]
    steps: tuple[RfecvStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("steps: no steps")
        for i, step in enumerate(self.steps):
            mean = float(np.mean(step.fold_scores))
            if step.mean_score != mean:
                raise ValueError(f"steps[{i}].mean_score: {step.mean_score} is not {mean}, the mean of its fold_scores")
        order, n = self.elimination_order, len(self.steps) - 1
        if len(order) != n:
            raise ValueError(f"elimination_order: {len(order)} entries, where {n + 1} steps need {n}")
        for i, feature in enumerate(order):
            kept = tuple(f for f in self.steps[i].features if f != feature)
            if feature not in self.steps[i].features or self.steps[i + 1].features != kept:
                raise ValueError(
                    f"elimination_order[{i}]: {feature!r} is not the one feature that steps[{i}] has "
                    f"and steps[{i + 1}] lacks"
                )
        best = _best_step(self.steps)
        if self.best_features != self.steps[best].features:
            raise ValueError(
                f"best_features: {list(self.best_features)} are not steps[{best}].features "
                f"{list(self.steps[best].features)}, the best mean_score's (ties go to the smaller subset)"
            )


def _fold_drops(job) -> list[tuple[float, np.ndarray]]:
    """One RFECV job, a chunk of a subset's folds: per fold, the model's
    validation accuracy, and per feature the accuracy lost when its
    validation column is permuted."""
    spec, X, y, chunk, seed = job
    out = [None] * len(chunk)
    for f, _, model in train_folds([spec], X, y, [train_idx for _, train_idx, _ in chunk]):
        fi, _, val_idx = chunk[f]
        Xv, yv = X[val_idx], y[val_idx]
        base = fold_accuracy(model, Xv, yv)
        drops = np.empty(X.shape[1])
        for j in range(X.shape[1]):
            rng = rng_from(seed, 7004, X.shape[1], fi, j)
            Xp = Xv.copy()
            Xp[:, j] = Xv[rng.permutation(len(Xv)), j]
            drops[j] = base - fold_accuracy(model, Xp, yv)
        out[f] = base, drops
    return out


def rfecv(data: Dataset, model_spec: ModelSpec, cv: CvSpec, map_fn: Callable = map, workers: int = 1) -> RfecvResult:
    """Recursive feature elimination driven by permutation importance.

    At each subset size the model is trained per fold; a feature's
    importance is the mean drop in fold accuracy when its validation
    column is permuted. The least important feature is removed until one
    remains. Returns the subset with the best mean CV accuracy (ties go to
    the smaller subset). Fold layout stays fixed across subset sizes. A
    subset's ``fold_chunks`` are jobs run by ``map_fn`` on ``workers``, as
    in ``cross_validate``, so an MLPC subset trains a chunk's folds as
    lanes of one stacked fit.
    """
    if len(data.feature_names) < 2:
        raise ValueError("rfecv needs at least 2 features")
    folds = fold_pairs(data.y, cv)
    chunks = fold_chunks(len(folds), workers)

    features = list(data.feature_names)
    steps: list[RfecvStep] = []
    eliminated: list[str] = []
    while features:
        sub = data.select(features)
        jobs = [(model_spec, sub.X, sub.y, [(fi, *folds[fi]) for fi in chunk], cv.seed) for chunk in chunks]
        fold_scores = []
        drops = np.zeros(len(features))
        for chunk_drops in map_fn(_fold_drops, jobs):
            for base, fold_drops in chunk_drops:
                fold_scores.append(base)
                drops += fold_drops
        steps.append(RfecvStep(tuple(features), float(np.mean(fold_scores)), tuple(fold_scores)))
        if len(features) == 1:
            break
        drops /= len(folds)
        weakest = int(np.argmin(drops))
        eliminated.append(features[weakest])
        log.info(
            "rfecv: dropping %r (importance %.5f) from %d features",
            features[weakest], drops[weakest], len(features),
        )
        del features[weakest]

    return RfecvResult(steps[_best_step(steps)].features, tuple(eliminated), tuple(steps))
