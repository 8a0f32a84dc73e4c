"""Feature selection: pre-training relevance filter and post-training RFECV.

The filter scores each text feature by the relative deviation between its
mean occurrence in psychiatric and non-psychiatric cases and keeps features
scoring at or above the threshold (default 3, on the ratio scale: the
feature occurs at least four times as often in one group). RFECV then
iteratively drops the feature with the lowest permutation importance and
keeps the subset with the best mean CV score.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# train stays importable as featselect.train, a name perfbench/layers.py wraps
from .learners import ModelSpec, train  # noqa: F401
from . import tuning
from .records import Dataset, FeatureVector, RelevanceScore, TEXT_FEATURE_NAMES, rng_from
from .tuning import CvSpec, fold_accuracy

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


def _fold_drops(seed: int, model, X: np.ndarray, y: np.ndarray, fold: int) -> tuple[float, np.ndarray]:
    """RFECV's ``cross_validate`` scorer, one fold's validation rows: the
    model's accuracy, and per feature the accuracy lost when its column is
    permuted."""
    base = fold_accuracy(model, X, y)
    drops = np.empty(X.shape[1])
    for j in range(X.shape[1]):
        rng = rng_from(seed, 7004, X.shape[1], fold, j)
        Xp = X.copy()
        Xp[:, j] = X[rng.permutation(len(X)), j]
        drops[j] = base - fold_accuracy(model, Xp, y)
    return base, drops


def rfecv(data: Dataset, model_spec: ModelSpec, cv: CvSpec, map_fn: Callable = map, workers: int = 1) -> RfecvResult:
    """Recursive feature elimination driven by permutation importance.

    Each subset size is one ``cross_validate`` call of the spec on that
    subset, with ``map_fn`` and ``workers`` as there, scoring each fold by
    ``_fold_drops``. A feature's importance is the mean drop in fold
    accuracy when its validation column is permuted. The least important
    feature is removed until one remains. Returns the subset with the best
    mean CV accuracy (ties go to the smaller subset). Fold layout stays
    fixed across subset sizes.
    """
    if len(data.feature_names) < 2:
        raise ValueError("rfecv needs at least 2 features")
    score = functools.partial(_fold_drops, cv.seed)
    features = list(data.feature_names)
    steps: list[RfecvStep] = []
    eliminated: list[str] = []
    while features:
        # looked up on ``tuning`` at each call, so a wrap of ``tuning.cross_validate`` sees every step
        [folds] = tuning.cross_validate([model_spec], data.select(features), cv, map_fn, workers, score)
        fold_scores = tuple(base for base, _ in folds)
        steps.append(RfecvStep(tuple(features), float(np.mean(fold_scores)), fold_scores))
        if len(features) == 1:
            break
        drops = sum(fold_drops for _, fold_drops in folds) / len(folds)
        weakest = int(np.argmin(drops))
        eliminated.append(features[weakest])
        log.info(
            "rfecv: dropping %r (importance %.5f) from %d features",
            features[weakest], drops[weakest], len(features),
        )
        del features[weakest]

    return RfecvResult(steps[_best_step(steps)].features, tuple(eliminated), tuple(steps))
