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
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .learners import ModelSpec, train
from .records import Dataset, FeatureVector, RelevanceScore, TEXT_FEATURE_NAMES, rng_from
from .tuning import CvSpec, fold_accuracy, fold_pairs

log = logging.getLogger(__name__)


class ZeroReference(ValueError):
    pass


def relative_deviation(x: float, y: float) -> float:
    """|x - y| / |y| * 100; undefined (error) when the reference y is zero."""
    if y == 0:
        raise ZeroReference("reference value is zero")
    return abs(x - y) / abs(y) * 100.0


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of the relevance filter over the scored features."""

    scores: tuple[RelevanceScore, ...]
    threshold: float
    selected: tuple[str, ...]
    rejected: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "selected": list(self.selected),
            "rejected": list(self.rejected),
            "scores": [
                {
                    "feature_name": s.feature_name,
                    "observed_mean": s.observed_mean,
                    "reference_mean": s.reference_mean,
                    "score": None if math.isinf(s.score) else s.score,
                    "score_percent": None if math.isinf(s.score) else s.score * 100.0,
                    "zero_reference": s.zero_reference,
                }
                for s in self.scores
            ],
        }


def filter_select(
    patient_vectors: Sequence[FeatureVector],
    nonpatient_vectors: Sequence[FeatureVector],
    threshold: float = 3.0,
    feature_names: Sequence[str] = TEXT_FEATURE_NAMES,
    select_zero_reference: bool = True,
) -> SelectionReport:
    """Score features by |x - y| / |y| on group means and apply the threshold.

    x is the mean over psychiatric cases, y over everyone else. A zero
    reference mean is flagged per feature (score = inf) rather than raised;
    such maximally discriminative features are selected unless
    ``select_zero_reference`` is False.
    """
    if not patient_vectors or not nonpatient_vectors:
        raise ValueError("both groups must be non-empty")
    scores: list[RelevanceScore] = []
    selected: list[str] = []
    rejected: list[str] = []
    for name in feature_names:
        x = float(np.mean([getattr(v, name) for v in patient_vectors]))
        y = float(np.mean([getattr(v, name) for v in nonpatient_vectors]))
        if y == 0.0:
            score = math.inf
            flagged = True
            log.warning("feature %r has zero reference mean; flagged", name)
        else:
            score = abs(x - y) / abs(y)
            flagged = False
        scores.append(RelevanceScore(name, x, y, score, zero_reference=flagged))
        keep = score >= threshold if not flagged else select_zero_reference
        (selected if keep else rejected).append(name)
    return SelectionReport(tuple(scores), threshold, tuple(selected), tuple(rejected))


@dataclass(frozen=True)
class RfecvStep:
    features: tuple[str, ...]
    mean_score: float
    fold_scores: tuple[float, ...]


@dataclass(frozen=True)
class RfecvResult:
    best_features: tuple[str, ...]
    elimination_order: tuple[str, ...]
    steps: tuple[RfecvStep, ...]


def _fold_drops(job) -> tuple[float, np.ndarray]:
    """One RFECV job, a subset's fold: the model's validation accuracy, and
    per feature the accuracy lost when its validation column is permuted."""
    spec, X, y, train_idx, val_idx, seed, fi = job
    model = train(spec, X[train_idx], y[train_idx])
    Xv, yv = X[val_idx], y[val_idx]
    base = fold_accuracy(model, Xv, yv)
    drops = np.empty(X.shape[1])
    for j in range(X.shape[1]):
        rng = rng_from(seed, 7004, X.shape[1], fi, j)
        Xp = Xv.copy()
        Xp[:, j] = Xv[rng.permutation(len(Xv)), j]
        drops[j] = base - fold_accuracy(model, Xp, yv)
    return base, drops


def rfecv(data: Dataset, model_spec: ModelSpec, cv: CvSpec, map_fn: Callable = map) -> RfecvResult:
    """Recursive feature elimination driven by permutation importance.

    At each subset size the model is trained per fold; a feature's
    importance is the mean drop in fold accuracy when its validation
    column is permuted. The least important feature is removed until one
    remains. Returns the subset with the best mean CV accuracy (ties go to
    the smaller subset). Fold layout stays fixed across subset sizes. A
    subset's folds are jobs run by ``map_fn``, as in ``cross_validate``.
    """
    if len(data.feature_names) < 2:
        raise ValueError("rfecv needs at least 2 features")
    folds = fold_pairs(data.y, cv)

    features = list(data.feature_names)
    steps: list[RfecvStep] = []
    eliminated: list[str] = []
    while features:
        sub = data.select(features)
        jobs = [(model_spec, sub.X, sub.y, tr, va, cv.seed, fi) for fi, (tr, va) in enumerate(folds)]
        fold_scores = []
        drops = np.zeros(len(features))
        for base, fold_drops in map_fn(_fold_drops, jobs):
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

    best = max(steps, key=lambda s: (s.mean_score, -len(s.features)))
    return RfecvResult(best.features, tuple(eliminated), tuple(steps))
