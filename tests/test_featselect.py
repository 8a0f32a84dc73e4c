import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescue_triage.featselect import (
    SelectionReport,
    _fold_drops,
    filter_select,
    relative_deviation,
    rfecv,
)
from rescue_triage.learners import ModelKind, ModelSpec
from rescue_triage.records import Dataset, FeatureVector, TEXT_FEATURE_NAMES, asjson, read_json, write_json
from rescue_triage.tuning import CvSpec, cross_validate, fold_chunks

from conftest import make_blobs


class TestRelativeDeviation:
    def test_zero_deviation(self):
        assert relative_deviation(7, 7) == 0.0

    def test_direct_substitution(self):
        assert relative_deviation(8, 2) == 3.0

    def test_zero_reference_is_none(self):
        assert relative_deviation(1, 0) is None

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        y=st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: abs(v) > 1e-6),
        c=st.floats(1e-3, 1e3, allow_nan=False).filter(lambda v: v > 0),
    )
    def test_scale_invariance(self, x, y, c):
        assert math.isclose(
            relative_deviation(c * x, c * y), relative_deviation(x, y),
            rel_tol=1e-9, abs_tol=1e-9,
        )

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        y=st.floats(-1e6, 1e6, allow_nan=False).filter(lambda v: v != 0),
    )
    def test_nonnegative_and_zero_iff_equal(self, x, y):
        value = relative_deviation(x, y)
        assert value >= 0.0
        assert (value == 0.0) == (x == y)


def _vectors(bits_per_feature, n):
    """Build n vectors whose text bits follow the given per-feature fractions."""
    out = []
    for i in range(n):
        bits = {f: 1.0 if i < round(frac * n) else 0.0 for f, frac in bits_per_feature.items()}
        out.append(
            FeatureVector(
                gcs=12.0, circulation_normal=1.0, systolic_bp=120.0,
                pulse_rhythm_regular=0.0, respiratory_rate=16.0,
                **{f: bits.get(f, 0.0) for f in TEXT_FEATURE_NAMES},
            )
        )
    return out


class TestFilterSelect:
    def test_hand_example_selected(self):
        patients = _vectors({"alcoholism": 0.6}, 10)
        others = _vectors({"alcoholism": 0.1}, 10)
        report = filter_select(patients, others, threshold=3.0)
        entry = next(s for s in report.scores if s.feature_name == "alcoholism")
        assert abs(entry.score - 5.0) < 1e-12
        assert "alcoholism" in report.selected

    def test_identical_distributions_rejected(self):
        patients = _vectors({"panic_like": 0.0, "intoxication": 0.4}, 10)
        others = _vectors({"intoxication": 0.4}, 10)
        report = filter_select(patients, others, threshold=3.0)
        entry = next(s for s in report.scores if s.feature_name == "intoxication")
        assert entry.score == 0.0
        assert "intoxication" in report.rejected

    def test_zero_reference_flagged_and_selected(self):
        patients = _vectors({"psychiatric_symptoms": 0.5}, 10)
        others = _vectors({}, 10)
        report = filter_select(patients, others, threshold=3.0)
        entry = next(s for s in report.scores if s.feature_name == "psychiatric_symptoms")
        assert entry.zero_reference
        assert entry.score is None
        assert "psychiatric_symptoms" in report.selected

    def test_selected_union_rejected_covers_scored(self):
        patients = _vectors({"alcoholism": 0.9, "intoxication": 0.2}, 20)
        others = _vectors({"alcoholism": 0.1, "intoxication": 0.2}, 20)
        report = filter_select(patients, others, threshold=3.0)
        assert set(report.selected) | set(report.rejected) == set(TEXT_FEATURE_NAMES)
        assert not set(report.selected) & set(report.rejected)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(2)
        patients = _vectors({f: float(p) for f, p in zip(TEXT_FEATURE_NAMES, rng.random(5))}, 40)
        others = _vectors({f: float(p) for f, p in zip(TEXT_FEATURE_NAMES, rng.random(5) * 0.3 + 0.05)}, 40)
        previous = None
        for threshold in (0.5, 1.0, 2.0, 4.0, 8.0):
            selected = set(filter_select(patients, others, threshold=threshold).selected)
            if previous is not None:
                assert selected <= previous
            previous = selected

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            filter_select([], _vectors({}, 3))

    def test_report_json_shape(self):
        patients = _vectors({"alcoholism": 0.6}, 10)
        others = _vectors({"alcoholism": 0.1}, 10)
        d = asjson(filter_select(patients, others))
        entry = next(s for s in d["scores"] if s["feature_name"] == "alcoholism")
        assert entry["score_percent"] == pytest.approx(500.0)

    def test_zero_reference_report_round_trips_with_null_scores(self, tmp_path):
        report = filter_select(_vectors({"psychiatric_symptoms": 0.5}, 10), _vectors({}, 10))
        write_json(tmp_path / "selection_report.json", report)
        scores = json.loads((tmp_path / "selection_report.json").read_text())["scores"]
        assert [(s["score"], s["score_percent"], s["zero_reference"]) for s in scores] == [(None, None, True)] * 5
        assert read_json(tmp_path / "selection_report.json", SelectionReport) == report


def _toy_dataset(seed=0, n=160):
    """One informative feature, one pure-noise feature."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    informative = y + rng.normal(0, 0.35, n)
    noise = rng.normal(0, 1.0, n)
    X = np.column_stack([informative, noise])
    return Dataset(X, y, ("informative", "noise"))


class TestRfecv:
    def test_pure_noise_feature_eliminated_first(self):
        data = _toy_dataset()
        result = rfecv(data, ModelSpec(ModelKind.LR, seed=1), CvSpec(folds=4, seed=3))
        assert result.elimination_order[0] == "noise"

    def test_best_subset_matches_exhaustive_cv(self):
        data = _toy_dataset(seed=5)
        cv = CvSpec(folds=4, seed=3)
        spec = ModelSpec(ModelKind.LR, seed=1)
        result = rfecv(data, spec, cv)

        # brute-force oracle over every nonempty feature subset
        candidates = []
        for r in (1, 2):
            for names in itertools.combinations(data.feature_names, r):
                [fold_scores] = cross_validate([spec], data.select(names), cv)
                score = float(np.mean(fold_scores))
                candidates.append((score, -r, names))
        _, _, best_subset = max(candidates)
        assert set(result.best_features) == set(best_subset)

    def test_returned_subset_score_is_max_of_steps(self):
        data = _toy_dataset(seed=9)
        result = rfecv(data, ModelSpec(ModelKind.NB, seed=1), CvSpec(folds=4, seed=2))
        best_step = max(result.steps, key=lambda s: (s.mean_score, -len(s.features)))
        assert result.best_features == best_step.features

    def test_needs_two_features(self):
        data = _toy_dataset().select(["informative"])
        with pytest.raises(ValueError):
            rfecv(data, ModelSpec(ModelKind.LR), CvSpec(folds=3))

    def test_deterministic(self):
        data = _toy_dataset(seed=4)
        spec = ModelSpec(ModelKind.KNN, {"k": 5}, seed=2)
        cv = CvSpec(folds=3, seed=8)
        a = rfecv(data, spec, cv)
        b = rfecv(data, spec, cv)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_each_step_sends_the_cross_validate_jobs_of_its_subset(self, workers):
        X, y = make_blobs(n=90, d=4, seed=14)
        data = Dataset(X, y, ("a", "b", "c", "d"))
        spec = ModelSpec(ModelKind.MLPC, {"hidden": 8, "learning_rate": 0.1, "epochs": 5}, seed=2)
        cv = CvSpec(folds=5, seed=8)

        def recorded(run):
            """run's result on a recording map, and the jobs it sent"""
            jobs = []

            def recording_map(fn, job_list):
                jobs.extend(job_list)
                return map(fn, job_list)

            out = run(recording_map)
            # a partial compares by identity, so compare its function and arguments
            return out, [
                (specs, X.tolist(), y.tolist(), [(f, tr.tolist(), va.tolist()) for f, tr, va in folds],
                 score.func, score.args)
                for specs, X, y, folds, score in jobs
            ]

        result, sent = recorded(lambda map_fn: rfecv(data, spec, cv, map_fn, workers))
        score = functools.partial(_fold_drops, cv.seed)
        expected = [
            recorded(lambda map_fn: cross_validate([spec], data.select(step.features), cv, map_fn, workers, score))[1]
            for step in result.steps
        ]
        assert [len(step_jobs) for step_jobs in expected] == [len(fold_chunks(cv.folds, workers))] * len(result.steps)
        assert sent == [job for step_jobs in expected for job in step_jobs]

    @pytest.mark.parametrize("spec", [
        ModelSpec(ModelKind.LR, seed=1),
        ModelSpec(ModelKind.KNN, {"k": 5}, seed=2),
        ModelSpec(ModelKind.MLPC, {"hidden": 8, "learning_rate": 0.1, "epochs": 10}, seed=3),
    ], ids=lambda spec: spec.kind.value)
    def test_step_fold_scores_are_the_cross_validated_accuracies(self, spec):
        X, y = make_blobs(n=90, d=4, seed=15)
        data = Dataset(X, y, ("a", "b", "c", "d"))
        cv = CvSpec(folds=4, seed=6)
        for step in rfecv(data, spec, cv).steps:
            assert cross_validate([spec], data.select(step.features), cv) == [step.fold_scores]
