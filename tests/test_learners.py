import hashlib
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rescue_triage.learners import (
    DEFAULT_SEARCH_SPACES,
    ArityMismatch,
    InvalidHyperparameter,
    ModelKind,
    ModelSpec,
    SingleClassTraining,
    Standardizer,
    load_model,
    save_model,
    share_groups,
    train,
    train_folds,
)
from rescue_triage.learners.mlp import init_params, loss_and_grads
from rescue_triage import learners
from rescue_triage.learners import boosting, forest, knn, mlp, tree
from rescue_triage.learners.base import binary_columns, stable_sigmoid
from rescue_triage.records import ConfigError, Dataset, asjson
from rescue_triage.tuning import CvSpec, SearchSpec, evaluate_all, search

from conftest import make_blobs

ALL_KINDS = list(ModelKind)
SYMMETRIC_KINDS = [ModelKind.NB, ModelKind.LR, ModelKind.SVM, ModelKind.MLPC]


class TestModelSpec:
    def test_defaults_filled(self):
        spec = ModelSpec(ModelKind.KNN)
        assert spec.hyperparameters["k"] == 5

    def test_unknown_hyperparameter(self):
        with pytest.raises(InvalidHyperparameter):
            ModelSpec(ModelKind.KNN, {"neighbors": 5})

    def test_bad_value(self):
        with pytest.raises(InvalidHyperparameter):
            ModelSpec(ModelKind.RF, {"n_trees": 0})
        with pytest.raises(InvalidHyperparameter):
            ModelSpec(ModelKind.XGB, {"learning_rate": -0.1})

    def test_roundtrip(self):
        spec = ModelSpec(ModelKind.XGB, {"n_rounds": 10}, seed=3)
        assert ModelSpec.from_dict(asjson(spec)) == spec

    @pytest.mark.parametrize("change,message", [
        ({"seed": None}, "missing keys ['seed']"),
        ({"hyperparameters": None}, "missing keys ['hyperparameters']"),
        ({"n_rounds": 10}, "unknown keys ['n_rounds']"),
        ({"seed": 7.9}, "ModelSpec.seed: expected int, got float 7.9"),
        ({"seed": True}, "ModelSpec.seed: expected int, got bool True"),
        ({"hyperparameters": [["n_rounds", 10]]}, "ModelSpec.hyperparameters: expected an object, got list"),
    ])
    def test_from_dict_is_strict(self, change, message):
        d = asjson(ModelSpec(ModelKind.XGB, {"n_rounds": 10}, seed=3))
        d.update(change)
        d = {k: v for k, v in d.items() if v is not None}
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelSpec.from_dict(d)


class TestTrainContract:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_no_feature_columns_rejected(self, kind):
        X, y = make_blobs(n=20, d=2, seed=3)
        with pytest.raises(ValueError, match=re.escape("at least one feature column, got shape (20, 0)")):
            train(ModelSpec(kind), X[:, :0], y)

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(SingleClassTraining):
            train(ModelSpec(ModelKind.NB), X, [1, 1, 1, 1])

    def test_arity_checked_on_predict(self):
        X, y = make_blobs(n=40, d=3)
        model = train(ModelSpec(ModelKind.NB), X, y)
        with pytest.raises(ArityMismatch):
            model.predict(np.zeros(4))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected_in_training_and_query_rows(self, kind, bad):
        X, y = make_blobs(n=60, d=3, seed=24)
        X_bad = X.copy()
        X_bad[17, 2] = bad
        with pytest.raises(ValueError, match=rf"^training row 17, column 2 is {bad}; inputs must be finite$"):
            train(ModelSpec(kind), X_bad, y)
        model = train(ModelSpec(kind), X, y)
        with pytest.raises(ValueError, match=rf"^query row 17, column 2 is {bad}; inputs must be finite$"):
            model.score(X_bad)
        with pytest.raises(ValueError, match=rf"^query row 0, column 2 is {bad}; inputs must be finite$"):
            model.predict(X_bad[17])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_scores_in_unit_interval_and_consistent(self, kind):
        X, y = make_blobs(n=80, d=4, seed=1)
        model = train(ModelSpec(kind, seed=5), X, y)
        s = np.asarray(model.score(X))
        assert np.all((0.0 <= s) & (s <= 1.0))
        assert np.array_equal(model.predict(X), (s >= 0.5).astype(int))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_deterministic_across_runs(self, kind):
        X, y = make_blobs(n=60, d=4, seed=2)
        s1 = np.asarray(train(ModelSpec(kind, seed=9), X, y).score(X))
        s2 = np.asarray(train(ModelSpec(kind, seed=9), X, y).score(X))
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("kind", SYMMETRIC_KINDS, ids=lambda k: k.value)
    def test_label_symmetry(self, kind):
        X, y = make_blobs(n=70, d=4, seed=3)
        s = np.asarray(train(ModelSpec(kind, seed=4), X, y).score(X))
        s_flipped = np.asarray(train(ModelSpec(kind, seed=4), X, 1 - y).score(X))
        assert np.max(np.abs(s_flipped - (1.0 - s))) < 1e-9


class TestStandardizer:
    def test_pure_function_of_training_rows(self):
        X, _ = make_blobs(n=50, d=3, seed=6)
        std = Standardizer.fit(X)
        again = Standardizer.fit(X.copy())
        assert np.array_equal(std.mean, again.mean)
        assert np.array_equal(std.std, again.std)

    def test_binary_columns_pass_through(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.normal(5, 2, 40), rng.integers(0, 2, 40)])
        std = Standardizer.fit(X)
        out = std.transform(X)
        assert set(np.unique(out[:, 1])) <= {0.0, 1.0}
        assert abs(out[:, 0].mean()) < 1e-9

    def test_binary_columns_match_the_value_set_rule(self):
        X = np.array([
            [0.0, -0.0, 0.0, 1.0, 0.0, 0.0, 0.5, -1.0],
            [1.0, 1.0, 0.0, 1.0, 1.0, 2.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 1.0, np.nan, 1.0, 0.0, 0.0],
        ])
        by_value_set = [set(np.unique(X[:, j])) <= {0.0, 1.0} for j in range(X.shape[1])]
        assert binary_columns(X).tolist() == by_value_set == [True] * 4 + [False] * 4
        finite = np.delete(X, 4, axis=1)
        assert Standardizer.fit(finite).binary_mask.tolist() == by_value_set[:4] + by_value_set[5:]
        with pytest.raises(ValueError, match=r"^training column 4: its mean is nan, not a finite float64$"):
            Standardizer.fit(X)

    def test_training_shift_does_not_leak_validation(self):
        X_train, y = make_blobs(n=60, d=3, seed=7)
        X_val = X_train[:20] + 100.0
        model = train(ModelSpec(ModelKind.LR), X_train, y)
        recomputed = Standardizer.fit(X_train)
        assert np.array_equal(model.standardizer.mean, recomputed.mean)
        assert np.array_equal(model.standardizer.std, recomputed.std)
        model.score(X_val)  # shifted validation rows never touch the parameters
        assert np.array_equal(model.standardizer.mean, recomputed.mean)


_FLOAT_MAX = np.finfo(np.float64).max
# hyperparameters small enough that a property example fits in milliseconds
_SMALL_HYPERPARAMETERS = {
    ModelKind.SVM: {"epochs": 2, "batch_size": 4},
    ModelKind.RF: {"n_trees": 3, "max_depth": 3},
    ModelKind.XGB: {"n_rounds": 3, "max_depth": 2},
    ModelKind.KNN: {"k": 3},
    ModelKind.NB: {},
    ModelKind.LR: {"max_epochs": 20},
    ModelKind.MLPC: {"hidden": 3, "epochs": 3, "batch_size": 4},
}


@st.composite
def _finite_cases(draw):
    """(X, y, query): a finite training matrix with both classes, up to the
    float64 maximum in magnitude, and one finite query row."""
    n, d = draw(st.integers(4, 12)), draw(st.integers(1, 3))
    cells = st.floats(-_FLOAT_MAX, _FLOAT_MAX, allow_nan=False, allow_infinity=False)
    X = draw(hnp.arrays(np.float64, (n, d), elements=cells))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    y[:2] = (0, 1)
    return X, y, draw(hnp.arrays(np.float64, d, elements=cells))


def _blobs_with_query(query):
    X, y = make_blobs(n=40, d=3, seed=8)
    return X, y, np.array(query)


def _huge_cells():
    X = np.random.default_rng(0).uniform(1e307, _FLOAT_MAX, (40, 3))
    return X, np.arange(40) % 2, X[0]


def _wide_column():
    X, y = make_blobs(n=40, d=3, seed=8)
    X[:, 1] *= 1e160  # its spread overflows float64 when squared
    return X, y, X[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow inside a kind's score is expected here
class TestFiniteScores:
    """Finite inputs never give a NaN score: each kind returns finite scores in
    [0, 1] from a finite standardizer, or refuses naming the column or row."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @settings(max_examples=25, deadline=None)
    @given(case=_finite_cases())
    @example(case=_huge_cells())
    @example(case=_blobs_with_query([1.7e308, -1.7e308, 1.7e308]))
    @example(case=_blobs_with_query([1e300, -1e300, 5.0]))
    @example(case=_wide_column())
    def test_finite_scores_or_a_named_refusal(self, kind, case):
        X, y, query = case
        try:
            model = train(ModelSpec(kind, _SMALL_HYPERPARAMETERS[kind], seed=1), X, y)
            s = np.append(model.score(X), model.score(query))
        except ValueError as exc:
            assert re.search(r"\b(column|row) \d+", str(exc)), exc
            return
        assert np.isfinite(model.standardizer.mean).all() and np.isfinite(model.standardizer.std).all()
        assert np.all(np.isfinite(s) & (s >= 0.0) & (s <= 1.0)), s

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_query_whose_standardized_square_overflows_is_refused(self, kind):
        X, y, query = _blobs_with_query([1e300, -1e300, 5.0])
        model = train(ModelSpec(kind, _SMALL_HYPERPARAMETERS[kind], seed=1), X, y)
        with pytest.raises(ValueError, match=r"^query row 1, column 0: its standardized value .* overflows float64"):
            model.score(np.vstack([X[0], query]))
        with pytest.raises(ValueError, match=r"^query row 0, column 1: "):
            model.predict(np.array([0.0, -1e160, 0.0]))

    def test_nan_score_names_the_query_row_and_kind(self):
        # squares just inside float64, whose sums over the columns overflow
        X, y, query = _blobs_with_query([1.2e154, 2.2e154, 1.8e154])
        model = train(ModelSpec(ModelKind.NB), X, y)
        with pytest.raises(ValueError, match=r"^NB score of query row 1 is NaN"):
            model.predict(np.vstack([X[0], query]))


class TestNaiveBayes:
    def test_symmetric_two_point_dataset(self):
        X = np.array([[-1.0], [1.0]])
        model = train(ModelSpec(ModelKind.NB), X, [0, 1])
        assert model.score(np.array([0.0])) == pytest.approx(0.5)

    def test_constant_feature_survives(self):
        X = np.column_stack([np.ones(20) * 3.3, np.linspace(-1, 1, 20)])
        y = (X[:, 1] > 0).astype(int)
        model = train(ModelSpec(ModelKind.NB), X, y)
        assert np.isfinite(model.score(X)).all()


class TestKnn:
    def test_k1_returns_nearest_label(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0]])
        model = train(ModelSpec(ModelKind.KNN, {"k": 1}), X, [0, 1])
        assert model.predict(np.array([0.2, 0.1])) == 0
        assert model.predict(np.array([9.0, 9.5])) == 1

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(200, 5))
        y = rng.integers(0, 2, 200)
        y[0], y[1] = 0, 1
        queries = rng.normal(size=(60, 5))
        model = train(ModelSpec(ModelKind.KNN, {"k": 5}), X, y)
        got = model.predict(queries)

        Xs = model.standardizer.transform(X)
        Qs = model.standardizer.transform(queries)
        expected = []
        for q in Qs:
            ranked = sorted(
                (sum((a - b) ** 2 for a, b in zip(row, q)), i) for i, row in enumerate(Xs)
            )
            vote = sum(y[i] for _, i in ranked[:5]) / 5
            expected.append(int(vote >= 0.5))
        assert np.array_equal(got, np.array(expected))

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 500])
    def test_tied_distances_break_by_training_index(self, k):
        rng = np.random.default_rng(22)
        base = rng.integers(0, 2, size=(40, 4)).astype(float)
        X = np.vstack([base, base, base[:13]])  # duplicate rows, binary columns
        y = rng.integers(0, 2, len(X))
        y[0], y[1] = 0, 1
        queries = np.vstack([base[:20], rng.integers(0, 2, size=(20, 4)).astype(float)])
        model = train(ModelSpec(ModelKind.KNN, {"k": k}), X, y)

        Xs = model.standardizer.transform(X)
        expected = []
        for q in model.standardizer.transform(queries):
            d2 = np.sum(q * q) - 2.0 * Xs @ q + np.sum(Xs * Xs, axis=1)
            nearest = sorted(range(len(Xs)), key=lambda i: (d2[i], i))[:k]
            expected.append(y[nearest].mean())
        assert np.array_equal(np.asarray(model.score(queries)), np.array(expected))


def _knn_score_oracle(state, X):
    """K-NN scoring as a whole distance matrix and a stable sort."""
    train = state.X
    labels = state.y.astype(np.float64)
    k = min(state.k, len(train))
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * X @ train.T
        + np.sum(train * train, axis=1)[None, :]
    )
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return labels[nearest].mean(axis=1)


@st.composite
def _knn_cases(draw):
    """Small-integer rows, so every distance is exact in any summation
    order; drawn from a few distinct rows, so distances tie heavily."""
    d = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, 1.0]) if draw(st.booleans()) else st.integers(-2, 2).map(float)
    pool = draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=5))
    train_rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    n = len(train_rows)
    queries = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=1, max_size=12)))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, len(queries) - 1)), draw(st.integers(0, d - 1))
        queries[i, j] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    state = knn.State(
        X=np.array(train_rows),
        y=np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))),
        k=draw(st.sampled_from([k for k in (1, 2, 5, n - 1, n, n + 3) if k >= 1])),
    )
    # one-row blocks, two-row blocks (ragged after an odd row count), one block
    cells = draw(st.sampled_from([1, 2 * n, 2 * n + 1, 1 << 18]))
    return state, queries, cells


class TestKnnBlocks:
    @settings(max_examples=400, deadline=None)
    @given(_knn_cases())
    def test_matches_whole_matrix_stable_sort(self, case):
        state, queries, cells = case
        with np.errstate(invalid="ignore"):
            expected = _knn_score_oracle(state, queries)
            with mock.patch.object(knn, "_BLOCK_CELLS", cells):
                got = knn.score(state, queries)
        assert got.tobytes() == expected.tobytes()

    def test_non_finite_query_takes_numbers_first_then_nan_by_index(self):
        state = knn.State(X=np.array([[0.0], [-1.0], [2.0], [-3.0], [5.0]]), y=np.array([1, 0, 0, 0, 1]), k=3)
        queries = np.array([[-np.inf], [np.nan]])
        with np.errstate(invalid="ignore"):
            got = knn.score(state, queries)
            assert got.tobytes() == _knn_score_oracle(state, queries).tobytes()
        # the -inf query is inf from rows 2 and 4 and NaN from the rest
        assert got.tolist() == [2 / 3, 1 / 3]

    def test_block_holds_at_most_block_cells(self, monkeypatch):
        seen = []
        real = knn._positives_among_nearest
        monkeypatch.setattr(knn, "_BLOCK_CELLS", 50)
        monkeypatch.setattr(knn, "_positives_among_nearest", lambda d2, *a: seen.append(d2.shape) or real(d2, *a))
        knn.score(knn.State(X=np.arange(20.0)[:, None], y=np.array([0, 1] * 10), k=3), np.zeros((7, 1)))
        assert seen == [(2, 20), (2, 20), (2, 20), (1, 20)]


class TestLogisticRegression:
    def test_separable_data_reaches_full_training_accuracy(self):
        X, y = make_blobs(n=100, d=3, seed=8, sep=6.0, noise=0.0)
        model = train(ModelSpec(ModelKind.LR, {"l2": 1e-4}), X, y)
        assert np.mean(model.predict(X) == y) == 1.0


class TestSvm:
    def test_separable_data_high_training_accuracy(self):
        X, y = make_blobs(n=100, d=3, seed=12, sep=6.0, noise=0.0)
        model = train(ModelSpec(ModelKind.SVM, {"l2": 1e-3}), X, y)
        assert np.mean(model.predict(X) == y) >= 0.98

    def test_score_monotone_in_margin(self):
        X, y = make_blobs(n=80, d=3, seed=13)
        model = train(ModelSpec(ModelKind.SVM), X, y)
        margins = model.standardizer.transform(X) @ model.state.w + model.state.b
        s = np.asarray(model.score(X))
        order = np.argsort(margins)
        assert np.all(np.diff(s[order]) >= -1e-12)


class TestForest:
    def test_unanimous_vote_scores_one(self):
        # features take exactly two values, so every tree splits at the same
        # midpoint and every vote is unanimous
        y = np.array([0] * 30 + [1] * 30)
        X = np.repeat(y[:, None] * 10.0, 3, axis=1)
        model = train(ModelSpec(ModelKind.RF, {"n_trees": 20}, seed=1), X, y)
        assert np.all(np.asarray(model.score(X[y == 1])) == 1.0)
        assert np.all(np.asarray(model.score(X[y == 0])) == 0.0)

    def test_max_depth_respected(self):
        X, y = make_blobs(n=200, d=4, seed=15)
        model = train(ModelSpec(ModelKind.RF, {"n_trees": 5, "max_depth": 2}, seed=1), X, y)

        def depth(tree, node=0):
            if tree.feature[node] < 0:
                return 0
            return 1 + max(depth(tree, tree.left[node]), depth(tree, tree.right[node]))

        assert all(depth(t) <= 2 for t in model.state.trees)


class TestBoosting:
    def test_zero_rounds_scores_training_prior(self):
        X, y = make_blobs(n=40, d=3, seed=16)
        model = train(ModelSpec(ModelKind.XGB, {"n_rounds": 0}), X, y)
        prior = y.mean()
        base = model.state.base_margin
        assert base == pytest.approx(math.log(prior / (1 - prior)))
        s = np.asarray(model.score(X))
        assert np.allclose(s, prior)
        assert np.ptp(s) == 0.0  # constant for every input
        assert model.state.train_loss[0] == pytest.approx(
            float(np.mean(-(y * np.log(stable_sigmoid(np.full(len(y), base)))
                           + (1 - y) * np.log(1 - stable_sigmoid(np.full(len(y), base))))))
        )

    def test_training_loss_non_increasing(self):
        X, y = make_blobs(n=150, d=5, seed=17, noise=1.5)
        for lr in (0.1, 0.3):
            model = train(ModelSpec(ModelKind.XGB, {"n_rounds": 60, "learning_rate": lr}), X, y)
            losses = model.state.train_loss
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_zero_hessian_sum_without_reg_lambda_is_rejected(self):
        # one-threshold labels at learning rate 1.0 saturate a leaf's rows to
        # probability exactly 0 or 1; with reg_lambda 0 that leaf has no value
        X, _ = _golden_matrix()
        y = (X[:, 2] > 1.5).astype(np.int64)
        spec = ModelSpec(ModelKind.XGB, {"n_rounds": 30, "max_depth": 1, "learning_rate": 1.0, "reg_lambda": 0.0})
        with pytest.raises(InvalidHyperparameter, match=r"reg_lambda 0\.0 .*hessian sum is 0"):
            train(spec, X, y)


def _golden_matrix():
    """Seeded rows mixing binary, small-integer and continuous columns."""
    rng = np.random.default_rng(31)
    n = 150
    binary = rng.integers(0, 2, n).astype(float)
    small = rng.integers(0, 5, n).astype(float)
    cont = rng.normal(size=n)
    skew = rng.exponential(2.0, n)
    logit = 1.2 * binary - 0.6 * small + 1.5 * cont + 0.3 * skew + rng.normal(0.0, 1.0, n)
    return np.column_stack([binary, small, cont, skew]), (logit > 0).astype(np.int64)


def _desk_matrix():
    """Desk-size rows: eight keyword flags, a GCS-like integer, two vitals."""
    rng = np.random.default_rng(37)
    n = 160
    flags = rng.integers(0, 2, (n, 8)).astype(float)
    gcs = rng.integers(3, 16, n).astype(float)
    bp = rng.normal(130.0, 20.0, n)
    rr = rng.normal(16.0, 4.0, n)
    logit = (flags[:, :3].sum(1) - flags[:, 3:5].sum(1) + 0.2 * (gcs - 12) + (bp - 130.0) / 20.0
             + rng.normal(0.0, 1.0, n))
    return np.column_stack([flags, gcs, bp, rr]), (logit > 0.5).astype(np.int64)


def _constant_column_matrix():
    """The golden rows with a constant third column (a single bin, never split on)."""
    X, y = _golden_matrix()
    return np.column_stack([X[:, :2], np.full(len(X), 7.0), X[:, 2:]]), y


def _separable_matrix():
    """The golden rows labelled by one threshold on the continuous column; with
    ``reg_lambda`` 0 and ``learning_rate`` 1.0 boosting saturates some rows'
    hessians to exactly 0, so some cuts score 0/0 (NaN) and must never win."""
    X, _ = _golden_matrix()
    return X, (X[:, 2] > 1.4).astype(np.int64)


# (rows, kind, hyperparameters, sha256 of the saved model file); any change to
# a split, threshold or leaf value shows. The cases on the golden rows were
# recorded from the two tree growers before they were merged into one, the
# others from that depth-first per-node grower, for what a batched grower
# branches on: a forest spanning several histogram batches, a single-bin
# column, a leaf-size floor, and NaN cut gains
GOLDEN_TREES = [
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 1, "n_bins": 2},
     "715ab7677b16b381ceac8bf9b767e7a7a68c879a6f264e14b09e0a5d961d5161"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 1, "n_bins": 32},
     "808ef0d47752fa6524690a0745eedcc5c67c47d8f54b66b3c594b68aa15d344e"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 3, "n_bins": 2},
     "b863a7b2856f356fc5a27bc84370788087d3ba71cd5f9468fe92701a4eec5914"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 3, "n_bins": 32},
     "69dbdb05e268f99f503d44ed4198d165489ff68df20a400b443a741168092543"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 1, "n_bins": 2},
     "a3bc49a18118967200acac04f1452f253c1a6fb73046fb335b5374c74aebb20e"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 1, "n_bins": 32},
     "b51ff25da68c7e456cfbb9d1a10db5a3d9db4211283110957f995210d92c6acb"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 3, "n_bins": 2},
     "eecd2f6d0e625e37821867dfc3078d4dcc26c01859ebb018b9af1df5e5385c23"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 3, "n_bins": 32},
     "f08ef1739b5ebaa357d7bc2d11d4a815f0996464f7fa43cf39641e0530eaae6b"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 0, "max_depth": 1},
     "9b700eca8c422a4672580f6aaed201d1d123e224931636720fd1216d31538e34"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 0, "max_depth": 3},
     "97b5c730cb9d62e5d5491cc2f43222a7f1cb64b573083389edff6ea485957a4d"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 20, "max_depth": 1},
     "28481c3c06ee5f524d46594ebe70ecbb4de85e9936af7873b1ea8824e88ea822"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 20, "max_depth": 3},
     "5b96ef15fd858e15cf0462a7a85415fcb435667f2df14b0d151e1fbe2a411d42"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 20, "max_depth": 3, "reg_lambda": 0.0, "n_bins": 4},
     "cee4d19554d40dee6a47a309c6af655e614d8be45d225b2938f0e66570767284"),
    (_desk_matrix, ModelKind.RF, {"n_trees": 300},
     "4cd72f96351e098627759f5f2dfab574a3e3ead7197833d47a719f3843b93b68"),
    (_desk_matrix, ModelKind.RF, {"n_trees": 300, "max_depth": 10, "min_samples_leaf": 3},
     "6476dc5776ab0d2bfd85c9b1c17dada18daf0f80aa0a900106a19fd7428e674a"),
    (_constant_column_matrix, ModelKind.RF, {"n_trees": 4},
     "7b72ddc6efc16178f77044f8a2ce2ca0a994c8d7b589805ca7cc87bb6922f359"),
    (_constant_column_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 3},
     "972ce54441e73075aa7571a12fc7eda36efe5f0d9b1fd47275a16808b4420901"),
    (_constant_column_matrix, ModelKind.XGB, {"n_rounds": 20, "max_depth": 3},
     "730436967aeee071f2534fe488a5418167988549edae2177389ab19e913ca421"),
    (_separable_matrix, ModelKind.XGB, {"n_rounds": 30, "max_depth": 3, "learning_rate": 1.0, "reg_lambda": 0.0},
     "47414256ea8994896e8a7bc657605197276baf88e00665514e2174772bf4035a"),
]


def _golden_id(rows, kind, params) -> str:
    names = [] if rows is _golden_matrix else [rows.__name__.strip("_")]
    return "-".join([*names, kind.value, *(f"{n}={v}" for n, v in params.items())])


class TestGoldenTrees:
    @pytest.mark.parametrize(
        "rows,kind,params,digest", GOLDEN_TREES, ids=[_golden_id(r, k, p) for r, k, p, _ in GOLDEN_TREES]
    )
    def test_saved_model_hash(self, rows, kind, params, digest, tmp_path):
        X, y = rows()
        save_model(train(ModelSpec(kind, params, seed=5), X, y), tmp_path / "model.json")
        assert hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest() == digest


def _walk(tree, x) -> float:
    """One row down one tree, one node at a time."""
    node = 0
    while tree.feature[node] >= 0:
        node = tree.left[node] if x[tree.feature[node]] < tree.threshold[node] else tree.right[node]
    return float(tree.value[node])


class TestEnsembleScoring:
    """Scoring walks all trees of an ensemble together; it must equal a
    reference loop over trees and rows."""

    @pytest.mark.parametrize("params", [{"n_trees": 7}, {"n_trees": 30, "max_depth": 4, "n_bins": 4}])
    def test_forest_equals_per_tree_loop(self, params):
        X, y = _desk_matrix()
        model = train(ModelSpec(ModelKind.RF, params, seed=3), X[:120], y[:120])
        Xs = model.standardizer.transform(X)
        trees = model.state.trees
        expected = np.array([sum(_walk(t, x) >= 0.5 for t in trees) for x in Xs]) / len(trees)
        assert np.array_equal(np.asarray(model.score(X)), expected)

    @pytest.mark.parametrize("params", [{"n_rounds": 12}, {"n_rounds": 25, "max_depth": 2, "learning_rate": 0.3}])
    def test_boosting_adds_trees_in_order(self, params):
        X, y = _desk_matrix()
        model = train(ModelSpec(ModelKind.XGB, params, seed=3), X[:120], y[:120])
        Xs = model.standardizer.transform(X)
        state = model.state
        margin = np.full(len(X), state.base_margin)
        for t in state.trees:
            margin += state.learning_rate * np.array([_walk(t, x) for x in Xs])
        assert np.array_equal(np.asarray(model.score(X)), np.clip(stable_sigmoid(margin), 0.0, 1.0))


# PCG64's 128-bit LCG multiplier; a state is advanced by state * mult + inc
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_state_before(stepped: int, inc: int) -> int:
    """The PCG64 state whose next LCG step gives ``stepped``."""
    return (stepped - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128


class TestFeatureSampler:
    """``FeatureSampler`` must give each tree the samples its own generator's
    ``choice(d, k, replace=False)`` would, draw for draw."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_generator_choice_for_every_k(self, d, monkeypatch):
        schedule = np.random.default_rng(d)
        for k in range(1, d + 1):
            for fill in (1, 3, 64):  # samples per buffer refill: odd widths leave a held half
                monkeypatch.setattr(tree, "_SAMPLES_PER_FILL", fill)
                boots = [0, 1, 2, 5, 8, 13]  # bootstrap draws before the first sample: both has_uint32 states
                streams = [np.random.default_rng([d, k, fill, t]) for t in range(len(boots))]
                refs = [np.random.default_rng([d, k, fill, t]) for t in range(len(boots))]
                for rng, ref, n in zip(streams, refs, boots):
                    rng.integers(0, 50, n)
                    ref.integers(0, 50, n)
                assert {rng.bit_generator.state["has_uint32"] for rng in streams} == {0, 1}
                sampler = tree.FeatureSampler(streams, d, k)
                for _ in range(60):
                    trees = schedule.permutation(len(boots))[: schedule.integers(1, len(boots) + 1)]
                    got = sampler.sample(trees)
                    assert got.dtype == np.int64 and got.shape == (len(trees), k)
                    for t, row in zip(trees.tolist(), got.tolist()):
                        assert row == refs[t].choice(d, k, replace=False).tolist(), (d, k, fill, t)

    @pytest.mark.parametrize("held", [False, True], ids=["fresh_output", "held_half"])
    def test_rejected_draw_is_redrawn_as_numpy_does(self, held):
        """The first bound of a (5, 3) sample is 2 (excl 3), whose threshold
        ``2^32 mod 3`` is 1: a first 32-bit draw of 0 is rejected."""
        inc = np.random.default_rng(9).bit_generator.state["state"]["inc"]
        stepped = 0x9E3779B9_00000000  # high word 0: XSL-RR outputs the low word, whose low half is 0
        state = {"state": _pcg64_state_before(stepped, inc), "inc": inc}
        if held:  # the rejected draw is the pending high half of an earlier output
            state = np.random.default_rng(9).bit_generator.state["state"]

        def crafted():
            rng = np.random.Generator(np.random.PCG64())
            rng.bit_generator.state = {"bit_generator": "PCG64", "state": state,
                                       "has_uint32": int(held), "uinteger": 0}
            return rng

        if not held:
            assert int(crafted().bit_generator.random_raw()) == stepped
        streams = [np.random.default_rng(3), crafted(), np.random.default_rng(4)]
        refs = [np.random.default_rng(3), crafted(), np.random.default_rng(4)]
        sampler = tree.FeatureSampler(streams, 5, 3)
        for trees in ([0, 1, 2], [1], [2, 1], [1, 0]):
            got = sampler.sample(np.array(trees))
            assert got.tolist() == [refs[t].choice(5, 3, replace=False).tolist() for t in trees]

    @pytest.mark.parametrize("d", [10_001, 40_000])
    def test_forest_sample_of_many_features_matches_choice(self, d):
        """Above 10,000 items numpy keeps Floyd's algorithm while k <= d // 50,
        as a forest's k = round(sqrt(d)) is."""
        k = round(math.sqrt(d))
        sampler = tree.FeatureSampler([np.random.default_rng(s) for s in (1, 2)], d, k)
        refs = [np.random.default_rng(s) for s in (1, 2)]
        for trees in ([0, 1], [1], [1, 0]):
            got = sampler.sample(np.array(trees))
            assert got.tolist() == [refs[t].choice(d, k, replace=False).tolist() for t in trees]

    def test_samples_numpy_would_tail_shuffle_are_refused(self):
        tree.FeatureSampler([np.random.default_rng(0)], 10_001, 200)
        with pytest.raises(ValueError, match="at most d // 50 of d > 10,000 features, got 201 of 10,001"):
            tree.FeatureSampler([np.random.default_rng(0)], 10_001, 201)


class TestLockstepForest:
    def _forest(self, X, y, n_trees=9):
        bins = tree.bin_columns(X, 32)
        rngs = [np.random.default_rng([4, t]) for t in range(n_trees)]
        roots = [r.integers(0, len(X), len(X)).astype(np.int32) for r in rngs]
        return tree.LockstepForest(bins, y, roots, rngs, 2**31, 1, 3)

    def test_trees_taken_in_any_order_are_the_same(self):
        X, y = _desk_matrix()
        forward = self._forest(X, y)
        backward = self._forest(X, y)
        ahead = [asjson(tree.grow_classification_tree(forward, t)) for t in range(9)]
        behind = [asjson(tree.grow_classification_tree(backward, t)) for t in reversed(range(9))]
        assert ahead == behind[::-1]
        assert not forward.done and not forward.live
        for t in ahead:
            internal = np.array(t["feature"]) >= 0
            assert np.array_equal(np.array(t["left"])[internal], np.flatnonzero(internal) + 1)

    def test_fit_rf_takes_each_tree_through_the_forest_entry_point(self, monkeypatch):
        taken = []

        def counting(forest_, t):
            taken.append(t)
            return tree.grow_classification_tree(forest_, t)

        monkeypatch.setattr(forest, "grow_classification_tree", counting)
        X, y = _desk_matrix()
        train(ModelSpec(ModelKind.RF, {"n_trees": 7}, seed=3), X, y)
        assert taken == list(range(7))

    @pytest.mark.parametrize("kind,params", [(ModelKind.RF, {"n_trees": 40}), (ModelKind.XGB, {"n_rounds": 30})])
    def test_batch_cap_changes_no_model_or_score(self, kind, params, monkeypatch):
        X, y = _desk_matrix()
        X_score = np.tile(X, (4, 1))
        model = train(ModelSpec(kind, params, seed=3), X, y)
        scores = np.asarray(model.score(X_score))
        monkeypatch.setattr(tree, "_BATCH_CELLS", 64)
        small = train(ModelSpec(kind, params, seed=3), X, y)
        assert asjson(small) == asjson(model)
        assert np.array_equal(np.asarray(small.score(X_score)), scores)
        assert np.array_equal(np.asarray(model.score(X_score)), scores)


def _grid_specs(kind, space, seed=5):
    names = sorted(space)
    combos = itertools.product(*(space[n] for n in names))
    return [ModelSpec(kind, dict(zip(names, values)), seed=seed) for values in combos]


def _fit_all(specs, X, y) -> dict:
    """Every spec fit on all of (X, y) in one ``train_folds`` call, by index."""
    return {i: model for _, i, model in train_folds(specs, X, y, [slice(None)])}


def _assert_each_equals_its_own_train(specs, X, y):
    models = _fit_all(specs, X, y)
    assert sorted(models) == list(range(len(specs)))
    for i, spec in enumerate(specs):
        assert asjson(models[i]) == asjson(train(spec, X, y)), spec


class TestTrainGrid:
    """A grid fit shares forests and boosting lanes between specs; every model
    must still be the one ``train`` fits for its spec alone."""

    @pytest.mark.parametrize("kind", [ModelKind.RF, ModelKind.XGB, ModelKind.MLPC], ids=lambda k: k.value)
    def test_default_space_equals_single_fits(self, kind):
        X, y = _desk_matrix()
        _assert_each_equals_its_own_train(_grid_specs(kind, DEFAULT_SEARCH_SPACES[kind]), X, y)

    def test_boosting_lanes_with_mixed_rounds_depths_bins_and_lambdas(self):
        X, y = _desk_matrix()
        space = {"n_rounds": [0, 1, 7, 20], "max_depth": [1, 2, 3, 4], "n_bins": [2, 4, 32],
                 "reg_lambda": [0.0, 0.5, 2.0], "learning_rate": [0.1, 0.3]}
        specs = _grid_specs(ModelKind.XGB, space)
        picked = np.random.default_rng(41).permutation(len(specs))[:40]  # mixed group, lane and spec order
        _assert_each_equals_its_own_train([specs[i] for i in picked], X, y)

    def test_forests_of_different_seeds_are_not_shared(self):
        X, y = _desk_matrix()
        specs = [ModelSpec(ModelKind.RF, {"n_trees": n}, seed=s) for n, s in ((5, 1), (9, 2), (5, 2), (9, 1))]
        _assert_each_equals_its_own_train(specs, X, y)
        models = _fit_all(specs, X, y)
        assert asjson(models[0].state) != asjson(models[2].state)

    def test_forests_with_mixed_depths_trees_leaves_and_bins(self):
        X, y = _desk_matrix()
        space = {"max_depth": [None, 1, 3, 10], "n_trees": [1, 7, 40], "min_samples_leaf": [1, 3], "n_bins": [2, 32]}
        specs = _grid_specs(ModelKind.RF, space, seed=5) + _grid_specs(ModelKind.RF, space, seed=6)
        picked = np.random.default_rng(43).permutation(len(specs))  # mixed group and spec order
        _assert_each_equals_its_own_train([specs[i] for i in picked], X, y)

    def _grown(self, monkeypatch, space) -> int:
        """Trees grown for one grid fit of ``space`` on the desk rows."""
        grown = []

        def counting(forest_, t):
            grown.append(t)
            return tree.grow_classification_tree(forest_, t)

        monkeypatch.setattr(forest, "grow_classification_tree", counting)
        X, y = _desk_matrix()
        _fit_all(_grid_specs(ModelKind.RF, space), X, y)
        return len(grown)

    def test_cap_that_binds_nowhere_regrows_no_tree(self, monkeypatch):
        assert self._grown(monkeypatch, {"n_trees": [9, 30], "max_depth": [None, 1000]}) == 30

    def test_binding_cap_regrows_only_trees_that_drew_at_its_depth(self, monkeypatch):
        X, y = _desk_matrix()
        deep = train(ModelSpec(ModelKind.RF, {"n_trees": 30}, seed=5), X, y).state.trees

        def drew_at(t, cap) -> bool:
            """With ``min_samples_leaf`` 1 a node drew a sample iff it is impure."""
            depth = np.zeros(len(t.feature), dtype=int)
            for v in np.flatnonzero(t.feature >= 0):  # pre-order: a parent comes before its children
                depth[t.left[v]] = depth[t.right[v]] = depth[v] + 1
            return bool(((depth >= cap) & (t.value > 0) & (t.value < 1)).any())

        regrown = sum(drew_at(t, 8) for t in deep)
        assert 0 < regrown < 30
        assert self._grown(monkeypatch, {"n_trees": [9, 30], "max_depth": [None, 8]}) == 30 + regrown

    def test_zero_hessian_spec_fails_its_group_as_it_fails_alone(self):
        X, _ = _golden_matrix()  # as in TestBoosting's zero-hessian test
        y = (X[:, 2] > 1.5).astype(np.int64)
        bad = ModelSpec(ModelKind.XGB, {"n_rounds": 30, "max_depth": 1, "learning_rate": 1.0, "reg_lambda": 0.0})
        good = ModelSpec(ModelKind.XGB, {"n_rounds": 5, "max_depth": 2, "learning_rate": 0.1, "reg_lambda": 0.0})
        train(good, X, y)
        with pytest.raises(InvalidHyperparameter) as alone:
            train(bad, X, y)
        with pytest.raises(InvalidHyperparameter) as grouped:
            _fit_all([good, bad], X, y)
        assert str(grouped.value) == str(alone.value)

    def test_zero_hessian_spec_fails_pooled_jobs_as_it_fails_in_process(self, pool_map):
        X, _ = _golden_matrix()
        y = (X[:, 2] > 1.5).astype(np.int64)
        data = Dataset(X, y, ("binary", "small", "cont", "skew"))
        space = {"n_rounds": [5, 30], "max_depth": [1, 2], "learning_rate": [1.0], "reg_lambda": [0.0]}
        cv = CvSpec(folds=2, seed=1)
        with pytest.raises(InvalidHyperparameter) as in_process:
            search(ModelKind.XGB, SearchSpec("grid", space), cv, data)
        with pytest.raises(InvalidHyperparameter) as pooled:
            search(ModelKind.XGB, SearchSpec("grid", space), cv, data, map_fn=pool_map)
        assert str(pooled.value) == str(in_process.value)

        specs = [ModelSpec(ModelKind.NB), ModelSpec(ModelKind.XGB, {"n_rounds": 30, "max_depth": 1,
                                                                     "learning_rate": 1.0, "reg_lambda": 0.0})]
        rows = evaluate_all(specs, data, data)
        assert [row.error is None for row in rows] == [True, False]
        assert evaluate_all(specs, data, data, pool_map) == rows

    def test_each_boosting_tree_is_taken_once_through_the_grower_entry_point(self, monkeypatch):
        taken = []

        def counting(lanes, m):
            taken.append(m)
            return tree.grow_second_order_tree(lanes, m)

        monkeypatch.setattr(boosting, "grow_second_order_tree", counting)
        X, y = _desk_matrix()
        specs = _grid_specs(ModelKind.XGB, {"n_rounds": [3, 6], "max_depth": [1, 2], "learning_rate": [0.1, 0.3]})
        _fit_all(specs, X, y)
        assert taken == [0, 1, 2, 3] * 6  # four lanes of six rounds; each round's first call grows all four
        taken.clear()
        models = list(train_folds(specs, X, y, TestTrainFolds.FOLDS))
        assert len(models) == 3 * len(specs)
        assert taken == list(range(12)) * 6  # a (fold, pair) lane each of three folds' four pairs, six rounds

    def test_zero_hessian_spec_fails_a_stacked_job_as_it_fails_alone(self):
        X, _ = _golden_matrix()  # as in TestBoosting's zero-hessian test
        y = (X[:, 2] > 1.5).astype(np.int64)
        bad = ModelSpec(ModelKind.XGB, {"n_rounds": 30, "max_depth": 1, "learning_rate": 1.0, "reg_lambda": 0.0})
        good = ModelSpec(ModelKind.XGB, {"n_rounds": 5, "max_depth": 2, "learning_rate": 0.1, "reg_lambda": 0.0})
        folds = [np.arange(0, 120), np.arange(30, 150), np.r_[0:50, 70:150]]
        with pytest.raises(InvalidHyperparameter) as alone:
            train(bad, X[folds[1]], y[folds[1]])
        with pytest.raises(InvalidHyperparameter) as stacked:
            list(train_folds([good, bad], X, y, folds))
        assert str(stacked.value) == str(alone.value)


def _sigmoid_oracle(z):
    """The sigmoid by boolean masks: 1 / (1 + exp(-z)) at z >= 0, else
    exp(z) / (1 + exp(z))."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestTrainFolds:
    """The fold loop: every (fold, spec) model is the one ``train`` fits for
    its spec alone on that fold's rows, whatever the kind shares."""

    # folds of unequal size, as CV's training sides are
    FOLDS = [np.arange(0, 120), np.arange(30, 160), np.r_[0:50, 70:160]]

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_each_fold_model_equals_its_own_train(self, kind):
        X, y = _desk_matrix()
        space = {
            ModelKind.RF: {"n_trees": [3, 5], "max_depth": [None, 2]},
            ModelKind.XGB: {"n_rounds": [2, 4], "learning_rate": [0.1, 0.3]},
            ModelKind.MLPC: {"hidden": [8, 32], "learning_rate": [0.01, 0.1], "epochs": [5]},
        }.get(kind, DEFAULT_SEARCH_SPACES[kind])
        specs = _grid_specs(kind, space)
        models = {(f, i): model for f, i, model in train_folds(specs, X, y, self.FOLDS)}
        assert sorted(models) == [(f, i) for f in range(len(self.FOLDS)) for i in range(len(specs))]
        for (f, i), model in models.items():
            rows = self.FOLDS[f]
            assert asjson(model) == asjson(train(specs[i], X[rows], y[rows])), (f, specs[i])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_one_grouped_fit_protocol(self, kind):
        """A kind that shares fits has ``fit_folds`` exactly when it has ``share_key``."""
        module = learners._KINDS[kind]
        assert hasattr(module, "fit_folds") == hasattr(module, "share_key")
        assert not hasattr(module, "fit_grid")

    def test_mlpc_share_key_groups_learning_rates_only(self):
        specs = _grid_specs(ModelKind.MLPC, {"hidden": [8, 32], "learning_rate": [0.01, 0.1], "epochs": [5, 6]})
        groups = share_groups(specs)
        assert len(groups) == 4
        for group in groups:
            assert len({specs[i].hyperparameters["learning_rate"] for i in group}) == 2
            assert len({mlp.share_key(specs[i].hyperparameters) for i in group}) == 1


# The grid fit that ``boosting.fit_folds`` replaced, kept as its oracle: one
# fold at a time, each (learning rate, depth cap) pair a lane of one
# ``LockstepRound`` that holds a level as Python lists, one entry per node,
# and splits through the batch splitter it shared with the forest. That
# splitter pads every (node, slot) histogram to the widest feature's bins.


def _oracle_best_splits(score, offset, usable):
    gain = offset + score.max(axis=2)
    gain[~usable | np.isnan(gain)] = -np.inf
    slot = np.argmax(gain, axis=1)
    node = np.arange(len(slot))
    return np.where(gain[node, slot] > 1e-12, slot, -1), np.argmax(score[node, slot], axis=1)


def _oracle_split_batch(bins, rows, weights, score, slots=None):
    """Node i may split on the features ``slots[i]``, every feature if None;
    ``score(node ids, *sums)`` gives (score, offset) of every (node, slot, cut)."""
    n_nodes, d = len(rows), bins.codes.shape[1]
    slots = np.broadcast_to(np.arange(d), (n_nodes, d)) if slots is None else slots
    width, n_cells = slots.shape[1], bins.edges.shape[1]
    feature = np.full(n_nodes, -1, dtype=np.int32)
    threshold = np.zeros(n_nodes)
    children = [None] * n_nodes
    for lo, hi in tree._batches([len(r) for r in rows], width, n_cells):
        m = hi - lo
        sizes = [len(r) for r in rows[lo:hi]]
        cat = np.concatenate(rows[lo:hi])
        seg = np.repeat(np.arange(m), sizes)
        feats = slots[lo:hi]
        codes = bins.codes[cat[:, None], feats[seg]]
        first_cell = (np.arange(m)[:, None] * width + np.arange(width)) * n_cells
        cell = first_cell[seg] + codes
        sums = [
            np.bincount(cell.ravel(), None if w is None else np.repeat(w[cat], width), m * width * n_cells)
            .reshape(m, width, n_cells).cumsum(axis=2)[..., :-1]
            for w in weights
        ]
        best, cut = _oracle_best_splits(*score(np.arange(lo, hi), *sums), bins.n_bins[feats] >= 2)
        split = best >= 0
        f = np.where(split, feats[np.arange(m), best], -1)
        feature[lo:hi] = f
        threshold[lo:hi] = np.where(split, bins.edges[f, cut], 0.0)
        side = seg * 2 + (bins.codes[cat, f[seg]] > cut[seg])
        grouped = cat[np.argsort(side, kind="stable")]
        edge = [0] + np.cumsum(np.bincount(side, minlength=2 * m)).tolist()
        for i in np.flatnonzero(split).tolist():
            a, b, c = edge[2 * i : 2 * i + 3]
            children[lo + i] = grouped[a:b].copy(), grouped[b:c].copy()
    return feature, threshold, children


def _oracle_logloss(margin, y) -> float:
    softplus = np.maximum(margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
    return float(np.mean(softplus - y * margin))


def _oracle_preorder(feature, threshold, left, value) -> tree.TreeArrays:
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        if feature[v] >= 0:
            stack += [left[v] + 1, left[v]]
    new_id = np.empty(len(order), dtype=np.int32)
    new_id[order] = np.arange(len(order))
    internal = feature[order] >= 0
    kids = left[order][internal]
    new_left, new_right = np.full(len(order), -1, dtype=np.int32), np.full(len(order), -1, dtype=np.int32)
    new_left[internal], new_right[internal] = new_id[kids], new_id[kids + 1]
    return tree.TreeArrays(feature[order], threshold[order], new_left, new_right, value[order])


def _oracle_round(bins, grad, hess, max_depth, lam, row_value) -> list:
    """Every lane's tree of one round; lane m's rows are m * n to (m + 1) * n."""
    lanes = range(len(max_depth))
    n = len(grad) // len(max_depth)
    feature, threshold, value, left = ([[] for _ in lanes] for _ in range(4))
    levels, depth = [[np.arange(m * n, (m + 1) * n)] for m in lanes], 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while any(levels):
            nodes = [(m, i, r) for m in lanes for i, r in enumerate(levels[m])]
            first = [len(v) for v in value]
            G = [float(grad[r].sum()) for _, _, r in nodes]
            H = [float(hess[r].sum()) for _, _, r in nodes]
            try:
                node_value = [-g / (h + lam) for g, h in zip(G, H)]
            except ZeroDivisionError:
                raise InvalidHyperparameter(
                    f"XGB: reg_lambda {lam!r} leaves a node whose hessian sum is 0 without a value; "
                    "use a positive reg_lambda"
                ) from None
            for (m, _, _), v in zip(nodes, node_value):
                feature[m].append(-1)
                threshold[m].append(0.0)
                value[m].append(v)
                left[m].append(-1)
            ids = [j for j, (m, _, r) in enumerate(nodes) if depth < max_depth[m] and len(r) >= 2]
            next_levels = [[] for _ in lanes]
            if ids:
                kk = np.array([len(nodes[j][2]) for j in ids])[:, None, None]
                GG = np.array([G[j] for j in ids])[:, None, None]
                HH = np.array([H[j] for j in ids])[:, None, None]
                parent_term = np.array([G[j] * G[j] / (H[j] + lam) for j in ids])[:, None, None]

                def newton_gain(b, nl, gl, hl):
                    gr, hr = GG[b] - gl, HH[b] - hl
                    gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_term[b])
                    gain[(nl < 1) | (nl > kk[b] - 1)] = -np.inf
                    return gain, 0.0

                f, thr, children = _oracle_split_batch(
                    bins, [nodes[j][2] for j in ids], (None, grad, hess), newton_gain)
                for j, fj, tj, pair in zip(ids, f.tolist(), thr.tolist(), children):
                    if pair is not None:
                        m, i, _ = nodes[j]
                        feature[m][first[m] + i], threshold[m][first[m] + i] = fj, tj
                        left[m][first[m] + i] = first[m] + len(levels[m]) + len(next_levels[m])
                        next_levels[m] += pair
            for m, i, r in nodes:
                if feature[m][first[m] + i] < 0:
                    row_value[r] = value[m][first[m] + i]
            levels, depth = next_levels, depth + 1
    return [_oracle_preorder(np.array(feature[m], dtype=np.int32), np.array(threshold[m]),
                             np.array(left[m], dtype=np.int32), np.array(value[m])) for m in lanes]


def _fit_grid_oracle(group, X, y) -> dict:
    """Each params dict's state on (X, y), by index."""
    n = len(y)
    prior = float(np.clip(y.mean(), 1e-12, 1.0 - 1e-12))
    base = math.log(prior / (1.0 - prior))
    n_bins, reg_lambda = boosting.share_key(group[0])
    lane_of = [(params["learning_rate"], params["max_depth"]) for params in group]
    rounds = {}
    for lane, params in zip(lane_of, group):
        rounds[lane] = max(rounds.get(lane, 0), params["n_rounds"])
    lanes = sorted(rounds, key=rounds.get, reverse=True)
    lr = np.array([lane[0] for lane in lanes], dtype=np.float64)[:, None]
    bins = tree.bin_columns(X, n_bins)
    codes = np.tile(bins.codes, (len(lanes), 1))
    margin = np.full((len(lanes), n), base)
    leaf_value = np.empty((len(lanes), n))
    trees = [[] for _ in lanes]
    losses = [[_oracle_logloss(row, y)] for row in margin]
    states = {}
    for r in range(rounds[lanes[0]] + 1):
        for i, params in enumerate(group):
            if params["n_rounds"] == r:
                m = lanes.index(lane_of[i])
                states[i] = boosting.State(
                    tuple(trees[m][:r]), base, params["learning_rate"], tuple(losses[m][: r + 1]))
        k = sum(rounds[lane] > r for lane in lanes)
        if k == 0:
            break
        p = stable_sigmoid(margin[:k])
        grown = _oracle_round(tree.Bins(codes[: k * n], bins.n_bins, bins.edges), (p - y).ravel(),
                              (p * (1.0 - p)).ravel(), [lane[1] for lane in lanes[:k]], reg_lambda,
                              leaf_value[:k].ravel())
        for m in range(k):
            trees[m].append(grown[m])
        margin[:k] += lr[:k] * leaf_value[:k]
        for m in range(k):
            losses[m].append(_oracle_logloss(margin[m], y))
    return states


def _boosting_case(seed: int):
    """A random share group and 1 to 5 folds of unequal size; a fold that
    keeps only rows whose first flag is 0 bins that column as one bin."""
    rng = np.random.default_rng(seed)
    X, y = _desk_matrix()
    n_bins, reg_lambda = rng.choice([2, 4, 32]).item(), rng.choice([0.0, 0.5, 2.0]).item()
    group = [
        {"n_rounds": rng.choice([0, 1, 3, 8]).item(), "max_depth": rng.integers(1, 5).item(),
         "learning_rate": rng.choice([0.1, 0.3, 1.0]).item(), "n_bins": n_bins, "reg_lambda": reg_lambda}
        for _ in range(rng.integers(1, 7))
    ]
    folds = []
    for f in range(rng.integers(1, 6)):
        pool = np.flatnonzero(X[:, 0] == 0) if f == 1 else np.arange(len(y))
        folds.append(np.sort(rng.choice(pool, rng.integers(30, len(pool) + 1), replace=False)))
    return group, [(X[rows], y[rows]) for rows in folds]


class TestBoostingOracle:
    """``boosting.fit_folds`` stacks folds, lanes of unequal size and per-fold
    bins; every (fold, spec) state must be the grid fit's on that fold alone,
    bit for bit, and a refusal must be the same refusal."""

    @pytest.mark.parametrize("seed", range(40))
    def test_fit_folds_equals_the_grid_fit_of_each_fold(self, seed):
        group, folds = _boosting_case(seed)
        expected, refusal = {}, None
        for f, (X, y) in enumerate(folds):
            try:
                expected.update({(f, i): state for i, state in _fit_grid_oracle(group, X, y).items()})
            except InvalidHyperparameter as exc:
                refusal = refusal or str(exc)
        if refusal is not None:
            with pytest.raises(InvalidHyperparameter) as got:
                list(boosting.fit_folds(group, folds, [None] * len(folds)))
            assert str(got.value) == refusal
            return
        got = {(f, i): state for f, i, state in boosting.fit_folds(group, folds, [None] * len(folds))}
        assert sorted(got) == sorted(expected)
        for key, state in got.items():
            assert asjson(state) == asjson(expected[key]), (key, group[key[1]])

    def test_nan_gains_on_stacked_folds(self):
        # reg_lambda 0 at learning rate 1.0 saturates rows on the separable
        # rows, so cuts score 0/0 (NaN) and the features holding them must lose
        X, y = _separable_matrix()
        group = [{"n_rounds": n, "max_depth": 3, "learning_rate": 1.0, "n_bins": 32, "reg_lambda": 0.0}
                 for n in (10, 30)]
        rng = np.random.default_rng(0)
        folds = []
        for _ in range(5):
            rows = np.sort(rng.choice(150, rng.integers(100, 151), replace=False))
            folds.append((X[rows], y[rows]))
        got = {(f, i): state for f, i, state in boosting.fit_folds(group, folds, [None] * len(folds))}
        for f, (Xf, yf) in enumerate(folds):
            for i, state in _fit_grid_oracle(group, Xf, yf).items():
                assert asjson(got[f, i]) == asjson(state), (f, i)

    def test_cases_cover_the_grid(self):
        cases = [_boosting_case(seed) for seed in range(40)]
        specs = [params for group, _ in cases for params in group]
        assert {p["n_rounds"] for p in specs} == {0, 1, 3, 8}
        assert {p["max_depth"] for p in specs} == {1, 2, 3, 4}
        assert {p["n_bins"] for p in specs} == {2, 4, 32}
        assert {p["reg_lambda"] for p in specs} == {0.0, 0.5, 2.0}
        assert {len(folds) for _, folds in cases} == {1, 2, 3, 4, 5}
        n_bins = [tree.bin_columns(folds[1][0], 32).n_bins for _, folds in cases if len(folds) > 1]
        assert all(b[0] == 1 for b in n_bins)  # the flag-0 fold's first column has one bin
        assert len({len(y) for _, folds in cases for _, y in folds}) > 20


class _OracleForest:
    """The forest that ``LockstepForest`` replaced, kept as its oracle: each
    tree's depth-first stack holds (rows, positives, depth, parent, is right
    child) tuples, each child a copy of its rows, and a step's nodes split
    through the padded oracle splitter by Gini cost. Node i of tree t is the
    i-th node popped from its stack, so ids are in pre-order."""

    def __init__(self, bins, y, roots, rngs, max_depth, min_samples_leaf, max_features):
        self.bins, self.y, self.max_depth, self.msl = bins, y, max_depth, min_samples_leaf
        self.stacks = [[(rows, int(y[rows].sum()), 0, -1, False)] for rows in roots]
        d = bins.codes.shape[1]
        self.sampler = tree.FeatureSampler(rngs, d, min(max_features, d))
        self.deepest_draw = np.full(len(self.stacks), -1)
        self.nodes = [[] for _ in self.stacks]  # per tree, per node: [feature, threshold, value, right child]

    def step(self):
        live = [t for t, stack in enumerate(self.stacks) if stack]
        popped = [self.stacks[t].pop() for t in live]
        ids = [i for i, (rows, pos, depth, _, _) in enumerate(popped)
               if depth < self.max_depth and len(rows) >= 2 * self.msl and 0 < pos < len(rows)]
        feature, threshold = [-1] * len(popped), [0.0] * len(popped)
        if ids:
            drawing = np.array([live[i] for i in ids])
            slots = self.sampler.sample(drawing)
            for i in ids:
                self.deepest_draw[live[i]] = max(self.deepest_draw[live[i]], popped[i][2])
            k = np.array([len(popped[i][0]) for i in ids])
            pos = np.array([popped[i][1] for i in ids])
            kk, pp, msl = k[:, None, None], pos[:, None, None], self.msl
            gini = np.array([1.0 - (p / n) ** 2 - ((n - p) / n) ** 2 for p, n in zip(pos.tolist(), k.tolist())])

            def gini_cost(b, nl, pl):
                nr, pr = kk[b] - nl, pp[b] - pl
                gl = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
                gr = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
                cost = (nl * gl + nr * gr) / kk[b]
                cost[(nl < msl) | (nr < msl)] = np.inf
                return -cost, gini[b][:, None]

            with np.errstate(divide="ignore", invalid="ignore"):
                f, thr, children = _oracle_split_batch(
                    self.bins, [popped[i][0] for i in ids], (None, self.y), gini_cost, slots)
            for i, fi, ti, pair in zip(ids, f.tolist(), thr.tolist(), children):
                feature[i], threshold[i] = fi, ti
                if pair is not None:
                    t, (_, pos_i, depth, _, _) = live[i], popped[i]
                    left_pos, node = int(self.y[pair[0]].sum()), len(self.nodes[t])
                    self.stacks[t].append((pair[1], pos_i - left_pos, depth + 1, node, True))
                    self.stacks[t].append((pair[0], left_pos, depth + 1, node, False))
        for i, t in enumerate(live):
            rows, pos, _, parent, is_right = popped[i]
            if is_right:
                self.nodes[t][parent][3] = len(self.nodes[t])
            self.nodes[t].append([feature[i], threshold[i], pos / len(rows), -1])

    def trees(self) -> list:
        while any(self.stacks):
            self.step()
        out = []
        for nodes in self.nodes:
            feature, threshold, value, right = (np.array(column) for column in zip(*nodes))
            left = np.where(feature >= 0, np.arange(1, len(nodes) + 1), -1)
            out.append(tree.TreeArrays(feature.astype(np.int32), threshold.astype(np.float64), left.astype(np.int32),
                                       right.astype(np.int32), value.astype(np.float64)))
        return out


def _forest_case(seed: int) -> dict:
    """A random forest's inputs: 1 to 12 columns, each continuous (rounded,
    so values tie), 0/1 or constant; bootstrap roots of 5 to 400 rows."""
    rng = np.random.default_rng(seed)
    n, d = rng.integers(5, 401).item(), rng.integers(1, 13).item()
    X = rng.normal(size=(n, d)).round(rng.integers(0, 3).item())
    column = rng.integers(0, 3, d)  # 0 continuous, 1 0/1, 2 constant
    X[:, column == 1] = rng.integers(0, 2, (n, np.count_nonzero(column == 1)))
    X[:, column == 2] = 1.5
    y = (X.sum(axis=1) + rng.normal(size=n) > 0).astype(np.int64)
    n_trees = rng.integers(1, 9).item()
    return {
        "X": X, "y": y, "column": column, "n_bins": [2, 4, 32][rng.integers(3)], "root_sizes": rng.integers(5, 401, n_trees),
        "min_samples_leaf": [1, 3, 7][rng.integers(3)], "max_depth": [None, 1, 3][rng.integers(3)],
        "max_features": rng.integers(1, d + 1).item(),
    }


def _forest_trees(cls, case: dict, seed: int):
    """``cls``'s forest on the case, its trees in order and its deepest draws;
    each tree's rng draws its root, then its feature samples."""
    bins = tree.bin_columns(case["X"], case["n_bins"])
    rngs = [np.random.default_rng([seed, t]) for t in range(len(case["root_sizes"]))]
    roots = (r.integers(0, len(case["y"]), size).astype(np.int32) for r, size in zip(rngs, case["root_sizes"]))
    max_depth = 2**31 if case["max_depth"] is None else case["max_depth"]
    grown = cls(bins, case["y"], roots, rngs, max_depth, case["min_samples_leaf"], case["max_features"])
    if cls is _OracleForest:
        return grown.trees(), grown.deepest_draw
    order = np.random.default_rng(seed).permutation(len(rngs)).tolist()  # taken in any order
    trees = {t: tree.grow_classification_tree(grown, t) for t in order}
    return [trees[t] for t in range(len(rngs))], grown.deepest_draw


class TestForestOracle:
    """``LockstepForest`` keeps every node as a range of one row array and
    splits on per-feature histogram cells; every tree must be the padded
    oracle's, bit for bit, and so must each tree's deepest draw."""

    def _assert_matches_the_oracle(self, seed):
        case = _forest_case(seed)
        got, got_draw = _forest_trees(tree.LockstepForest, case, seed)
        want, want_draw = _forest_trees(_OracleForest, case, seed)
        assert got_draw.tolist() == want_draw.tolist()
        for t, (g, w) in enumerate(zip(got, want, strict=True)):
            assert asjson(g) == asjson(w), t
            assert g.threshold.tobytes() == w.threshold.tobytes() and g.value.tobytes() == w.value.tobytes(), t

    @pytest.mark.parametrize("seed", range(48))
    def test_forest_equals_the_padded_oracle(self, seed):
        self._assert_matches_the_oracle(seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_forest_equals_the_padded_oracle_in_small_batches(self, seed, monkeypatch):
        monkeypatch.setattr(tree, "_BATCH_CELLS", 64)
        self._assert_matches_the_oracle(seed)

    def test_forest_of_no_trees(self):
        X, y = _desk_matrix()
        grown = tree.LockstepForest(tree.bin_columns(X, 32), y, iter(()), [], 2**31, 1, 3)
        assert grown.live == [] and grown.done == {} and len(grown.deepest_draw) == 0

    def test_cases_cover_the_grid(self):
        cases = [_forest_case(seed) for seed in range(48)]
        assert {c["n_bins"] for c in cases} == {2, 4, 32}
        assert {c["min_samples_leaf"] for c in cases} == {1, 3, 7}
        assert {c["max_depth"] for c in cases} == {None, 1, 3}
        assert {c["X"].shape[1] for c in cases} >= {1, 12}
        assert any((c["column"] == 2).any() for c in cases) and any((c["column"] == 1).any() for c in cases)
        assert any(c["max_features"] == 1 < c["X"].shape[1] for c in cases)
        assert any(c["max_features"] == c["X"].shape[1] > 1 for c in cases)
        sizes = np.concatenate([c["root_sizes"] for c in cases])
        assert sizes.min() < 15 and sizes.max() > 390
        deep = [t for seed, c in enumerate(cases[:8]) for t in _forest_trees(_OracleForest, c, seed)[0]]
        assert max(len(t.feature) for t in deep) > 20  # trees that split many times


class TestStableSigmoid:
    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
    def test_identical_to_masked_form(self, scale):
        z = np.random.default_rng(31).normal(size=20_000) * scale
        assert stable_sigmoid(z).tobytes() == _sigmoid_oracle(z).tobytes()

    def test_identical_on_edge_values(self):
        edges = [0.0, 1e-320, 709.8, 745.2, 36.7, np.inf]
        z = np.array(edges + [-v for v in edges])
        assert stable_sigmoid(z).tobytes() == _sigmoid_oracle(z).tobytes()
        assert np.array_equal(stable_sigmoid(z)[[5, 11]], [1.0, 0.0])

    def test_nan_stays_nan(self):
        assert np.isnan(stable_sigmoid(np.array([np.nan, 0.0])))[0]
        assert np.isnan(_sigmoid_oracle(np.array([np.nan])))[0]


def _mlp_fit_oracle(params, X, y, rng):
    """MLPC training as separate parameter arrays, a row gather per batch
    and one update per array."""
    n, d = X.shape
    lr = params["learning_rate"]
    net = init_params(d, params["hidden"], rng)
    for _ in range(params["epochs"]):
        perm = rng.permutation(n)
        for start in range(0, n, params["batch_size"]):
            batch = perm[start : start + params["batch_size"]]
            Xb, yb = X[batch], y[batch]
            pre = Xb @ net["W1"] + net["b1"]
            act = np.maximum(pre, 0.0)
            dz = (stable_sigmoid(act @ net["w2"] + net["b2"]) - yb) / len(Xb)
            dw2 = act.T @ dz
            db2 = float(dz.sum())
            dpre = np.outer(dz, net["w2"]) * (pre > 0.0)
            net["W1"] = net["W1"] - lr * (Xb.T @ dpre)
            net["b1"] = net["b1"] - lr * dpre.sum(axis=0)
            net["w2"] = net["w2"] - lr * dw2
            net["b2"] = net["b2"] - lr * db2
    return net


class TestMlp:
    @pytest.mark.parametrize("n", [45, 160, 1275])
    @pytest.mark.parametrize("hidden,learning_rate", [(8, 0.1), (32, 0.01)])
    def test_fit_identical_to_per_array_loop(self, n, hidden, learning_rate):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 10))
        y = rng.integers(0, 2, n)
        params = {"hidden": hidden, "learning_rate": learning_rate, "epochs": 4, "batch_size": 32}
        got = mlp.fit(params, X, y, np.random.default_rng(7))
        expected = _mlp_fit_oracle(params, X, y, np.random.default_rng(7))
        assert type(got.b2) is float
        for key in ("W1", "b1", "w2", "b2"):
            assert np.asarray(getattr(got, key)).tobytes() == np.asarray(expected[key]).tobytes(), key

    @pytest.mark.parametrize("hidden", [8, 32])
    @pytest.mark.parametrize("rates", [[0.01], [0.1], [0.01, 0.1]], ids=str)
    @pytest.mark.parametrize("sizes", [[160], [45, 64], [45, 64, 70], [70, 33, 96, 64], [64, 96, 45, 70, 33]], ids=str)
    def test_fit_folds_equals_fit_of_each_lane(self, hidden, rates, sizes):
        # 1 to 10 (fold, rate) lanes: ragged tails of 13, 6 and 1 rows or none,
        # and folds of 1, 2 or 3 full batches, listed out of that order
        rng = np.random.default_rng(len(sizes))
        folds = [(rng.normal(size=(n, 10)), rng.integers(0, 2, n)) for n in sizes]
        group = [{"hidden": hidden, "learning_rate": rate, "epochs": 4, "batch_size": 32} for rate in rates]
        rngs = [np.random.default_rng(7) for _ in folds]
        lanes = {(f, i): state for f, i, state in mlp.fit_folds(group, folds, rngs)}
        assert sorted(lanes) == [(f, i) for f in range(len(folds)) for i in range(len(group))]
        for (f, i), got in lanes.items():
            expected = mlp.fit(group[i], *folds[f], np.random.default_rng(7))
            assert type(got.b2) is float
            for key in ("W1", "b1", "w2", "b2"):
                got_bytes, expected_bytes = (np.asarray(getattr(state, key)).tobytes() for state in (got, expected))
                assert got_bytes == expected_bytes, (f, i, key)

    def test_zeroed_output_layer_scores_half(self):
        X, y = make_blobs(n=30, d=3, seed=18)
        params = init_params(3, 4, np.random.default_rng(0))
        s = mlp.score(mlp.State(**params), X)
        assert np.all(s == 0.5)

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(5, 3))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        params = init_params(3, 4, rng)
        params["w2"] = rng.normal(size=4)
        params["b2"] = 0.25
        _, grads = loss_and_grads(params, X, y)

        h = 1e-5
        for key in ("W1", "b1", "w2", "b2"):
            value = np.atleast_1d(np.asarray(params[key], dtype=float)).copy()
            grad = np.atleast_1d(np.asarray(grads[key], dtype=float))
            flat = value.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                for sign in (+1, -1):
                    flat[i] = orig + sign * h
                    params[key] = value.reshape(np.shape(params[key])) if np.ndim(params[key]) else float(flat[0])
                    loss, _ = loss_and_grads(params, X, y)
                    if sign > 0:
                        plus = loss
                    else:
                        minus = loss
                flat[i] = orig
                params[key] = value.reshape(np.shape(params[key])) if np.ndim(params[key]) else float(flat[0])
                fd = (plus - minus) / (2 * h)
                g = grad.reshape(-1)[i]
                rel = abs(fd - g) / max(1.0, abs(fd) + abs(g))
                assert rel < 1e-4, f"{key}[{i}]: analytic {g} vs fd {fd}"


def _cut(*keys):
    """An edit of a model's JSON object that drops the last entry of the list at ``d[keys...]``."""
    def edit(d):
        for key in keys[:-1]:
            d = d[key]
        d[keys[-1]] = d[keys[-1]][:-1]
    return edit


def _put(value, *keys):
    """An edit of a model's JSON object that sets ``d[keys...]`` to value."""
    def edit(d):
        for key in keys[:-1]:
            d = d[key]
        d[keys[-1]] = value
    return edit


def _nan_trees(d):
    """An edit of a model's JSON object that sets every threshold and value of its trees to NaN."""
    for t in d["state"]["trees"]:
        t["threshold"], t["value"] = [math.nan] * len(t["threshold"]), [math.nan] * len(t["value"])


# (kind, edit of the saved JSON, what the error must say after the file name)
CORRUPTED_MODELS = {
    "svm_w": (ModelKind.SVM, _cut("state", "w"), "state.w: expected shape (4,), got (3,)"),
    "lr_w": (ModelKind.LR, _cut("state", "w"), "state.w: expected shape (4,), got (3,)"),
    "mlpc_b1": (ModelKind.MLPC, _cut("state", "b1"), "state.b1: expected shape (8,), got (7,)"),
    "mlpc_W1": (ModelKind.MLPC, _cut("state", "W1"), "state.W1: expected shape (4, None), got (3, 8)"),
    "knn_y": (ModelKind.KNN, _cut("state", "y"), "state.y: expected shape (50,), got (49,)"),
    "knn_ragged_X": (ModelKind.KNN, _cut("state", "X", 7),
                     "state.X: expected a rectangular list of float64 values"),
    "nb_var": (ModelKind.NB, _cut("state", "class1", "var"), "state.class1.var: expected shape (4,), got (3,)"),
    "nb_binary": (ModelKind.NB, _put([0, 0, 0, 0], "state", "binary"),
                  "state.binary: expected a rectangular list of bool values"),
    "rf_threshold": (ModelKind.RF, _cut("state", "trees", 3, "threshold"), "state.trees[3].threshold: expected shape"),
    "rf_feature": (ModelKind.RF, _put([4], "state", "trees", 0, "feature", slice(0, 1)),
                   "state.trees[0].feature: feature index outside [-1, 4)"),
    "rf_no_trees": (ModelKind.RF, _put([], "state", "trees"), "state.trees: a forest needs at least one tree"),
    "xgb_left": (ModelKind.XGB, _cut("state", "trees", 3, "left"), "state.trees[3].left: expected shape"),
    "xgb_cycle": (ModelKind.XGB, _put([0], "state", "trees", 2, "right", slice(0, 1)),
                  "state.trees[2].right: child id not between its node and"),
    "xgb_train_loss": (ModelKind.XGB, _cut("state", "train_loss"), "state.train_loss: expected 51 entries, got 50"),
    "standardizer_mean": (ModelKind.LR, _cut("standardizer", "mean"),
                          "standardizer.mean: expected shape (4,), got (3,)"),
    "feature_names": (ModelKind.LR, _cut("feature_names"), "feature_names: expected 4 names, got 3"),
    "unknown_state_key": (ModelKind.LR, _put(1, "state", "epochs"), "state: unknown keys ['epochs']"),
    "missing_state_key": (ModelKind.MLPC, lambda d: d["state"].pop("w2"), "state: missing keys ['w2']"),
    "arity_string": (ModelKind.LR, _put("4", "arity"), "TrainedModel.arity: expected int, got str '4'"),
    "rf_nan_thresholds_and_values": (ModelKind.RF, _nan_trees, "state.trees[0].threshold"),
    "knn_nan_row": (ModelKind.KNN, _put([math.nan] * 4, "state", "X", 3), "state.X[3][0]: nan is not a finite number"),
    "decision_threshold_nan": (ModelKind.NB, _put(math.nan, "decision_threshold"),
                               "TrainedModel: decision_threshold: nan is not a finite number"),
    "standardizer_inf": (ModelKind.LR, _put([1.0, math.inf, 1.0, 1.0], "standardizer", "std"),
                         "standardizer.std[1]: inf is not a finite number"),
}


class TestSaveLoad:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_json_roundtrip_preserves_scores(self, kind, tmp_path):
        X, y = make_blobs(n=50, d=4, seed=20)
        model = train(ModelSpec(kind, seed=2), X, y, feature_names=("a", "b", "c", "d"))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert loaded.feature_names == ("a", "b", "c", "d")
        assert asjson(loaded) == asjson(model)
        assert np.array_equal(np.asarray(loaded.score(X)), np.asarray(model.score(X)))

    def _saved(self, tmp_path, edit, kind=ModelKind.NB):
        X, y = make_blobs(n=50, d=4, seed=20)
        d = asjson(train(ModelSpec(kind, seed=2), X, y, feature_names=("a", "b", "c", "d")))
        edit(d)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        return path

    def test_format_version_checked(self, tmp_path):
        path = self._saved(tmp_path, _put(1, "format_version"))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: TrainedModel: format_version: got model format 1,")):
            load_model(path)

    @pytest.mark.parametrize("key", ["decision_threshold", "feature_names", "spec", "format_version"])
    def test_missing_key_rejected(self, key, tmp_path):
        path = self._saved(tmp_path, lambda d: d.pop(key))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: TrainedModel: missing keys ['{key}']")):
            load_model(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self._saved(tmp_path, _put(0.4, "threshold"))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: TrainedModel: unknown keys ['threshold']")):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(CORRUPTED_MODELS))
    def test_corrupted_state_names_the_file_and_key(self, case, tmp_path):
        kind, edit, message = CORRUPTED_MODELS[case]
        path = self._saved(tmp_path, edit, kind)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            load_model(path)

    def test_json_text_is_plain(self, tmp_path):
        X, y = make_blobs(n=30, d=2, seed=23)
        path = tmp_path / "m.json"
        save_model(train(ModelSpec(ModelKind.RF, {"n_trees": 3}), X, y), path)
        json.loads(path.read_text())  # parses as standard JSON
