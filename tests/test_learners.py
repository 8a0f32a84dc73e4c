import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from rescue_triage.learners import (
    DEFAULT_SEARCH_SPACES,
    ArityMismatch,
    InvalidHyperparameter,
    ModelKind,
    ModelSpec,
    SingleClassTraining,
    Standardizer,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    train,
    train_grid,
)
from rescue_triage.learners.mlp import init_params, loss_and_grads
from rescue_triage.learners import boosting, forest, tree
from rescue_triage.learners.base import binary_columns, stable_sigmoid
from rescue_triage.records import Dataset, asjson
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
        assert Standardizer.fit(X).binary_mask.tolist() == by_value_set

    def test_training_shift_does_not_leak_validation(self):
        X_train, y = make_blobs(n=60, d=3, seed=7)
        X_val = X_train[:20] + 100.0
        model = train(ModelSpec(ModelKind.LR), X_train, y)
        recomputed = Standardizer.fit(X_train)
        assert np.array_equal(model.standardizer.mean, recomputed.mean)
        assert np.array_equal(model.standardizer.std, recomputed.std)
        model.score(X_val)  # shifted validation rows never touch the parameters
        assert np.array_equal(model.standardizer.mean, recomputed.mean)


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
        w = np.asarray(model.state["w"])
        margins = model.standardizer.transform(X) @ w + model.state["b"]
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

        assert all(depth(t) <= 2 for t in model.state["trees"])


class TestBoosting:
    def test_zero_rounds_scores_training_prior(self):
        X, y = make_blobs(n=40, d=3, seed=16)
        model = train(ModelSpec(ModelKind.XGB, {"n_rounds": 0}), X, y)
        prior = y.mean()
        base = model.state["base_margin"]
        assert base == pytest.approx(math.log(prior / (1 - prior)))
        s = np.asarray(model.score(X))
        assert np.allclose(s, prior)
        assert np.ptp(s) == 0.0  # constant for every input
        assert model.state["train_loss"][0] == pytest.approx(
            float(np.mean(-(y * np.log(stable_sigmoid(np.full(len(y), base)))
                           + (1 - y) * np.log(1 - stable_sigmoid(np.full(len(y), base))))))
        )

    def test_training_loss_non_increasing(self):
        X, y = make_blobs(n=150, d=5, seed=17, noise=1.5)
        for lr in (0.1, 0.3):
            model = train(ModelSpec(ModelKind.XGB, {"n_rounds": 60, "learning_rate": lr}), X, y)
            losses = model.state["train_loss"]
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


# (rows, kind, hyperparameters, sha256 of the saved-model JSON); any change to
# a split, threshold or leaf value shows. The cases on the golden rows were
# recorded from the two tree growers before they were merged into one, the
# others from that depth-first per-node grower, for what a batched grower
# branches on: a forest spanning several histogram batches, a single-bin
# column, a leaf-size floor, and NaN cut gains
GOLDEN_TREES = [
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 1, "n_bins": 2},
     "cf9a338ed56c8309e50edf48f95605d18b36c49b0eaa36692f70cfe019ea8193"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 1, "n_bins": 32},
     "59388c8af7bef5b9d96e0d117da2a3839ce3aaa718e7492841600d5b70cbd3ad"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 3, "n_bins": 2},
     "34cbaeb28339dce6b119a809604ceb74078913e8f45a77548ccaf9124db74b76"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 3, "n_bins": 32},
     "aa2a6587d2bed9a898057c3d2b5ea5c3343061a74857e09e0c8b86be87f16938"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 1, "n_bins": 2},
     "7b687e84aae26e8fc702c43aba92e6354f1bc69e0e89a9c7e221e208b85868f1"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 1, "n_bins": 32},
     "c85ce71a3e733bc303f19043820fb43026120a82ff73ece65b7110052b280878"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 3, "n_bins": 2},
     "31a2399e04babe09074eeff03372bf633d4491c07ee792e569e27d3f0f9e597a"),
    (_golden_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 3, "n_bins": 32},
     "3e21429c1d66a8e40be94b1c551b650dcc5baab4f365259ab41230f7224b5654"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 0, "max_depth": 1},
     "300d44e7aa86720eb5a5cf21d22942e4d2acf6380de3d7cf298279da846da6db"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 0, "max_depth": 3},
     "fe78ed5df8b2bd5332e0eb38330fa3ce445c8e6207859f901cbb2e3d4a0d8926"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 20, "max_depth": 1},
     "7d6483a19a6a0fbbdabfe645f682b3fa14013e20b8b1918dc00c22f66b7343a6"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 20, "max_depth": 3},
     "9d23a07ed07f5a9ea48c0b93a6afaaa5e5b235c90e97fe8830f1df905429c46c"),
    (_golden_matrix, ModelKind.XGB, {"n_rounds": 20, "max_depth": 3, "reg_lambda": 0.0, "n_bins": 4},
     "aa964de455dba79ea91a8428a96c62059e9692d9fff1870d1ee0ab2aa12968bd"),
    (_desk_matrix, ModelKind.RF, {"n_trees": 300},
     "02918c89647af73cb453423ae6bdd390b046d115f9c23f63a7892fe277ff4c9d"),
    (_desk_matrix, ModelKind.RF, {"n_trees": 300, "max_depth": 10, "min_samples_leaf": 3},
     "f95e4854399f6f921a880945697e087429bca90b7e85bff99a6c944570fada9f"),
    (_constant_column_matrix, ModelKind.RF, {"n_trees": 4},
     "ea18a1c9413e7d47525fafb3ca0b2946a8c5f00506266a9f8db20815d1e08b22"),
    (_constant_column_matrix, ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 3},
     "dd4126fcaf0c2735abc36c3ba8093ac3a1b3e84b248e83585e5eac3c802c753e"),
    (_constant_column_matrix, ModelKind.XGB, {"n_rounds": 20, "max_depth": 3},
     "e364d412ff7b51dc24135d08591b105d215ac54ae4d6953832badd849aae592b"),
    (_separable_matrix, ModelKind.XGB, {"n_rounds": 30, "max_depth": 3, "learning_rate": 1.0, "reg_lambda": 0.0},
     "52979074f6ef0dfcfb6913e589b814bad5d225d94fedd730194b065ab6652eec"),
]


def _golden_id(rows, kind, params) -> str:
    names = [] if rows is _golden_matrix else [rows.__name__.strip("_")]
    return "-".join([*names, kind.value, *(f"{n}={v}" for n, v in params.items())])


class TestGoldenTrees:
    @pytest.mark.parametrize(
        "rows,kind,params,digest", GOLDEN_TREES, ids=[_golden_id(r, k, p) for r, k, p, _ in GOLDEN_TREES]
    )
    def test_saved_model_hash(self, rows, kind, params, digest):
        X, y = rows()
        model = train(ModelSpec(kind, params, seed=5), X, y)
        assert hashlib.sha256(json.dumps(model_to_dict(model)).encode()).hexdigest() == digest


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
        trees = model.state["trees"]
        expected = np.array([sum(_walk(t, x) >= 0.5 for t in trees) for x in Xs]) / len(trees)
        assert np.array_equal(np.asarray(model.score(X)), expected)

    @pytest.mark.parametrize("params", [{"n_rounds": 12}, {"n_rounds": 25, "max_depth": 2, "learning_rate": 0.3}])
    def test_boosting_adds_trees_in_order(self, params):
        X, y = _desk_matrix()
        model = train(ModelSpec(ModelKind.XGB, params, seed=3), X[:120], y[:120])
        Xs = model.standardizer.transform(X)
        state = model.state
        margin = np.full(len(X), state["base_margin"])
        for t in state["trees"]:
            margin += state["learning_rate"] * np.array([_walk(t, x) for x in Xs])
        assert np.array_equal(np.asarray(model.score(X)), np.clip(stable_sigmoid(margin), 0.0, 1.0))


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
        ahead = [tree.grow_classification_tree(forward, t).to_dict() for t in range(9)]
        behind = [tree.grow_classification_tree(backward, t).to_dict() for t in reversed(range(9))]
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
        assert model_to_dict(small) == model_to_dict(model)
        assert np.array_equal(np.asarray(small.score(X_score)), scores)
        assert np.array_equal(np.asarray(model.score(X_score)), scores)


def _grid_specs(kind, space, seed=5):
    names = sorted(space)
    combos = itertools.product(*(space[n] for n in names))
    return [ModelSpec(kind, dict(zip(names, values)), seed=seed) for values in combos]


def _assert_each_equals_its_own_train(specs, X, y):
    models = dict(train_grid(specs, X, y))
    assert sorted(models) == list(range(len(specs)))
    for i, spec in enumerate(specs):
        assert model_to_dict(models[i]) == model_to_dict(train(spec, X, y)), spec


class TestTrainGrid:
    """A grid fit shares forests and boosting lanes between specs; every model
    must still be the one ``train`` fits for its spec alone."""

    @pytest.mark.parametrize("kind", [ModelKind.RF, ModelKind.XGB], ids=lambda k: k.value)
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
        models = dict(train_grid(specs, X, y))
        assert model_to_dict(models[0])["state"] != model_to_dict(models[2])["state"]

    def test_zero_hessian_spec_fails_its_group_as_it_fails_alone(self):
        X, _ = _golden_matrix()  # as in TestBoosting's zero-hessian test
        y = (X[:, 2] > 1.5).astype(np.int64)
        bad = ModelSpec(ModelKind.XGB, {"n_rounds": 30, "max_depth": 1, "learning_rate": 1.0, "reg_lambda": 0.0})
        good = ModelSpec(ModelKind.XGB, {"n_rounds": 5, "max_depth": 2, "learning_rate": 0.1, "reg_lambda": 0.0})
        train(good, X, y)
        with pytest.raises(InvalidHyperparameter) as alone:
            train(bad, X, y)
        with pytest.raises(InvalidHyperparameter) as grouped:
            list(train_grid([good, bad], X, y))
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
        list(train_grid(specs, X, y))
        assert taken == [0, 1, 2, 3] * 6  # four lanes of six rounds; each round's first call grows all four


class TestMlp:
    def test_zeroed_output_layer_scores_half(self):
        X, y = make_blobs(n=30, d=3, seed=18)
        params = init_params(3, 4, np.random.default_rng(0))
        from rescue_triage.learners import mlp

        s = mlp.score(params, X)
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
        assert np.array_equal(np.asarray(loaded.score(X)), np.asarray(model.score(X)))

    def test_format_version_checked(self):
        X, y = make_blobs(n=30, d=2, seed=22)
        d = model_to_dict(train(ModelSpec(ModelKind.NB), X, y))
        d["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(d)

    @pytest.mark.parametrize("key", ["decision_threshold", "feature_names", "spec"])
    def test_missing_key_rejected(self, key):
        X, y = make_blobs(n=30, d=2, seed=22)
        d = model_to_dict(train(ModelSpec(ModelKind.NB), X, y))
        del d[key]
        with pytest.raises(ValueError, match=re.escape(f"model: missing keys ['{key}']")):
            model_from_dict(d)

    def test_unknown_key_rejected(self):
        X, y = make_blobs(n=30, d=2, seed=22)
        d = {**model_to_dict(train(ModelSpec(ModelKind.NB), X, y)), "threshold": 0.4}
        with pytest.raises(ValueError, match=re.escape("model: unknown keys ['threshold']")):
            model_from_dict(d)

    def test_json_text_is_plain(self, tmp_path):
        X, y = make_blobs(n=30, d=2, seed=23)
        path = tmp_path / "m.json"
        save_model(train(ModelSpec(ModelKind.RF, {"n_trees": 3}), X, y), path)
        json.loads(path.read_text())  # parses as standard JSON
