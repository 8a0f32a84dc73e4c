import hashlib
import json
import math

import numpy as np
import pytest

from rescue_triage.learners import (
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
)
from rescue_triage.learners.mlp import init_params, loss_and_grads
from rescue_triage.learners.base import stable_sigmoid

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
        assert ModelSpec.from_dict(spec.to_dict()) == spec


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


# (kind, hyperparameters, sha256 of the saved-model JSON), recorded from the
# tree growers before they were merged into one; any change to a split,
# threshold or leaf value shows
GOLDEN_TREES = [
    (ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 1, "n_bins": 2},
     "cf9a338ed56c8309e50edf48f95605d18b36c49b0eaa36692f70cfe019ea8193"),
    (ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 1, "n_bins": 32},
     "59388c8af7bef5b9d96e0d117da2a3839ce3aaa718e7492841600d5b70cbd3ad"),
    (ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 3, "n_bins": 2},
     "34cbaeb28339dce6b119a809604ceb74078913e8f45a77548ccaf9124db74b76"),
    (ModelKind.RF, {"n_trees": 4, "max_depth": None, "min_samples_leaf": 3, "n_bins": 32},
     "aa2a6587d2bed9a898057c3d2b5ea5c3343061a74857e09e0c8b86be87f16938"),
    (ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 1, "n_bins": 2},
     "7b687e84aae26e8fc702c43aba92e6354f1bc69e0e89a9c7e221e208b85868f1"),
    (ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 1, "n_bins": 32},
     "c85ce71a3e733bc303f19043820fb43026120a82ff73ece65b7110052b280878"),
    (ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 3, "n_bins": 2},
     "31a2399e04babe09074eeff03372bf633d4491c07ee792e569e27d3f0f9e597a"),
    (ModelKind.RF, {"n_trees": 4, "max_depth": 3, "min_samples_leaf": 3, "n_bins": 32},
     "3e21429c1d66a8e40be94b1c551b650dcc5baab4f365259ab41230f7224b5654"),
    (ModelKind.XGB, {"n_rounds": 0, "max_depth": 1},
     "300d44e7aa86720eb5a5cf21d22942e4d2acf6380de3d7cf298279da846da6db"),
    (ModelKind.XGB, {"n_rounds": 0, "max_depth": 3},
     "fe78ed5df8b2bd5332e0eb38330fa3ce445c8e6207859f901cbb2e3d4a0d8926"),
    (ModelKind.XGB, {"n_rounds": 20, "max_depth": 1},
     "7d6483a19a6a0fbbdabfe645f682b3fa14013e20b8b1918dc00c22f66b7343a6"),
    (ModelKind.XGB, {"n_rounds": 20, "max_depth": 3},
     "9d23a07ed07f5a9ea48c0b93a6afaaa5e5b235c90e97fe8830f1df905429c46c"),
    (ModelKind.XGB, {"n_rounds": 20, "max_depth": 3, "reg_lambda": 0.0, "n_bins": 4},
     "aa964de455dba79ea91a8428a96c62059e9692d9fff1870d1ee0ab2aa12968bd"),
]


class TestGoldenTrees:
    @pytest.mark.parametrize(
        "kind,params,digest",
        GOLDEN_TREES,
        ids=["-".join([k.value, *(f"{n}={v}" for n, v in p.items())]) for k, p, _ in GOLDEN_TREES],
    )
    def test_saved_model_hash(self, kind, params, digest):
        X, y = _golden_matrix()
        model = train(ModelSpec(kind, params, seed=5), X, y)
        assert hashlib.sha256(json.dumps(model_to_dict(model)).encode()).hexdigest() == digest


class TestMlp:
    def test_zeroed_output_layer_scores_half(self):
        X, y = make_blobs(n=30, d=3, seed=18)
        params = init_params(3, 4, np.random.default_rng(0))
        from rescue_triage.learners.mlp import score_mlpc

        s = score_mlpc(params, X)
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

    def test_json_text_is_plain(self, tmp_path):
        X, y = make_blobs(n=30, d=2, seed=23)
        path = tmp_path / "m.json"
        save_model(train(ModelSpec(ModelKind.RF, {"n_trees": 3}), X, y), path)
        json.loads(path.read_text())  # parses as standard JSON
