import numpy as np
import pytest

from rescue_triage.featselect import rfecv
from rescue_triage.learners import DEFAULT_SEARCH_SPACES, ModelKind, ModelSpec, train
from rescue_triage.records import Dataset, asjson
from rescue_triage.tuning import (
    CvSpec,
    DegenerateFolds,
    EmptyPartition,
    EmptySpace,
    SearchSpec,
    cross_validate,
    evaluate_all,
    fold_accuracy,
    fold_chunks,
    fold_pairs,
    make_folds,
    search,
    split_train_test,
    write_metrics_csv,
)
from rescue_triage.tuning import _draw_candidates

from conftest import make_blobs


def dataset(n=100, d=4, seed=0, **kw):
    X, y = make_blobs(n=n, d=d, seed=seed, **kw)
    return Dataset(X, y, tuple(f"f{i}" for i in range(d)))


class TestSplit:
    def test_80_20_arithmetic(self):
        data = dataset(n=10)
        train_set, test_set = split_train_test(data, 0.8, seed=1, stratified=False)
        assert len(train_set) == 8 and len(test_set) == 2
        assert set(map(tuple, train_set.X)).isdisjoint(set(map(tuple, test_set.X)))

    def test_same_seed_same_split(self):
        data = dataset(n=50)
        a = split_train_test(data, 0.8, seed=7)
        b = split_train_test(data, 0.8, seed=7)
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[1].X, b[1].X)

    def test_stratified_class_arithmetic(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        y = np.array([1] * 60 + [0] * 40)
        data = Dataset(X, y, ("a", "b"))
        train_set, test_set = split_train_test(data, 0.8, seed=3, stratified=True)
        assert int(train_set.y.sum()) == 48
        assert len(train_set) - int(train_set.y.sum()) == 32
        assert int(test_set.y.sum()) == 12

    def test_empty_partition_rejected(self):
        data = dataset(n=4)
        with pytest.raises(EmptyPartition):
            split_train_test(data, 0.999, seed=1, stratified=False)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            split_train_test(dataset(), 1.0, seed=0)


class TestFolds:
    def test_fold_count_and_coverage(self):
        data = dataset(n=53)
        folds = make_folds(data.y, CvSpec(folds=5, stratified=False, seed=2))
        assert len(folds) == 5
        all_idx = np.sort(np.concatenate(folds))
        assert np.array_equal(all_idx, np.arange(53))

    def test_stratified_positive_counts_within_one(self):
        rng = np.random.default_rng(1)
        y = (rng.random(83) < 0.3).astype(int)
        folds = make_folds(y, CvSpec(folds=5, stratified=True, seed=4))
        pos_counts = [int(y[f].sum()) for f in folds]
        assert max(pos_counts) - min(pos_counts) <= 1

    def test_stratified_imbalanced_folds_keep_both_classes(self):
        y = np.array([1] * 12 + [0] * 48)
        folds = make_folds(y, CvSpec(folds=5, stratified=True, seed=0))
        for f in folds:
            assert 0 < int(y[f].sum()) < len(f)

    def test_fold_pairs_complement_make_folds(self):
        data = dataset(n=53)
        cv = CvSpec(folds=5, seed=2)
        pairs = fold_pairs(data.y, cv)
        for (train_idx, val_idx), fold in zip(pairs, make_folds(data.y, cv)):
            assert np.array_equal(val_idx, fold)
            assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(53))


class TestCrossValidate:
    def test_learnable_fixture_scores_one(self):
        data = dataset(n=60, sep=8.0, noise=0.0)
        [scores] = cross_validate([ModelSpec(ModelKind.KNN, {"k": 3})], data, CvSpec(folds=4, seed=1))
        assert scores == (1.0,) * 4

    def test_leave_one_out_matches_bruteforce(self):
        X = np.array([[0.0], [0.2], [0.9], [1.1], [1.9], [2.1]])
        y = np.array([0, 0, 1, 1, 0, 0])
        data = Dataset(X, y, ("x",))
        spec = ModelSpec(ModelKind.KNN, {"k": 1})
        [scores] = cross_validate([spec], data, CvSpec(folds=6, stratified=False, seed=5))

        expected = []
        for i in range(6):
            keep = [j for j in range(6) if j != i]
            model = train(spec, X[keep], y[keep])
            expected.append(float(model.predict(X[i]) == y[i]))
        assert float(np.mean(scores)) == pytest.approx(np.mean(expected))
        assert sorted(scores) == sorted(expected)

    def test_degenerate_training_fold_rejected(self):
        # the fold holding the lone positive leaves a single-class train side
        y = np.array([1, 0, 0, 0])
        data = Dataset(np.arange(8.0).reshape(4, 2), y, ("a", "b"))
        cv = CvSpec(folds=2, stratified=False, seed=3)
        with pytest.raises(DegenerateFolds, match="single class"):
            cross_validate([ModelSpec(ModelKind.NB)], data, cv)
        with pytest.raises(DegenerateFolds, match="single class"):
            rfecv(data, ModelSpec(ModelKind.NB), cv)

    @pytest.mark.parametrize("kind", [ModelKind.RF, ModelKind.XGB, ModelKind.MLPC], ids=lambda k: k.value)
    def test_pooled_jobs_equal_in_process(self, kind, pool_map):
        data = dataset(n=90, d=5, seed=12)
        cv = CvSpec(folds=3, seed=4)
        specs = [ModelSpec(kind, params, seed=3) for params in _draw_candidates(SearchSpec("grid", DEFAULT_SEARCH_SPACES[kind]))]
        assert cross_validate(specs, data, cv, pool_map) == cross_validate(specs, data, cv)

    @pytest.mark.parametrize("folds,workers,chunks", [
        (5, 1, [[0, 1, 2, 3, 4]]), (5, 2, [[0, 1, 2], [3, 4]]), (5, 3, [[0, 1], [2, 3], [4]]), (2, 4, [[0], [1]]),
    ])
    def test_fold_chunks_are_runs_of_consecutive_folds_longest_first(self, folds, workers, chunks):
        assert fold_chunks(folds, workers) == chunks

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_one_job_per_share_group_and_fold_chunk(self, workers):
        data = dataset(n=90, d=5, seed=12)
        cv = CvSpec(folds=5, seed=4)
        space = {"hidden": [8, 32], "learning_rate": [0.01, 0.1], "epochs": [5]}
        specs = [ModelSpec(ModelKind.MLPC, params, seed=3) for params in _draw_candidates(SearchSpec("grid", space))]
        specs.append(ModelSpec(ModelKind.NB, seed=3))
        jobs = []

        def recording_map(fn, job_list):
            jobs.extend(job_list)
            return map(fn, job_list)

        scores = cross_validate(specs, data, cv, recording_map, workers)
        chunks = fold_chunks(5, workers)
        pairs = fold_pairs(data.y, cv)
        groups = [[specs[0], specs[1]], [specs[2], specs[3]], [specs[4]]]  # hidden 8, hidden 32, NB
        assert [
            (job_specs, [(f, tr.tolist(), va.tolist()) for f, tr, va in job_folds])
            for job_specs, _, _, job_folds, _ in jobs
        ] == [
            (group, [(f, pairs[f][0].tolist(), pairs[f][1].tolist()) for f in chunk])
            for group in groups for chunk in chunks
        ]
        assert all(score is fold_accuracy for *_, score in jobs)
        assert scores == cross_validate(specs, data, cv)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_a_custom_score_gets_each_folds_index_in_layout_order(self, workers):
        data = dataset(n=90, d=5, seed=12)
        cv = CvSpec(folds=5, seed=4)
        specs = [ModelSpec(ModelKind.XGB, {"n_rounds": 3}, seed=3), ModelSpec(ModelKind.NB, seed=3)]
        seen = cross_validate(specs, data, cv, map, workers, score=lambda model, X, y, fold: (fold, y.tolist()))
        expected = tuple((f, data.y[va].tolist()) for f, (_, va) in enumerate(fold_pairs(data.y, cv)))
        assert seen == [expected, expected]

    @pytest.mark.parametrize("workers", [2, 5])
    def test_mlpc_rfecv_is_the_same_for_any_worker_count(self, workers, pool_map):
        # one worker stacks all five folds as lanes; five give every fold its own fit
        data = dataset(n=90, d=4, seed=14)
        spec = ModelSpec(ModelKind.MLPC, {"hidden": 8, "learning_rate": 0.1, "epochs": 20}, seed=2)
        cv = CvSpec(folds=5, seed=8)
        one = rfecv(data, spec, cv)
        assert rfecv(data, spec, cv, pool_map, workers) == one
        assert rfecv(data, spec, cv, map, workers) == one

    def test_pooled_rfecv_equals_in_process(self, pool_map):
        data = dataset(n=90, d=5, seed=13)
        spec = ModelSpec(ModelKind.KNN, {"k": 5}, seed=2)
        cv = CvSpec(folds=3, seed=8)
        assert rfecv(data, spec, cv, pool_map) == rfecv(data, spec, cv)


class TestSearch:
    def test_single_point_space(self):
        data = dataset(n=60)
        [best] = search(ModelKind.KNN, SearchSpec("grid", {"k": [3]}), CvSpec(folds=3, seed=1), data)
        assert best.hyperparameters["k"] == 3

    def test_grid_product_size(self):
        data = dataset(n=60)
        candidates = search(
            ModelKind.RF,
            SearchSpec("grid", {"n_trees": [3, 5], "max_depth": [2, 4]}),
            CvSpec(folds=3, seed=1),
            data,
        )
        assert len(candidates) == 4

    def test_empty_space_rejected(self):
        with pytest.raises(EmptySpace):
            search(ModelKind.KNN, SearchSpec("grid", {}), CvSpec(folds=3), dataset())

    def test_random_with_full_budget_matches_grid(self):
        data = dataset(n=80, seed=3)
        space = {"k": [1, 3, 5, 9]}
        cv = CvSpec(folds=4, seed=2)
        grid = search(ModelKind.KNN, SearchSpec("grid", space), cv, data)
        rand = search(ModelKind.KNN, SearchSpec("random", space, budget=4, seed=11), cv, data)
        assert grid[0] == rand[0]
        assert {c.hyperparameters["k"] for c in rand} == set(space["k"])

    def test_planted_optimum_found_by_both_modes(self):
        # k=1 memorizes a noiseless fixture perfectly; large k underfits it
        data = dataset(n=40, sep=8.0, noise=0.0)
        space = {"k": [1, 39]}
        cv = CvSpec(folds=4, seed=6)
        for mode, budget in (("grid", 1), ("random", 2)):
            best = search(ModelKind.KNN, SearchSpec(mode, space, budget=budget, seed=6), cv, data)[0]
            assert best.hyperparameters["k"] == 1

    def test_ranked_by_mean_then_order(self):
        data = dataset(n=60, seed=5)
        candidates = search(ModelKind.KNN, SearchSpec("grid", {"k": [3, 5, 7]}), CvSpec(folds=3, seed=9), data)
        means = [c.mean_accuracy for c in candidates]
        assert means == sorted(means, reverse=True)

    def test_tie_goes_to_the_earliest_candidate(self):
        # every k separates a noiseless, well-spread fixture perfectly
        data = dataset(n=60, sep=8.0, noise=0.0)
        candidates = search(ModelKind.KNN, SearchSpec("grid", {"k": [5, 1, 3]}), CvSpec(folds=3, seed=2), data)
        assert [c.mean_accuracy for c in candidates] == [1.0] * 3
        assert [c.hyperparameters["k"] for c in candidates] == [5, 1, 3]


    @pytest.mark.parametrize("mode", ["grid", "random"])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    def test_leaderboard_equals_one_train_per_candidate_and_fold(self, kind, mode):
        data = dataset(n=90, d=5, seed=12)
        cv = CvSpec(folds=3, seed=4)
        search_spec = SearchSpec(mode, DEFAULT_SEARCH_SPACES[kind], budget=3, seed=8)
        candidates = search(kind, search_spec, cv, data, model_seed=3)

        entries = []
        for params in _draw_candidates(search_spec):
            spec = ModelSpec(kind, params, seed=3)
            scores = tuple(
                fold_accuracy(train(spec, data.X[tr], data.y[tr]), data.X[va], data.y[va])
                for tr, va in fold_pairs(data.y, cv)
            )
            entries.append((spec.hyperparameters, float(np.mean(scores)), scores))
        expected = [entries[i] for i in sorted(range(len(entries)), key=lambda i: (-entries[i][1], i))]
        assert [(c.hyperparameters, c.mean_accuracy, c.fold_accuracies) for c in candidates] == expected


class TestEvaluateAll:
    def test_table_shape_and_order(self):
        data = dataset(n=120, seed=7)
        specs = [
            ModelSpec(ModelKind.NB),
            ModelSpec(ModelKind.KNN, {"k": 3}),
            ModelSpec(ModelKind.LR),
        ]
        rows = evaluate_all(specs, *split_train_test(data, 0.8, 1))
        assert len(rows) == 3
        accs = [r.report.accuracy for r in rows]
        assert accs == sorted(accs, reverse=True)

    def test_failures_do_not_abort_table(self, monkeypatch):
        data = dataset(n=60, seed=8)
        specs = [ModelSpec(ModelKind.NB), ModelSpec(ModelKind.LR)]

        import rescue_triage.tuning as tuning_module

        real_train = tuning_module.train

        def flaky(spec, X, y, feature_names=()):
            if spec.kind == ModelKind.LR:
                raise RuntimeError("synthetic failure")
            return real_train(spec, X, y)

        monkeypatch.setattr(tuning_module, "train", flaky)
        rows = evaluate_all(specs, *split_train_test(data, 0.8, 2))
        assert {r.name for r in rows} == {"NB", "LR"}
        failed = next(r for r in rows if r.name == "LR")
        assert failed.report is None
        assert "synthetic failure" in failed.error

    def test_pooled_rows_equal_in_process(self, pool_map):
        data = dataset(n=120, seed=7)
        specs = [ModelSpec(kind, seed=3) for kind in ModelKind]
        train_set, test_set = split_train_test(data, 0.8, 1)
        assert evaluate_all(specs, train_set, test_set, pool_map) == evaluate_all(specs, train_set, test_set)

    def test_only_the_kept_specs_row_carries_its_model(self, pool_map):
        data = dataset(n=120, seed=7)
        specs = [ModelSpec(kind, seed=3) for kind in ModelKind]
        train_set, test_set = split_train_test(data, 0.8, 1)
        rows = evaluate_all(specs, train_set, test_set, pool_map, keep_model=specs[-1])
        assert [row.model is not None for row in rows] == [row.spec == specs[-1] for row in rows]
        kept = next(row.model for row in rows if row.model is not None)
        expected = train(specs[-1], train_set.X, train_set.y, feature_names=train_set.feature_names)
        assert asjson(kept) == asjson(expected)

    def test_csv_formatting(self, tmp_path):
        data = dataset(n=80, seed=9)
        rows = evaluate_all([ModelSpec(ModelKind.NB)], *split_train_test(data, 0.8, 3))
        path = tmp_path / "table.csv"
        write_metrics_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "model,accuracy,sensitivity,specificity,precision,f1"
        cells = lines[1].split(",")
        assert cells[0] == "NB"
        for value in cells[1:]:
            assert value == "NA" or (float(value) <= 100.0 and len(value.split(".")[1]) == 2)
