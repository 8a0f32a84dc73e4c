"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import csv
import math
import re
import time

import numpy as np
import pytest

from rescue_triage.featselect import relative_deviation
from rescue_triage.learners import ModelKind, ModelSpec, train
from rescue_triage.learners.mlp import init_params, loss_and_grads
from rescue_triage.llm import (
    TEMPLATE_DEFAULT,
    TEMPLATE_WITH_PREILLNESS,
    Verdict,
    build_prompt,
    compare,
    prompt_values_from_vector,
)
from rescue_triage.metrics import confusion, metrics, roc_auc
from rescue_triage.pipeline import PipelineConfig, run_pipeline
from rescue_triage.records import ConfusionMatrix, Dataset
from rescue_triage.synthgen import default_config, generate, oracle_accuracy
from rescue_triage.textfeat import _scan, default_lexicons, tokenize
from rescue_triage.tuning import evaluate_all, split_train_test, write_metrics_csv

from conftest import GOLDEN_PROMPT, REFERENCE_CASES, make_blobs

# Bayes ceiling of the default synthetic corpus, frozen from the Monte-Carlo
# oracle (200,000 draws) before any model evaluation was wired up.
PINNED_BAYES_ORACLE = 0.85669
ACCURACY_MARGIN = 0.05


def _ok(line: str) -> None:
    print(f"PASS: {line}")


# ---------------------------------------------------------------------------
# criterion 1: relative-deviation unit suite


HAND_CASES = [
    (7, 7, 0.0), (8, 2, 3.0), (5, 10, 0.5), (0, 5, 1.0), (10, 4, 1.5),
    (1, 2, 0.5), (2, 1, 1.0), (-3, 3, 2.0), (3, -3, 2.0), (-5, -5, 0.0),
    (2.5, 5, 0.5), (9, 3, 2.0), (12, 3, 3.0), (15, 3, 4.0), (1, 4, 0.75),
    (6, 8, 0.25), (100, 25, 3.0), (0.5, 0.25, 1.0), (7, 14, 0.5), (33, 11, 2.0),
]


def test_relative_deviation_suite():
    start = time.perf_counter()
    for x, y, expected in HAND_CASES:
        assert relative_deviation(x, y) == expected, (x, y)
    assert relative_deviation(1.0, 0.0) is None

    rng = np.random.default_rng(100)
    for _ in range(1000):
        x = float(rng.uniform(-1e5, 1e5))
        y = float(rng.uniform(0.001, 1e5)) * (1 if rng.random() < 0.5 else -1)
        c = float(rng.uniform(1e-3, 1e3))
        assert math.isclose(
            relative_deviation(c * x, c * y), relative_deviation(x, y),
            rel_tol=1e-9, abs_tol=1e-9,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"suite took {elapsed:.2f}s"
    _ok(f"relative-deviation suite: 20 hand cases exact, zero reference gives None, "
        f"1000 scale-invariance triples ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: metric suite


def test_metric_suite():
    rep = metrics(confusion([1, 1, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0]))
    assert abs(rep.accuracy - 5 / 6) < 1e-12
    assert abs(rep.sensitivity - 1.0) < 1e-12
    assert abs(rep.specificity - 0.75) < 1e-12
    assert abs(rep.precision - 2 / 3) < 1e-12
    assert abs(rep.f1 - 0.8) < 1e-12

    rng = np.random.default_rng(200)
    checked = 0
    for _ in range(500):
        cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 60, 4)))
        r = metrics(cm)
        if r.precision is None or r.sensitivity is None:
            continue
        if r.precision + r.sensitivity == 0:
            assert r.f1 is None
            continue
        if r.precision == 0 or r.sensitivity == 0:
            assert abs(r.f1 - 0.0) < 1e-12
            continue
        harmonic = 2.0 / (1.0 / r.precision + 1.0 / r.sensitivity)
        assert abs(r.f1 - harmonic) < 1e-12
        checked += 1
    assert checked > 200
    _ok(f"metric suite: hand-computed confusion metrics to 1e-12, "
        f"F1 = harmonic mean on {checked} random matrices")


# ---------------------------------------------------------------------------
# criterion 3: ROC oracle


def _pairwise_auc(y, s):
    pos = [v for v, label in zip(s, y) if label == 1]
    neg = [v for v, label in zip(s, y) if label == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_roc_matches_pairwise_oracle():
    rng = np.random.default_rng(300)
    for i in range(500):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n)
        y[0], y[-1] = 1, 0
        if i % 2:
            s = np.round(rng.random(n) * 5) / 5  # heavy ties
        else:
            s = rng.random(n)
        auc, _ = roc_auc(y, s)
        assert abs(auc - _pairwise_auc(y, s)) <= 1e-12
    _ok("ROC oracle: sweep AUC equals pairwise rank statistic on 500 instances (<=1e-12)")


# ---------------------------------------------------------------------------
# criterion 4: negation and parsing suite


def test_negation_grid_exhaustive():
    categories, lex = default_lexicons()
    filler = "heute"
    assert filler not in lex.negation_words and filler not in lex.stop_words
    checks = 0
    for cat in categories:
        for kw in cat.keywords:
            # unnegated: matched
            assert _scan(tokenize(f"{filler} {kw} {filler}"), (cat,), lex)[0] == kw
            for neg in sorted(lex.negation_words):
                for gap in (1, 2, 3):
                    pad = " ".join([filler] * (gap - 1))
                    inside = f"{neg} {pad} {kw}".replace("  ", " ")
                    assert _scan(tokenize(inside), (cat,), lex)[0] is None, (kw, neg, gap)
                    across = f"{neg}. {pad} {kw}".replace("  ", " ")
                    assert _scan(tokenize(across), (cat,), lex)[0] == kw, (kw, neg, gap)
                    checks += 2
                beyond = f"{neg} {filler} {filler} {filler} {kw}"
                assert _scan(tokenize(beyond), (cat,), lex)[0] == kw, (kw, neg)
                checks += 1
    _ok(f"negation suite: every keyword matched unnegated, suppressed at window 1-3, "
        f"unaffected across boundaries or beyond the window ({checks} grid points)")


# ---------------------------------------------------------------------------
# criterion 5: learner properties (< 2 min)


def test_learner_properties(tmp_path):
    start = time.perf_counter()

    # gradient check
    rng = np.random.default_rng(19)
    X = rng.normal(size=(5, 3))
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    params = init_params(3, 4, rng)
    params["w2"] = rng.normal(size=4)
    params["b2"] = 0.25
    _, grads = loss_and_grads(params, X, y)
    h = 1e-5
    worst = 0.0
    for key in ("W1", "b1", "w2", "b2"):
        value = np.atleast_1d(np.asarray(params[key], dtype=float)).copy()
        grad = np.atleast_1d(np.asarray(grads[key], dtype=float)).reshape(-1)
        flat = value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            params[key] = value.reshape(np.shape(params[key])) if np.ndim(params[key]) else float(flat[0])
            plus, _ = loss_and_grads(params, X, y)
            flat[i] = orig - h
            params[key] = value.reshape(np.shape(params[key])) if np.ndim(params[key]) else float(flat[0])
            minus, _ = loss_and_grads(params, X, y)
            flat[i] = orig
            params[key] = value.reshape(np.shape(params[key])) if np.ndim(params[key]) else float(flat[0])
            fd = (plus - minus) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(1.0, abs(fd) + abs(grad[i])))
    assert worst < 1e-4

    # boosting loss monotone
    Xb, yb = make_blobs(n=150, d=5, seed=17, noise=1.5)
    model = train(ModelSpec(ModelKind.XGB, {"n_rounds": 60}), Xb, yb)
    losses = model.state.train_loss
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    # nearest-neighbor equivalence on 200 random points
    rng = np.random.default_rng(21)
    Xk = rng.normal(size=(200, 5))
    yk = rng.integers(0, 2, 200)
    yk[0], yk[1] = 0, 1
    queries = rng.normal(size=(50, 5))
    knn = train(ModelSpec(ModelKind.KNN, {"k": 5}), Xk, yk)
    got = knn.predict(queries)
    Xs = knn.standardizer.transform(Xk)
    Qs = knn.standardizer.transform(queries)
    expected = []
    for q in Qs:
        ranked = sorted((sum((a - b) ** 2 for a, b in zip(row, q)), i) for i, row in enumerate(Xs))
        expected.append(int(sum(yk[i] for _, i in ranked[:5]) / 5 >= 0.5))
    assert np.array_equal(got, np.array(expected))

    # determinism: byte-identical metric tables from equal seeds
    cfg = default_config(n_psychiatric=160, n_nonpsychiatric=140, seed=6)
    from rescue_triage.textfeat import extract_features
    from rescue_triage.records import to_feature_vector

    cats, lex = default_lexicons()
    records = generate(cfg)
    vectors = [to_feature_vector(r.vitals, extract_features(r, cats, lex)) for r in records]
    data = Dataset.from_vectors(vectors, [r.label for r in records])
    specs = [ModelSpec(kind, seed=5) for kind in ModelKind]
    for attempt in ("one", "two"):
        rows = evaluate_all(specs, *split_train_test(data, 0.8, 5))
        write_metrics_csv(rows, tmp_path / f"table_{attempt}.csv")
    assert (tmp_path / "table_one.csv").read_bytes() == (tmp_path / "table_two.csv").read_bytes()

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"learner properties took {elapsed:.1f}s"
    _ok(f"learner properties: gradcheck {worst:.1e} rel, boosting loss monotone, "
        f"nearest-neighbor oracle equal, byte-identical tables ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criteria 6 and 7: end-to-end run on the default synthetic corpus


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("e2e")
    start = time.perf_counter()
    manifest = run_pipeline(PipelineConfig(seed=42, out_dir=str(out_dir)))
    elapsed = time.perf_counter() - start
    return out_dir, manifest, elapsed


def test_end_to_end_accuracy_within_margin_of_pinned_oracle(e2e_run):
    out_dir, manifest, elapsed = e2e_run
    assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"
    assert all(s["status"] == "ok" for s in manifest["stages"])

    # guard against silent generator drift: a fresh estimate must agree with the pin
    est = oracle_accuracy(default_config(seed=42), draws=60_000)
    assert abs(est.accuracy - PINNED_BAYES_ORACLE) < 0.005

    with open(out_dir / "metrics_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    best = max(float(r["accuracy"]) / 100.0 for r in rows if r["accuracy"] != "NA")
    floor = PINNED_BAYES_ORACLE - ACCURACY_MARGIN
    assert best >= floor, f"best accuracy {best:.4f} below {floor:.4f}"
    _ok(f"end-to-end: best tuned model accuracy {best:.4f} within "
        f"{ACCURACY_MARGIN:.0%} of pinned ceiling {PINNED_BAYES_ORACLE} ({elapsed:.0f}s)")


def test_end_to_end_feature_elimination(e2e_run):
    out_dir, _, _ = e2e_run
    import json

    report = json.loads((out_dir / "rfecv_report.json").read_text())
    assert report["elimination_order"][0] == "pulse_rhythm_regular", report["elimination_order"]
    assert "pulse_rhythm_regular" not in report["best_features"]
    assert "preillness" not in report["best_features"]
    assert "psychiatric_symptoms" in report["best_features"]
    _ok("end-to-end: label-independent feature eliminated first; weak preillness "
        "excluded from the winning subset")


# sha256 of every run-all artifact for seed 42 on the default corpus, recorded
# with numpy 2.4.6. best_model.json holds MLPC weights that come from BLAS
# matmuls, so another numpy or BLAS build may change that one hash.
PINNED_ARTIFACTS = {
    "best_model.json": "87654e4e54f5fcd05f5e904bdd4ba7c357369af983f6a5828e7b6528dee4b0ef",
    "corpus.jsonl": "6a6e9bdd21977d30c7322975f7c8f47f4fa01476fbdaa9a5b4fe5530edad29e6",
    "features.jsonl": "6e492e7b1493f4b28d9ce37a878a31f6a381c15f6b9d24ec68223b9128f90dc1",
    "leaderboard.json": "c43f69d5de411b21b5d69e32a9f9bd88686b599848a8d6ecf97b4438ca0c5154",
    "llm_agreement.json": "04d94d0d6e7fd67c037d128f71139400b840293d6f3b78f6c7db37431788d55e",
    "metrics_table.csv": "5c735b0337a309bea6f6398a2ca06232ec4d188f3cfdea368bfaa599035be02b",
    "rfecv_report.json": "3b39c25d0aecdccc76cfaecdca678688de55c74059025e98253824fce524e10e",
    "roc/roc_knn.csv": "e8088b61a619d9aef13077f9063c06fdf8f08072e9eec4b5dce6d600cfb0e963",
    "roc/roc_lr.csv": "9688fee684cbaae39230fcd5878d8c3982c2788da50728df73a35c701259275f",
    "roc/roc_mlpc.csv": "c5b4e9837df95387a26f421c1e5fcbb79357fec89b1edeb19da476e14afbad78",
    "roc/roc_nb.csv": "24b88613436e71d07e2d5f0adae2d67583a3b030dea908921775507590df9e31",
    "roc/roc_rf.csv": "6c24f3c3436f2b2ea52a0fc8284d3e310e8766ee8eb722e9bb61b3250b7030fe",
    "roc/roc_svm.csv": "bb38bd3040bdaa5ac94abdfaf58f868b7903436a1fc3bcd5c679c21c5bf76c3c",
    "roc/roc_xgb.csv": "d9636b1f0e25408f523e1aa652f6e958a3c8ad3ba76e5c6f85baf4e59749c80e",
    "selection_report.json": "ae652290f768ffccc57d9e9d1e6ffec2fe7557d79d1edec9051d1db2048affa4",
    "truth.csv": "f4024582f67ecb8c0a2f6f5b2a967d68998e59cb506599649a8d3ea292e78711",
    "word_counts.csv": "f2dfece17260c3bd06ab9586b7ad213aeb5f670d36c3a22bf8484cb4821d4db7",
}


def test_end_to_end_artifacts_match_pinned_hashes(e2e_run):
    _, manifest, _ = e2e_run
    assert manifest["artifacts"] == PINNED_ARTIFACTS
    _ok(f"end-to-end: all {len(PINNED_ARTIFACTS)} artifacts byte-identical to the pinned run")


def test_metrics_table_format_golden(e2e_run):
    out_dir, _, _ = e2e_run
    lines = (out_dir / "metrics_table.csv").read_text().strip().splitlines()
    assert lines[0] == "model,accuracy,sensitivity,specificity,precision,f1"
    assert len(lines) == 8
    names = []
    row_re = re.compile(r"^(RF|XGB|MLPC|NB|LR|SVM|K-NN)(,(\d{1,3}\.\d{2}|NA)){5}$")
    for line in lines[1:]:
        assert row_re.match(line), line
        names.append(line.split(",")[0])
    assert sorted(names) == sorted(["RF", "XGB", "MLPC", "NB", "LR", "SVM", "K-NN"])
    accs = [float(l.split(",")[1]) for l in lines[1:]]
    assert accs == sorted(accs, reverse=True)
    _ok("metrics table: model x five metrics, two-decimal percentages, "
        "accuracy-sorted (format only; reference values are not reproducible)")


# ---------------------------------------------------------------------------
# criterion 8: prompt golden and recorded agreement fixture


def test_prompt_golden_and_reference_agreement():
    values = {
        "Systolic Blood Pressure": 170,
        "Respiratory Rate": 13,
        "Blood Circulation Normality": 1,
        "GCS": 15,
        "Pulse Rhythm": False,
        "Any Preillness": False,
        "Mental Sickness Possibility": False,
        "Psychiatric Syndrom Presence": False,
        "Alcoholic Possibility": False,
        "Intoxication Possibility": False,
    }
    assert build_prompt(values, TEMPLATE_WITH_PREILLNESS) == GOLDEN_PROMPT

    names = list(REFERENCE_CASES)
    prompts = [
        build_prompt(prompt_values_from_vector(REFERENCE_CASES[n][0]), TEMPLATE_DEFAULT)
        for n in names
    ]
    assert len(prompts) == 6
    assert all(p.count("\n") == 10 for p in prompts)

    ml = [REFERENCE_CASES[n][1] for n in names]
    llm = [Verdict.TRUE if REFERENCE_CASES[n][2] else Verdict.FALSE for n in names]
    report = compare(ml, llm, names)
    assert report.mismatch_count == 1
    assert [r.case_id for r in report.rows if not r.match] == ["Test1"]
    _ok("prompt golden: sample renders byte-exactly; six recorded cases render and "
        "agree on all but Test1 (live-model agreement is out of scope)")
