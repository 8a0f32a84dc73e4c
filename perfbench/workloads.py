"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

Each workload calls the program only through module attributes
(``ingest.load_csv(...)``, not a name imported from it), so the traced run
can wrap those attributes. Workloads:

* ``desk_runall`` - ``rescue-triage --seed S --config C --out-dir D run-all``
  through ``cli.main`` on a scaled-down synthetic corpus: the full grid,
  5-fold stratified CV, RFECV, evaluate and the LLM stub. Many small fits.
* ``csv_prep_10k`` - a noisy two-file CSV export, ingested, tokenized, feature
  extracted, written as JSONL and filtered; no learner. String-heavy;
  10,000 cases.
* ``learners_4k`` - every model kind trained once at a fixed mid-grid spec on a
  4,000-record corpus (80/20 split) and scored on its test rows. A few
  large fits and score-heavy work.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from rescue_triage import cli, featselect, ingest, learners, records, synthgen, textfeat, tuning
from rescue_triage.records import FeatureVector, Label

# pinned Monte-Carlo Bayes ceiling of the default generator and the
# acceptance margin below it (tests/test_acceptance.py)
BAYES_CEILING = 0.85669
CEILING_MARGIN = 0.05
HEADLINE_SEED = 42

TABLE_HEADER = "model,accuracy,sensitivity,specificity,precision,f1"
MODEL_NAMES = {"SVM", "RF", "XGB", "K-NN", "NB", "LR", "MLPC"}
_PCT_RE = re.compile(r"^(NA|\d{1,3}\.\d\d)$")

# learners: one fixed mid-grid spec per kind, and the accuracy every kind
# must reach on the held-out rows. Sizing saw 0.82-0.86; the floor sits about four
# binomial standard errors below that at 800 test rows, and far above the
# 0.54 a constant predictor scores, so only a broken learner trips it.
LEARNER_SPECS = {
    learners.ModelKind.RF: {"n_trees": 100, "max_depth": 10},
    learners.ModelKind.XGB: {"n_rounds": 200, "learning_rate": 0.1, "max_depth": 3},
    learners.ModelKind.MLPC: {"hidden": 32, "learning_rate": 0.1},
    learners.ModelKind.KNN: {"k": 5},
    learners.ModelKind.LR: {"l2": 1e-3},
    learners.ModelKind.SVM: {"l2": 1e-3},
    learners.ModelKind.NB: {},
}
LEARNER_ACCURACY_FLOOR = 0.77


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    setup: Callable  # (seed, records, work dir) -> inputs
    run: Callable  # (inputs, pass dir) -> outputs
    check: Callable  # (inputs, outputs) -> list of problems
    fingerprint: Callable  # outputs -> digest that every pass of one seed must share
    verify: Optional[Callable] = None  # (inputs, outputs) -> list of problems, once per run, untimed
    accuracy: Optional[Callable] = None  # outputs -> best held-out accuracy


def corpus_config(n: int, seed: int) -> synthgen.GeneratorConfig:
    """The default generator scaled to n records, keeping its class ratio."""
    n_psy = round(n * 1073 / 1993)
    return synthgen.default_config(n_psychiatric=n_psy, n_nonpsychiatric=n - n_psy, seed=seed)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# desk_runall


def desk_setup(seed: int, n: int, work: Path) -> dict:
    """The headline seed's corpus scaled to n records, whatever the workload
    seed: run-all's cost jumps with the kind that wins the search, because
    RFECV refits the winner about fifty times (an RF winner more than
    doubles the run), so a seeded corpus would mix several workloads."""
    config = work / "pipeline.json"
    config.write_text(json.dumps({"generator": corpus_config(n, HEADLINE_SEED).to_dict()}), encoding="utf-8")
    return {"seed": HEADLINE_SEED, "records": n, "config": str(config)}


def desk_run(inputs: dict, out: Path) -> dict:
    argv = ["--seed", str(inputs["seed"]), "--out-dir", str(out), "--config", inputs["config"], "run-all"]
    status = cli.main(argv)
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8")) if manifest_path.exists() else {}
    table_path = out / "metrics_table.csv"
    table = table_path.read_text(encoding="utf-8") if table_path.exists() else ""
    return {"status": status, "manifest": manifest, "table": table}


def desk_accuracy_floor(n_test: int) -> float:
    """The acceptance floor (ceiling minus 5 pp) widened by three binomial
    standard errors, because the scaled corpus has a small test split."""
    p = BAYES_CEILING
    return BAYES_CEILING - CEILING_MARGIN - 3.0 * math.sqrt(p * (1.0 - p) / n_test)


def table_accuracies(table: str) -> list[float]:
    return [float(line.split(",")[1]) / 100.0 for line in table.splitlines()[1:] if line.split(",")[1] != "NA"]


def check_table(table: str) -> list[str]:
    """The golden metrics_table.csv shape: header, one row per kind,
    two-decimal percentages or NA, rows sorted by accuracy."""
    lines = table.splitlines()
    if not lines or lines[0] != TABLE_HEADER:
        return [f"metrics_table.csv header is {lines[:1]!r}"]
    problems = []
    rows = [line.split(",") for line in lines[1:]]
    if sorted(r[0] for r in rows) != sorted(MODEL_NAMES):
        problems.append(f"metrics_table.csv models are {[r[0] for r in rows]}")
    for r in rows:
        if len(r) != 6 or not all(_PCT_RE.match(c) for c in r[1:]):
            problems.append(f"metrics_table.csv row {r!r} is malformed")
    acc = [float(r[1]) if r[1] != "NA" else -1.0 for r in rows if len(r) == 6]
    if acc != sorted(acc, reverse=True):
        problems.append("metrics_table.csv rows are not sorted by accuracy")
    return problems


def desk_check(inputs: dict, out: dict) -> list[str]:
    if out["status"] != 0:
        return [f"run-all exited with {out['status']}"]
    problems = []
    stages = out["manifest"].get("stages", [])
    if [s["name"] for s in stages] != [
        "synth", "wordcount", "extract_features", "select_features", "tune", "rfecv", "evaluate", "llm_compare",
    ] or any(s["status"] != "ok" for s in stages):
        problems.append(f"manifest stages are {[(s['name'], s['status']) for s in stages]}")
    problems += check_table(out["table"])
    n_test = inputs["records"] - round(inputs["records"] * 0.8)
    accuracies = table_accuracies(out["table"])
    floor = desk_accuracy_floor(n_test)
    if not accuracies or max(accuracies) < floor:
        problems.append(f"best test accuracy {max(accuracies, default=None)} is below {floor:.4f}")
    return problems


def desk_fingerprint(out: dict) -> str:
    return _sha256(json.dumps(out["manifest"].get("artifacts", {}), sort_keys=True).encode())


def desk_best_accuracy(out: dict) -> float:
    return max(table_accuracies(out["table"]))


# ---------------------------------------------------------------------------
# csv_prep

_WRAPPERS = (('"', '"'), ("'", "'"), ("«", "»"), ("(", ")"), ("[", "]"), ("{", "}"))
INGEST_CONFIG = ingest.IngestConfig(
    column_types={
        "systolic_bp": ingest.NUMERIC,
        "respiratory_rate": ingest.NUMERIC,
        "gcs": ingest.NUMERIC,
        "pulse_rhythm": ingest.BOOLEAN,
    }
)


def write_export(recs: list, seed: int, work: Path) -> tuple[Path, Path]:
    """A two-file rescue export of the records, with the noise ingest removes.

    ``dispatch.csv`` holds vitals and labels with a duplicate id column,
    negative respiratory rates, missing numerics and label/flag aliases.
    ``notes.csv`` holds the notes (some wrapped in quotes or brackets) plus a
    second systolic reading that conflicts with the first for some cases; its
    rows come in another order and some are repeated, so every case id
    overlaps across the files.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 5150])
    a_path, b_path = work / "dispatch.csv", work / "notes.csv"
    with open(a_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case_id", "case_ref", "systolic_bp", "respiratory_rate", "gcs", "circulation", "pulse_rhythm", "label"])
        for r in recs:
            v = r.vitals
            u = rng.random(6)
            bp = "" if u[0] < 0.02 else f"{v.systolic_bp}"
            rr = f"{-v.respiratory_rate}" if u[1] < 0.01 else f"{v.respiratory_rate}"
            gcs = "" if u[2] < 0.005 else f"{v.gcs}"
            circ = ("1" if v.circulation_normal else "0") if u[3] < 0.5 else ("normal" if v.circulation_normal else "abnormal")
            pulse = ("ja" if v.pulse_rhythm_regular else "nein") if u[4] < 0.3 else str(v.pulse_rhythm_regular).lower()
            psy = r.label == Label.PSYCHIATRIC
            label = ("psych" if psy else "other") if u[5] < 0.2 else r.label.value
            w.writerow([r.case_id, r.case_id, bp, rr, gcs, circ, pulse, label])
    order = list(rng.permutation(len(recs))) + list(rng.choice(len(recs), size=len(recs) // 50, replace=False))
    with open(b_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case_id", "notes", "systolic_bp"])
        for i in order:
            r = recs[i]
            u = rng.random(2)
            note = " ".join(r.notes)
            if note and u[0] < 0.05:
                opening, closing = _WRAPPERS[int(rng.integers(0, len(_WRAPPERS)))]
                note = f"{opening}{note}{closing}"
            bp = f"{r.vitals.systolic_bp + 7.0:.1f}" if u[1] < 0.03 else f"{r.vitals.systolic_bp}"
            w.writerow([r.case_id, note, bp])
    return a_path, b_path


def csv_setup(seed: int, n: int, work: Path) -> dict:
    recs = synthgen.generate(corpus_config(n, seed))
    a_path, b_path = write_export(recs, seed, work)
    truth = {r.case_id: r.label.value for r in recs}
    return {"paths": (str(a_path), str(b_path)), "truth": truth, "order": [r.case_id for r in recs]}


def csv_run(inputs: dict, out: Path) -> dict:
    tables = [ingest.load_csv(p) for p in inputs["paths"]]
    recs, errors = ingest.ingest_tables(tables, INGEST_CONFIG)
    categories, lex = textfeat.default_lexicons()
    counts = textfeat.word_count([textfeat.note_tokens(r.notes) for r in recs], lex, min_count=50)
    rows = []
    for r in recs:
        if r.vitals is None or not r.vitals.complete:
            continue
        fv = records.to_feature_vector(r.vitals, textfeat.extract_features(r, categories, lex))
        rows.append({"case_id": r.case_id, "label": r.label.value, "features": fv.to_dict()})
    corpus_path, features_path = out / "corpus.jsonl", out / "features.jsonl"
    records.write_jsonl(corpus_path, recs, records.record_to_dict)
    records.write_jsonl(features_path, rows)
    psy = [FeatureVector.from_dict(r["features"]) for r in rows if r["label"] == Label.PSYCHIATRIC.value]
    non = [FeatureVector.from_dict(r["features"]) for r in rows if r["label"] == Label.NON_PSYCHIATRIC.value]
    report = featselect.filter_select(psy, non)
    return {
        "ids": [r.case_id for r in recs],
        "labels": [r.label.value for r in recs],
        "rejected": len(errors),
        "words": len(counts),
        "features": [(r["case_id"], r["label"]) for r in rows],
        "selected": list(report.selected),
        "files": (corpus_path, features_path),
    }


def csv_check(inputs: dict, out: dict) -> list[str]:
    truth, problems = inputs["truth"], []
    if len(out["ids"]) + out["rejected"] != len(truth):
        problems.append(f"{len(out['ids'])} records + {out['rejected']} rejected != {len(truth)} cases")
    if any(cid not in truth for cid in out["ids"]) or len(set(out["ids"])) != len(out["ids"]):
        problems.append("ingest invented or repeated case ids")
    position = {cid: i for i, cid in enumerate(inputs["order"])}
    if [position.get(c, -1) for c in out["ids"]] != sorted(position.get(c, -1) for c in out["ids"]):
        problems.append("ingest did not keep first-seen case order")
    if any(truth.get(c) != lab for c, lab in zip(out["ids"], out["labels"])):
        problems.append("ingest changed labels")
    if any(truth.get(c) != lab for c, lab in out["features"]):
        problems.append("feature rows changed labels")
    if len(out["features"]) != len(out["ids"]):
        problems.append(f"{len(out['ids']) - len(out['features'])} ingested records lack complete vitals")
    if "psychiatric_symptoms" not in out["selected"] or out["words"] == 0:
        problems.append(f"relevance filter kept {out['selected']}, word count {out['words']}")
    return problems


def csv_fingerprint(out: dict) -> str:
    return _sha256(b"".join(path.read_bytes() for path in out["files"]))


def csv_verify(inputs: dict, out: dict) -> list[str]:
    """Run the ingest steps one by one and check that each changed the data
    and that together they gave the timed pass's records."""
    cfg = INGEST_CONFIG
    tables = [ingest.load_csv(p) for p in inputs["paths"]]
    merged = ingest.merge_cases(tables, cfg)
    reduced = ingest.reduce_columns(merged, cfg)
    scrubbed = ingest.scrub_cells(reduced, cfg)
    typed = ingest.type_cells(scrubbed, cfg)
    filtered, reports = ingest.apply_iqr(typed, cfg)
    imputed = ingest.impute(filtered, cfg)
    recs, errors = ingest.table_to_records(imputed, cfg)
    problems = []
    if len(merged.rows) >= sum(len(t.rows) for t in tables):
        problems.append("merge_cases merged no rows")
    if len(reduced.columns) >= len(merged.columns):
        problems.append("reduce_columns dropped no duplicate column")
    if scrubbed.rows == reduced.rows:
        problems.append("scrub_cells changed no cell")
    if not any(r.outlier_count for r in reports):
        problems.append("apply_iqr replaced no outlier")
    if imputed.rows == filtered.rows:
        problems.append("impute filled no cell")
    if not errors:
        problems.append("table_to_records rejected no row; the IQR/GCS defect this input shows is gone")
    if [r.case_id for r in recs] != out["ids"] or len(errors) != out["rejected"]:
        problems.append("the ingest steps one by one differ from ingest_tables")
    return problems


# ---------------------------------------------------------------------------
# learners


def learners_setup(seed: int, n: int, work: Path) -> dict:
    categories, lex = textfeat.default_lexicons()
    recs = synthgen.generate(corpus_config(n, seed))
    vectors = [records.to_feature_vector(r.vitals, textfeat.extract_features(r, categories, lex)) for r in recs]
    data = records.Dataset.from_vectors(vectors, [r.label for r in recs], [r.case_id for r in recs])
    train, test = tuning.split_train_test(data, 0.8, seed, stratified=True)
    return {"seed": seed, "train": train, "test": test}


def learners_run(inputs: dict, out: Path) -> dict:
    train, test = inputs["train"], inputs["test"]
    scores = {}
    for kind, params in LEARNER_SPECS.items():
        model = learners.train(learners.ModelSpec(kind, params, seed=inputs["seed"]), train.X, train.y)
        scores[kind.value] = np.asarray(model.score(test.X))
    return {"scores": scores, "y": test.y}


def learners_accuracies(out: dict) -> dict:
    return {k: float(np.mean((s >= 0.5).astype(int) == out["y"])) for k, s in out["scores"].items()}


def learners_check(inputs: dict, out: dict) -> list[str]:
    problems = []
    for kind, s in out["scores"].items():
        if s.shape != out["y"].shape or not np.all(np.isfinite(s)) or s.min() < 0.0 or s.max() > 1.0:
            problems.append(f"{kind} scores are not finite values in [0, 1]")
    for kind, acc in learners_accuracies(out).items():
        if acc < LEARNER_ACCURACY_FLOOR:
            problems.append(f"{kind} test accuracy {acc:.4f} is below {LEARNER_ACCURACY_FLOOR}")
    return problems


def learners_fingerprint(out: dict) -> str:
    return _sha256(b"".join(k.encode() + s.tobytes() for k, s in sorted(out["scores"].items())))


# ---------------------------------------------------------------------------

WORKLOADS = {
    "desk_runall": Workload(
        "desk_runall", 200, desk_setup, desk_run, desk_check, desk_fingerprint, accuracy=desk_best_accuracy,
    ),
    "csv_prep_10k": Workload(
        "csv_prep_10k", 10000, csv_setup, csv_run, csv_check, csv_fingerprint, verify=csv_verify,
    ),
    "learners_4k": Workload(
        "learners_4k", 4000, learners_setup, learners_run, learners_check, learners_fingerprint,
        accuracy=lambda out: max(learners_accuracies(out).values()),
    ),
}
