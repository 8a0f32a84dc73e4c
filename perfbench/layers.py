"""Where the traced run wraps the program, and the per-layer metrics it derives.

Every wrap target is the attribute a caller looks up at call time, so the
span sits exactly at a layer boundary: ``tuning.train`` is what
``cross_validate`` calls, ``forest.grow_classification_tree`` is what
``fit_rf`` calls, and so on. Per-layer metrics are derived from the spans of
the traced timed pass (run 1); ``synthgen.generate.s`` also counts the traced
set-up (run 0), where csv_prep_10k and learners_4k generate their corpora.
"""

from __future__ import annotations

import numpy as np

from rescue_triage import cli, featselect, ingest, learners, metrics, pipeline, records, synthgen, textfeat, tuning
from rescue_triage.learners import base, boosting, forest

from perfbench.trace import Tracer, lookup

KINDS = [k.value for k in learners.ModelKind]
STAGES = list(pipeline.STAGES)
INGEST_STEPS = [
    "load_csv", "merge_cases", "reduce_columns", "scrub_cells", "type_cells", "apply_iqr", "impute", "table_to_records",
]
LAYERS = ["cli", "pipeline", "synthgen", "ingest", "textfeat", "records", "featselect", "tuning", "learners", "metrics", "llm"]
# a run-all stage only counts for the coverage check once it is long enough
# for the manifest's millisecond rounding and glue code to be negligible
COVERAGE_MIN_STAGE_S = 1.0
COVERAGE_TOLERANCE = 0.05


def _train_name(spec, *args, **kwargs) -> str:
    return f"learners.train.{spec.kind.value}"


def _train_rows(spec, X, *args, **kwargs) -> int:
    return len(X)


def _score_name(model, X) -> str:
    return f"learners.score.{model.spec.kind.value}"


def _score_rows(model, X) -> int:
    X = np.asarray(X)
    return 1 if X.ndim == 1 else len(X)


def _nodes(tree) -> dict:
    return {"learners.tree.nodes": len(tree.feature)}


def targets() -> list[tuple]:
    """(owner, attribute, span name, rows, counts) for every wrapped call."""
    out = [
        (cli, "main", "cli.main", None, None),
        (cli, "run_pipeline", "pipeline.run_pipeline", None, None),
        (learners, "train", _train_name, _train_rows, None),
        (base.TrainedModel, "score", _score_name, _score_rows, None),
        (forest, "grow_classification_tree", "learners.tree.grow", None, _nodes),
        (boosting, "grow_second_order_tree", "learners.tree.grow", None, _nodes),
        (tuning, "train", _train_name, _train_rows, None),
        (tuning, "cross_validate", "tuning.cross_validate", None, None),
        (featselect, "train", _train_name, _train_rows, None),
        (metrics, "roc_auc", "metrics.roc_auc", None, None),
        (synthgen, "generate", "synthgen.generate", None, None),
        (records, "write_jsonl", "records.write_jsonl", None, None),
        (featselect, "filter_select", "featselect.filter_select", None, None),
        (textfeat, "note_tokens", "textfeat.note_tokens", None, lambda toks: {"textfeat.tokens": len(toks)}),
        (textfeat, "word_count", "textfeat.word_count", None, None),
        (textfeat, "extract_features", "textfeat.extract_features", None, None),
        (ingest, "load_csv", "ingest.load_csv", None, lambda t: {"ingest.rows_in": len(t.rows)}),
        (ingest, "ingest_tables", "ingest.ingest_tables", None, None),
        (ingest, "merge_cases", "ingest.merge_cases", None, lambda t: {"ingest.cases_merged": len(t.rows)}),
        (ingest, "apply_iqr", "ingest.apply_iqr", None,
         lambda res: {"ingest.iqr_replaced": sum(r.outlier_count for r in res[1])}),
        (ingest, "table_to_records", "ingest.table_to_records", None,
         lambda res: {"ingest.records_out": len(res[0]), "ingest.rows_rejected": len(res[1])}),
    ]
    out += [(ingest, step, f"ingest.{step}", None, None) for step in ("reduce_columns", "scrub_cells", "type_cells", "impute")]
    # the names run_pipeline looks up in its own module
    out += [
        (pipeline, "generate", "synthgen.generate", None, None),
        (pipeline, "write_jsonl", "records.write_jsonl", None, None),
        (pipeline, "note_tokens", "textfeat.note_tokens", None, lambda toks: {"textfeat.tokens": len(toks)}),
        (pipeline, "word_count", "textfeat.word_count", None, None),
        (pipeline, "extract_features", "textfeat.extract_features", None, None),
        (pipeline, "filter_select", "featselect.filter_select", None, None),
        (pipeline, "search", lambda kind, *a, **k: f"tuning.search.{kind.value}", None, None),
        (pipeline, "rfecv", "featselect.rfecv", None, None),
        (pipeline, "evaluate_all", "tuning.evaluate_all", None, None),
        (pipeline, "write_metrics_csv", "tuning.write_metrics_csv", None, None),
        (pipeline, "write_roc_csv", "tuning.write_roc_csv", None, None),
        (pipeline, "train", _train_name, _train_rows, None),
        (pipeline, "save_model", "learners.save_model", None, None),
        (pipeline, "build_prompt", "llm.build_prompt", None, None),
        (pipeline, "transcript_verdicts", "llm.transcript_verdicts", None, None),
        (pipeline, "compare", "llm.compare", None, None),
    ]
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns (owner, attribute, original) for the restore check."""
    originals = []
    for owner, attr, name, rows, counts in targets():
        originals.append((owner, attr, lookup(owner, attr)))
        tracer.wrap(owner, attr, name, rows, counts)
    return originals


def unrestored(originals: list[tuple]) -> list[str]:
    """Targets whose attribute is not the original function any more."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in originals
        if lookup(owner, attr) is not original
    ]


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("learners.tree.grown", "count", "lower"), ("learners.tree.nodes", "count", "lower"),
     ("learners.tree.grow_s", "s", "lower")]
    + [(f"learners.{op}.{k}.{m}", u, b) for op in ("train", "score") for k in KINDS
       for m, u, b in (("calls", "count", "lower"), ("s", "s", "lower"), ("us_per_row", "us/row", "lower"))]
    + [(f"tuning.search.{k}.s", "s", "lower") for k in KINDS]
    + [("tuning.cross_validate.calls", "count", "lower"), ("tuning.evaluate_all.s", "s", "lower")]
    + [(f"pipeline.{st}.s", "s", "lower") for st in STAGES]
    + [(f"pipeline.{st}.coverage", "ratio", "higher") for st in STAGES]
    + [("featselect.rfecv.s", "s", "lower"), ("featselect.rfecv.train_calls", "count", "lower"),
       ("featselect.rfecv.score_calls", "count", "lower"), ("featselect.filter_select.s", "s", "lower")]
    + [(f"ingest.{step}.s", "s", "lower") for step in INGEST_STEPS]
    + [("ingest.rows_in", "count", "higher"), ("ingest.cases_merged", "count", "higher"),
       ("ingest.records_out", "count", "higher"), ("ingest.rows_rejected", "count", "lower"),
       ("ingest.iqr_replaced", "count", "lower"), ("ingest.yield", "ratio", "higher")]
    + [("textfeat.note_tokens.s", "s", "lower"), ("textfeat.word_count.s", "s", "lower"),
       ("textfeat.extract_features.s", "s", "lower"), ("textfeat.extract_features.us_per_record", "us/record", "lower"),
       ("textfeat.tokens", "count", "higher"), ("records.write_jsonl.s", "s", "lower")]
    + [("synthgen.generate.s", "s", "lower"), ("metrics.roc_auc.calls", "count", "lower"),
       ("metrics.roc_auc.s", "s", "lower"), ("llm.cases", "count", "higher"), ("llm.s", "s", "lower")]
    + [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower")]
)


def stage_coverage(tracer: Tracer, manifest: dict) -> dict[str, float]:
    """Share of each run-all stage's elapsed_s covered by the spans that
    run_pipeline called directly, assigned to stages in call order."""
    stage_of = {
        "synthgen.generate": "synth", "textfeat.note_tokens": "wordcount", "textfeat.word_count": "wordcount",
        "textfeat.extract_features": "extract_features", "featselect.filter_select": "select_features",
        "featselect.rfecv": "rfecv", "tuning.evaluate_all": "evaluate",
    }
    roots = [i for i, s in enumerate(tracer.spans) if s.name == "pipeline.run_pipeline" and s.run == 1]
    covered = dict.fromkeys(STAGES, 0.0)
    if roots:
        current = STAGES[0]
        for span in tracer.children(roots[-1]):
            stage = stage_of.get(span.name)
            if stage is None and span.name.startswith("tuning.search."):
                stage = "tune"
            elif stage is None and span.name.startswith("llm."):
                stage = "llm_compare"
            # glue calls (JSONL writes, the final fit, the LLM sample's
            # scores) belong to the stage in progress
            if stage is not None and STAGES.index(stage) > STAGES.index(current):
                current = stage
            covered[current] += span.seconds
    elapsed = {s["name"]: s["elapsed_s"] for s in manifest.get("stages", [])}
    return {st: covered[st] / elapsed[st] if elapsed.get(st) else 0.0 for st in STAGES}


def coverage_problems(coverage: dict[str, float], manifest: dict) -> list[str]:
    return [
        f"spans cover {coverage[s['name']]:.3f} of stage {s['name']} ({s['elapsed_s']} s)"
        for s in manifest.get("stages", [])
        if s["elapsed_s"] >= COVERAGE_MIN_STAGE_S and abs(coverage[s["name"]] - 1.0) > COVERAGE_TOLERANCE
    ]


def layer_metrics(tracer: Tracer, manifest: dict, traced_manifest: dict, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric; a layer the workload bypasses reads 0."""
    timed = [s for s in tracer.spans if s.run == 1]
    values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)

    def add(name: str, value: float) -> None:
        values[name] += value

    rfecv_spans = {i for i, s in enumerate(tracer.spans) if s.name == "featselect.rfecv"}

    def under_rfecv(span) -> bool:
        while span.parent is not None:
            if span.parent in rfecv_spans:
                return True
            span = tracer.spans[span.parent]
        return False

    rows = {}
    for span in timed:
        name = span.name
        for counter, n in span.counts.items():
            add(counter, n)
        if name.startswith(("learners.train.", "learners.score.")):
            add(f"{name}.calls", 1)
            add(f"{name}.s", span.seconds)
            rows[name] = rows.get(name, 0) + span.rows
            if under_rfecv(span):
                add("featselect.rfecv.train_calls" if ".train." in name else "featselect.rfecv.score_calls", 1)
        elif name == "learners.tree.grow":
            add("learners.tree.grown", 1)
            add("learners.tree.grow_s", span.seconds)
        elif name in ("tuning.cross_validate", "metrics.roc_auc"):
            add(f"{name}.calls", 1)
            if name == "metrics.roc_auc":
                add("metrics.roc_auc.s", span.seconds)
        elif name.startswith("llm."):
            add("llm.s", span.seconds)
            if name == "llm.build_prompt":
                add("llm.cases", 1)
        elif f"{name}.s" in values and name != "synthgen.generate":
            add(f"{name}.s", span.seconds)
    for name, n in rows.items():
        values[f"{name}.us_per_row"] = 1e6 * values[f"{name}.s"] / n if n else 0.0
    calls = sum(1 for s in timed if s.name == "textfeat.extract_features")
    if calls:
        values["textfeat.extract_features.us_per_record"] = 1e6 * values["textfeat.extract_features.s"] / calls
    if values["ingest.cases_merged"]:
        values["ingest.yield"] = values["ingest.records_out"] / values["ingest.cases_merged"]
    values["synthgen.generate.s"] = sum(s.seconds for s in tracer.spans if s.name == "synthgen.generate")
    for stage in manifest.get("stages", []):
        values[f"pipeline.{stage['name']}.s"] = stage["elapsed_s"]
    if traced_manifest:
        for stage, share in stage_coverage(tracer, traced_manifest).items():
            values[f"pipeline.{stage}.coverage"] = share
    for name, seconds in tracer.self_seconds(run=1).items():
        values[f"self_s.{name.split('.')[0]}"] += seconds
    values["trace.overhead_s"] = overhead_s
    values["trace.spans"] = len(tracer.spans)
    return values
