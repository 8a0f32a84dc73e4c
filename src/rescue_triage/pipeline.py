"""End-to-end pipeline: corpus -> features -> selection -> tuning -> report.

Stages run in the fixed order synth/ingest, wordcount, extract-features,
select-features, tune, rfecv, evaluate, llm-compare. Each stage is one
function (``stage_<name>``) that reads its input artifacts and writes its
own as plain files, so any stage can be rerun in isolation; the CLI
subcommands call the same functions. run_pipeline chains them under the
output directory and keeps a run manifest of seeds, versions, per-stage
timings and artifact hashes. A failing stage halts the run with its name
while earlier artifacts stay on disk.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .featselect import RfecvResult, SelectionReport, filter_select, rfecv
from .ingest import IngestConfig, ingest_tables, load_csv
from .learners import DEFAULT_SEARCH_SPACES, ModelKind, ModelSpec, load_model, save_model, train
from .llm import (
    EndpointConfig,
    TEMPLATE_DEFAULT,
    build_prompt,
    compare,
    prompt_values_from_vector,
    query_many,
    transcript_verdicts,
)
from .records import (
    FEATURE_ORDER,
    Dataset,
    FeatureRow,
    FeatureVector,
    Label,
    TEXT_FEATURE_NAMES,
    asjson,
    check_unique_case_ids,
    read_json,
    read_jsonl,
    record_from_dict,
    record_to_dict,
    to_feature_vector,
    write_json,
    write_jsonl,
    VITAL_FEATURE_NAMES,
)
from .synthgen import GeneratorConfig, default_config, generate
from .textfeat import default_lexicons, extract_features, load_lexicon_file, note_tokens, word_count
from .tuning import (
    CvSpec,
    SearchSpec,
    evaluate_all,
    search,
    split_train_test,
    write_metrics_csv,
    write_roc_csv,
)

log = logging.getLogger(__name__)

STAGES = (
    "synth",
    "wordcount",
    "extract_features",
    "select_features",
    "tune",
    "rfecv",
    "evaluate",
    "llm_compare",
)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage!r}: {message}")


@dataclass(frozen=True)
class PipelineConfig:
    """File-driven configuration for run_pipeline; seeds propagate everywhere."""

    seed: int = 42
    out_dir: str = "out"
    lexicon_path: Optional[str] = None
    generator: Optional[GeneratorConfig] = None
    input_csvs: tuple[str, ...] = ()
    ingest: Optional[IngestConfig] = None
    min_count: int = 50
    filter_threshold: float = 3.0
    search_mode: str = "grid"
    search_budget: int = 20
    cv_folds: int = 5
    stratified: bool = True
    rfecv_folds: int = 5
    split_ratio: float = 0.8
    llm_mode: str = "stub"  # stub | transcript | endpoint | off
    llm_transcript: Optional[str] = None
    llm_endpoint: Optional[EndpointConfig] = None
    llm_cases: int = 6

    def __post_init__(self):
        object.__setattr__(self, "input_csvs", tuple(self.input_csvs))
        if self.llm_mode not in ("stub", "transcript", "endpoint", "off"):
            raise ValueError(f"unknown llm_mode {self.llm_mode!r}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must lie strictly between 0 and 1, got {self.split_ratio!r}")
        if self.llm_cases < 1:
            raise ValueError(f"llm_cases must be at least 1, got {self.llm_cases!r}")
        # the search and fold rules are tuning's; build its specs to apply them
        for name, build in (
            ("search_mode", lambda: SearchSpec(self.search_mode)),
            ("search_budget", lambda: SearchSpec(self.search_mode, budget=self.search_budget)),
            ("cv_folds", lambda: CvSpec(self.cv_folds)),
            ("rfecv_folds", lambda: CvSpec(self.rfecv_folds)),
        ):
            try:
                build()
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class Candidate:
    """One search candidate of a kind, as leaderboard.json lists it."""

    hyperparameters: dict
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


@dataclass(frozen=True)
class Winner:
    """The CV winner; its spec is read by ModelSpec.from_dict, which needs the seed."""

    spec: dict  # a ModelSpec once built
    cv_accuracy: float

    def __post_init__(self):
        if not isinstance(self.spec, ModelSpec):
            object.__setattr__(self, "spec", ModelSpec.from_dict(self.spec, "spec"))


@dataclass(frozen=True)
class Leaderboard:
    """leaderboard.json: the CV winner and every kind's candidates, best first."""

    winner: Winner
    per_kind: dict[ModelKind, tuple[Candidate, ...]]

    def __post_init__(self):
        for kind, candidates in self.per_kind.items():
            if not candidates:
                raise ValueError(f"per_kind.{kind.value}: no candidates")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def validate_config(cfg: PipelineConfig) -> None:
    """Reject broken configs before any compute; errors name the config stage."""
    if cfg.lexicon_path is not None and not Path(cfg.lexicon_path).exists():
        raise PipelineError("config", f"lexicon path {cfg.lexicon_path!r} does not exist")
    for p in cfg.input_csvs:
        if not Path(p).exists():
            raise PipelineError("config", f"input csv {p!r} does not exist")
    if cfg.llm_mode == "transcript":
        if not cfg.llm_transcript or not Path(cfg.llm_transcript).exists():
            raise PipelineError("config", f"llm transcript {cfg.llm_transcript!r} does not exist")
    if cfg.llm_mode == "endpoint" and cfg.llm_endpoint is None:
        raise PipelineError("config", "llm_mode 'endpoint' needs llm_endpoint settings")


def _load_lexicons(cfg: PipelineConfig):
    if cfg.lexicon_path is None:
        return default_lexicons()
    return load_lexicon_file(cfg.lexicon_path)


def _labeled_rows(features_path: str | Path) -> list[FeatureRow]:
    return [r for r in read_jsonl(features_path, FeatureRow) if r.label is not Label.UNKNOWN]


def _split(cfg: PipelineConfig, features_path, names=None, names_path=None) -> tuple[Dataset, Dataset]:
    """The config's train/test split of the labeled feature rows, restricted
    to the feature columns named by the file names_path when names are given."""
    rows = _labeled_rows(features_path)
    data = Dataset.from_vectors([r.features for r in rows], [r.label for r in rows], [r.case_id for r in rows])
    if names is not None:
        try:
            data = data.select(names)
        except ValueError as exc:
            raise ValueError(f"{names_path}: {exc}") from None
    return split_train_test(data, cfg.split_ratio, cfg.seed, cfg.stratified)


def _filter_features(selection_path) -> list[str]:
    """The vitals plus the text features selected in the selection report."""
    return [*VITAL_FEATURE_NAMES, *read_json(selection_path, SelectionReport).selected]


def read_winner(leaderboard_path: str | Path) -> ModelSpec:
    """The CV winner's spec from a leaderboard written by stage_tune."""
    return read_json(leaderboard_path, Leaderboard).winner.spec


def _stub_response(fv: FeatureVector) -> str:
    """Canned deterministic responder used when no model endpoint exists.

    A plumbing stand-in, not a model: answers true when any text flag is set.
    """
    return "true" if any(getattr(fv, n) == 1.0 for n in TEXT_FEATURE_NAMES) else "false"


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextmanager
def _stage_pool(jobs: int):
    """Yield ``(map_fn, workers)`` for a stage's fit jobs: the map of a pool of
    fork-started workers, one per usable core and at most one per job, that
    ends with the stage; the builtin ``map`` for one worker or without fork."""
    workers = min(_usable_cores(), jobs)
    if workers > 1:
        # imported here, so runs that never pool do not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                yield pool.map, workers
            return
    yield map, 1


# Stage functions. Each takes the config plus artifact paths, writes its
# artifacts and returns (artifacts written, manifest extras). run_pipeline
# and the CLI subcommands both call them.


def stage_synth(cfg: PipelineConfig, corpus_path, truth_path=None, delimiter: str = ","):
    """Generate the synthetic corpus, or ingest cfg.input_csvs when set."""
    if cfg.input_csvs:
        tables = [load_csv(p, delimiter=delimiter) for p in cfg.input_csvs]
        records, row_errors = ingest_tables(tables, cfg.ingest or IngestConfig())
        for idx, err in row_errors:
            log.warning("ingest: dropped row %d: %s", idx, err)
    else:
        records = generate(cfg.generator or default_config(seed=cfg.seed))
    check_unique_case_ids(records)
    write_jsonl(corpus_path, records, record_to_dict)
    artifacts = [Path(corpus_path)]
    if truth_path is not None:
        with open(truth_path, "w", encoding="utf-8") as fh:
            fh.write("case_id,label\n")
            for r in records:
                fh.write(f"{r.case_id},{r.label.value}\n")
        artifacts.append(Path(truth_path))
    return artifacts, {"records": len(records), "mode": "csv" if cfg.input_csvs else "synthetic"}


def stage_wordcount(cfg: PipelineConfig, corpus_path, counts_path):
    _, lexicons = _load_lexicons(cfg)
    corpus_tokens = [note_tokens(r.notes) for r in map(record_from_dict, read_jsonl(corpus_path, dict))]
    counts = word_count(corpus_tokens, lexicons, min_count=cfg.min_count)
    with open(counts_path, "w", encoding="utf-8") as fh:
        fh.write("word,count\n")
        for w, c in counts.items():
            fh.write(f"{w},{c}\n")
    return [Path(counts_path)], {"words": len(counts)}


def stage_extract_features(cfg: PipelineConfig, corpus_path, features_path):
    """Keyword features plus vitals per case; cases with incomplete vitals are skipped."""
    categories, lexicons = _load_lexicons(cfg)
    rows = []
    skipped = 0
    for r in map(record_from_dict, read_jsonl(corpus_path, dict)):
        if r.vitals is None or not r.vitals.complete:
            skipped += 1
            continue
        fv = to_feature_vector(r.vitals, extract_features(r, categories, lexicons))
        rows.append(FeatureRow(r.case_id, r.label, fv))
    write_jsonl(features_path, rows, asjson)
    return [Path(features_path)], {"rows": len(rows), "skipped": skipped}


def stage_select_features(cfg: PipelineConfig, features_path, selection_path):
    rows = _labeled_rows(features_path)
    psy, non = ([r.features for r in rows if r.label is label] for label in (Label.PSYCHIATRIC, Label.NON_PSYCHIATRIC))
    report = filter_select(psy, non, threshold=cfg.filter_threshold)
    write_json(selection_path, report)
    return [Path(selection_path)], {"selected": list(report.selected)}


def stage_tune(cfg: PipelineConfig, features_path, selection_path, leaderboard_path):
    """Hyperparameter search per model kind on the train split's selected
    features; the CV jobs of every kind run on one pool."""
    train_set, _ = _split(cfg, features_path, _filter_features(selection_path), selection_path)
    cv = CvSpec(folds=cfg.cv_folds, stratified=cfg.stratified, seed=cfg.seed)
    per_kind = {}
    search_s = {}
    with _stage_pool(len(ModelKind) * cv.folds) as (map_fn, workers):
        for kind in ModelKind:
            spec = SearchSpec(cfg.search_mode, DEFAULT_SEARCH_SPACES[kind], cfg.search_budget, cfg.seed)
            t0 = time.perf_counter()
            per_kind[kind] = search(kind, spec, cv, train_set, model_seed=cfg.seed, map_fn=map_fn).leaderboard
            search_s[kind.value] = round(time.perf_counter() - t0, 3)
    best = max(per_kind.values(), key=lambda entries: entries[0].mean_score)[0]
    board = Leaderboard(
        Winner(best.spec, best.mean_score),
        {kind: tuple(Candidate(e.spec.hyperparameters, e.mean_score, e.fold_scores) for e in entries)
         for kind, entries in per_kind.items()},
    )
    write_json(leaderboard_path, board)
    return [Path(leaderboard_path)], {"winner": asjson(best.spec), "workers": workers, "search_s": search_s}


def stage_rfecv(cfg: PipelineConfig, features_path, selection_path, leaderboard_path, rfecv_path):
    """RFECV on the tuned winner over the same train split as stage_tune."""
    train_set, _ = _split(cfg, features_path, _filter_features(selection_path), selection_path)
    cv = CvSpec(folds=cfg.rfecv_folds, stratified=cfg.stratified, seed=cfg.seed)
    with _stage_pool(cv.folds) as (map_fn, workers):
        rfe = rfecv(train_set, read_winner(leaderboard_path), cv, map_fn=map_fn)
    write_json(rfecv_path, rfe)
    return [Path(rfecv_path)], {"best_features": list(rfe.best_features), "workers": workers}


def stage_evaluate(
    cfg: PipelineConfig, features_path, leaderboard_path, rfecv_path, table_path, roc_dir=None, best_model_path=None
):
    """Every kind's tuned spec on the held-out test split of the RFECV subset.

    Writes the metrics table, optionally one ROC curve per model and the CV
    winner refitted on the train split. The seed is the leaderboard's; a
    config seed that differs from it is an error.
    """
    board = read_json(leaderboard_path, Leaderboard)
    winner = board.winner.spec
    if cfg.seed != winner.seed:
        raise ValueError(f"seed {cfg.seed} differs from the leaderboard's seed {winner.seed}")
    specs = [
        ModelSpec(kind, candidates[0].hyperparameters, seed=winner.seed) for kind, candidates in board.per_kind.items()
    ]
    train_set, test_set = _split(cfg, features_path, read_json(rfecv_path, RfecvResult).best_features, rfecv_path)
    with _stage_pool(len(specs)) as (map_fn, workers):
        eval_rows = evaluate_all(specs, train_set, test_set, map_fn=map_fn)
    write_metrics_csv(eval_rows, table_path)
    artifacts = [Path(table_path)]
    roc_paths = []
    if roc_dir is not None:
        Path(roc_dir).mkdir(parents=True, exist_ok=True)
        for row in eval_rows:
            if row.report is not None:
                p = Path(roc_dir) / f"roc_{row.name.replace('-', '').lower()}.csv"
                write_roc_csv(row.report.roc_points, p)
                roc_paths.append(p)
    if best_model_path is not None:
        save_model(train(winner, train_set.X, train_set.y, feature_names=train_set.feature_names), best_model_path)
        artifacts.append(Path(best_model_path))
    return artifacts + roc_paths, {"workers": workers}


def stage_llm_compare(cfg: PipelineConfig, features_path, model_path, agreement_path, max_in_flight: int = 1):
    """Zero-shot comparison on a class-balanced sample of the test split.

    Prompts the LLM (per cfg.llm_mode) and the model on each sampled case
    and writes the per-case agreement payload with the prompts; the extras
    count the ambiguous verdicts and give each case's LLM latency. The seed
    is the model's; a config seed that differs from it is an error.
    """
    model = load_model(model_path)
    if cfg.seed != model.spec.seed:
        raise ValueError(f"seed {cfg.seed} differs from the model's seed {model.spec.seed}")
    _, test_set = _split(cfg, features_path)
    picked = _pick_llm_cases(test_set, cfg.llm_cases)
    vectors = [FeatureVector.from_array(test_set.X[i]) for i in picked]
    prompts = [build_prompt(prompt_values_from_vector(v), TEMPLATE_DEFAULT) for v in vectors]
    model_X = test_set.select(model.feature_names or FEATURE_ORDER).X
    ml_preds = [int(model.predict(model_X[i])) for i in picked]
    if cfg.llm_mode == "stub":
        verdicts = transcript_verdicts([_stub_response(v) for v in vectors])
    elif cfg.llm_mode == "transcript":
        verdicts = transcript_verdicts(list(read_json(cfg.llm_transcript, tuple[str, ...])[: len(prompts)]))
    else:
        verdicts = query_many(prompts, cfg.llm_endpoint, max_in_flight=max_in_flight)
    case_ids = [test_set.case_ids[i] for i in picked]
    refs = [int(test_set.y[i]) for i in picked]
    agreement = compare(ml_preds, verdicts, case_ids, reference_labels=refs)
    write_json(agreement_path, {**asjson(agreement), "prompts": prompts})
    # latencies differ between runs, so they go to the manifest, not the artifact
    return [Path(agreement_path)], {
        "mismatches": agreement.mismatch_count,
        "ambiguous": len(agreement.ambiguous_cases),
        "latency_s": {case_id: round(v.latency, 3) for case_id, v in zip(case_ids, verdicts)},
    }


def _pick_llm_cases(test_set: Dataset, n_cases: int) -> list[int]:
    """First half positives, then negatives, by test-set order."""
    pos = [i for i in range(len(test_set)) if test_set.y[i] == 1]
    neg = [i for i in range(len(test_set)) if test_set.y[i] == 0]
    half = n_cases // 2
    return pos[:half] + neg[: n_cases - half]


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute all stages; returns the manifest dict (also written to disk)."""
    validate_config(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus, features, selection, leaderboard, rfecv_report, best_model = (
        out / f for f in (
            "corpus.jsonl", "features.jsonl", "selection_report.json",
            "leaderboard.json", "rfecv_report.json", "best_model.json",
        )
    )
    steps = {
        "synth": lambda: stage_synth(cfg, corpus, out / "truth.csv"),
        "wordcount": lambda: stage_wordcount(cfg, corpus, out / "word_counts.csv"),
        "extract_features": lambda: stage_extract_features(cfg, corpus, features),
        "select_features": lambda: stage_select_features(cfg, features, selection),
        "tune": lambda: stage_tune(cfg, features, selection, leaderboard),
        "rfecv": lambda: stage_rfecv(cfg, features, selection, leaderboard, rfecv_report),
        "evaluate": lambda: stage_evaluate(
            cfg, features, leaderboard, rfecv_report, out / "metrics_table.csv", out / "roc", best_model
        ),
        "llm_compare": lambda: stage_llm_compare(cfg, features, best_model, out / "llm_agreement.json"),
    }

    # config, seeds and input hashes make the run reproducible from the manifest
    manifest: dict = {
        "package_version": __version__,
        "seed": cfg.seed,
        "config": asdict(cfg),
        "input_hashes": {p: _sha256(Path(p)) for p in cfg.input_csvs},
        "stages": [],
        "artifacts": {},
    }

    def finish_stage(name: str, status: str, artifacts: list[Path], t0: float, **extra):
        entry = {
            "name": name,
            "status": status,
            "artifacts": [str(p.relative_to(out)) for p in artifacts],
            "elapsed_s": round(time.perf_counter() - t0, 3),
        }
        entry.update(extra)
        manifest["stages"].append(entry)
        for p in artifacts:
            manifest["artifacts"][str(p.relative_to(out))] = _sha256(p)
        write_json(out / "manifest.json", manifest)

    for name in STAGES:
        t0 = time.perf_counter()
        if name == "llm_compare" and cfg.llm_mode == "off":
            finish_stage(name, "skipped", [], t0)
            continue
        try:
            artifacts, extra = steps[name]()
        except Exception as exc:
            finish_stage(name, "failed", [], t0, error=str(exc))
            raise PipelineError(name, str(exc)) from exc
        finish_stage(name, "ok", artifacts, t0, **extra)
    return manifest
