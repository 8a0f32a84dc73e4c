"""End-to-end pipeline: corpus -> features -> selection -> tuning -> report.

Stages run in the fixed order synth/ingest, wordcount, extract-features,
select-features, tune, rfecv, evaluate, llm-compare. Each stage is one
function (``stage_<name>``) that reads its input artifacts and writes its
own as plain files, so any stage can be rerun in isolation; the CLI
subcommands call the same functions. run_pipeline chains them under the
output directory and writes a run manifest of seeds, versions, per-stage
timings and artifact hashes once, when the run ends. A failing stage halts
the run with its name while earlier artifacts stay on disk, and the
manifest then lists the stages run so far and the failed one's error.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .featselect import RfecvResult, SelectionReport, filter_select, rfecv
from .ingest import IngestConfig, ingest_tables, load_csv
# train stays importable as pipeline.train, a name perfbench/layers.py wraps
from .learners import (  # noqa: F401
    DEFAULT_SEARCH_SPACES, InvalidHyperparameter, ModelKind, ModelSpec, load_model, save_model, train,
)
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
    RescueRecord,
    TEXT_FEATURE_NAMES,
    asjson,
    check_unique_case_ids,
    read_json,
    read_jsonl,
    record_to_dict,
    to_feature_vector,
    write_json,
    write_jsonl,
    VITAL_FEATURE_NAMES,
)
from .synthgen import GeneratorConfig, default_config, generate
from .textfeat import default_lexicons, extract_features, load_lexicon_file, note_tokens, word_count
from .tuning import (
    Candidate,
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
        if self.min_count < 1:
            raise ValueError(f"min_count must be at least 1, got {self.min_count!r}")
        # the search and fold rules are tuning's; build its specs to apply them
        for name, build in (
            ("search_mode", lambda: SearchSpec(self.search_mode)),
            ("search_budget", lambda: SearchSpec(self.search_mode, budget=self.search_budget)),
            ("cv_folds", lambda: CvSpec(self.cv_folds)),
        ):
            try:
                build()
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class Winner:
    """The CV winner; its spec is read by ModelSpec.from_dict, which needs the seed."""

    spec: dict  # a ModelSpec once built
    cv_accuracy: float

    def __post_init__(self):
        if not isinstance(self.spec, ModelSpec):
            object.__setattr__(self, "spec", ModelSpec.from_dict(self.spec, "spec"))


@dataclass(frozen=True)
class Split:
    """The train/test split tune drew from the labeled feature rows, with the
    winner's seed: the train share, and whether each class keeps that share.
    Stratified also applies to the CV folds of tune and rfecv."""

    ratio: float
    stratified: bool


@dataclass(frozen=True)
class Inputs:
    """The SHA-256 of the files tune read; the later stages refuse others."""

    features_sha256: str
    selection_sha256: str


@dataclass(frozen=True)
class Leaderboard:
    """leaderboard.json: the CV winner, the split it was tuned on, the digests
    of tune's input files, and every kind's candidates, best mean first, each
    with its kind's resolved hyperparameters, one accuracy per tune fold and
    their exact mean. The winner must be the best candidate of the first
    kind, in ModelKind order, with the best mean accuracy."""

    winner: Winner
    split: Split
    inputs: Inputs
    per_kind: dict[ModelKind, tuple[Candidate, ...]]

    def __post_init__(self):
        first = None
        for kind, candidates in self.per_kind.items():
            if not candidates:
                raise ValueError(f"per_kind.{kind.value}: no candidates")
            for i, candidate in enumerate(candidates):
                path = f"per_kind.{kind.value}[{i}]"
                try:
                    resolved = ModelSpec(kind, candidate.hyperparameters).hyperparameters
                except InvalidHyperparameter as exc:
                    raise ValueError(f"{path}.hyperparameters: {exc}") from None
                if resolved != candidate.hyperparameters:
                    missing = sorted(set(resolved) - set(candidate.hyperparameters))
                    raise ValueError(f"{path}.hyperparameters: missing keys {missing}")
                key, n = f"{path}.fold_accuracies", len(candidate.fold_accuracies)
                if n < 2:
                    raise ValueError(f"{key}: needs at least 2 entries, got {n}")
                first = first or (key, n)
                if n != first[1]:
                    raise ValueError(f"{key}: {n} entries, where {first[0]} has {first[1]}")
                mean = float(np.mean(candidate.fold_accuracies))
                if candidate.mean_accuracy != mean:
                    raise ValueError(
                        f"{path}.mean_accuracy: {candidate.mean_accuracy} is not {mean}, "
                        "the mean of its fold_accuracies"
                    )
                if i and candidate.mean_accuracy > candidates[i - 1].mean_accuracy:
                    raise ValueError(
                        f"{path}.mean_accuracy: {candidate.mean_accuracy} is above "
                        f"per_kind.{kind.value}[{i - 1}].mean_accuracy {candidates[i - 1].mean_accuracy}; "
                        "candidates come best mean first"
                    )
        kind = self.winner.spec.kind
        if kind not in self.per_kind:
            raise ValueError(f"per_kind: no candidates of the winner's kind {kind.value}")
        best = self.per_kind[kind][0]
        if self.winner.spec.hyperparameters != best.hyperparameters:
            raise ValueError(
                f"winner.spec.hyperparameters: {self.winner.spec.hyperparameters} differ from "
                f"per_kind.{kind.value}[0].hyperparameters {best.hyperparameters}"
            )
        if self.winner.cv_accuracy != best.mean_accuracy:
            raise ValueError(
                f"winner.cv_accuracy: {self.winner.cv_accuracy} differs from "
                f"per_kind.{kind.value}[0].mean_accuracy {best.mean_accuracy}"
            )
        first = _best_kind(self.per_kind)
        if kind is not first:
            raise ValueError(
                f"winner.spec.kind: {kind.value} is not {first.value}, the first kind in ModelKind order "
                f"with the best mean accuracy {self.per_kind[first][0].mean_accuracy}"
            )


def _best_kind(per_kind: dict) -> ModelKind:
    """The first kind, in ModelKind order, whose best candidate has the best mean accuracy."""
    return max((kind for kind in ModelKind if kind in per_kind), key=lambda kind: per_kind[kind][0].mean_accuracy)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _read_board(leaderboard_path, features_path, selection_path=None) -> Leaderboard:
    """tune's leaderboard, after refusing a features or selection file other
    than the one tune read, whose digest the leaderboard holds."""
    board = read_json(leaderboard_path, Leaderboard)
    for path, key in ((features_path, "features_sha256"), (selection_path, "selection_sha256")):
        if path is not None and _sha256(Path(path)) != getattr(board.inputs, key):
            raise ValueError(
                f"{path}: its SHA-256 differs from inputs.{key} in {leaderboard_path}; it is not the file tune read"
            )
    return board


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


def _split(split: Split, seed: int, features_path, names=None, names_path=None) -> tuple[Dataset, Dataset]:
    """The seeded train/test split of the labeled feature rows, restricted
    to the feature columns named by the file names_path when names are given."""
    rows = _labeled_rows(features_path)
    data = Dataset.from_vectors([r.features for r in rows], [r.label for r in rows], [r.case_id for r in rows])
    if names is not None:
        try:
            data = data.select(names)
        except ValueError as exc:
            raise ValueError(f"{names_path}: {exc}") from None
    return split_train_test(data, split.ratio, seed, split.stratified)


def _filter_features(selection_path) -> list[str]:
    """The vitals plus the text features selected in the selection report."""
    return [*VITAL_FEATURE_NAMES, *read_json(selection_path, SelectionReport).selected]


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


# Stage functions. Each takes the config (rfecv and evaluate need none) plus
# artifact paths, writes its artifacts and returns (artifacts written,
# manifest extras). run_pipeline and the CLI subcommands both call them. tune
# owns the split and the CV folds: leaderboard.json records them, and rfecv,
# evaluate and llm-compare take them, and the seed, from there.


def stage_synth(cfg: PipelineConfig, corpus_path, truth_path=None, delimiter: str = ","):
    """Generate the synthetic corpus, or ingest cfg.input_csvs when set,
    counting the ingested rows dropped as invalid."""
    row_errors = []
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
        with open(truth_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["case_id", "label"])
            writer.writerows([r.case_id, r.label.value] for r in records)
        artifacts.append(Path(truth_path))
    mode = "csv" if cfg.input_csvs else "synthetic"
    return artifacts, {"records": len(records), "rejected": len(row_errors), "mode": mode}


def stage_wordcount(cfg: PipelineConfig, corpus_path, counts_path):
    _, lexicons = _load_lexicons(cfg)
    corpus_tokens = [note_tokens(r.notes) for r in read_jsonl(corpus_path, RescueRecord)]
    counts = word_count(corpus_tokens, lexicons, min_count=cfg.min_count)
    with open(counts_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["word", "count"])
        writer.writerows(counts.items())
    return [Path(counts_path)], {"words": len(counts)}


def stage_extract_features(cfg: PipelineConfig, corpus_path, features_path):
    """Keyword features plus vitals per case; cases with incomplete vitals are
    skipped, and unlabeled rows, which later stages leave out, are counted."""
    categories, lexicons = _load_lexicons(cfg)
    rows = []
    skipped = 0
    for r in read_jsonl(corpus_path, RescueRecord):
        if r.vitals is None or not r.vitals.complete:
            skipped += 1
            continue
        fv = to_feature_vector(r.vitals, extract_features(r, categories, lexicons))
        rows.append(FeatureRow(r.case_id, r.label, fv))
    write_jsonl(features_path, rows, asjson)
    unlabeled = sum(r.label is Label.UNKNOWN for r in rows)
    return [Path(features_path)], {"rows": len(rows), "skipped": skipped, "unlabeled": unlabeled}


def stage_select_features(cfg: PipelineConfig, features_path, selection_path):
    rows = _labeled_rows(features_path)
    psy, non = ([r.features for r in rows if r.label is label] for label in (Label.PSYCHIATRIC, Label.NON_PSYCHIATRIC))
    report = filter_select(psy, non, threshold=cfg.filter_threshold)
    write_json(selection_path, report)
    return [Path(selection_path)], {"selected": list(report.selected)}


def stage_tune(cfg: PipelineConfig, features_path, selection_path, leaderboard_path):
    """Hyperparameter search per model kind on the train split's selected
    features, the CV jobs of every kind on one pool. The leaderboard records
    the config's split and the candidates search returns; the winner is the
    first kind, in ModelKind order, with the best mean CV accuracy."""
    split = Split(cfg.split_ratio, cfg.stratified)
    train_set, _ = _split(split, cfg.seed, features_path, _filter_features(selection_path), selection_path)
    cv = CvSpec(folds=cfg.cv_folds, stratified=split.stratified, seed=cfg.seed)
    per_kind = {}
    search_s = {}
    with _stage_pool(len(ModelKind) * cv.folds) as (map_fn, workers):
        for kind in ModelKind:
            spec = SearchSpec(cfg.search_mode, DEFAULT_SEARCH_SPACES[kind], cfg.search_budget, cfg.seed)
            t0 = time.perf_counter()
            per_kind[kind] = search(kind, spec, cv, train_set, model_seed=cfg.seed, map_fn=map_fn, workers=workers)
            search_s[kind.value] = round(time.perf_counter() - t0, 3)
    kind = _best_kind(per_kind)
    best = per_kind[kind][0]
    winner = ModelSpec(kind, best.hyperparameters, seed=cfg.seed)
    inputs = Inputs(_sha256(Path(features_path)), _sha256(Path(selection_path)))
    write_json(leaderboard_path, Leaderboard(Winner(winner, best.mean_accuracy), split, inputs, per_kind))
    return [Path(leaderboard_path)], {"winner": asjson(winner), "workers": workers, "search_s": search_s}


def stage_rfecv(features_path, selection_path, leaderboard_path, rfecv_path):
    """RFECV on the tuned winner over the leaderboard's train split, on tune's
    folds, from the features and selection files tune read. Its first step
    refits the winner on those folds, so its fold scores must equal the
    winner's fold accuracies."""
    board = _read_board(leaderboard_path, features_path, selection_path)
    winner = board.winner.spec
    train_set, _ = _split(board.split, winner.seed, features_path, _filter_features(selection_path), selection_path)
    tuned = board.per_kind[winner.kind][0].fold_accuracies
    cv = CvSpec(folds=len(tuned), stratified=board.split.stratified, seed=winner.seed)
    with _stage_pool(cv.folds) as (map_fn, workers):
        rfe = rfecv(train_set, winner, cv, map_fn=map_fn, workers=workers)
    if rfe.steps[0].fold_scores != tuned:
        raise ValueError(
            f"{leaderboard_path}: the winner's fold accuracies {list(tuned)} differ from its refit "
            f"on the same folds in RFECV's first step {list(rfe.steps[0].fold_scores)}"
        )
    write_json(rfecv_path, rfe)
    return [Path(rfecv_path)], {"best_features": list(rfe.best_features), "workers": workers}


def stage_evaluate(features_path, leaderboard_path, rfecv_path, table_path, roc_dir=None, best_model_path=None):
    """Every kind's tuned spec on the held-out test split of the RFECV subset.

    Writes the metrics table, optionally one ROC curve per model and the CV
    winner as its evaluation job fitted it on the train split. The split, the
    seed and the features file are the leaderboard's.
    """
    board = _read_board(leaderboard_path, features_path)
    winner = board.winner.spec
    specs = [
        ModelSpec(kind, candidates[0].hyperparameters, seed=winner.seed) for kind, candidates in board.per_kind.items()
    ]
    best_features = read_json(rfecv_path, RfecvResult).best_features
    train_set, test_set = _split(board.split, winner.seed, features_path, best_features, rfecv_path)
    with _stage_pool(len(specs)) as (map_fn, workers):
        eval_rows = evaluate_all(specs, train_set, test_set, map_fn=map_fn, keep_model=winner)
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
        row = next(row for row in eval_rows if row.spec == winner)
        if row.error is not None:
            raise ValueError(f"the CV winner {asjson(winner)} failed to train: {row.error}")
        save_model(row.model, best_model_path)
        artifacts.append(Path(best_model_path))
    return artifacts + roc_paths, {"workers": workers}


def stage_llm_compare(
    cfg: PipelineConfig, features_path, leaderboard_path, model_path, agreement_path, max_in_flight: int = 1
):
    """Zero-shot comparison on a class-balanced sample of the test split.

    Prompts the LLM (per cfg.llm_mode) and the model on each sampled case
    and writes the per-case agreement payload with the prompts; the extras
    count the ambiguous verdicts and give each case's LLM latency. The split,
    the seed and the features file are the leaderboard's, and the model must
    be its winner.
    """
    board = _read_board(leaderboard_path, features_path)
    model = load_model(model_path)
    if model.spec != board.winner.spec:
        raise ValueError(
            f"{model_path}: model {asjson(model.spec)} is not the winner of {leaderboard_path}, "
            f"{asjson(board.winner.spec)}"
        )
    _, test_set = _split(board.split, board.winner.spec.seed, features_path)
    picked = _pick_llm_cases(test_set, cfg.llm_cases)
    vectors = [FeatureVector.from_array(test_set.X[i]) for i in picked]
    prompts = [build_prompt(prompt_values_from_vector(v), TEMPLATE_DEFAULT) for v in vectors]
    model_X = test_set.select(model.feature_names or FEATURE_ORDER).X
    ml_preds = [int(model.predict(model_X[i])) for i in picked]
    if cfg.llm_mode == "stub":
        verdicts = transcript_verdicts([_stub_response(v) for v in vectors])
    elif cfg.llm_mode == "transcript":
        answers = read_json(cfg.llm_transcript, tuple[str, ...])
        if len(answers) < len(prompts):
            raise ValueError(
                f"{cfg.llm_transcript}: {len(prompts)} sampled cases need as many answers, got {len(answers)}"
            )
        verdicts = transcript_verdicts(list(answers[: len(prompts)]))
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
        "rfecv": lambda: stage_rfecv(features, selection, leaderboard, rfecv_report),
        "evaluate": lambda: stage_evaluate(
            features, leaderboard, rfecv_report, out / "metrics_table.csv", out / "roc", best_model
        ),
        "llm_compare": lambda: stage_llm_compare(cfg, features, leaderboard, best_model, out / "llm_agreement.json"),
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

    # written once, when the run ends or a stage fails: rewriting it after
    # every stage would truncate the file the previous stage wrote
    try:
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
    finally:
        write_json(out / "manifest.json", manifest)
    return manifest
