"""Command-line entry point.

Subcommands mirror the pipeline stages (synth, ingest, wordcount,
extract-features, select-features, tune, evaluate, llm-compare) plus
run-all, which chains them under one config. Each subcommand builds a
PipelineConfig from its options and calls the stage function run-all
calls, so chained subcommands write the artifacts run-all writes. An
option left out keeps PipelineConfig's default; config files load
strictly (unknown or missing keys and wrong types exit 2, naming the key).

* tune reads the relevance filter's report (--selection), tunes on the
  selected features and records its train/test split (--split,
  --stratified), seed and fold accuracies in the leaderboard;
  --rfecv-report also runs RFECV on the winner, on tune's --folds;
* evaluate needs the RFECV report, and --save-best saves the leaderboard's
  CV winner refitted on the train split;
* llm-compare samples --limit cases from the test split like run-all; the
  model must be the winner of its --leaderboard. An endpoint that fails
  exits 1 naming the stage, as in run-all.

evaluate and llm-compare take the split and the seed from leaderboard.json,
so they have no --split or --stratified option and exit 2 when given --seed.

Logs go to stderr; artifacts go to files only.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from .ingest import IngestConfig
from .llm import EndpointConfig, TransportError
from .pipeline import (
    PipelineConfig,
    PipelineError,
    run_pipeline,
    stage_evaluate,
    stage_extract_features,
    stage_llm_compare,
    stage_rfecv,
    stage_select_features,
    stage_synth,
    stage_tune,
    stage_wordcount,
)
from .records import read_json
from .synthgen import GeneratorConfig

log = logging.getLogger("rescue_triage")

# --config is a generator file for synth, an ingest file for ingest and a
# pipeline file for run-all; the stage subcommands take options only
_READS_CONFIG = ("synth", "ingest", "run-all")
# the stages after tune take the seed that tune stored in leaderboard.json
_SEED_FROM_LEADERBOARD = ("evaluate", "llm-compare")


def _config(args, base: PipelineConfig | None = None, **fields) -> PipelineConfig:
    """base (default: the pipeline defaults) with the given fields and --seed
    applied; options left unset (None) keep PipelineConfig's defaults."""
    if args.seed is not None:
        fields["seed"] = args.seed
    return replace(base or PipelineConfig(), **{k: v for k, v in fields.items() if v is not None})


def _done(result) -> int:
    artifacts, extra = result
    log.info("wrote %s %s", ", ".join(map(str, artifacts)), extra)
    return 0


def _cmd_synth(args) -> int:
    generator = read_json(args.config, GeneratorConfig) if args.config else None
    return _done(stage_synth(_config(args, generator=generator), args.out, args.truth))


def _cmd_ingest(args) -> int:
    ingest = read_json(args.config, IngestConfig) if args.config else IngestConfig()
    if args.key_column:
        ingest = replace(ingest, key_column=args.key_column)
    cfg = _config(args, input_csvs=tuple(args.csvs), ingest=ingest)
    return _done(stage_synth(cfg, args.out, delimiter=args.delimiter))


def _cmd_wordcount(args) -> int:
    cfg = _config(args, lexicon_path=args.lexicon, min_count=args.min_count)
    return _done(stage_wordcount(cfg, args.input, args.out))


def _cmd_extract(args) -> int:
    return _done(stage_extract_features(_config(args, lexicon_path=args.lexicon), args.input, args.out))


def _cmd_select(args) -> int:
    return _done(stage_select_features(_config(args, filter_threshold=args.threshold), args.input, args.report))


def _cmd_tune(args) -> int:
    cfg = _config(
        args, search_mode=args.mode, search_budget=args.budget, cv_folds=args.folds,
        stratified=args.stratified, split_ratio=args.split,
    )
    _done(stage_tune(cfg, args.input, args.selection, args.out))
    if args.rfecv_report:
        _done(stage_rfecv(args.input, args.selection, args.out, args.rfecv_report))
    return 0


def _cmd_evaluate(args) -> int:
    return _done(stage_evaluate(
        args.input, args.leaderboard, args.rfecv_report, args.out, args.roc_dir, args.save_best
    ))


def _cmd_llm_compare(args) -> int:
    if args.stub:
        llm = {"llm_mode": "transcript", "llm_transcript": args.stub}
    else:
        endpoint = EndpointConfig.from_env(base_url=args.endpoint) if args.endpoint else EndpointConfig.from_env()
        llm = {"llm_mode": "endpoint", "llm_endpoint": endpoint}
    cfg = _config(args, llm_cases=args.limit, **llm)
    try:
        result = stage_llm_compare(
            cfg, args.cases, args.leaderboard, args.ml_model, args.out, max_in_flight=args.in_flight
        )
    except TransportError as exc:  # an endpoint failure, as run-all reports it
        raise PipelineError("llm_compare", str(exc)) from exc
    return _done(result)


def _cmd_run_all(args) -> int:
    base = read_json(args.config, PipelineConfig) if args.config else None
    cfg = _config(args, base, out_dir=args.out_dir)
    manifest = run_pipeline(cfg)
    ok = all(s["status"] in ("ok", "skipped") for s in manifest["stages"])
    log.info("pipeline %s; manifest at %s/manifest.json", "ok" if ok else "failed", cfg.out_dir)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rescue-triage", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="global seed override")
    parser.add_argument("--out-dir", default=None, help="artifact directory (run-all)")
    parser.add_argument("--config", default=None, help="config file for synth, ingest or run-all")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="merge and clean raw CSV exports")
    p.add_argument("csvs", nargs="+")
    p.add_argument("--key-column", default=None)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("wordcount", help="frequency count over note tokens")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--min-count", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wordcount)

    p = sub.add_parser("extract-features", help="keyword features + vitals per case")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--lexicon", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("select-features", help="relevance filter over text features")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("tune", help="grid/random hyperparameter search with CV")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--selection", required=True, help="select-features report naming the text features to use")
    p.add_argument("--mode", choices=["grid", "random"])
    p.add_argument("--budget", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--stratified", action=argparse.BooleanOptionalAction)
    p.add_argument("--split", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--rfecv-report", default=None, help="also run RFECV on the winner")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("evaluate", help="test-split metrics table per tuned model")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--leaderboard", required=True)
    p.add_argument("--rfecv-report", required=True, help="RFECV report naming the feature subset")
    p.add_argument("--out", required=True)
    p.add_argument("--roc-dir", default=None)
    p.add_argument("--save-best", default=None, help="save the leaderboard's CV winner here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("llm-compare", help="zero-shot LLM verdicts vs model predictions")
    p.add_argument("--cases", required=True)
    p.add_argument("--leaderboard", required=True, help="tune's leaderboard: the split, the seed and the winner")
    p.add_argument("--ml-model", required=True, help="the leaderboard's winner, as evaluate --save-best saves it")
    p.add_argument("--endpoint", default=None)
    p.add_argument("--stub", default=None, help="canned transcript JSON instead of a live endpoint")
    p.add_argument("--limit", type=int, help="number of test-split cases (llm_cases)")
    p.add_argument("--in-flight", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_llm_compare)

    p = sub.add_parser("run-all", help="execute the full pipeline")
    p.set_defaults(func=_cmd_run_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.config and args.command not in _READS_CONFIG:
        log.error("%s does not read --config; give its settings as options", args.command)
        return 2
    if args.seed is not None and args.command in _SEED_FROM_LEADERBOARD:
        log.error("%s takes its seed from leaderboard.json, where tune stored it; drop --seed", args.command)
        return 2
    try:
        return args.func(args)
    except PipelineError as exc:
        log.error("%s", exc)
        return 1
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
