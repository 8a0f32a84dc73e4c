import csv
import hashlib
import json
import multiprocessing
import os
import shlex
from dataclasses import asdict
from pathlib import Path

import pytest

from rescue_triage import learners, pipeline, tuning
from rescue_triage.cli import build_parser, main
from rescue_triage.featselect import RfecvResult, SelectionReport
from rescue_triage.ingest import IngestConfig
from rescue_triage.learners import ModelKind, TrainedModel
from rescue_triage.llm import EndpointConfig
from rescue_triage.pipeline import (
    PipelineConfig,
    PipelineError,
    run_pipeline,
    stage_llm_compare,
    stage_rfecv,
    stage_select_features,
    validate_config,
)
from rescue_triage.records import Dataset, FeatureRow, Label, asjson, from_dict, read_json, read_jsonl, write_json
from rescue_triage.synthgen import default_config


def small_pipeline_dict(out_dir, seed=7):
    gen = default_config(n_psychiatric=70, n_nonpsychiatric=60, seed=seed).to_dict()
    return {
        "seed": seed,
        "out_dir": str(out_dir),
        "generator": gen,
        "cv_folds": 2,
        "llm_cases": 4,
    }


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small full pipeline run shared by the assertions below."""
    out_dir = tmp_path_factory.mktemp("run")
    cfg = from_dict(PipelineConfig, small_pipeline_dict(out_dir))
    manifest = run_pipeline(cfg)
    return out_dir, manifest


class TestRunAll:
    def test_manifest_lists_eight_stages_all_ok(self, small_run):
        _, manifest = small_run
        names = [s["name"] for s in manifest["stages"]]
        assert names == [
            "synth", "wordcount", "extract_features", "select_features",
            "tune", "rfecv", "evaluate", "llm_compare",
        ]
        assert all(s["status"] == "ok" for s in manifest["stages"])

    def test_all_artifacts_present(self, small_run):
        out_dir, manifest = small_run
        for rel in manifest["artifacts"]:
            assert (out_dir / rel).exists()
        expected = {"corpus.jsonl", "truth.csv", "word_counts.csv", "features.jsonl",
                    "selection_report.json", "leaderboard.json", "rfecv_report.json",
                    "metrics_table.csv", "best_model.json", "llm_agreement.json"}
        assert expected <= {Path(rel).name for rel in manifest["artifacts"]}

    def test_manifest_is_written_once_per_run(self, tmp_path, monkeypatch):
        written = []
        real_write_json = pipeline.write_json
        def recording_write_json(path, obj):
            written.append(Path(path).name)
            real_write_json(path, obj)

        monkeypatch.setattr(pipeline, "write_json", recording_write_json)
        manifest = run_pipeline(from_dict(PipelineConfig, small_pipeline_dict(tmp_path)))
        assert written.count("manifest.json") == 1
        assert json.loads((tmp_path / "manifest.json").read_text()) == json.loads(json.dumps(manifest))

    def test_failed_stage_leaves_a_manifest_of_the_stages_run(self, tmp_path, monkeypatch):
        def fails(*args, **kwargs):
            raise ValueError("no subset left")

        monkeypatch.setattr(pipeline, "rfecv", fails)
        with pytest.raises(PipelineError, match="^stage 'rfecv': no subset left$"):
            run_pipeline(from_dict(PipelineConfig, small_pipeline_dict(tmp_path)))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [(s["name"], s["status"]) for s in manifest["stages"]] == [
            ("synth", "ok"), ("wordcount", "ok"), ("extract_features", "ok"), ("select_features", "ok"),
            ("tune", "ok"), ("rfecv", "failed"),
        ]
        assert manifest["stages"][-1]["error"] == "no subset left"
        assert set(manifest["artifacts"]) == {
            "corpus.jsonl", "truth.csv", "word_counts.csv", "features.jsonl", "selection_report.json",
            "leaderboard.json",
        }

    def test_manifest_records_llm_ambiguity_and_latency(self, small_run):
        out_dir, manifest = small_run
        extras = next(s for s in manifest["stages"] if s["name"] == "llm_compare")
        agreement = json.loads((out_dir / "llm_agreement.json").read_text())
        assert extras["ambiguous"] == len(agreement["ambiguous_cases"])
        assert extras["latency_s"] == {r["case_id"]: 0.0 for r in agreement["rows"]}  # the stub takes no time
        assert "latency" not in json.dumps(agreement)

    def test_manifest_records_seed_and_version(self, small_run):
        _, manifest = small_run
        assert manifest["seed"] == 7
        assert manifest["package_version"]

    def test_manifest_config_reloads_into_the_run_config(self, small_run):
        out_dir, _ = small_run
        stored = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert from_dict(PipelineConfig, stored) == from_dict(PipelineConfig, small_pipeline_dict(out_dir))

    def test_rerun_same_config_identical_artifact_hashes(self, small_run, tmp_path):
        out_dir, manifest = small_run
        cfg = from_dict(PipelineConfig, {**small_pipeline_dict(tmp_path / "again"), "out_dir": str(tmp_path / "again")})
        second = run_pipeline(cfg)
        assert second["artifacts"] == manifest["artifacts"]

    def test_missing_lexicon_fails_before_compute(self, tmp_path):
        cfg = PipelineConfig(out_dir=str(tmp_path / "x"), lexicon_path=str(tmp_path / "nope.txt"))
        with pytest.raises(PipelineError) as err:
            validate_config(cfg)
        assert err.value.stage == "config"
        assert not (tmp_path / "x").exists()

    def test_cli_exit_codes(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"out_dir": str(tmp_path / "o"), "lexicon_path": str(tmp_path / "missing.txt")}))
        assert main(["--config", str(cfg_path), "run-all"]) == 1


def desk_pipeline_dict(out_dir):
    """The seed-42 default corpus scaled to 200 records, with the default folds."""
    gen = default_config(n_psychiatric=108, n_nonpsychiatric=92, seed=42).to_dict()
    return {"seed": 42, "out_dir": str(out_dir), "generator": gen}


class TestStagePool:
    """tune, rfecv and evaluate run their fit jobs on one fork pool per stage,
    one worker per usable core; no artifact depends on the worker count."""

    @pytest.fixture(scope="class")
    def search_calls(self):
        """The kind of each ``pipeline.search`` call of the desk runs, per worker count."""
        return {}

    @pytest.fixture(scope="class")
    def desk_runs(self, tmp_path_factory, search_calls):
        runs = {}
        for workers in (1, 2):
            out = tmp_path_factory.mktemp(f"desk{workers}")
            calls = search_calls[workers] = []
            real_search = pipeline.search
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, "_usable_cores", lambda: workers)
                mp.setattr(pipeline, "search", lambda kind, *a, **k: calls.append(kind) or real_search(kind, *a, **k))
                runs[workers] = out, run_pipeline(from_dict(PipelineConfig, desk_pipeline_dict(out)))
            assert multiprocessing.active_children() == []
        return runs

    def test_artifacts_byte_identical_for_one_and_two_workers(self, desk_runs):
        (one, first), (two, second) = desk_runs[1], desk_runs[2]
        for name in ("leaderboard.json", "rfecv_report.json", "metrics_table.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        assert first["artifacts"] == second["artifacts"]

    @pytest.mark.parametrize("name,cls", [
        ("selection_report.json", SelectionReport), ("leaderboard.json", pipeline.Leaderboard),
        ("rfecv_report.json", RfecvResult), ("best_model.json", TrainedModel),
    ])
    def test_read_back_artifact_rewrites_byte_for_byte(self, desk_runs, name, cls, tmp_path):
        out, _ = desk_runs[1]
        write_json(tmp_path / name, read_json(out / name, cls))
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_every_feature_row_rewrites_byte_for_byte(self, desk_runs):
        out, _ = desk_runs[1]
        lines = (out / "features.jsonl").read_text(encoding="utf-8").splitlines()
        rows = list(read_jsonl(out / "features.jsonl", FeatureRow))
        assert len(rows) == len(lines) > 0
        for row, line in zip(rows, lines):
            assert json.dumps(asjson(row), ensure_ascii=False) == line

    def test_manifest_records_workers_and_search_seconds(self, desk_runs):
        for workers, (_, manifest) in desk_runs.items():
            stages = {s["name"]: s for s in manifest["stages"]}
            assert [stages[name]["workers"] for name in ("tune", "rfecv", "evaluate")] == [workers] * 3
            assert list(stages["tune"]["search_s"]) == [kind.value for kind in ModelKind]

    def test_one_search_call_per_kind_in_kind_order(self, desk_runs, search_calls):
        assert search_calls == {1: list(ModelKind), 2: list(ModelKind)}

    def test_search_seconds_fit_in_the_tune_stage(self, desk_runs):
        for _, manifest in desk_runs.values():
            tune = next(s for s in manifest["stages"] if s["name"] == "tune")
            assert all(seconds > 0 for seconds in tune["search_s"].values())
            assert sum(tune["search_s"].values()) <= tune["elapsed_s"]

    def test_dead_worker_fails_the_stage_and_leaves_no_process(self, tmp_path, monkeypatch, caplog):
        parent = os.getpid()
        real_train_folds = tuning.train_folds

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real_train_folds(*args)

        monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)
        monkeypatch.setattr(tuning, "train_folds", dies_in_a_worker)
        (tmp_path / "pipeline.json").write_text(json.dumps(small_pipeline_dict(tmp_path / "out")))
        assert main(["--config", str(tmp_path / "pipeline.json"), "run-all"]) == 1
        assert "stage 'tune': " in caplog.text
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    gen_cfg = d / "gen.json"
    gen_cfg.write_text(json.dumps(default_config(60, 50, seed=11).to_dict()))
    assert main(["--config", str(gen_cfg), "synth", "--out", str(d / "corpus.jsonl"),
                 "--truth", str(d / "truth.csv")]) == 0
    return d


class TestStageCommands:

    def test_synth_artifacts(self, work):
        lines = (work / "corpus.jsonl").read_text().strip().splitlines()
        assert len(lines) == 110
        truth = (work / "truth.csv").read_text().strip().splitlines()
        assert truth[0] == "case_id,label"
        assert len(truth) == 111

    def test_wordcount(self, work):
        assert main(["wordcount", "--in", str(work / "corpus.jsonl"),
                     "--min-count", "5", "--out", str(work / "wc.csv")]) == 0
        rows = (work / "wc.csv").read_text().strip().splitlines()
        assert rows[0] == "word,count"
        assert len(rows) > 1

    def test_extract_features(self, work):
        assert main(["extract-features", "--in", str(work / "corpus.jsonl"),
                     "--out", str(work / "features.jsonl")]) == 0
        rows = [json.loads(l) for l in (work / "features.jsonl").read_text().splitlines()]
        assert len(rows) == 110
        assert set(rows[0]["features"]) == {
            "gcs", "circulation_normal", "systolic_bp", "pulse_rhythm_regular",
            "respiratory_rate", "preillness", "intoxication", "alcoholism",
            "mental_abnormality", "psychiatric_symptoms",
        }

    @pytest.mark.parametrize("text,named", [
        ("[category:preillness]\nmania\nself-harm\n", ["'self-harm'"]),
        ("[category:preillness]\nmania\n[settings]\nnegation_window = x\n", ["line 4", "'x'"]),
    ], ids=["unmatchable_keyword", "non_integer_window"])
    def test_extract_features_rejects_bad_lexicon(self, work, tmp_path, caplog, text, named):
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text(text, encoding="utf-8")
        out = tmp_path / "features.jsonl"
        assert main(["extract-features", "--in", str(work / "corpus.jsonl"), "--lexicon", str(lexicon),
                     "--out", str(out)]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and all(part in errors[0] for part in [str(lexicon), *named]), errors
        assert not out.exists()

    def test_extract_features_counts_unlabeled_rows(self, work, tmp_path):
        lines = (work / "corpus.jsonl").read_text().splitlines()
        stripped = [json.dumps({k: v for k, v in json.loads(line).items() if k != "label"}) for line in lines[:20]]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(stripped + lines[20:]) + "\n")
        _, extra = pipeline.stage_extract_features(PipelineConfig(), corpus, tmp_path / "features.jsonl")
        assert extra == {"rows": 110, "skipped": 0, "unlabeled": 20}

    def test_synth_counts_rejected_ingest_rows(self, tmp_path):
        export = tmp_path / "export.csv"
        export.write_text(
            "case_id,systolic_bp,respiratory_rate,gcs,circulation,pulse_rhythm,notes,label\n"
            "k1,130,16,15,normal,false,ruhig,psychiatric\n"
            "k2,120,18,2,abnormal,true,unruhig,non_psychiatric\n"
        )
        cfg = PipelineConfig(input_csvs=(str(export),))
        _, extra = pipeline.stage_synth(cfg, tmp_path / "corpus.jsonl")
        assert extra == {"records": 1, "rejected": 1, "mode": "csv"}
        _, extra = pipeline.stage_synth(PipelineConfig(generator=default_config(6, 4)), tmp_path / "synth.jsonl")
        assert extra == {"records": 10, "rejected": 0, "mode": "synthetic"}

    def test_select_features(self, work):
        assert main(["select-features", "--in", str(work / "features.jsonl"),
                     "--threshold", "3.0", "--report", str(work / "sel.json")]) == 0
        report = json.loads((work / "sel.json").read_text())
        assert set(report["selected"]) | set(report["rejected"]) == {
            "preillness", "intoxication", "alcoholism", "mental_abnormality", "psychiatric_symptoms"
        }

    def test_config_rejected_by_stage_subcommand(self, work, caplog):
        cfg = work / "pipeline.json"
        cfg.write_text(json.dumps({"filter_threshold": 100.0}))
        assert main(["--config", str(cfg), "select-features", "--in", str(work / "features.jsonl"),
                     "--report", str(work / "sel_config.json")]) == 2
        assert not (work / "sel_config.json").exists()
        assert "select-features" in caplog.text

    def test_tune_evaluate_and_llm_compare(self, work):
        assert main(["--seed", "11", "tune", "--in", str(work / "features.jsonl"),
                     "--selection", str(work / "sel.json"),
                     "--mode", "grid", "--folds", "2",
                     "--out", str(work / "leaderboard.json"),
                     "--rfecv-report", str(work / "rfecv.json")]) == 0
        board = json.loads((work / "leaderboard.json").read_text())
        assert set(board["per_kind"]) == {"SVM", "RF", "XGB", "KNN", "NB", "LR", "MLPC"}
        assert json.loads((work / "rfecv.json").read_text())["best_features"]

        assert main(["evaluate", "--in", str(work / "features.jsonl"),
                     "--leaderboard", str(work / "leaderboard.json"),
                     "--rfecv-report", str(work / "rfecv.json"),
                     "--out", str(work / "table.csv"),
                     "--roc-dir", str(work / "roc"),
                     "--save-best", str(work / "model.json")]) == 0
        with open(work / "table.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "accuracy", "sensitivity", "specificity", "precision", "f1"]
        assert len(rows) == 8
        assert (work / "roc").is_dir() and list((work / "roc").glob("roc_*.csv"))

        transcript = work / "transcript.json"
        transcript.write_text(json.dumps(["true", "false", "true", "false"]))
        assert main(["llm-compare", "--cases", str(work / "features.jsonl"),
                     "--leaderboard", str(work / "leaderboard.json"),
                     "--ml-model", str(work / "model.json"),
                     "--stub", str(transcript), "--limit", "4",
                     "--out", str(work / "agree.json")]) == 0
        agree = json.loads((work / "agree.json").read_text())
        assert len(agree["rows"]) == 4
        assert len(agree["prompts"]) == 4

    def test_evaluate_and_llm_compare_use_the_split_tune_recorded(self, work, tmp_path, monkeypatch):
        features, board, rfecv, model = (str(work / "features.jsonl"), str(tmp_path / "leaderboard.json"),
                                         str(tmp_path / "rfecv.json"), str(tmp_path / "model.json"))
        assert main(["--seed", "11", "tune", "--in", features, "--selection", str(work / "sel.json"),
                     "--mode", "random", "--budget", "1", "--folds", "2", "--split", "0.5",
                     "--out", board, "--rfecv-report", rfecv]) == 0
        assert json.loads(Path(board).read_text())["split"] == {"ratio": 0.5, "stratified": True}
        rows = [r for r in read_jsonl(features, FeatureRow) if r.label is not Label.UNKNOWN]
        data = Dataset.from_vectors([r.features for r in rows], [r.label for r in rows], [r.case_id for r in rows])
        test_set = tuning.split_train_test(data, 0.5, 11)[1]

        scored = []
        real_evaluate_all = pipeline.evaluate_all
        monkeypatch.setattr(pipeline, "evaluate_all", lambda specs, train_set, test_set, **kw: scored.append(
            test_set.case_ids) or real_evaluate_all(specs, train_set, test_set, **kw))
        assert main(["evaluate", "--in", features, "--leaderboard", board, "--rfecv-report", rfecv,
                     "--out", str(tmp_path / "table.csv"), "--save-best", model]) == 0
        assert scored == [test_set.case_ids]

        (tmp_path / "answers.json").write_text(json.dumps(["true", "false", "true", "false"]))
        assert main(["llm-compare", "--cases", features, "--leaderboard", board, "--ml-model", model,
                     "--stub", str(tmp_path / "answers.json"), "--limit", "4",
                     "--out", str(tmp_path / "agree.json")]) == 0
        # the first two positives, then the first two negatives, of the 0.5 test side; with the same seed
        # the 0.8 test side is a subset of it, so the exact ids are what tell the two apart
        by_label = [[c for c, y in zip(test_set.case_ids, test_set.y) if y == label] for label in (1, 0)]
        case_ids = [r["case_id"] for r in json.loads((tmp_path / "agree.json").read_text())["rows"]]
        assert case_ids == by_label[0][:2] + by_label[1][:2]

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--in", "f.jsonl", "--leaderboard", "l.json", "--rfecv-report", "r.json", "--out", "t.csv",
         "--split", "0.5"],
        ["llm-compare", "--cases", "f.jsonl", "--leaderboard", "l.json", "--ml-model", "m.json", "--out", "a.json",
         "--stratified"],
    ], ids=["evaluate_split", "llm_compare_stratified"])
    def test_stages_after_tune_take_no_split_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_ingest_command(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text(
            "case_id,systolic_bp,respiratory_rate,gcs,circulation,pulse_rhythm,notes,label\n"
            'k1,130,16,15,Normal,FALSE,"patient ruhig",psychiatric\n'
            "k2,120,18,14,0,TRUE,alles ok,non_psychiatric\n"
            "k3,125,-3,13,Normal,FALSE,unauffaellig,non_psychiatric\n"
            "k4,122,15,14,Normal,FALSE,,non_psychiatric\n"
        )
        b = tmp_path / "b.csv"
        b.write_text("case_id,systolic_bp\nk1,142\n")
        cfg = tmp_path / "ingest.json"
        cfg.write_text(json.dumps({
            "key_column": "case_id",
            "column_types": {
                "systolic_bp": "numeric", "respiratory_rate": "numeric",
                "gcs": "numeric", "pulse_rhythm": "boolean", "notes": "text",
            },
        }))
        out = tmp_path / "records.jsonl"
        assert main(["--config", str(cfg), "ingest", str(a), str(b), "--out", str(out)]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 4
        k1 = next(r for r in rows if r["case_id"] == "k1")
        assert k1["vitals"]["systolic_bp"] == 130.0  # first-seen reading wins
        k3 = next(r for r in rows if r["case_id"] == "k3")
        assert k3["vitals"]["respiratory_rate"] > 0  # negative scrubbed then imputed


@pytest.fixture(scope="module")
def chained(tmp_path_factory):
    """run-all and the chained stage subcommands on one config whose relevance
    filter rejects text features; returns (run-all dir, manifest, chain dir)."""
    base = tmp_path_factory.mktemp("chained")
    run_dir, chain = base / "run", base / "chain"
    cfg_dict = {**small_pipeline_dict(run_dir), "filter_threshold": 5.0}
    (base / "pipeline.json").write_text(json.dumps(cfg_dict))
    assert main(["--config", str(base / "pipeline.json"), "run-all"]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())

    chain.mkdir()
    (base / "gen.json").write_text(json.dumps(cfg_dict["generator"]))
    c = {name: str(chain / name) for name in (
        "corpus.jsonl", "truth.csv", "word_counts.csv", "features.jsonl", "selection_report.json",
        "leaderboard.json", "rfecv_report.json", "metrics_table.csv", "roc", "best_model.json",
        "llm_agreement.json",
    )}
    (base / "answers.json").write_text(json.dumps(["true", "false", "true", "false"]))
    steps = [
        ["--config", str(base / "gen.json"), "synth", "--out", c["corpus.jsonl"], "--truth", c["truth.csv"]],
        ["wordcount", "--in", c["corpus.jsonl"], "--out", c["word_counts.csv"]],
        ["extract-features", "--in", c["corpus.jsonl"], "--out", c["features.jsonl"]],
        ["select-features", "--in", c["features.jsonl"], "--threshold", "5.0",
         "--report", c["selection_report.json"]],
        ["--seed", "7", "tune", "--in", c["features.jsonl"], "--selection", c["selection_report.json"],
         "--folds", "2", "--out", c["leaderboard.json"], "--rfecv-report", c["rfecv_report.json"]],
        ["evaluate", "--in", c["features.jsonl"], "--leaderboard", c["leaderboard.json"],
         "--rfecv-report", c["rfecv_report.json"], "--out", c["metrics_table.csv"],
         "--roc-dir", c["roc"], "--save-best", c["best_model.json"]],
        ["llm-compare", "--cases", c["features.jsonl"], "--leaderboard", c["leaderboard.json"],
         "--ml-model", c["best_model.json"], "--stub", str(base / "answers.json"), "--limit", "4",
         "--out", c["llm_agreement.json"]],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    return run_dir, manifest, chain


class TestChainedSubcommands:
    def test_filter_rejects_a_text_feature(self, chained):
        run_dir, _, _ = chained
        rejected = json.loads((run_dir / "selection_report.json").read_text())["rejected"]
        assert rejected
        first_step = json.loads((run_dir / "rfecv_report.json").read_text())["steps"][0]["features"]
        assert not set(rejected) & set(first_step)

    def test_chain_matches_run_all_artifacts(self, chained):
        run_dir, manifest, chain = chained
        compared = {rel: digest for rel, digest in manifest["artifacts"].items() if rel != "llm_agreement.json"}
        assert {"best_model.json", "leaderboard.json", "rfecv_report.json"} <= set(compared)
        for rel, digest in compared.items():
            assert hashlib.sha256((chain / rel).read_bytes()).hexdigest() == digest, rel

    @pytest.mark.parametrize("command", ["evaluate", "llm-compare"])
    def test_stages_after_tune_refuse_a_seed(self, chained, tmp_path, caplog, command):
        _, _, chain = chained
        assert main(["--seed", "8", *_COMMANDS[command](_chain_paths(chain), str(tmp_path / "out"))]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{command} takes its seed from leaderboard.json, where tune stored it; drop --seed"]
        assert list(tmp_path.iterdir()) == []

    def test_llm_compare_samples_run_alls_test_cases(self, chained):
        run_dir, _, chain = chained

        def cases(path):
            rows = json.loads(path.read_text())["rows"]
            return [(r["case_id"], r["ml_prediction"], r.get("reference")) for r in rows]

        assert len(cases(run_dir / "llm_agreement.json")) == 4
        assert cases(chain / "llm_agreement.json") == cases(run_dir / "llm_agreement.json")

    def test_llm_compare_refuses_a_model_that_is_not_the_leaderboards_winner(self, chained, tmp_path, caplog):
        _, _, chain = chained
        model = json.loads((chain / "best_model.json").read_text())
        model["spec"]["seed"] = 8
        (tmp_path / "model.json").write_text(json.dumps(model))
        argv = ["llm-compare", "--cases", str(chain / "features.jsonl"),
                "--leaderboard", str(chain / "leaderboard.json"),
                "--ml-model", str(tmp_path / "model.json"), "--stub", str(chain.parent / "answers.json"),
                "--out", str(tmp_path / "agree.json")]
        assert main(argv) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and "is not the winner of" in errors[0], errors
        assert str(tmp_path / "model.json") in errors[0] and str(chain / "leaderboard.json") in errors[0]
        assert not (tmp_path / "agree.json").exists()

    def test_rfecv_refuses_fold_accuracies_its_first_step_does_not_reproduce(self, chained, tmp_path):
        _, _, chain = chained
        board = json.loads((chain / "leaderboard.json").read_text())
        tuned = board["per_kind"][board["winner"]["spec"]["kind"]][0]
        first_step = json.loads((chain / "rfecv_report.json").read_text())["steps"][0]["fold_scores"]
        assert tuned["fold_accuracies"] == first_step
        swapped = first_step[::-1]  # the same mean, so the leaderboard itself stays consistent
        assert swapped != first_step
        tuned["fold_accuracies"] = swapped
        (tmp_path / "leaderboard.json").write_text(json.dumps(board))
        args = (chain / "features.jsonl", chain / "selection_report.json", tmp_path / "leaderboard.json")
        with pytest.raises(ValueError) as err:
            stage_rfecv(*args, tmp_path / "rfecv.json")
        assert str(tmp_path / "leaderboard.json") in str(err.value)
        assert str(swapped) in str(err.value) and str(first_step) in str(err.value)
        assert not (tmp_path / "rfecv.json").exists()

    @pytest.mark.parametrize("name,key", [
        ("features.jsonl", "inputs.features_sha256"), ("selection_report.json", "inputs.selection_sha256"),
    ])
    def test_rfecv_refuses_an_input_file_tune_did_not_read(self, chained, tmp_path, name, key):
        _, _, chain = chained
        paths = {n: chain / n for n in ("features.jsonl", "selection_report.json")}
        # the same rows plus a blank line, which the readers skip: only the digest tells the files apart
        paths[name] = tmp_path / name
        paths[name].write_text((chain / name).read_text() + "\n")
        with pytest.raises(ValueError) as err:
            stage_rfecv(paths["features.jsonl"], paths["selection_report.json"], chain / "leaderboard.json",
                        tmp_path / "rfecv.json")
        assert str(err.value) == (f"{paths[name]}: its SHA-256 differs from {key} in {chain / 'leaderboard.json'}; "
                                  "it is not the file tune read")
        assert not (tmp_path / "rfecv.json").exists()

    def test_leaderboard_holds_the_digests_of_tunes_inputs(self, chained):
        _, _, chain = chained
        inputs = json.loads((chain / "leaderboard.json").read_text())["inputs"]
        assert inputs == {name: hashlib.sha256((chain / path).read_bytes()).hexdigest() for name, path in (
            ("features_sha256", "features.jsonl"), ("selection_sha256", "selection_report.json"))}

    def test_evaluate_saves_its_own_fit_of_the_winner(self, chained, tmp_path, monkeypatch):
        """--save-best writes the winner's model of its evaluation job: each
        kind is fit exactly once, and the file is the chain's best model."""
        _, _, chain = chained
        fits = []
        real_train = learners.train

        def counting(spec, *args, **kwargs):
            fits.append(spec.kind)
            return real_train(spec, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_usable_cores", lambda: 1)  # fits in this process, where they are counted
        for owner in (learners, tuning, pipeline):
            monkeypatch.setattr(owner, "train", counting)
        argv = [*_COMMANDS["evaluate"](_chain_paths(chain), str(tmp_path / "table.csv")),
                "--save-best", str(tmp_path / "best_model.json")]
        assert main(argv) == 0
        assert sorted(kind.value for kind in fits) == sorted(kind.value for kind in ModelKind)
        assert (tmp_path / "best_model.json").read_bytes() == (chain / "best_model.json").read_bytes()
        assert (tmp_path / "table.csv").read_bytes() == (chain / "metrics_table.csv").read_bytes()

    def test_evaluate_refuses_to_save_a_winner_that_failed_to_train(self, chained, tmp_path, monkeypatch):
        _, _, chain = chained
        board = read_json(chain / "leaderboard.json", pipeline.Leaderboard)
        real_train = tuning.train

        def winner_fails(spec, *args, **kwargs):
            if spec == board.winner.spec:
                raise ValueError("no luck")
            return real_train(spec, *args, **kwargs)

        monkeypatch.setattr(pipeline, "_usable_cores", lambda: 1)
        monkeypatch.setattr(tuning, "train", winner_fails)
        with pytest.raises(ValueError) as err:
            pipeline.stage_evaluate(chain / "features.jsonl", chain / "leaderboard.json", chain / "rfecv_report.json",
                                    tmp_path / "table.csv", best_model_path=tmp_path / "best_model.json")
        assert str(err.value) == f"the CV winner {asjson(board.winner.spec)} failed to train: no luck"
        assert list(tmp_path.iterdir()) == [tmp_path / "table.csv"]  # the table, with the winner's row NA

    def test_rfecv_runs_on_as_many_folds_as_tune(self, chained):
        run_dir, _, _ = chained
        board = read_json(run_dir / "leaderboard.json", pipeline.Leaderboard)
        assert {len(c.fold_accuracies) for cs in board.per_kind.values() for c in cs} == {2}
        steps = read_json(run_dir / "rfecv_report.json", RfecvResult).steps
        assert {len(step.fold_scores) for step in steps} == {2}

    def test_llm_compare_through_an_endpoint_reports_latency_and_ambiguity(self, chained, stub_server, tmp_path):
        _, _, chain = chained
        url, state = stub_server
        state.responses = ["true", "no idea", "false", "true"]
        state.delay = 0.01
        cfg = PipelineConfig(seed=7, llm_cases=4, llm_mode="endpoint",
                             llm_endpoint=EndpointConfig(base_url=url, timeout=5.0, retries=0))
        _, extras = stage_llm_compare(cfg, chain / "features.jsonl", chain / "leaderboard.json",
                                      chain / "best_model.json", tmp_path / "agree.json")
        agreement = json.loads((tmp_path / "agree.json").read_text())
        assert len(state.requests) == 4
        assert extras["ambiguous"] == len(agreement["ambiguous_cases"]) == 1
        assert list(extras["latency_s"]) == [r["case_id"] for r in agreement["rows"]]
        assert all(0.01 <= s < 5.0 for s in extras["latency_s"].values())

    def test_llm_compare_endpoint_failure_exits_1_naming_the_stage(self, chained, stub_server, tmp_path, caplog):
        _, _, chain = chained
        url, state = stub_server
        state.reply = (404, b"model not found")
        argv = ["llm-compare", "--cases", str(chain / "features.jsonl"),
                "--leaderboard", str(chain / "leaderboard.json"),
                "--ml-model", str(chain / "best_model.json"), "--endpoint", url, "--limit", "2",
                "--out", str(tmp_path / "agree.json")]
        assert main(argv) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == ["stage 'llm_compare': generate endpoint returned 404: model not found"]
        assert not (tmp_path / "agree.json").exists()

    def test_evaluate_rejects_a_winner_spec_without_a_seed(self, chained, tmp_path, caplog):
        _, _, chain = chained
        board = json.loads((chain / "leaderboard.json").read_text())
        del board["winner"]["spec"]["seed"]
        (tmp_path / "leaderboard.json").write_text(json.dumps(board))
        argv = ["evaluate", "--in", str(chain / "features.jsonl"), "--leaderboard", str(tmp_path / "leaderboard.json"),
                "--rfecv-report", str(chain / "rfecv_report.json"), "--out", str(tmp_path / "table.csv")]
        assert main(argv) == 2
        assert "Leaderboard.winner: spec: missing keys ['seed']" in caplog.text
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("names,message", [
        (["gsc"], "RfecvResult: best_features: ['gsc', "),
        (["gcs", "gcs"], "RfecvResult: best_features: ['gcs', 'gcs', "),
    ])
    def test_evaluate_rejects_a_bad_rfecv_feature_name(self, chained, tmp_path, caplog, names, message):
        _, _, chain = chained
        report = json.loads((chain / "rfecv_report.json").read_text())
        report["best_features"] = [*names, *report["best_features"][1:]]
        (tmp_path / "rfecv_report.json").write_text(json.dumps(report))
        argv = ["evaluate", "--in", str(chain / "features.jsonl"), "--leaderboard", str(chain / "leaderboard.json"),
                "--rfecv-report", str(tmp_path / "rfecv_report.json"), "--out", str(tmp_path / "table.csv")]
        assert main(argv) == 2
        assert message in caplog.text
        assert not (tmp_path / "table.csv").exists()

    def test_integer_threshold_in_a_config_matches_select_features(self, chained, tmp_path):
        _, _, chain = chained
        (tmp_path / "pipeline.json").write_text(json.dumps({"filter_threshold": 5}))
        cfg = read_json(tmp_path / "pipeline.json", PipelineConfig)
        stage_select_features(cfg, chain / "features.jsonl", tmp_path / "from_config.json")
        assert main(["select-features", "--in", str(chain / "features.jsonl"), "--threshold", "5",
                     "--report", str(tmp_path / "from_cli.json")]) == 0
        assert (tmp_path / "from_config.json").read_bytes() == (tmp_path / "from_cli.json").read_bytes()


def _generator(drop=(), **extra):
    gen = {k: v for k, v in default_config(60, 50, seed=11).to_dict().items() if k not in drop}
    return {**gen, **extra}


CONFIG_MISUSE = {
    "generator_typo": ("synth", _generator(noise_rat=3.0), "GeneratorConfig: unknown keys ['noise_rat']"),
    "nested_generator_typo": ("run-all", {"generator": _generator(negation_probability=0.2)},
                              "PipelineConfig.generator: unknown keys ['negation_probability']"),
    "string_bool": ("run-all", {"stratified": "false"}, "PipelineConfig.stratified: expected bool, got str"),
    "unknown_key": ("run-all", {"cv_fold": 2}, "PipelineConfig: unknown keys ['cv_fold']"),
    "endpoint_typo": ("run-all", {"llm_endpoint": {"url": "http://localhost:11434"}},
                      "PipelineConfig.llm_endpoint: unknown keys ['url']"),
    "generator_without_vitals": ("run-all", {"generator": _generator(drop=("vitals",))},
                                 "PipelineConfig.generator: missing keys ['vitals']"),
    "search_mode_typo": ("run-all", {"search_mode": "grd"}, "PipelineConfig: search_mode: unknown search mode 'grd'"),
    "one_cv_fold": ("run-all", {"cv_folds": 1}, "PipelineConfig: cv_folds: folds must be >= 2"),
    "rfecv_folds_set": ("run-all", {"rfecv_folds": 3}, "PipelineConfig: unknown keys ['rfecv_folds']"),
    "split_ratio_of_one": ("run-all", {"split_ratio": 1.0}, "PipelineConfig: split_ratio must lie strictly between 0 and 1"),
    "negative_llm_cases": ("run-all", {"llm_cases": -1}, "PipelineConfig: llm_cases must be at least 1, got -1"),
    "negative_endpoint_retries": ("run-all", {"llm_endpoint": {"retries": -1}, "llm_mode": "endpoint"},
                                  "PipelineConfig.llm_endpoint: retries must be at least 0, got -1"),
    "schemeless_endpoint_url": ("run-all", {"llm_endpoint": {"base_url": "localhost:11434"}, "llm_mode": "endpoint"},
                                "PipelineConfig.llm_endpoint: base_url must be an http:// or https:// URL"),
    "column_type_typo": ("ingest", {"column_types": {"systolic_bp": "numerc", "gcs": "numeric"}},
                         "IngestConfig: column_types: unknown types {'systolic_bp': 'numerc'}"),
}


class TestStrictConfig:
    @pytest.mark.parametrize("case", sorted(CONFIG_MISUSE))
    def test_misuse_exits_2_naming_the_key_and_writes_nothing(self, case, tmp_path, caplog):
        command, config, message = CONFIG_MISUSE[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        outputs = {
            "synth": ["--out", str(tmp_path / "corpus.jsonl")],
            # the config is rejected before the (absent) export is read
            "ingest": [str(tmp_path / "export.csv"), "--out", str(tmp_path / "corpus.jsonl")],
        }.get(command, [])
        assert main(["--out-dir", str(tmp_path / "out"), "--config", str(cfg), command, *outputs]) == 2
        assert message in caplog.text
        assert list(tmp_path.iterdir()) == [cfg]

    def test_llm_compare_rejects_an_endpoint_without_a_scheme(self, chained, tmp_path, caplog):
        _, _, chain = chained
        argv = ["llm-compare", "--cases", str(chain / "features.jsonl"),
                "--leaderboard", str(chain / "leaderboard.json"),
                "--ml-model", str(chain / "best_model.json"), "--endpoint", "localhost:11434",
                "--out", str(tmp_path / "agree.json")]
        assert main(argv) == 2
        assert "base_url must be an http:// or https:// URL with a host, got 'localhost:11434'" in caplog.text
        assert not (tmp_path / "agree.json").exists()

    def test_config_round_trips_through_json(self):
        cfg = PipelineConfig(
            seed=3,
            generator=default_config(60, 50, seed=3),
            input_csvs=("a.csv", "b.csv"),
            ingest=IngestConfig(key_column="id", drop_columns=("geo",), column_types={"gcs": "numeric"}),
            filter_threshold=5.0,
            stratified=False,
            llm_mode="endpoint",
            llm_endpoint=EndpointConfig(base_url="http://localhost:1", retries=0, options={"temperature": 0.0}),
        )
        assert from_dict(PipelineConfig, json.loads(json.dumps(asdict(cfg)))) == cfg


def _edit_json(edit):
    def corrupt(text):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)
    return corrupt


def _edit_first_row(edit):
    def corrupt(text):
        first, *rest = text.splitlines()
        row = json.loads(first)
        edit(row)
        return "\n".join([json.dumps(row), *rest]) + "\n"
    return corrupt


def _replace(text):
    return lambda _: text


def _chain_paths(chain) -> dict[str, str]:
    """The chain's artifacts that the stage commands below read, and its transcript, by file name."""
    names = ("corpus.jsonl", "features.jsonl", "selection_report.json", "leaderboard.json", "rfecv_report.json",
             "best_model.json")
    return {**{name: str(chain / name) for name in names}, "answers.json": str(chain.parent / "answers.json")}

_COMMANDS = {
    "wordcount": lambda p, out: ["wordcount", "--in", p["corpus.jsonl"], "--out", out],
    "extract-features": lambda p, out: ["extract-features", "--in", p["corpus.jsonl"], "--out", out],
    "select-features": lambda p, out: ["select-features", "--in", p["features.jsonl"], "--report", out],
    "tune": lambda p, out: ["tune", "--in", p["features.jsonl"], "--selection", p["selection_report.json"],
                            "--folds", "2", "--out", out],
    "evaluate": lambda p, out: ["evaluate", "--in", p["features.jsonl"], "--leaderboard", p["leaderboard.json"],
                                "--rfecv-report", p["rfecv_report.json"], "--out", out],
    "llm-compare": lambda p, out: ["llm-compare", "--cases", p["features.jsonl"],
                                   "--leaderboard", p["leaderboard.json"], "--ml-model", p["best_model.json"],
                                   "--stub", p["answers.json"], "--limit", "4", "--out", out],
}

def _worst_kind(board: dict) -> str:
    return min(board["per_kind"], key=lambda kind: board["per_kind"][kind][0]["mean_accuracy"])


def _crown(board: dict, kind: str) -> None:
    """Make kind's best candidate the winner."""
    best = board["per_kind"][kind][0]
    board["winner"]["spec"].update(kind=kind, hyperparameters=best["hyperparameters"])
    board["winner"]["cv_accuracy"] = best["mean_accuracy"]


def _tie_with_winner(board: dict, kind: str) -> None:
    """Give kind's best candidate the winner's fold accuracies and mean."""
    winner = board["per_kind"][board["winner"]["spec"]["kind"]][0]
    board["per_kind"][kind][0].update(mean_accuracy=winner["mean_accuracy"],
                                      fold_accuracies=winner["fold_accuracies"])


def _listed_worst_first(board: dict, kind: str) -> None:
    """Kind's candidates in reverse, the new first one with its folds zeroed
    and the old best mean kept: its mean no longer matches its folds."""
    candidates = board["per_kind"][kind]
    best = candidates[0]["mean_accuracy"]
    candidates.reverse()
    candidates[0].update(mean_accuracy=best, fold_accuracies=[0.0] * len(candidates[0]["fold_accuracies"]))


def _swap_best_and_worst(board: dict) -> None:
    """The first kind whose best and worst means differ lists them swapped."""
    candidates = next(c for c in board["per_kind"].values() if c[0]["mean_accuracy"] > c[-1]["mean_accuracy"])
    candidates[0], candidates[-1] = candidates[-1], candidates[0]


def _drop_rows(count: int):
    """A features file without its first count rows: another file than the one tune read."""
    return lambda text: "".join(text.splitlines(keepends=True)[count:])


def _crown_worst_step(report: dict) -> None:
    """Give best_features the features of a step whose mean score is below the best."""
    worst = min(report["steps"], key=lambda step: step["mean_score"])
    assert worst["mean_score"] < max(step["mean_score"] for step in report["steps"])
    report["best_features"] = worst["features"]


# name -> (command, corrupted artifact, corruption of the chain's copy, what the error must say besides the file)
CORRUPTED_ARTIFACTS = {
    "corpus_unknown_key": ("wordcount", "corpus.jsonl", _edit_first_row(lambda r: r.update(lable=r.pop("label"))),
                           ":1: RescueRecord: unknown keys ['lable']"),
    "corpus_gcs_a_string": ("extract-features", "corpus.jsonl",
                            _edit_first_row(lambda r: r["vitals"].update(gcs=str(r["vitals"]["gcs"]))),
                            ":1: RescueRecord.vitals.gcs: expected int, got str"),
    "corpus_labelled_psych": ("extract-features", "corpus.jsonl", _edit_first_row(lambda r: r.update(label="psych")),
                              ":1: RescueRecord.label: 'psych' is not a valid Label"),
    "corpus_vitals_key_typo": ("wordcount", "corpus.jsonl",
                               _edit_first_row(lambda r: r["vitals"].update(gsc=r["vitals"].pop("gcs"))),
                               ":1: RescueRecord.vitals: unknown keys ['gsc']"),
    "leaderboard_without_per_kind": ("evaluate", "leaderboard.json", _edit_json(lambda d: d.pop("per_kind")),
                                     "Leaderboard: missing keys ['per_kind']"),
    "leaderboard_without_winner": ("evaluate", "leaderboard.json", _edit_json(lambda d: d.pop("winner")),
                                   "Leaderboard: missing keys ['winner']"),
    "kind_without_candidates": ("evaluate", "leaderboard.json", _edit_json(lambda d: d["per_kind"].update(RF=[])),
                                "per_kind.RF: no candidates"),
    "unknown_kind": ("evaluate", "leaderboard.json", _edit_json(lambda d: d["per_kind"].update(FOO=[])),
                     "Leaderboard.per_kind: 'FOO' is not a valid ModelKind"),
    "winner_kind_without_candidates": ("evaluate", "leaderboard.json",
                                       _edit_json(lambda d: d["per_kind"].pop(d["winner"]["spec"]["kind"])),
                                       "Leaderboard: per_kind: no candidates of the winner's kind"),
    "winner_hyperparameters_not_its_kinds_best": (
        "evaluate", "leaderboard.json",
        _edit_json(lambda d: d["winner"]["spec"].update(
            kind="LR", hyperparameters=d["per_kind"]["LR"][-1]["hyperparameters"])),
        "Leaderboard: winner.spec.hyperparameters: {'l2': "),
    "winner_cv_accuracy_not_its_mean": ("evaluate", "leaderboard.json",
                                        _edit_json(lambda d: d["winner"].update(cv_accuracy=0.123)),
                                        "Leaderboard: winner.cv_accuracy: 0.123 differs from per_kind."),
    "winner_kind_not_the_best": ("evaluate", "leaderboard.json", _edit_json(lambda d: _crown(d, _worst_kind(d))),
                                 "Leaderboard: winner.spec.kind: "),
    "winner_kind_tied_with_an_earlier_one": (
        "evaluate", "leaderboard.json", _edit_json(lambda d: _tie_with_winner(d, "SVM")),
        " is not SVM, the first kind in ModelKind order with the best mean accuracy "),
    "candidates_listed_worst_first": ("evaluate", "leaderboard.json",
                                      _edit_json(lambda d: _listed_worst_first(d, "LR")),
                                      "Leaderboard: per_kind.LR[0].mean_accuracy: "),
    "candidate_mean_not_its_folds_mean": (
        "evaluate", "leaderboard.json", _edit_json(lambda d: d["per_kind"]["NB"][0].update(mean_accuracy=0.123)),
        "Leaderboard: per_kind.NB[0].mean_accuracy: 0.123 is not "),
    "candidates_not_best_mean_first": ("evaluate", "leaderboard.json", _edit_json(_swap_best_and_worst),
                                       "; candidates come best mean first"),
    "leaderboard_without_split": ("evaluate", "leaderboard.json", _edit_json(lambda d: d.pop("split")),
                                  "Leaderboard: missing keys ['split']"),
    "ragged_fold_accuracies": ("evaluate", "leaderboard.json",
                               _edit_json(lambda d: d["per_kind"]["NB"][0]["fold_accuracies"].append(0.5)),
                               "Leaderboard: per_kind.NB[0].fold_accuracies: 3 entries, "
                               "where per_kind.SVM[0].fold_accuracies has 2"),
    "one_fold_accuracy": ("evaluate", "leaderboard.json",
                          _edit_json(lambda d: d["per_kind"]["LR"][1].update(fold_accuracies=[0.5])),
                          "Leaderboard: per_kind.LR[1].fold_accuracies: needs at least 2 entries, got 1"),
    "winner_spec_without_seed": ("evaluate", "leaderboard.json", _edit_json(lambda d: d["winner"]["spec"].pop("seed")),
                                 "Leaderboard.winner: spec: missing keys ['seed']"),
    "leaderboard_not_json": ("evaluate", "leaderboard.json", lambda text: text[:40], "line "),
    "candidate_bad_hyperparameter_value": (
        "evaluate", "leaderboard.json", _edit_json(lambda d: d["per_kind"]["LR"][0]["hyperparameters"].update(l2=-1.0)),
        "Leaderboard: per_kind.LR[0].hyperparameters: LR: bad value -1.0 for l2 (L2 strength)"),
    "candidate_unknown_hyperparameter": (
        "evaluate", "leaderboard.json",
        _edit_json(lambda d: d["per_kind"]["NB"][0]["hyperparameters"].update(var_flor=1e-9)),
        "Leaderboard: per_kind.NB[0].hyperparameters: NB: unknown hyperparameters ['var_flor']"),
    "candidate_missing_hyperparameter": (
        "evaluate", "leaderboard.json", _edit_json(lambda d: d["per_kind"]["SVM"][1]["hyperparameters"].pop("l2")),
        "Leaderboard: per_kind.SVM[1].hyperparameters: missing keys ['l2']"),
    "features_swapped_after_tune_evaluate": ("evaluate", "features.jsonl", _drop_rows(30),
                                             ": its SHA-256 differs from inputs.features_sha256 in "),
    "features_swapped_after_tune_llm_compare": ("llm-compare", "features.jsonl", _drop_rows(30),
                                                ": its SHA-256 differs from inputs.features_sha256 in "),
    "row_without_label": ("select-features", "features.jsonl", _edit_first_row(lambda r: r.pop("label")),
                          ":1: FeatureRow: missing keys ['label']"),
    "row_labelled_psych": ("select-features", "features.jsonl", _edit_first_row(lambda r: r.update(label="psych")),
                           ":1: FeatureRow.label: 'psych' is not a valid Label"),
    "gcs_not_a_number": ("select-features", "features.jsonl",
                         _edit_first_row(lambda r: r["features"].update(gcs="x")),
                         ":1: FeatureRow.features.gcs: expected float, got str 'x'"),
    "features_without_gcs": ("select-features", "features.jsonl",
                             _edit_first_row(lambda r: r["features"].pop("gcs")),
                             ":1: FeatureRow.features: missing keys ['gcs']"),
    "rfecv_without_best_features": ("evaluate", "rfecv_report.json", _edit_json(lambda d: d.pop("best_features")),
                                    "RfecvResult: missing keys ['best_features']"),
    "selection_without_selected": ("tune", "selection_report.json", _edit_json(lambda d: d.pop("selected")),
                                   "missing keys ['selected']"),
    "selection_selected_null": ("tune", "selection_report.json", _edit_json(lambda d: d.update(selected=None)),
                                "SelectionReport.selected: expected a list, got NoneType"),
    "selection_selected_dict": ("tune", "selection_report.json",
                                _edit_json(lambda d: d.update(selected={"psychiatric_symptoms": 1})),
                                "SelectionReport.selected: expected a list, got dict"),
    "selection_threshold_string": ("tune", "selection_report.json", _edit_json(lambda d: d.update(threshold="x")),
                                   "SelectionReport.threshold: expected float, got str 'x'"),
    "selection_score_an_int": ("tune", "selection_report.json", _edit_json(lambda d: d["scores"].__setitem__(0, 1)),
                               "SelectionReport.scores[0]: expected an object, got int"),
    "selection_unknown_feature": ("tune", "selection_report.json", _edit_json(lambda d: d.update(selected=["bogus"])),
                                  "unknown feature names ['bogus']"),
    "rfecv_unknown_feature": ("evaluate", "rfecv_report.json",
                              _edit_json(lambda d: d.update(best_features=["gcs", "bogus"])),
                              "RfecvResult: best_features: ['gcs', 'bogus'] are not steps["),
    "rfecv_no_best_features": ("evaluate", "rfecv_report.json", _edit_json(lambda d: d.update(best_features=[])),
                               "RfecvResult: best_features: [] are not steps["),
    "rfecv_best_features_of_a_worse_step": ("evaluate", "rfecv_report.json", _edit_json(_crown_worst_step),
                                            "RfecvResult: best_features: "),
    "rfecv_step_mean_not_its_folds_mean": ("evaluate", "rfecv_report.json",
                                           _edit_json(lambda d: d["steps"][1].update(mean_score=0.123)),
                                           "RfecvResult: steps[1].mean_score: 0.123 is not "),
    "rfecv_elimination_order_reversed": ("evaluate", "rfecv_report.json",
                                         _edit_json(lambda d: d["elimination_order"].reverse()),
                                         "RfecvResult: elimination_order[0]: "),
    "rfecv_elimination_order_cut": ("evaluate", "rfecv_report.json",
                                    _edit_json(lambda d: d["elimination_order"].pop()),
                                    "RfecvResult: elimination_order: "),
    "model_without_state_key": ("llm-compare", "best_model.json", _edit_json(lambda d: d["state"].pop("b1")),
                                "TrainedModel: state: missing keys ['b1']"),
    "model_unknown_state_key": ("llm-compare", "best_model.json", _edit_json(lambda d: d["state"].update(W3=[])),
                                "TrainedModel: state: unknown keys ['W3']"),
    "model_mean_cut_to_one": ("llm-compare", "best_model.json",
                              _edit_json(lambda d: d["standardizer"].update(mean=d["standardizer"]["mean"][:1])),
                              "TrainedModel: standardizer.mean: expected shape (7,), got (1,)"),
    "model_spec_without_seed": ("llm-compare", "best_model.json", _edit_json(lambda d: d["spec"].pop("seed")),
                                "TrainedModel: spec: missing keys ['seed']"),
    "model_format_version_1": ("llm-compare", "best_model.json", _edit_json(lambda d: d.update(format_version=1)),
                               "TrainedModel: format_version: got model format 1, can read only 2"),
    "model_arity_string": ("llm-compare", "best_model.json", _edit_json(lambda d: d.update(arity="7")),
                           "TrainedModel.arity: expected int, got str '7'"),
    "transcript_string": ("llm-compare", "answers.json", _replace(json.dumps("true false")),
                          "expected a list, got str"),
    "transcript_object": ("llm-compare", "answers.json", _replace(json.dumps({"true": "false"})),
                          "expected a list, got dict"),
    "transcript_number": ("llm-compare", "answers.json", _replace("42"), "expected a list, got int"),
    "transcript_too_short": ("llm-compare", "answers.json", _replace(json.dumps(["true"])),
                             "4 sampled cases need as many answers, got 1"),
}


class TestCorruptedArtifacts:
    @pytest.mark.parametrize("case", sorted(CORRUPTED_ARTIFACTS))
    def test_exits_2_with_one_error_naming_the_file_and_writes_nothing(self, case, chained, tmp_path, caplog, capfd):
        _, _, chain = chained
        command, artifact, corrupt, message = CORRUPTED_ARTIFACTS[case]
        source = chain / artifact
        bad = tmp_path / artifact
        bad.write_text(corrupt(source.read_text() if source.exists() else ""))
        assert main(_COMMANDS[command]({**_chain_paths(chain), artifact: str(bad)}, str(tmp_path / "out"))) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and str(bad) in errors[0] and message in errors[0], errors
        if "inputs." in message:
            assert errors[0].endswith(f" in {chain / 'leaderboard.json'}; it is not the file tune read"), errors
        assert "Traceback" not in "".join(capfd.readouterr())
        assert list(tmp_path.iterdir()) == [bad]


def _readme_cli_commands() -> list[str]:
    """The rescue-triage command lines of README's CLI block, continuations
    joined and comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("rescue-triage ")]


def test_readme_cli_commands_parse():
    commands = set()
    for line in _readme_cli_commands():
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert args.seed is None or args.command not in ("evaluate", "llm-compare"), line
        commands.add(args.command)
    assert commands == {"run-all", "synth", "ingest", "wordcount", "extract-features", "select-features", "tune",
                        "evaluate", "llm-compare"}
