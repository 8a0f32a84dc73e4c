"""Toy-size tests of the benchmark: each workload, the runner, the tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, run, workloads
from perfbench.trace import Tracer
from rescue_triage import learners, tuning

from conftest import ROOT


def _run_workload(wl, seed, n, tmp_path, passes=1):
    work = tmp_path / "setup"
    work.mkdir()
    inputs = wl.setup(seed, n, work)
    outs = []
    for i in range(passes):
        out = tmp_path / f"pass{i}"
        out.mkdir()
        outs.append(wl.run(inputs, out))
    return inputs, outs


def test_desk_runall_tiny(tmp_path):
    wl = workloads.WORKLOADS["desk_runall"]
    inputs, (out,) = _run_workload(wl, 3, 60, tmp_path)
    assert wl.check(inputs, out) == []
    assert len(out["manifest"]["artifacts"]) >= 8


def test_csv_prep_tiny(tmp_path):
    wl = workloads.WORKLOADS["csv_prep_10k"]
    inputs, (first, second) = _run_workload(wl, 5, 600, tmp_path, passes=2)
    assert wl.check(inputs, first) == []
    assert wl.verify(inputs, first) == []
    assert wl.fingerprint(first) == wl.fingerprint(second)
    # the GCS replacement defect rejects rows; they are counted, not hidden
    assert first["rejected"] > 0
    assert len(first["ids"]) + first["rejected"] == 600


def test_csv_export_same_seed_same_bytes(tmp_path):
    paths = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        paths.append(workloads.csv_setup(9, 200, tmp_path / name)["paths"])
    for p, q in zip(*paths):
        assert open(p, "rb").read() == open(q, "rb").read()


def test_learners_tiny(tmp_path):
    wl = workloads.WORKLOADS["learners_4k"]
    inputs, (first, second) = _run_workload(wl, 2, 2000, tmp_path, passes=2)
    assert wl.check(inputs, first) == []
    assert set(first["scores"]) == {k.value for k in learners.ModelKind}
    assert wl.fingerprint(first) == wl.fingerprint(second)


def test_check_table_rejects_bad_shape():
    good = workloads.TABLE_HEADER + "\n" + "\n".join(
        f"{name},{90 - i}.00,NA,50.00,50.00,50.00" for i, name in enumerate(sorted(workloads.MODEL_NAMES))
    )
    assert workloads.check_table(good) == []
    assert workloads.check_table(good.replace("90.00", "90.0"))
    assert workloads.check_table(good.replace("model,", "name,"))
    lines = good.splitlines()
    assert workloads.check_table("\n".join([lines[0], lines[2], lines[1]] + lines[3:]))


def test_traced_pass_identical_and_wrappers_restored(tmp_path):
    wl = workloads.WORKLOADS["learners_4k"]
    inputs, (untraced,) = _run_workload(wl, 4, 600, tmp_path)
    before = tuning.train
    tracer = Tracer()
    originals = layers.install(tracer)
    assert tuning.train is not before
    try:
        tracer.run = 1
        (tmp_path / "traced").mkdir()
        traced = wl.run(inputs, tmp_path / "traced")
    finally:
        tracer.restore()
    assert tuning.train is before
    assert layers.unrestored(originals) == []
    assert wl.fingerprint(traced) == wl.fingerprint(untraced)
    values = layers.layer_metrics(tracer, {}, {}, 0.0)
    assert values["learners.train.RF.calls"] == 1
    assert values["learners.score.KNN.calls"] == 1
    assert values["learners.tree.grown"] == 100 + 200
    assert values["learners.tree.nodes"] > values["learners.tree.grown"]
    assert values["self_s.learners"] > 0
    assert values["ingest.load_csv.s"] == 0


def test_span_nesting_self_time_and_restore_after_error():
    class Model:
        def score(self, x):
            return x

    mod = type(sys)("toy")
    mod.inner = lambda: 1
    mod.outer = lambda: mod.inner() + Model().score(1)
    mod.boom = lambda: 1 / 0
    plain = dict(vars(mod)), Model.__dict__["score"]
    tracer = Tracer()
    tracer.wrap(mod, "inner", "toy.inner", counts=lambda r: {"toy.n": r})
    tracer.wrap(mod, "outer", "toy.outer")
    tracer.wrap(mod, "boom", "toy.boom")
    tracer.wrap(Model, "score", "toy.score", rows=lambda self, x: x)
    assert mod.outer() == 2
    with pytest.raises(ZeroDivisionError):
        mod.boom()
    tracer.restore()
    assert dict(vars(mod)) == plain[0] and Model.__dict__["score"] is plain[1]
    outer, inner, score, boom = tracer.spans
    assert score.parent == 0 and score.rows == 1
    assert inner.parent == 0 and outer.parent is None and boom.parent is None
    assert inner.counts == {"toy.n": 1}
    assert boom.end >= boom.start
    self_s = tracer.self_seconds(run=0)
    assert self_s["toy.outer"] == pytest.approx(outer.seconds - inner.seconds - score.seconds)


def test_stage_coverage_assigns_glue_to_stage_in_progress():
    tracer = Tracer()
    spans = [
        ("pipeline.run_pipeline", 0.0, 10.0, None),
        ("synthgen.generate", 0.0, 0.9, 0),
        ("records.write_jsonl", 0.9, 1.0, 0),
        ("tuning.search.RF", 1.0, 6.0, 0),
        ("tuning.evaluate_all", 6.0, 8.0, 0),
        ("learners.train.XGB", 8.0, 9.0, 0),
    ]
    from perfbench.trace import Span

    tracer.spans = [Span(n, s, e, p, 1) for n, s, e, p in spans]
    manifest = {"stages": [
        {"name": "synth", "elapsed_s": 1.0}, {"name": "tune", "elapsed_s": 5.0}, {"name": "evaluate", "elapsed_s": 3.3},
    ]}
    cov = layers.stage_coverage(tracer, manifest)
    assert cov["synth"] == pytest.approx(1.0)
    assert cov["tune"] == pytest.approx(1.0)
    assert cov["evaluate"] == pytest.approx(3.0 / 3.3)
    assert layers.coverage_problems(cov, manifest) == ["spans cover 0.909 of stage evaluate (3.3 s)"]


def test_runner_prints_every_metric(tmp_path, monkeypatch, capsys):
    small = dict(workloads.WORKLOADS)
    small["csv_prep_10k"] = dataclasses.replace(small["csv_prep_10k"], records=600)
    monkeypatch.setattr(workloads, "WORKLOADS", small)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        assert run.main(["--workload", "csv_prep_10k", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in names}
        assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in names)
    assert not (ROOT / ".bench_out").exists()


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learners_4k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
