"""Tests of the benchmark itself: statistics, spans, checks and the smoke run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(30, 0, -1)]
    value, pct, beyond = run.tail(samples)
    assert (value, beyond) == (20.0, 10)
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert sum(s > value for s in samples) == 10


def test_tail_falls_back_to_the_maximum_below_twenty_one_samples():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "op", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 1.5, "end": 2.5, "parent": 1},
        {"name": "a", "start": 5.0, "end": 6.0, "parent": 0},
    ]
    got = tracing.totals(spans)
    assert got["op"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert got["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert got["b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


def test_tracer_wraps_public_calls_and_restores_them(pkg, tmp_path):
    original_eigh = np.linalg.eigh
    original_eris = pkg.diagnostics.eris
    inp = workloads.Input(tmp_path, "small", "cosine", 40, 4, 5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run_influence(pkg, inp, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert np.linalg.eigh is original_eigh
    assert pkg.diagnostics.eris is original_eris
    calls = tracing.totals(tracer.spans)
    assert calls["diagnostics.influence_report"]["calls"] == 1
    assert calls["diagnostics.eris"]["calls"] == 2
    assert calls["ingest.ingest_csv"]["calls"] == 1
    assert tracer.counts["ingest.rows"] == 40
    assert tracer.counts["linalg.eigh_matrices"] >= tracer.counts["linalg.eigh_calls"] > 40
    assert tracer.counts["serialize.bytes_out"] == sum(
        (tmp_path / "out" / f).stat().st_size for f in ("records.csv", "correlations.csv", "report.json"))


def test_eigh_counter_counts_the_matrices_of_a_batched_call():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        np.linalg.eigh(np.broadcast_to(np.eye(3), (5, 3, 3)))
    finally:
        tracer.uninstall()
    assert (tracer.counts["linalg.eigh_calls"], tracer.counts["linalg.eigh_matrices"]) == (1, 5)


@pytest.fixture(scope="module")
def pinned_report(pkg, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pinned")
    inp = workloads.pinned_hitters(workdir)
    workloads.run_influence(pkg, inp, workdir / "out")
    rows = workloads.sampled_rows(263, workloads.PINNED_SEED)
    ref = reference.influence(inp.y_seen, inp.x, workloads.K, rows)
    return workloads.read_report(workdir / "out", 263), ref


def test_pinned_report_matches_the_reference_and_the_stored_values(pinned_report):
    rep, ref = pinned_report
    assert workloads.check_report(rep, ref) == 0
    workloads.check_pinned(workloads.pinned_view(rep), workloads.load_pinned()["hitters"], "pinned")


@pytest.mark.parametrize("measure", ["sris", "eris", "hris"])
def test_checks_reject_a_changed_value(pinned_report, measure):
    rep, ref = pinned_report
    bad = {**rep, measure: {v: a.copy() for v, a in rep[measure].items()}}
    bad[measure]["r"][ref["rows"][0], 1] *= 1.0 + 1e-4
    with pytest.raises(workloads.CheckFailed):
        workloads.check_report(bad, ref)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_pinned(workloads.pinned_view(bad), workloads.load_pinned()["hitters"], "pinned")


def test_checks_reject_a_nan_in_an_unflagged_record(pinned_report):
    rep, ref = pinned_report
    bad = {**rep, "hris": {v: a.copy() for v, a in rep["hris"].items()}}
    bad["hris"]["y"][7, 0] = np.nan
    with pytest.raises(workloads.CheckFailed, match="non-finite hris"):
        workloads.check_report(bad, ref)


def test_smoke_runs_every_workload_with_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in run.WORKLOADS:
        assert f"perfbench {name}: correct=True" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "influence_tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: "s" for name in run.LAYER_TIMES}
    expected.update(run.LAYER_COUNTS)
    expected.update({"diagnostics.flagged_obs": "count", "trace.overhead_s": "s",
                     **{f"cli.{c}_s": "s" for c in ("interpreter", "import", *run.CLI_COMMANDS)}})
    assert layer == expected
