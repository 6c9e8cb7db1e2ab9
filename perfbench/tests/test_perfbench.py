"""Tests of the benchmark itself: its output contract, the tracer's spans and
wrapping, and negative controls for the correctness gate.

    python3 -m pytest perfbench/tests -q
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import tracer
import worker
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--seed", "7", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_benchmark_json_metrics(workload):
    plain = _result(_run_bench(ROOT, "--workload", workload, "--trace", "0", "--smoke"))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = _result(_run_bench(ROOT, "--workload", workload, "--trace", "1", "--smoke"))
    assert traced["correct"] and traced["failed"] == 0
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["trace.overhead_ratio"] > 0 and metrics["trace.spans"] > 0
    if workload == "optimizer":
        assert metrics["channels.apply.calls"] == metrics["channels.construct.calls"] == 0
        assert metrics["search.objective.calls"] > 0 and metrics["search.restarts"] > 0
        assert metrics["harness.trials"] == 0
    else:
        assert metrics["search.objective.calls"] == metrics["search.restarts"] == 0
        assert metrics["channels.apply.calls"] > 0 and metrics["harness.trials"] > 0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "optimizer", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def traced_pass(tmp_path, request):
    tr = tracer.Tracer()
    tr.install()
    try:
        runs = worker.run_pass(workloads.build(request.param, 7, smoke=True), tmp_path)
    finally:
        tr.uninstall()
    return tr, runs


@pytest.mark.parametrize("traced_pass", ["suites_lowdim", "optimizer"], indirect=True)
def test_spans_nest_and_self_times_add_up(traced_pass):
    tr, runs = traced_pass
    a = tr.arrays()
    nested = a["parent"] >= 0
    parent = a["parent"][nested]
    assert (a["start"][nested] >= a["start"][parent]).all()
    assert (a["end"][nested] <= a["end"][parent]).all()
    assert (a["end"] >= a["start"]).all()
    assert (a["self"] >= -1e-9).all()
    wall_s = sum(r.seconds for r in runs)
    assert a["self"].sum() <= wall_s
    assert tr.names[a["name"][0]] == "cli.main"


@pytest.mark.parametrize("traced_pass", ["optimizer"], indirect=True)
def test_search_counts_match_the_records(traced_pass):
    tr, runs = traced_pass
    summary = worker.gate_pass(runs, None)
    records = summary["records"]
    assert tr.objective_calls == sum(r["evaluations"] for r in records)
    assert tr.restarts == sum(r["restarts_used"] for r in records)
    assert 0 < tr.improvements < tr.objective_calls


def test_every_binding_is_wrapped_and_restored():
    import divergelab.channels
    import divergelab.harness
    import divergelab.qdiv
    import divergelab.search
    import divergelab.states

    bindings = [
        (divergelab.harness, "apply"),
        (divergelab.channels, "validate_density"),
        (divergelab.qdiv, "validate_density"),
        (divergelab.search, "validate_density"),
        (divergelab.harness, "optimal_pair_search"),
        (divergelab.states, "validate_density"),
    ]
    originals = [getattr(m, name) for m, name in bindings]
    tr = tracer.Tracer()
    tr.install()
    try:
        for m, name in bindings:
            assert hasattr(getattr(m, name), "_perfbench_span"), f"{m.__name__}.{name}"
        wanted = {id(fn): fn for _, _, fn in tr._patched}
        assert not tracer._bindings(tracer.divergelab_modules(), wanted)
    finally:
        tr.uninstall()
    assert [getattr(m, name) for m, name in bindings] == originals


def test_calibration_kernel_calls_no_divergelab_code():
    tr = tracer.Tracer()
    tr.install()
    try:
        assert worker.calibration_s() > 0
    finally:
        tr.uninstall()
    assert len(tr.span_name) == 0


def test_failed_exit_code_fails_every_operation_of_the_call():
    call = workloads.build("optimizer", 7, smoke=True)[0]
    outcome = gate.check_call(call, 1, None, None)
    assert outcome.failed == outcome.attempted == len(call.ops)


def _fail_frac(summary: dict) -> float:
    return summary["failed"] / summary["attempted"]


def test_negative_control_perturbed_reference(tmp_path):
    seed = workloads.DEFAULT_SEED
    reference = gate.load_reference("suites_highdim")
    runs = worker.run_pass(workloads.build("suites_highdim", seed), tmp_path)
    assert _fail_frac(worker.gate_pass(runs, reference)) == 0.0

    key = next(iter(reference))
    values = list(reference[key])
    i = next(i for i, v in enumerate(values) if isinstance(v, float) and v != 0.0)
    values[i] *= 1.0 + 1e-9
    perturbed = {**reference, key: values}
    assert _fail_frac(worker.gate_pass(runs, perturbed)) > 0.0


def test_negative_control_nan_margin(tmp_path, monkeypatch):
    import divergelab.harness as harness

    finish = harness._finish

    def nan_last_margin(suite, q_label, margins, details, *args, **kwargs):
        margins = margins[:-1] + [math.nan]
        if "margin" in details[-1]:
            details[-1]["margin"] = math.nan
        return finish(suite, q_label, margins, details, *args, **kwargs)

    monkeypatch.setattr(harness, "_finish", nan_last_margin)
    calls = workloads.build("suites_lowdim", 7, smoke=True)[:1]
    runs = worker.run_pass(calls, tmp_path)
    assert runs[0].exit_code == 0
    records = json.loads(runs[0].report_text)["results"]
    # The program's own verdict is clean: NaN is not counted as a violation.
    assert all(r["violations"] == 0 and math.isfinite(r["worst_margin"]) for r in records)
    assert _fail_frac(worker.gate_pass(runs, None)) > 0.0
