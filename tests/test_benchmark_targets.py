"""The benchmark's tracer wraps package functions by module and name; every
one of them must still exist, or the traced pass of the benchmark breaks.
Its trial count reads what the suites return, so a suite run over several
quantifiers must still be counted trial by trial. The benchmark's gate
compares default-seed reports with its committed reference, so every
workload is run against that reference here too."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer_module = _tracer_module()
TARGETS = tracer_module.TARGETS


@pytest.mark.parametrize("span, module, name", TARGETS, ids=[f"{m}.{n}" for _, m, n in TARGETS])
def test_tracer_target_resolves(span, module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("suite", ["dpi", "invariance"])
def test_tracer_counts_every_trial_of_a_multi_quantifier_suite(suite, capsys):
    from divergelab import cli

    trials = 3
    argv = ["suite", suite, "--q", "trace_dist", "--q", "hs_dist", "--q", "trace_dist"]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = cli.main(argv + ["--trials", str(trials), "--seed", "5"])
    finally:
        tracer.uninstall()
    reports = capsys.readouterr().out.count("suite=")
    assert code == 0
    assert reports == (3 if suite == "dpi" else 8)
    left = [
        f"{m.__name__}.{k}"
        for m in tracer_module.divergelab_modules()
        for k, v in vars(m).items()
        if hasattr(v, "_perfbench_span")
    ]
    assert left == []
    assert tracer.harness_trials == trials * reports
    assert tracer.layer_metrics(0)["sampling.derive_rng.calls"] == trials


def _gate_outcomes(workload: str, tmp_path) -> list:
    """The benchmark gate's verdict on every call of ``workload`` at the
    default seed, its reference comparison at 1e-12 included."""
    from divergelab import cli

    # gate imports workloads by name from its own directory; both names and
    # the path entry are put back afterwards.
    names = ("gate", "workloads")
    saved_modules = {name: sys.modules[name] for name in names if name in sys.modules}
    saved_path = list(sys.path)
    sys.path.insert(0, str(TRACER.parent))
    try:
        gate = importlib.import_module("gate")
        workloads = importlib.import_module("workloads")
        reference = gate.load_reference(workload)
        assert reference is not None
        outcomes = []
        for i, call in enumerate(workloads.build(workload, workloads.DEFAULT_SEED)):
            out = tmp_path / f"call{i}.json"
            code = cli.main(list(call.argv) + ["--out", str(out)])
            outcomes.append(gate.check_call(call, code, None, out.read_text(), reference))
    finally:
        sys.path[:] = saved_path
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved_modules)
    return outcomes


def test_lowdim_workload_matches_the_benchmark_reference(tmp_path, capsys):
    """Every suites_lowdim call at the default seed passes the benchmark's gate,
    its reference comparison at 1e-12 included. Each report is written as one
    line: an indented report needs json's pure-Python encoder, a large share
    of this workload's time."""
    outcomes = _gate_outcomes("suites_lowdim", tmp_path)
    capsys.readouterr()
    assert {o.call.argv[1]: o.problems for o in outcomes if o.problems} == {}
    assert sum(o.attempted for o in outcomes) == 44
    texts = [path.read_text() for path in sorted(tmp_path.glob("call*.json"))]
    assert len(texts) == len(outcomes)
    assert [t.count("\n") for t in texts] == [1] * len(texts)
    assert all(t.endswith("}\n") for t in texts)


def test_optimizer_workload_matches_the_benchmark_reference(tmp_path, capsys):
    """Every optimizer search at the default seed passes the benchmark's gate:
    the reference holds each search's value, evaluation count and restarts,
    so this pins the search's iterates bit for bit; the evaluation counts
    are checked exactly as well."""
    outcomes = _gate_outcomes("optimizer", tmp_path)
    capsys.readouterr()
    assert len(outcomes) == 4
    assert [o.problems for o in outcomes if o.problems] == []
    assert sum(o.attempted for o in outcomes) == 7
    evaluations = [r["evaluations"] for o in outcomes for r in o.records]
    assert evaluations == [1436, 1772, 6051, 4781, 9255, 10983, 12080]


def test_highdim_workload_matches_the_benchmark_reference(tmp_path, capsys):
    """The suites_highdim call at the default seed (dpi over all nine
    quantifiers at d = 32-64) passes the benchmark's gate, its reference
    comparison at 1e-12 included."""
    outcomes = _gate_outcomes("suites_highdim", tmp_path)
    capsys.readouterr()
    assert len(outcomes) == 1
    assert [o.problems for o in outcomes if o.problems] == []
    assert sum(o.attempted for o in outcomes) == 9
