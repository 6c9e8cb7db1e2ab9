"""The benchmark's tracer wraps package functions by module and name; every
one of them must still exist, or the traced pass of the benchmark breaks.
Its trial count reads what the suites return, so a suite run over several
quantifiers must still be counted trial by trial."""
import importlib
import importlib.util
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
