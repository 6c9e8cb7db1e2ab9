"""The benchmark's tracer wraps package functions by module and name; every
one of them must still exist, or the traced pass of the benchmark breaks."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("span, module, name", TARGETS, ids=[f"{m}.{n}" for _, m, n in TARGETS])
def test_tracer_target_resolves(span, module, name):
    assert callable(getattr(importlib.import_module(module), name))
