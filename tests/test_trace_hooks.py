"""The benchmark's per-layer tracer (perfbench/trace.py) rebinds library names
given as strings; a library change that drops one of them would only show as
a failed traced run.  These tests resolve every name it rebinds."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_trace", Path(__file__).resolve().parents[1] / "perfbench" / "trace.py")
trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace)


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _ in trace.HOOKS],
                         ids=[f"{m.__name__}.{n}" for m, n, _ in trace.HOOKS])
def test_hooked_name_is_callable(module, name):
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize("module", trace.QUAD_CALLERS, ids=lambda m: m.__name__)
def test_quad_caller_has_integrate_quad(module):
    assert callable(getattr(getattr(module, "integrate", None), "quad", None))
