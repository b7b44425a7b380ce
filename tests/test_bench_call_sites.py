"""The benchmark's tracer wraps package functions at named module attributes.

``bench/tracing.py`` looks each (module, attribute) pair of ``CALL_SITES`` up
only when a traced benchmark run installs it; a refactor that drops or
renames one of them would otherwise fail there alone.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def call_sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CALL_SITES


@pytest.mark.parametrize("module, attr, span", call_sites())
def test_call_site_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} ({span})"
