"""Every call site the benchmark's tracer wraps still exists in pdmg.

``perfbench/tracing.py`` wraps pdmg functions by module path and leaves a
metric out when its function is gone, so a rename would silently blank a
per-layer metric.  This reads the tracer's site tables; it changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name, path", sorted(tracing.API_SITES.values()))
def test_api_site_is_callable(name, path):
    module, _, attr = path.rpartition(".")
    assert callable(getattr(importlib.import_module(module), attr, None)), name


@pytest.mark.parametrize("name, module, attr", tracing.MODULE_SITES)
def test_module_site_is_callable(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), name
