"""The benchmark's trace (perfbench/tracer.py) wraps pct_impact functions by
name; a renamed or deleted function would break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pct_impact.tables import ReportTable

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    # leave no bytecode cache behind in perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    for table in (tracer.SPANNED, tracer.COUNTED):
        for short, names in table.items():
            module = importlib.import_module(f"pct_impact.{short}")
            missing = [n for n in names if not callable(getattr(module, n, None))]
            assert not missing, f"pct_impact.{short} lacks {missing}"


def test_render_methods_exist(tracer):
    missing = [m for m in tracer.RENDER_METHODS if not callable(getattr(ReportTable, m, None))]
    assert not missing, f"ReportTable lacks {missing}"
