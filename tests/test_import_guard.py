"""Importing the package or its command line must not load scipy: the
kernels are pure Python, and scipy.stats alone costs about 0.8 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_import(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return result.stdout.strip()


def test_cli_import_skips_scipy_stats():
    assert _fresh_import(
        "import sys, pct_impact.cli; print('scipy.stats' in sys.modules)"
    ) == "False"


@pytest.mark.parametrize("module", ["pct_impact", "pct_impact.cli"])
def test_import_loads_no_scipy(module):
    assert _fresh_import(
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    ) == "[]"
