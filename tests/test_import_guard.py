"""Importing the command line must not load scipy.stats (about 0.8 s)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_skips_scipy_stats():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, pct_impact.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "False"
