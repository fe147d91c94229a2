"""Importing the package or its command line must not load scipy: the
kernels take the normal distribution from the standard library's
statistics.NormalDist and the t distribution from pure Python, and
scipy.stats alone costs about 0.8 s. Nor dataclasses; the value types that
validate their fields still do so."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pct_impact import BootstrapSpec, CiMethod, CiSeries, PublicationRecord

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


def test_cli_import_skips_dataclasses():
    # the value types are NamedTuples, which are cheaper to build at every
    # process start than dataclasses; numpy alone does not load the module
    assert _fresh_import(
        "import sys, numpy; a = 'dataclasses' in sys.modules; import pct_impact.cli; "
        "print(a, 'dataclasses' in sys.modules)"
    ) == "False False"


@pytest.mark.parametrize(
    "build, good, bad",
    [
        (PublicationRecord, ("p", "i", 2001, ("A",), 1, None), ("p", "i", 2001, ("A",), -1)),
        (BootstrapSpec, (10, 0, CiMethod.PERCENTILE), (0, 0)),
        (CiSeries, ("x", 1.0, 0.0, 2.0), ("x", 3.0, 0.0, 2.0)),
    ],
)
def test_validated_value_types(build, good, bad):
    value = build(*good)
    assert value == good and hash(value) == hash(good)  # a tuple of its fields
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], good[0])
    with pytest.raises(ValueError):
        build(*bad)
    with pytest.raises(ValueError):  # _replace builds through _make
        value._make(bad + good[len(bad):])
