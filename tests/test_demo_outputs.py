"""Golden test: the CLI demo reproduces the committed demos/output/ files.

Runs the commands listed in demos/05_report_cli.py through cli.main into a
temporary directory. CSV, TSV and SVG files must match byte for byte, and
so must bootstrap.json: it uses no t or normal kernel, and the pinned
bootstrap stream makes it exact. The other JSON files must have the same
structure and strings, with floats equal to a relative tolerance of 1e-12,
since the last digits of some CI bounds depend on the kernel implementation.
"""

import ast
import json
import math
from pathlib import Path

import pytest

from pct_impact.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DATA = DEMOS / "data" / "institutions.csv"
GOLDEN = DEMOS / "output"
REL_TOL = 1e-12
# JSON outputs whose floats come from no t or normal kernel
EXACT_JSON = {"bootstrap.json"}


def demo_commands() -> list[list[str]]:
    """The COMMANDS literal of the demo script, read without running it."""
    tree = ast.parse((DEMOS / "05_report_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "COMMANDS":
            return ast.literal_eval(node.value)
    raise AssertionError("demos/05_report_cli.py defines no COMMANDS list")


def assert_json_close(got, want, where: str = "$") -> None:
    if isinstance(want, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=REL_TOL), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_output")
    for args in demo_commands():
        code = main([args[0], "--input", str(DATA), "--out-dir", str(out), *args[1:]])
        assert code == 0, args
    return out


def test_same_file_set(demo_out):
    assert sorted(p.name for p in demo_out.iterdir()) == sorted(
        p.name for p in GOLDEN.iterdir()
    )


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_matches_golden(demo_out, name):
    got, want = demo_out / name, GOLDEN / name
    if name.endswith(".json") and name not in EXACT_JSON:
        assert_json_close(
            json.loads(got.read_text(encoding="utf-8")),
            json.loads(want.read_text(encoding="utf-8")),
        )
    else:
        assert got.read_bytes() == want.read_bytes()
