"""Command line outputs do not depend on the order of the input's rows or
of its header's columns.

Each example draws a small CSV with heavy ties (citation counts 0 to 3),
papers in two reference sets, papers of one institution tied at its top
count in two reference sets, perhaps an inv_percentile column, a paper's
second row and a rejected row, and runs one subcommand in process on it,
on a permutation of its rows and on a permutation of its columns. Each
run's stdout, stderr and output files must be byte-identical to the
first's, except:

- percentiles.csv has a line per paper in input order, so its lines are
  compared as a sorted list;
- rejects.csv names the line of each rejected row, so its reasons are
  compared as a sorted list;
- bootstrap is not run: its pinned draws index each sample's papers in
  dataset order, so a row permutation moves its interval.

A paper's second row is drawn only as a consistent merge (the same fields,
another category): of two rows of a paper that conflict, the first is kept
by contract, so their order decides which one is rejected.
"""

import csv
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pct_impact import cli

LABELS = ["A", "B", "C"]
HEADER = ["id", "institution", "pub_year", "category", "citations", "inv_percentile"]
COMMANDS = ["percentiles", "summary", "compare", "topshare", "topcompare", "robustness"]


@st.composite
def runs(draw, command):
    """A dataset's header and rows, and the arguments of the subcommand."""
    labels = LABELS[:draw(st.integers(2, 3))]
    pct = draw(st.sampled_from(["absent", "full", "partial"]))
    rows = []
    for k in range(draw(st.integers(2, 14))):
        given_pct = pct == "full" or pct == "partial" and draw(st.booleans())
        rows.append([
            f"p{k}",
            labels[k] if k < len(labels) else draw(st.sampled_from(labels)),
            draw(st.sampled_from(["2001", "2002"])),
            draw(st.sampled_from(["X", "Y", "X|Y"])),
            str(draw(st.integers(0, 3))),
            draw(st.sampled_from(["0", "10", "37.5", "100"])) if given_pct else "",
        ])
    # the first institution's top count, in two sets whose means differ
    p = "5" if pct == "full" else ""
    rows += [["t1", labels[0], "2001", "X", "9", p], ["t2", labels[0], "2002", "Y", "9", p]]
    if draw(st.booleans()):  # a paper's second row, with another category
        first = draw(st.sampled_from([row for row in rows if row[3] != "X|Y"]))
        rows.append(first[:3] + [{"X": "Y", "Y": "X"}[first[3]]] + first[4:])
    if len(rows) >= 9 and draw(st.booleans()):  # a reject, within the 10% threshold
        rows.append(["bad", labels[0], "2001", "X", "-1", ""])

    argv = [command, "--top-x", draw(st.sampled_from(["0.5", "10", "50"])),
            "--format", "tsv,json,svg",
            "--scheme", draw(st.sampled_from(["common", "incites"]))]
    argv += [flag for flag in ("--inverted", "--zero-adjust") if draw(st.booleans())]
    if command in ("compare", "topcompare"):
        argv += ["--pairs", f"{labels[0]}:{labels[-1]}"]
    if command == "compare":
        argv += ["--welch", "--mann-whitney"]
    if command in ("topshare", "topcompare"):
        argv += ["--counting", draw(st.sampled_from(["binary", "fractional"]))]
    columns = HEADER if pct != "absent" else HEADER[:5]
    return columns, [row[:len(columns)] for row in rows], argv


def _run(root, name, header, rows, argv):
    """Exit code, stdout and stderr, and each output file's bytes, with
    percentiles.csv's lines and rejects.csv's reasons sorted."""
    work = root / name
    work.mkdir()
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    (work / "in.csv").write_text(out.getvalue(), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv + ["--input", str(work / "in.csv"), "--out-dir", str(work / "out")])
    text = (stdout.getvalue() + stderr.getvalue()).replace(str(work), "<work>")
    files = {}
    for path in sorted((work / "out").glob("*")):
        data = path.read_bytes()
        if path.name == "percentiles.csv":
            data = sorted(data.splitlines())
        elif path.name == "rejects.csv":
            data = sorted(reason for _, reason in csv.reader(io.StringIO(data.decode())))
        files[path.name] = data
    return code, text, files


@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_row_and_column_order(command, data):
    header, rows, argv = data.draw(runs(command))
    row_order = data.draw(st.permutations(rows))
    columns = data.draw(st.permutations(range(len(header))))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        first = _run(root, "first", header, rows, argv)
        event(f"exit {first[0]}")
        assert _run(root, "rows", header, row_order, argv) == first
        assert _run(root, "columns", [header[j] for j in columns],
                    [[row[j] for j in columns] for row in rows], argv) == first
