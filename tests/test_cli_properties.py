"""Properties of whole command line runs on small generated CSV files.

Each example writes one dataset in two spellings, csv.writer's minimal
quoting and every field quoted, and runs one subcommand in process on the
first spelling twice, on the second once, and once more with its options
in a config file instead of flags. Labels and ids may hold ",", '"', ":"
or non-ASCII letters, citations may be all zero or all tied, an
inv_percentile column may be full or partial, a paper may have a second
row that is merged into the first, and the rejected rows (a negative
citation count, a second row of a paper with other citations, or an
institution label holding a tab) may sit right at the 10% threshold or
just above it.
"""

import csv
import io
import math
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pct_impact import cli

LABELS = ["A", "B,C", 'D"E', "F:G", "école"]
ID_MARKS = ["", ",", '"', ":", "é", "漢"]
TOP_X = ["0.001", "0.5", "10", "50", "99.5", "99.999"]
HEADER = ["id", "institution", "pub_year", "category", "citations", "inv_percentile"]


def _quoted(label):
    """A --pairs side that names label whatever it holds."""
    return '"' + label.replace('"', '""') + '"'


@st.composite
def runs(draw, command):
    """A dataset's rows, whether it starts with a byte-order mark, the
    arguments of the subcommand and the institution labels drawn."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    n = draw(st.integers(1, 24))
    citations = draw(st.sampled_from(["zero", "tied", "mixed"]))
    two_categories = draw(st.booleans())
    pct = draw(st.sampled_from(["absent", "full", "partial"]))
    rows = []
    for k in range(n):
        given_pct = pct == "full" or pct == "partial" and draw(st.booleans())
        rows.append([
            f"p{k}{draw(st.sampled_from(ID_MARKS))}",
            labels[k] if k < len(labels) else draw(st.sampled_from(labels)),
            draw(st.sampled_from(["2001", "2002"])),
            "X|Y" if two_categories and draw(st.booleans()) else draw(st.sampled_from("XY")),
            {"zero": "0", "tied": "5", "mixed": str(draw(st.integers(0, 9)))}[citations],
            draw(st.sampled_from(["0", "10", "37.5", "100"])) if given_pct else "",
        ])
    papers = list(rows)
    merged = draw(st.booleans())
    if merged:  # a second row of a paper, with another category
        first = draw(st.sampled_from(papers))
        other = {"X": "Y", "Y": "X"}.get(first[3], first[3])
        rows.insert(draw(st.integers(0, len(rows))), first[:3] + [other] + first[4:])
    # n // 9 rejects of n + n // 9 rows are at most 10%; one more is above
    for j in range(draw(st.sampled_from([0, n // 9, n // 9 + 1]))):
        kind = draw(st.sampled_from(["negative", "conflict", "tab"]))
        if kind == "conflict":  # a paper's second row, with other citations
            first = draw(st.sampled_from(papers))
            bad = first[:4] + [str(int(first[4]) + 1)] + first[5:]
        else:
            bad = [f"bad{j}", labels[0] if kind == "negative" else "A\tB", "2001", "X",
                   "-1" if kind == "negative" else "1", ""]
        rows.insert(draw(st.integers(0, len(rows))), bad)

    argv = [command, "--top-x", draw(st.sampled_from(TOP_X)), "--format", "tsv,json,svg",
            "--scheme", draw(st.sampled_from(["common", "incites"]))]
    argv += [flag for flag in ("--inverted", "--zero-adjust") if draw(st.booleans())]
    pairs = f"{_quoted(labels[0])}:{_quoted(labels[-1])}"
    if command in ("compare", "topcompare", "bootstrap"):
        argv += ["--pairs", pairs]
    if command == "compare":
        argv += ["--welch", "--mann-whitney"]
    if command in ("topshare", "topcompare", "bootstrap"):
        argv += ["--counting", draw(st.sampled_from(["binary", "fractional"]))]
    if command == "bootstrap":
        statistic = draw(st.sampled_from(["mean", "mean-diff", "proportion", "prop-diff"]))
        argv += ["--statistic", statistic, "--institution", labels[0],
                 "--bootstrap-reps", "20"]
    return rows, draw(st.booleans()), argv, labels


def _spelling(rows, bom, quoting):
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return (("\ufeff" if bom else "") + out.getvalue()).encode("utf-8")


def _config(argv):
    """The options after argv's command word, as the lines of a config file."""
    lines, options = [], iter(argv[1:])
    for flag in options:
        key = flag[2:].replace("-", "_")
        lines.append(f"{key} = {'yes' if cli._KINDS[key] is bool else next(options)}\n")
    return "".join(lines)


def _run(root, name, data, argv, config=False):
    """Exit code, stdout and stderr with the run's directory named <work>,
    and each output file's bytes. With config, argv's options are read
    from a config file."""
    work = root / name
    out_dir = work / "out"
    work.mkdir()
    (work / "in.csv").write_bytes(data)
    if config:
        (work / "run.cfg").write_text(_config(argv), encoding="utf-8")
        argv = [argv[0], "--config", str(work / "run.cfg")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv + ["--input", str(work / "in.csv"), "--out-dir", str(out_dir)])
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    text = (stdout.getvalue() + stderr.getvalue()).replace(str(work), "<work>")
    files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
    return code, text, files


def _reasons(rows):
    """The reasons rejects.csv gives, in row order, for the rows runs() draws."""
    first, reasons = {}, []
    for pid, inst, year, _, cits, pct in rows:
        if cits == "-1":
            reasons.append("citations must be >= 0, got -1")
        elif "\t" in inst:
            reasons.append("institution contains a tab or line break")
        elif first.setdefault(pid, (inst, year, cits, pct)) != (inst, year, cits, pct):
            reasons.append(f"conflicts with earlier row for id {pid!r}")
    return reasons


def _top_x_lookups(argv, labels):
    """The institutions that the run of argv looks up before it counts
    binary top-x weights, or None for a run that counts none."""
    options = dict(zip(argv, argv[1:]))  # each flag's value
    statistic = options.get("--statistic")
    if options.get("--counting") != "binary" or statistic in ("mean", "mean-diff"):
        return None
    if argv[0] == "topshare":
        return []
    return labels[:1] if statistic == "proportion" else [labels[0], labels[-1]]


def _table(name, data):
    text = data.decode("utf-8")
    if name.endswith(".tsv"):
        return [line.split("\t") for line in text.splitlines()]
    return list(csv.reader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_cli_runs(command, data):
    rows, bom, argv, labels = data.draw(runs(command))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        minimal = _spelling(rows, bom, csv.QUOTE_MINIMAL)
        plain = _run(root, "plain", minimal, argv)
        assert _run(root, "rerun", minimal, argv) == plain
        assert _run(root, "quoted", _spelling(rows, bom, csv.QUOTE_ALL), argv) == plain
        assert _run(root, "config", minimal, argv, config=True) == plain
    code, text, files = plain
    event(f"exit {code}")

    reasons = _reasons(rows)
    # the rows that are no negative count or tab label: a conflicting row
    # among them has the institution and inv_percentile of a kept row
    kept = [row for row in rows if row[4] != "-1" and "\t" not in row[1]]
    looked_up = _top_x_lookups(argv, labels)
    over_threshold = len(reasons) / len(rows) > 0.10
    # the one configuration error a drawn run can meet: binary top-x
    # counting with neither --inverted nor an inv_percentile on every row
    needs_inverted = (
        not over_threshold and looked_up is not None
        and {row[1] for row in kept}.issuperset(looked_up)
        and "--inverted" not in argv and not all(row[5] for row in kept)
    )
    if over_threshold:
        assert code == 1
        assert (f"data error: {len(reasons)} of {len(rows)} rows rejected, above the 10% "
                "threshold\n") in text
    assert (code == 2) == needs_inverted
    if needs_inverted:
        assert "configuration error: top-x classification needs inverted percentiles" in text
    errors = [line.partition(":")[0] for line in text.splitlines()
              if line.startswith(("data error:", "configuration error:"))]
    assert errors == {0: [], 1: ["data error"], 2: ["configuration error"]}[code]

    if code == 0 or "rejects.csv" in files:
        rejects = _table("rejects.csv", files["rejects.csv"])[1:] if "rejects.csv" in files else []
        assert [reason for _, reason in rejects] == reasons

    for name, data in files.items():
        if name.endswith((".csv", ".tsv")):
            header, *body = _table(name, data)
            assert all(len(line) == len(header) for line in body), name

    categories = defaultdict(set)  # of each id, over all its rows
    for row in rows:
        categories[row[0]].add(row[3])
    if "percentiles.csv" in files and all(c in ({"X"}, {"Y"}) for c in categories.values()):
        x = float(argv[argv.index("--top-x") + 1])
        weights = defaultdict(list)
        for line in _table("percentiles.csv", files["percentiles.csv"])[1:]:
            weights[line[1]].append(float(line[5]))
        for set_weights in weights.values():
            n = len(set_weights)
            # each weight is written to 6 significant digits
            assert math.isclose(math.fsum(set_weights), n * x / 100, rel_tol=1e-5), weights
