"""The console contract, one case per row, each run as a fresh process: its
exit code (0 success, 1 data error, 2 configuration error) and its exact
stderr, which is never a traceback.

Every case runs ``shlex.split(os.environ["PCT_IMPACT_CMD"])`` in a
directory that holds the case's input files. When PCT_IMPACT_CMD is unset,
the command is ``python -m pct_impact.cli`` with this checkout's src/ put
first on PYTHONPATH. When it is set, the command and the environment are
used as given, so ``PCT_IMPACT_CMD=pct-impact`` tests an installed script
and the copy of the package that it imports. A PYTHONPATH given then must
hold absolute paths, since each case runs in a directory of its own.
"""

import csv
import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from pct_impact.cli import main

ROOT = Path(__file__).parents[1]
DEMO = (ROOT / "demos" / "data" / "institutions.csv").read_bytes()
HEADER = b"id,institution,pub_year,category,citations\n"
PCT_HEADER = b"id,institution,pub_year,category,citations,inv_percentile\n"

# B has one paper: too small for a two-sample test or a bootstrap
SMALL = HEADER + b"p1,A,2001,X,1\np2,A,2001,X,2\np3,A,2001,X,3\np4,B,2001,X,4\n"
# 2 of 10 rows with negative citations: above the 10% reject threshold
REJECTS = HEADER + b"".join(b"p%d,A,2001,X,%d\n" % (k, k if k < 9 else -1)
                            for k in range(1, 11))
# each group's percentiles are {0, 1e-100}: every Welch df term underflows
WELCH = PCT_HEADER + b"p1,A,2001,X,1,0\np2,A,2001,X,2,1e-100\np3,B,2001,X,3,0\np4,B,2001,X,4,1e-100\n"
# each SD is about 5e-162, so each variance is subnormal and the pooled SE
# underflows to 0.0, while summary's own SEs do not
POOLED = PCT_HEADER + b"".join(
    b"p%d,%s,2001,X,%d,%s\n" % (i, b"AB"[i // 50:i // 50 + 1], i, b"0" if i % 2 else b"1e-161")
    for i in range(100)
)
LIMIT = csv.field_size_limit()
DEMO_IN = ["--input", "demo.csv", "--out-dir", "out"]


def csv_error(line):
    """The csv module's own message for a line that it cannot read."""
    try:
        next(csv.reader([line]))
    except csv.Error as exc:
        return str(exc)


class Case(NamedTuple):
    name: str
    files: dict  # file name -> bytes, written into the case's directory
    argv: list
    code: int
    stderr: list  # its exact lines
    env: Optional[dict] = None  # added to the environment


CASES = [
    Case("help", {}, ["--help"], 0, []),
    Case("summary", {"demo.csv": DEMO}, ["summary", *DEMO_IN], 0, []),
    Case("bad_scheme_flag", {"demo.csv": DEMO}, ["summary", *DEMO_IN, "--scheme", "bogus"], 2,
         ["configuration error: scheme must be common or incites, got bogus"]),
    # a seed from the environment is read by the rule that reads --seed
    Case("non_integer_seed_from_the_environment", {"demo.csv": DEMO}, ["summary", *DEMO_IN], 2,
         ["configuration error: seed must be an integer, got 'abc'"], {"PCT_IMPACT_SEED": "abc"}),
    Case("config_file_with_a_byte_order_mark",
         {"demo.csv": DEMO, "bom.cfg": b"\xef\xbb\xbfscheme = incites\n"},
         ["summary", *DEMO_IN, "--config", "bom.cfg"], 0,
         ["warning: percentiles read from the inv_percentile column; --scheme and --zero-adjust "
          "do not apply"]),

    # paths that cannot be read or written, and bad configuration
    Case("missing_input_flag", {}, ["summary", "--out-dir", "out"], 2,
         ["configuration error: no input file given (use --input or a config file)"]),
    Case("missing_input_file", {}, ["summary", "--input", "nope.csv", "--out-dir", "out"], 2,
         ["configuration error: input file not found: nope.csv"]),
    Case("missing_column", {"bad.csv": b"id,institution\n1,a\n"},
         ["summary", "--input", "bad.csv", "--out-dir", "out"], 2,
         ["configuration error: missing required column(s): pub_year, category, citations"]),
    Case("missing_config_file", {"demo.csv": DEMO}, ["summary", *DEMO_IN, "--config", "nope.cfg"],
         2, ["configuration error: [Errno 2] No such file or directory: 'nope.cfg'"]),
    Case("input_is_a_directory", {}, ["summary", "--input", ".", "--out-dir", "out"], 2,
         ["configuration error: [Errno 21] Is a directory: '.'"]),
    Case("out_dir_is_a_file", {"demo.csv": DEMO, "taken": b""},
         ["summary", "--input", "demo.csv", "--out-dir", "taken"], 2,
         ["configuration error: [Errno 17] File exists: 'taken'"]),
    Case("config_file_not_utf8", {"demo.csv": DEMO, "run.cfg": b"mu0 = \xff\n"},
         ["summary", *DEMO_IN, "--config", "run.cfg"], 2,
         ["configuration error: run.cfg: 'utf-8' codec can't decode byte 0xff in position 6: "
          "invalid start byte"]),
    *(Case(f"nul_byte_in_config_{key}", {"demo.csv": DEMO, "run.cfg": f"{key} = a\0b\n".encode()},
           ["summary", "--config", "run.cfg",
            *([] if key == "input" else ["--input", "demo.csv"]),
            *([] if key == "out_dir" else ["--out-dir", "out"])], 2,
           [f"configuration error: {key} must not hold a NUL byte, got 'a\\x00b'"])
      for key in ("out_dir", "input", "mu0")),
    Case("config_line_without_equals", {"demo.csv": DEMO, "run.cfg": b"scheme incites\n"},
         ["summary", *DEMO_IN, "--config", "run.cfg"], 2,
         ["configuration error: run.cfg:1: expected key=value, got 'scheme incites'"]),
    Case("unknown_config_key", {"demo.csv": DEMO, "run.cfg": b"bogus = 1\n"},
         ["summary", *DEMO_IN, "--config", "run.cfg"], 2,
         ["configuration error: run.cfg:1: unknown config key 'bogus'"]),
    Case("bad_top_x", {"demo.csv": DEMO}, ["topshare", *DEMO_IN, "--top-x", "0"], 2,
         ["configuration error: top_x must be in (0, 100), got 0.0"]),
    Case("compare_without_pairs", {"demo.csv": DEMO}, ["compare", *DEMO_IN], 2,
         ["configuration error: this command needs --pairs a:b[,c:d...]"]),
    Case("mean_bootstrap_without_institution", {"demo.csv": DEMO}, ["bootstrap", *DEMO_IN], 2,
         ["configuration error: mean bootstrap needs --institution"]),
    Case("binary_topshare_without_inverted", {"small.csv": SMALL},
         ["topshare", "--input", "small.csv", "--out-dir", "out"], 2,
         ["configuration error: top-x classification needs inverted percentiles; supply an "
          "inv_percentile column or pass --inverted"]),

    # unknown institutions, checked before the --inverted check
    Case("compare_unknown_institution", {"demo.csv": DEMO},
         ["compare", *DEMO_IN, "--pairs", "1:NOPE"], 1,
         ["data error: unknown institution 'NOPE'; known institutions: 1, 2, 3"]),
    Case("topcompare_unknown_institution", {"small.csv": SMALL},
         ["topcompare", "--input", "small.csv", "--out-dir", "out", "--pairs", "A:NOPE"], 1,
         ["data error: unknown institution 'NOPE'; known institutions: A, B"]),
    Case("bootstrap_unknown_institution", {"small.csv": SMALL},
         ["bootstrap", "--input", "small.csv", "--out-dir", "out", "--statistic", "proportion",
          "--institution", "NOPE"], 1,
         ["data error: unknown institution 'NOPE'; known institutions: A, B"]),

    # data the library's checks refuse
    Case("rejects_over_the_threshold", {"bad.csv": REJECTS},
         ["summary", "--input", "bad.csv", "--out-dir", "out"], 1,
         ["data error: 2 of 10 rows rejected, above the 10% threshold"]),
    Case("compare_with_a_one_paper_institution", {"small.csv": SMALL},
         ["compare", "--input", "small.csv", "--out-dir", "out", "--pairs", "A:B"], 1,
         ["data error: pooled_sd: both samples need a defined SD"]),
    Case("bootstrap_of_a_one_paper_institution", {"small.csv": SMALL},
         ["bootstrap", "--input", "small.csv", "--out-dir", "out", "--statistic", "mean",
          "--institution", "B"], 1,
         ["data error: sample needs at least 2 observations"]),
    Case("p0_whose_null_se_underflows", {"demo.csv": DEMO},
         ["topshare", *DEMO_IN, "--p0", "5e-324", "--inverted"], 1,
         ["data error: one_sample_prop_z: the null SE is zero or underflows to zero"]),
    Case("welch_df_denominator_that_underflows", {"tiny.csv": WELCH},
         ["compare", "--input", "tiny.csv", "--out-dir", "out", "--pairs", "A:B", "--welch"], 1,
         ["data error: two_sample_welch_t: the df denominator is zero"]),
    Case("pooled_se_that_underflows", {"tiny.csv": POOLED},
         ["compare", "--input", "tiny.csv", "--out-dir", "out", "--pairs", "A:B"], 1,
         ["data error: two_sample_pooled_t: the SE or SD is zero or underflows to zero"]),
    Case("summary_where_the_pooled_se_underflows", {"tiny.csv": POOLED},
         ["summary", "--input", "tiny.csv", "--out-dir", "out"], 0, []),

    # input that the CSV reader cannot read at all
    Case("field_over_the_csv_limit",
         {"long.csv": PCT_HEADER + b"p1,i,2001,A,5,\np2,i,2001," + b"A" * (LIMIT + 1) + b",5,\n"},
         ["summary", "--input", "long.csv", "--out-dir", "out"], 1,
         [f"data error: line 3: field larger than field limit ({LIMIT})"]),
    Case("lone_carriage_return", {"cr.csv": PCT_HEADER + b"p1,i,2001,A,5,\np2,i,2001,A\rB,5,\n"},
         ["summary", "--input", "cr.csv", "--out-dir", "out"], 1,
         ["data error: line 3: " + csv_error("A\rB")]),
    Case("bytes_not_utf8", {"latin1.csv": PCT_HEADER + b"p1,i,2001,A,5,\np2,\xe9cole,2001,A,5,\n"},
         ["summary", "--input", "latin1.csv", "--out-dir", "out"], 1,
         ["data error: line 3: byte 0xe9 is not UTF-8 (invalid continuation byte)"]),
]


def console(argv, cwd, env=None):
    """Run the command under test with argv in cwd, env added to the
    environment; stdout and stderr are captured as bytes."""
    environ = dict(os.environ, **(env or {}))
    if "PCT_IMPACT_CMD" in os.environ:
        command = shlex.split(os.environ["PCT_IMPACT_CMD"])
    else:
        command = [sys.executable, "-m", "pct_impact.cli"]
        environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([*command, *map(str, argv)], cwd=cwd, env=environ, capture_output=True)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_case(case, tmp_path):
    for name, data in case.files.items():
        (tmp_path / name).write_bytes(data)
    proc = console(case.argv, tmp_path, case.env)
    assert (proc.returncode, proc.stderr.decode().splitlines()) == (case.code, case.stderr)


@pytest.mark.parametrize("argv", [["summary", "--format", "tsv,json,svg"], ["percentiles"]])
def test_fresh_process_matches_in_process(argv, tmp_path, capsys):
    """A fresh process exits, prints and writes what main() does: every
    output file is complete before the process entry point exits."""
    (tmp_path / "demo.csv").write_bytes(DEMO)
    out = tmp_path / "out"
    argv = [argv[0], "--input", str(tmp_path / "demo.csv"), "--out-dir", str(out), *argv[1:]]

    def outputs():
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        for p in out.iterdir():
            p.unlink()
        return files

    code = main(argv)
    captured = capsys.readouterr()
    in_process = (code, captured.out.encode(), captured.err.encode(), outputs())
    proc = console(argv, tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr, outputs()) == in_process
    assert in_process[0] == 0 and in_process[3]


def test_out_dir_that_is_not_utf8_under_a_strict_stdout(tmp_path):
    """The 'wrote ... to <path>' line prints the directory's own bytes."""
    (tmp_path / "demo.csv").write_bytes(DEMO)
    out = os.fsdecode(b"\xff")
    proc = console(["percentiles", "--input", "demo.csv", "--out-dir", out], tmp_path,
                   {"PYTHONIOENCODING": "utf-8:strict"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b" to \xff/percentiles.csv\n")
    assert sorted(p.name for p in (tmp_path / out).iterdir()) == ["percentiles.csv"]
