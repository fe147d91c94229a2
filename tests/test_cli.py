"""End-to-end command line behavior, in process: outputs, precedence and
warnings. The exit code and stderr of each refused run are cases of the
table in test_console.py."""

import csv
import json
import random
import re
import shutil
import sys
from pathlib import Path

import pytest

from pct_impact.cli import _COMMANDS, AnalysisConfig, main

HEADER = "id,institution,pub_year,category,citations,inv_percentile\n"

# three institutions with pre-supplied inverted percentiles
ROWS = [
    ("A", [4.0, 8.0, 15.0, 40.0, 60.0, 75.0]),
    ("B", [2.0, 5.0, 9.0, 10.0, 30.0]),
    ("C", [20.0, 35.0, 55.0, 80.0]),
]

TIE_SET = [61] * 3 + [58] * 7 + [1] * 40

DEMO = Path(__file__).parents[1] / "demos" / "data" / "institutions.csv"


@pytest.fixture
def inst_csv(tmp_path):
    lines = [HEADER]
    k = 0
    for inst, pcts in ROWS:
        for p in pcts:
            lines.append(f"p{k},{inst},2001,CAT,{100 - int(p)},{p}\n")
            k += 1
    path = tmp_path / "input.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.fixture
def tie_csv(tmp_path):
    lines = ["id,institution,pub_year,category,citations\n"]
    for i, c in enumerate(TIE_SET):
        inst = "X" if i % 2 == 0 else "Y"
        lines.append(f"t{i},{inst},2001,CAT,{c}\n")
    path = tmp_path / "ties.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSummaryCommand:
    def test_writes_all_formats(self, inst_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("summary", "--input", inst_csv, "--out-dir", out,
                   "--format", "tsv,json,svg")
        assert code == 0
        assert (out / "summary.tsv").exists()
        assert (out / "summary.json").exists()
        assert (out / "summary_ci.svg").exists()
        stdout = capsys.readouterr().out
        assert "Mean" in stdout and "Cohen's d" in stdout

    def test_byte_identical_reruns(self, inst_csv, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run("summary", "--input", inst_csv, "--out-dir", out,
                       "--format", "tsv,json,svg") == 0
        for name in ("summary.tsv", "summary.json", "summary_ci.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_figure_matches_table_cells(self, inst_csv, tmp_path):
        out = tmp_path / "out"
        run("summary", "--input", inst_csv, "--out-dir", out, "--format", "json,svg")
        table = json.loads((out / "summary.json").read_text())
        rows = {r["label"]: r["values"] for r in table["rows"]}
        svg = (out / "summary_ci.svg").read_text()
        points = [float(m) for m in re.findall(r'class="ci-point" cx="[0-9.]+" cy="([0-9.]+)"', svg)]
        # means must map to marker y positions monotonically (pixel y flips sign)
        means = rows["Mean"]
        order_means = sorted(range(3), key=lambda i: means[i])
        order_pixels = sorted(range(3), key=lambda i: -points[i])
        assert order_means == order_pixels

    def test_mu0_flag_beats_config_file(self, inst_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={inst_csv}\nmu0=40\nformat=tsv\n", encoding="utf-8")
        run("summary", "--config", cfg, "--out-dir", tmp_path / "a")
        assert "mean = 40" in capsys.readouterr().out
        run("summary", "--config", cfg, "--mu0", "45", "--out-dir", tmp_path / "b")
        assert "mean = 45" in capsys.readouterr().out


class TestSuppliedPercentiles:
    """A complete inv_percentile column overrides the percentile scheme flags."""

    WARNING = ("warning: percentiles read from the inv_percentile column; "
               "--scheme and --zero-adjust do not apply")

    @pytest.mark.parametrize("flags", [["--scheme", "incites"], ["--zero-adjust"]])
    def test_ignored_flag_warns_once(self, inst_csv, tmp_path, capsys, flags):
        assert run("summary", "--input", inst_csv, *flags, "--out-dir", tmp_path,
                   "--format", "tsv") == 0
        assert capsys.readouterr().err.splitlines() == [self.WARNING]

    def test_no_scheme_flags_no_warning(self, inst_csv, tmp_path, capsys):
        assert run("summary", "--input", inst_csv, "--out-dir", tmp_path,
                   "--format", "tsv") == 0
        assert self.WARNING not in capsys.readouterr().err.splitlines()

    def test_partial_column_warns(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text(
            HEADER + "a1,A,2001,CAT,9,10\n" + "a2,A,2001,CAT,5,40\n"
            + "a3,A,2001,CAT,1,\n" + "a4,A,2001,CAT,3,55\n",
            encoding="utf-8",
        )
        assert run("summary", "--input", path, "--out-dir", tmp_path, "--format", "tsv") == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: inv_percentile given for 3 of 4 records; percentiles computed from citations"
        ]


class TestCompareCommand:
    def test_pairs_and_optional_rows(self, inst_csv, tmp_path, capsys):
        code = run("compare", "--input", inst_csv, "--pairs", "A:B,A:C,C:B",
                   "--welch", "--mann-whitney", "--out-dir", tmp_path,
                   "--format", "tsv")
        assert code == 0
        tsv = (tmp_path / "compare.tsv").read_text()
        header = tsv.splitlines()[0]
        assert header.split("\t")[1:] == ["A vs B", "A vs C", "C vs B"]
        assert "Welch t" in tsv and "Mann-Whitney z" in tsv


class TestQuotedPairs:
    """A side of --pairs in double quotes may name a label holding , or :."""

    PAIRS = '"A:B":"C,D"'

    @pytest.fixture
    def punct_csv(self, tmp_path):
        lines = [HEADER]
        for inst, (_, pcts) in zip(('A:B', '"C,D"'), ROWS):
            lines += [f"{inst}{k},{inst},2001,CAT,{100 - int(p)},{p}\n"
                      for k, p in enumerate(pcts)]
        path = tmp_path / "punct.csv"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    @pytest.mark.parametrize("argv", [
        ["compare"], ["topcompare"], ["bootstrap", "--statistic", "mean-diff",
                                      "--bootstrap-reps", "50"],
    ])
    def test_quoted_sides_name_the_labels(self, punct_csv, tmp_path, argv):
        assert run(*argv, "--input", punct_csv, "--pairs", self.PAIRS,
                   "--out-dir", tmp_path, "--format", "json") == 0

    def test_compare_labels_the_column(self, punct_csv, tmp_path):
        assert run("compare", "--input", punct_csv, "--pairs", f' {self.PAIRS} ,"C,D": "A:B" ',
                   "--out-dir", tmp_path, "--format", "tsv") == 0
        header = (tmp_path / "compare.tsv").read_text().splitlines()[0]
        assert header.split("\t")[1:] == ["A:B vs C,D", "C,D vs A:B"]

    def test_doubled_quote_stands_for_one(self):
        assert AnalysisConfig(pairs='"say ""hi""":b"c').pair_list == [('say "hi"', 'b"c')]

    @pytest.mark.parametrize("pairs", [
        '"A:B:"C,D"', '"A:B"x:"C,D"', '"A:B":"C,D', '"":"C,D"', '"A:B": ', "A:B:C",
        '"A:B","C,D"', '"A:B":"C,D",',
    ])
    def test_malformed_pairs_exit_2(self, punct_csv, tmp_path, capsys, pairs):
        assert run("compare", "--input", punct_csv, "--pairs", pairs,
                   "--out-dir", tmp_path) == 2
        assert capsys.readouterr().err.startswith("configuration error: bad pair")


class TestTopShareCommands:
    def test_binary_topshare(self, inst_csv, tmp_path):
        code = run("topshare", "--input", inst_csv, "--out-dir", tmp_path,
                   "--format", "json,svg")
        assert code == 0
        table = json.loads((tmp_path / "topshare.json").read_text())
        rows = {r["label"]: dict(zip(table["columns"], r["values"])) for r in table["rows"]}
        # B has percentiles {2, 5, 9, 10, 30}: four of five at or below 10
        assert rows["Share in top 10% (x100)"]["B"] == pytest.approx(80.0)
        assert (tmp_path / "topshare_ci.svg").exists()

    def test_fractional_on_tie_file(self, tie_csv, tmp_path):
        code = run("topshare", "--input", tie_csv, "--counting", "fractional",
                   "--scheme", "incites", "--inverted", "--out-dir", tmp_path,
                   "--format", "json")
        assert code == 0
        table = json.loads((tmp_path / "topshare.json").read_text())
        rows = {r["label"]: dict(zip(table["columns"], r["values"])) for r in table["rows"]}
        # X holds two 61s (weight 1) and three 58s (weight 2/7) among 25 papers
        expected_x = (2 + 3 * 2 / 7) / 25
        assert rows["Share in top 10% (x100)"]["X"] == pytest.approx(100 * expected_x)

    def test_binary_equals_fractional_on_untied_data(self, tmp_path):
        from pct_impact.percentiles import (
            PercentileFormula,
            PercentileScheme,
            percentile_rank,
        )

        citations = [3 * i for i in range(20)]  # strictly distinct
        scheme = PercentileScheme(PercentileFormula.INCITES, inverted=True)
        pcts = [a.percentile for a in percentile_rank(citations, scheme)]
        lines = [HEADER]
        for i, (c, p) in enumerate(zip(citations, pcts)):
            lines.append(f"u{i},{'A' if i % 2 else 'B'},2001,CAT,{c},{p}\n")
        path = tmp_path / "untied.csv"
        path.write_text("".join(lines), encoding="utf-8")

        shares = {}
        for counting in ("binary", "fractional"):
            out = tmp_path / counting
            assert run("topshare", "--input", path, "--counting", counting,
                       "--scheme", "incites", "--inverted",
                       "--out-dir", out, "--format", "json") == 0
            table = json.loads((out / "topshare.json").read_text())
            shares[counting] = next(
                r["values"] for r in table["rows"] if r["label"].startswith("Share")
            )
        assert shares["binary"] == shares["fractional"]

    def test_topcompare(self, inst_csv, tmp_path):
        code = run("topcompare", "--input", inst_csv, "--pairs", "A:B",
                   "--out-dir", tmp_path, "--format", "json")
        assert code == 0
        table = json.loads((tmp_path / "topcompare.json").read_text())
        assert table["columns"] == ["A vs B"]


class TestPercentilesCommand:
    def test_tie_file_weights(self, tie_csv, tmp_path, capsys):
        code = run("percentiles", "--input", tie_csv, "--scheme", "incites",
                   "--inverted", "--out-dir", tmp_path)
        assert code == 0
        lines = (tmp_path / "percentiles.csv").read_text().splitlines()
        assert lines[0] == "paper_id,reference_set,rank,percentile,tie_group_size,top_x_weight"
        weights = [line.split(",")[-1] for line in lines[1:]]
        assert weights.count("1") == 3
        assert weights.count("0.285714") == 7
        assert weights.count("0") == 40
        err = capsys.readouterr().err
        assert "50 papers, 3 tie group(s)" in err  # set size and tie groups logged

    def test_multi_category_best_wins(self, tmp_path):
        csv_path = tmp_path / "multi.csv"
        # paper m sits mid-field in HOT but at the top of COLD
        rows = ["id,institution,pub_year,category,citations\n",
                "m,I,2001,HOT|COLD,50\n"]
        for i in range(9):
            rows.append(f"h{i},I,2001,HOT,{100 + i}\n")
        for i in range(9):
            rows.append(f"c{i},I,2001,COLD,{i}\n")
        csv_path.write_text("".join(rows), encoding="utf-8")
        out = tmp_path / "out"
        run("percentiles", "--input", csv_path, "--scheme", "incites",
            "--inverted", "--out-dir", out)
        lines = (out / "percentiles.csv").read_text().splitlines()
        row_m = next(line for line in lines if line.startswith("m,"))
        assert row_m.split(",")[1] == "COLD:2001"
        assert float(row_m.split(",")[3]) == 10.0  # rank 1 of 10, inverted InCites

    def test_ids_and_categories_that_need_quoting(self, tmp_path):
        csv_path = tmp_path / "quoted.csv"
        csv_path.write_text(
            "id,institution,pub_year,category,citations\n"
            '"p,1",A,2001,"X,Y",3\n'
            'p2,A,2001,"X,Y",1\n'
            'p3,B,2001,"Q""Z",2\n',
            encoding="utf-8",
        )
        assert run("percentiles", "--input", csv_path, "--out-dir", tmp_path) == 0
        with open(tmp_path / "percentiles.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 6 for row in rows)
        assert [row[0] for row in rows[1:]] == ["p,1", "p2", "p3"]
        assert [row[1] for row in rows[1:]] == ["X,Y:2001", "X,Y:2001", 'Q"Z:2001']

    def test_blocks_write_the_bytes_of_one_block(self, tmp_path, monkeypatch):
        """percentiles.csv formatted a few rows at a time, the last block
        short, equals the file written as one block; quoted ids included."""
        csv_path = tmp_path / "blocks.csv"
        csv_path.write_text(
            "id,institution,pub_year,category,citations\n"
            + "".join(f'"p,{i}",{"AB"[i % 2]},2001,"X{i % 3}|Y",{i * 7 % 5}\n' for i in range(20)),
            encoding="utf-8",
        )
        argv = ("percentiles", "--input", csv_path, "--inverted", "--out-dir")
        assert run(*argv, tmp_path / "one") == 0
        monkeypatch.setattr("pct_impact.cli._BLOCK_ROWS", 3)
        assert run(*argv, tmp_path / "blocks") == 0
        one = (tmp_path / "one" / "percentiles.csv").read_bytes()
        assert (tmp_path / "blocks" / "percentiles.csv").read_bytes() == one
        assert one.count(b'"p,') == 20


class TestQuotedInput:
    @pytest.mark.parametrize("argv", [
        ["summary", "--format", "tsv,json,svg"],
        ["percentiles", "--scheme", "incites", "--inverted", "--zero-adjust"],
    ])
    def test_fully_quoted_demo_writes_the_same_bytes(self, argv, tmp_path, capsys):
        with open(DEMO, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        quoted = tmp_path / "quoted.csv"
        with open(quoted, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
        assert quoted.read_bytes() != DEMO.read_bytes()
        runs = []
        for path, out in ((DEMO, tmp_path / "plain"), (quoted, tmp_path / "quoted")):
            assert run(argv[0], "--input", path, "--out-dir", out, *argv[1:]) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((capsys.readouterr().out.replace(str(out), "OUT"), files))
        assert runs[0] == runs[1] and runs[0][1]

    def test_rejects_name_the_line_each_row_ends_on(self, tmp_path):
        messy = tmp_path / "messy.csv"
        messy.write_text(
            "id,institution,pub_year,category,citations,note\n"
            'p1,A,2001,C,5,"two\nlines"\n'  # lines 2-3
            "p2,A,2001,C,-1,\n"  # line 4: rejected
            'p3,A,2001,C,2,"x\ny\nz"\n'  # lines 5-7
            "p1,A,2001,C,6,\n"  # line 8: conflicts with line 3
            + "".join(f"q{i},B,2001,C,{i},\n" for i in range(20)),
            encoding="utf-8",
        )
        assert run("percentiles", "--input", messy, "--out-dir", tmp_path) == 0
        with open(tmp_path / "rejects.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [
                ["row", "reason"],
                ["4", "citations must be >= 0, got -1"],
                ["8", "conflicts with earlier row for id 'p1'"],
            ]

    def test_labels_with_a_tab_or_line_break_are_rejected(self, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text(
            HEADER
            + "".join(f"p{i},{'XY'[i % 2]},2001,CAT,{i},\n" for i in range(40))
            + 'b1,X\tY,2001,CAT,3,\nb2,"X\nY",2001,CAT,3,\nb3,"X\r\nY",2001,CAT,3,\n'
            # a second row of the paper p,"1 with other citations
            + '"p,""1",X,2001,CAT,1,\n"p,""1",X,2001,CAT,2,\n',
            encoding="utf-8",
        )
        assert run("summary", "--input", labels, "--out-dir", tmp_path,
                   "--format", "tsv") == 0
        rejects = (tmp_path / "rejects.csv").read_text(encoding="utf-8").splitlines()
        assert rejects[1:] == [
            *(f"{row},institution contains a tab or line break" for row in (42, 44, 46)),
            '''48,"conflicts with earlier row for id 'p,""1'"''',
        ]
        with open(tmp_path / "summary.tsv", newline="", encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        assert header.split("\t")[1:] == ["X", "Y"]  # a column per institution
        assert rows and {len(row.split("\t")) for row in rows} == {3}


class TestRobustnessCommand:
    def test_reports_per_institution(self, tie_csv, tmp_path, capsys):
        code = run("robustness", "--input", tie_csv, "--out-dir", tmp_path,
                   "--format", "json")
        assert code == 0
        payload = json.loads((tmp_path / "robustness.json").read_text())
        assert set(payload) == {"X", "Y"}
        for rep in payload.values():
            assert {"mncs", "top_share", "n"} <= set(rep)
        stdout = capsys.readouterr().out
        assert stdout.index("Institution X") < stdout.index("Institution Y")

    def test_shuffled_rows_drop_the_same_paper(self, tmp_path, capsys):
        """Institution 3 of the demo has three papers with its top count, in
        two reference sets; a row shuffle puts another of them first."""
        header, *rows = DEMO.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(3).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows), encoding="utf-8")
        outputs = []
        for path, out in ((DEMO, tmp_path / "plain"), (shuffled, tmp_path / "shuffled")):
            assert run("robustness", "--input", path, "--out-dir", out, "--format", "json") == 0
            outputs.append((out / "robustness.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_top_share_is_the_fractional_topshare(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("robustness", "--input", DEMO, "--out-dir", out, "--format", "json") == 0
        assert run("topshare", "--input", DEMO, "--out-dir", out, "--format", "json",
                   "--counting", "fractional") == 0
        robustness = json.loads((out / "robustness.json").read_text())
        table = json.loads((out / "topshare.json").read_text())
        share = next(r["values"] for r in table["rows"] if r["label"].startswith("Share"))
        assert dict(zip(table["columns"], share)) == {
            label: 100 * report["top_share"]["full"] for label, report in robustness.items()
        }


class TestBootstrapCommand:
    def test_mean_bootstrap_json(self, inst_csv, tmp_path, capsys):
        code = run("bootstrap", "--input", inst_csv, "--statistic", "mean",
                   "--institution", "A", "--bootstrap-reps", "200", "--seed", "5",
                   "--out-dir", tmp_path, "--format", "json")
        assert code == 0
        payload = json.loads((tmp_path / "bootstrap.json").read_text())
        assert payload["statistic"] == "mean"
        assert payload["replicates"] == 200 and payload["seed"] == 5
        assert payload["ci_low"] <= payload["point"] <= payload["ci_high"]
        assert payload["null_value"] == 50.0
        assert payload["ci_excludes_null"] == (
            not payload["ci_low"] <= 50.0 <= payload["ci_high"]
        )

    def test_env_seed_is_default_only(self, inst_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PCT_IMPACT_SEED", "777")
        run("bootstrap", "--input", inst_csv, "--statistic", "mean",
            "--institution", "A", "--bootstrap-reps", "50",
            "--out-dir", tmp_path, "--format", "json")
        assert json.loads((tmp_path / "bootstrap.json").read_text())["seed"] == 777
        run("bootstrap", "--input", inst_csv, "--statistic", "mean",
            "--institution", "A", "--bootstrap-reps", "50", "--seed", "3",
            "--out-dir", tmp_path, "--format", "json")
        assert json.loads((tmp_path / "bootstrap.json").read_text())["seed"] == 3

    @pytest.mark.parametrize("statistic", ["mean-diff", "prop-diff"])
    def test_pairs_share_streams_without_coupling(self, inst_csv, tmp_path, statistic):
        # every pair reads the same replicate streams; each entry must still
        # equal a run with that pair alone
        def entries(pairs, out):
            code = run("bootstrap", "--input", inst_csv, "--statistic", statistic,
                       "--pairs", pairs, "--bootstrap-reps", "300", "--seed", "21",
                       "--ci", "percentile", "--out-dir", out, "--format", "json")
            assert code == 0
            return json.loads((out / "bootstrap.json").read_text())

        together = entries("A:B,A:C,B:C", tmp_path / "all")
        alone = [entries(pair, tmp_path / pair.replace(":", ""))
                 for pair in ("A:B", "A:C", "B:C")]
        assert together == alone
        assert len({entry["se_boot"] for entry in alone}) == 3

    def test_mean_diff_uses_pairs(self, inst_csv, tmp_path):
        code = run("bootstrap", "--input", inst_csv, "--statistic", "mean-diff",
                   "--pairs", "A:B", "--bootstrap-reps", "100",
                   "--out-dir", tmp_path, "--format", "json")
        assert code == 0
        payload = json.loads((tmp_path / "bootstrap.json").read_text())
        assert payload["statistic"] == "mean_diff"

    def test_points_are_the_tables_means(self, tmp_path, monkeypatch, capsys):
        # the benchmark's fields input, where numpy's pairwise mean and the
        # tables' fsum mean differ in the last bits for many institutions
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing cached in perfbench/
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import workloads

        csv_path = tmp_path / "fields.csv"
        csv_path.write_bytes(workloads.build_fields(1, 2000))
        flags = ["--input", csv_path, "--scheme", "incites", "--inverted", "--zero-adjust",
                 "--format", "json", "--out-dir", tmp_path]
        labels = [str(k) for k in range(1, workloads.INSTITUTIONS + 1)]
        pairs = ",".join(f"1:{k}" for k in labels[1:])

        def written(command, *extra):
            assert run(command, *flags, *extra) == 0
            return json.loads((tmp_path / f"{command}.json").read_text())

        def first_row(command, label, *extra):
            payload = written(command, *extra)
            assert payload["rows"][0]["label"] == label
            return dict(zip(payload["columns"], payload["rows"][0]["values"], strict=True))

        means = first_row("summary", "Mean")
        assert sorted(means) == sorted(labels)
        for label in labels:
            boot = written("bootstrap", "--statistic", "mean", "--institution", label,
                           "--bootstrap-reps", "10")
            assert boot["point"] == means[label], label
        diffs = first_row("compare", "Difference between means", "--pairs", pairs)
        boots = written("bootstrap", "--statistic", "mean-diff", "--pairs", pairs,
                        "--bootstrap-reps", "10")
        assert [b["point"] for b in boots] == list(diffs.values())

    @pytest.mark.parametrize("counting", ["binary", "fractional"])
    def test_proportion_point_matches_topshare(self, tie_csv, tmp_path, counting):
        flags = ["--input", tie_csv, "--counting", counting, "--scheme", "incites",
                 "--inverted", "--format", "json"]
        assert run("topshare", *flags, "--out-dir", tmp_path / "share") == 0
        assert run("bootstrap", *flags, "--statistic", "proportion",
                   "--institution", "X", "--bootstrap-reps", "100",
                   "--out-dir", tmp_path / "boot") == 0
        table = json.loads((tmp_path / "share" / "topshare.json").read_text())
        rows = {r["label"]: dict(zip(table["columns"], r["values"])) for r in table["rows"]}
        point = json.loads((tmp_path / "boot" / "bootstrap.json").read_text())["point"]
        assert 100 * point == pytest.approx(rows["Share in top 10% (x100)"]["X"], rel=1e-12)

    def test_fractional_proportion_needs_no_inverted(self, tie_csv, tmp_path):
        code = run("bootstrap", "--input", tie_csv, "--statistic", "prop-diff",
                   "--pairs", "X:Y", "--counting", "fractional", "--bootstrap-reps", "50",
                   "--out-dir", tmp_path, "--format", "json")
        assert code == 0
        payload = json.loads((tmp_path / "bootstrap.json").read_text())
        assert payload["statistic"] == "prop_diff"


class TestSmallInstitution:
    """B has a single paper: too small for any test. The commands that test
    it exit 1 (cases of test_console.py); these leave it out with a warning."""

    @pytest.fixture
    def small_csv(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text(
            HEADER + "a1,A,2001,CAT,9,10\n" + "a2,A,2001,CAT,5,40\n"
            + "a3,A,2001,CAT,1,70\n" + "b1,B,2001,CAT,3,55\n",
            encoding="utf-8",
        )
        return path

    def test_robustness_skips_with_a_warning(self, small_csv, tmp_path, capsys):
        code = run("robustness", "--input", small_csv, "--out-dir", tmp_path,
                   "--format", "json")
        assert code == 0
        assert "warning: institution 'B' has n < 2; skipped\n" in capsys.readouterr().err
        assert list(json.loads((tmp_path / "robustness.json").read_text())) == ["A"]

    def test_summary_warning_is_one_line(self, small_csv, tmp_path, capsys):
        code = run("summary", "--input", small_csv, "--out-dir", tmp_path,
                   "--format", "tsv")
        assert code == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: group 'B' has n < 2 or zero variance; emitting undefined markers"
        ]


class TestErrorPaths:
    def test_rejects_written(self, tmp_path, capsys):
        messy = tmp_path / "messy.csv"
        messy.write_text(
            HEADER + "p1,i,2001,A,5,\n" + "p2,i,2001,A,-3,\n" * 1
            + "".join(f"q{i},i,2001,A,1,\n" for i in range(9)),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = run("percentiles", "--input", messy, "--out-dir", out)
        assert code == 0
        rejects = (out / "rejects.csv").read_text().splitlines()
        assert rejects[0] == "row,reason"
        assert len(rejects) == 2
        assert capsys.readouterr().err.startswith(
            f"warning: 1 row(s) rejected; see {out / 'rejects.csv'}\n"
        )

    def test_last_year_filter(self, tmp_path, capsys):
        csv_path = tmp_path / "years.csv"
        csv_path.write_text(
            HEADER
            + "a,i,2001,A,5,10\n" + "b,i,2002,A,5,20\n" + "c,i,2003,A,5,30\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = run("percentiles", "--input", csv_path, "--last-year", "2002",
                   "--out-dir", out)
        assert code == 0
        lines = (out / "percentiles.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 surviving rows

    def test_years_outside_int64(self, tmp_path, capsys):
        # a year is any Python int: sets sort by year as numbers, and
        # --last-year compares them exactly
        big = str(10**29)
        csv_path = tmp_path / "years.csv"
        csv_path.write_text(HEADER + "".join(
            f"{pid},{inst},{year},C,{cits},\n" for pid, inst, year, cits in [
                ("a1", "A", "-5", 5), ("a2", "A", "-5", 3), ("a3", "A", "2001", 4),
                ("a4", "A", "2001", 2), ("b1", "B", big, 7), ("b2", "B", big, 1),
                ("b3", "B", "2001", 6), ("b4", "B", "2001", 9),
            ]), encoding="utf-8")
        out = tmp_path / "out"
        assert run("percentiles", "--input", csv_path, "--out-dir", out) == 0
        assert capsys.readouterr().err == (
            "reference set C:-5: 2 papers, 0 tie group(s)\n"
            "reference set C:2001: 4 papers, 0 tie group(s)\n"
            f"reference set C:{big}: 2 papers, 0 tie group(s)\n"
        )
        sets = [line.split(",")[1] for line in
                (out / "percentiles.csv").read_text().splitlines()[1:]]
        assert sets == ["C:-5"] * 2 + ["C:2001"] * 2 + [f"C:{big}"] * 2 + ["C:2001"] * 2
        for flags, n_b in (([], "4"), (["--last-year", "2001"], "2")):
            assert run("summary", "--input", csv_path, "--out-dir", out, *flags) == 0
            rows = (out / "summary.tsv").read_text().splitlines()
            assert "\t".join(["N", "4", n_b]) in rows

    def test_config_comments_and_blank_lines_are_skipped(self, inst_csv, tmp_path, capsys):
        seen = []
        for k, text in enumerate(["mu0 = 40\nformat = tsv\n",
                                  "# mu0 = 60\n\nmu0 = 40\n  # a comment\n\nformat = tsv\n",
                                  "\ufeffmu0 = 40\nformat = tsv\n"]):  # a byte-order mark
            config, out = tmp_path / f"{k}.cfg", tmp_path / f"out{k}"
            config.write_text(text, encoding="utf-8")
            code = run("summary", "--input", inst_csv, "--config", config, "--out-dir", out)
            seen.append((code, capsys.readouterr(), (out / "summary.tsv").read_bytes()))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0][0] == 0 and b"test of mean = 40)" in seen[0][2]


class TestOptionValues:
    """A value is read and checked by one rule, whether a flag or the config
    file gives it; a bad one exits 2 with one line."""

    BAD = [
        ("mu0", "101", "mu0 must be in [0, 100], got 101.0"),
        ("mu0", "abc", "mu0 must be a number, got 'abc'"),
        ("top_x", "100", "top_x must be in (0, 100), got 100.0"),
        ("p0", "0", "p0 must be in (0, 1), got 0.0"),
        ("ci_level", "1", "ci_level must be in (0, 1), got 1.0"),
        # its upper quantile 0.5 + ci_level/2 rounds to 1
        ("ci_level", "0.9999999999999999", "ci_level must be in (0, 1), got 0.9999999999999999"),
        ("scheme", "bogus", "scheme must be common or incites, got bogus"),
        ("counting", "bogus", "counting must be binary or fractional, got bogus"),
        ("ci", "bogus", "ci must be normal or percentile, got bogus"),
        ("format", "tsv,xml", "format must be tsv, json or svg, got xml"),
        ("bootstrap_reps", "0", "bootstrap_reps must be >= 1, got 0"),
        ("seed", "1.5", "seed must be an integer, got '1.5'"),
        ("seed", "-1", "seed must be >= 0, got -1"),
        ("workers", "0", "workers must be >= 1, got 0"),
    ] + [
        ("statistic", value, "statistic must be mean, mean-diff, proportion or prop-diff, "
                             f"got {value}")
        for value in ("bogus", "mean_diff")
    ]

    def run_with(self, csv_path, command, key, value, spelling):
        argv = [command, "--input", csv_path, "--out-dir", csv_path.parent / "out"]
        for default_key, default in (("pairs", "A:B"), ("institution", "A")):
            if default_key != key:  # a flag would beat the config file's value
                argv += ["--" + default_key, default]
        if spelling == "flag":
            return run(*argv, "--" + key.replace("_", "-"), value)
        config = csv_path.parent / "run.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        return run(*argv, "--config", config)

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    @pytest.mark.parametrize("key, value, message", BAD)
    def test_bad_value_exits_2(self, inst_csv, capsys, key, value, message, spelling):
        assert self.run_with(inst_csv, "summary", key, value, spelling) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_negative_seed_from_the_environment_exits_2(self, inst_csv, capsys, monkeypatch,
                                                        command):
        monkeypatch.setenv("PCT_IMPACT_SEED", "-5")
        assert self.run_with(inst_csv, command, "statistic", "mean", "flag") == 2
        assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -5\n"

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_bad_statistic_exits_2_under_every_command(self, inst_csv, capsys, command,
                                                       spelling):
        assert self.run_with(inst_csv, command, "statistic", "bogus", spelling) == 2
        assert capsys.readouterr().err.startswith("configuration error: statistic must be")

    @pytest.mark.parametrize("command, key, value", [
        ("summary", "scheme", " incites "),
        ("topshare", "counting", " fractional "),
        ("bootstrap", "ci", " percentile "),
        ("bootstrap", "statistic", " mean-diff "),
        ("summary", "format", " tsv,json,svg "),
        ("bootstrap", "institution", " A "),
        ("compare", "pairs", " A : B "),
    ])
    def test_padded_value_reads_the_same_from_a_flag_or_the_config_file(
            self, inst_csv, capsys, command, key, value):
        out = inst_csv.parent / "out"
        seen = []
        for spelling in ("flag", "config"):
            code = self.run_with(inst_csv, command, key, value, spelling)
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
            shutil.rmtree(out, ignore_errors=True)
            seen.append((code, capsys.readouterr(), files))
        assert seen[0] == seen[1]
        assert seen[0][0] == 0 and seen[0][2]

    @pytest.mark.parametrize("value, on", [
        ("yes", True), ("on", True), ("1", True), (" True ", True),
        ("no", False), ("off", False), ("0", False), ("FALSE", False),
    ])
    def test_boolean_spellings(self, inst_csv, tmp_path, value, on):
        assert self.run_with(inst_csv, "compare", "welch", value, "config") == 0
        assert ("Welch t" in (tmp_path / "out" / "compare.tsv").read_text()) == on

    def test_bad_boolean_exits_2(self, inst_csv, capsys):
        assert self.run_with(inst_csv, "compare", "welch", "maybe", "config") == 2
        err = capsys.readouterr().err
        assert err == "configuration error: welch must be a boolean, got 'maybe'\n"

    def test_flags_may_come_before_the_command(self, inst_csv, tmp_path, capsys):
        flags = ["--input", inst_csv, "--ci-level", "0.9", "--format", "tsv,json,svg"]
        outputs = []
        for argv in (["summary", *flags], [*flags, "summary"]):
            out = tmp_path / str(len(outputs))
            assert run(*argv, "--out-dir", out) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1] and b"90% CI" in outputs[0]["summary.tsv"]

    @pytest.mark.parametrize("argv", [["summary", "--nope"], ["bogus"], []])
    def test_unknown_flag_or_command_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: pct-impact")

    def test_help_names_each_command_and_the_allowed_values(self, capsys):
        with pytest.raises(SystemExit):
            run("--help")
        text = capsys.readouterr().out
        for name, fn in _COMMANDS.items():
            assert f"  {name:<12} {fn.__doc__}" in text
        assert "--statistic {mean,mean-diff,proportion,prop-diff}" in text
        assert "--scheme {common,incites}" in text

