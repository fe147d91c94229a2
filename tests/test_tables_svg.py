"""Report table formatting/round-trips and SVG chart structure."""

import re
import xml.etree.ElementTree as ET

import pytest

from pct_impact.effects import SummaryStats
from pct_impact.svgchart import CiChartSpec, CiSeries, render_ci_chart
from pct_impact.tables import (
    Cell,
    compare_table,
    summary_table,
    topcompare_table,
    topshare_table,
)

INST_STATS = {
    "1": SummaryStats.from_moments(268, 49.67, 30.66),
    "2": SummaryStats.from_moments(549, 32.15, 27.49),
    "3": SummaryStats.from_moments(488, 45.98, 29.40),
}
TOP_COUNTS = {"1": (30.0, 268), "2": (160.0, 549), "3": (57.0, 488)}


def _cell_map(table):
    return {
        label: dict(zip(table.col_labels, row))
        for label, row in zip(table.row_labels, table.cells)
    }


class TestCellFormatting:
    def test_two_decimal_default(self):
        assert Cell(28.5673).display() == "28.57"

    def test_effect_three_decimals(self):
        assert Cell(-0.6493, precision=3).display() == "-0.649"

    def test_p_value_floor(self):
        assert Cell(3e-5, kind="p").display() == "<.0001"
        assert Cell(0.8603, kind="p").display() == "0.8603"

    def test_undefined_marker(self):
        assert Cell(None).display() == "NA"

    def test_int(self):
        assert Cell(549, kind="int").display() == "549"


class TestSummaryTable:
    def test_reproduces_published_columns(self):
        table = summary_table(INST_STATS, 50.0)
        cells = _cell_map(table)
        assert cells["Mean"]["2"].display() == "32.15"
        assert cells["t (for test of mean = 50)"]["2"].display() == "-15.21"
        assert cells["P value (two-tailed)"]["2"].display() == "<.0001"
        assert cells["Cohen's d"]["2"].display() == "-0.649"
        assert cells["N"]["3"].display() == "488"

    def test_small_group_gets_markers_and_warning(self):
        stats = {"tiny": SummaryStats(n=1, mean=44.0, sd=None, se=None)}
        with pytest.warns(RuntimeWarning):
            table = summary_table(stats, 50.0)
        cells = _cell_map(table)
        assert cells["Cohen's d"]["tiny"].display() == "NA"
        assert cells["Mean"]["tiny"].display() == "44.00"

    def test_tsv_round_trips_to_json_within_precision(self):
        table = summary_table(INST_STATS, 50.0)
        tsv = table.to_tsv()
        json_rows = {r["label"]: r for r in table.to_json_dict()["rows"]}
        lines = tsv.splitlines()
        cols = lines[0].split("\t")[1:]
        for line in lines[1:]:
            parts = line.split("\t")
            label, displays = parts[0], parts[1:]
            for col, shown in zip(cols, displays):
                idx = json_rows[label]["display"].index(shown)
                value = json_rows[label]["values"][cols.index(col)]
                if shown in ("NA", "<.0001"):
                    continue
                decimals = len(shown.split(".")[1]) if "." in shown else 0
                assert abs(float(shown) - value) <= 0.5 * 10 ** (-decimals)

    def test_deterministic(self):
        t1 = summary_table(INST_STATS, 50.0)
        t2 = summary_table(INST_STATS, 50.0)
        assert t1.to_tsv() == t2.to_tsv()
        assert t1.to_json_dict() == t2.to_json_dict()

    def test_d_row_equals_t_over_sqrt_n_at_displayed_precision(self):
        import math

        table = summary_table(INST_STATS, 50.0)
        cells = _cell_map(table)
        for col in table.col_labels:
            t = cells["t (for test of mean = 50)"][col].value
            n = cells["N"][col].value
            shown_d = cells["Cohen's d"][col].display()
            assert shown_d == f"{t / math.sqrt(n):.3f}"


class TestCompareTable:
    SAMPLES = {
        "a": [10.0, 20.0, 30.0, 40.0, 50.0, 25.0],
        "b": [30.0, 45.0, 55.0, 60.0, 32.0, 48.0],
    }

    def test_pair_order_is_preserved_and_signed(self):
        table = compare_table(self.SAMPLES, [("a", "b"), ("b", "a")])
        cells = _cell_map(table)
        diff_ab = cells["Difference between means"]["a vs b"].value
        diff_ba = cells["Difference between means"]["b vs a"].value
        assert diff_ab == pytest.approx(-diff_ba)

    def test_optional_rows(self):
        table = compare_table(
            self.SAMPLES, [("a", "b")], include_welch=True, include_mann_whitney=True
        )
        assert "Welch t" in table.row_labels
        assert "Mann-Whitney z" in table.row_labels

    def test_self_pair_is_zero(self):
        table = compare_table(self.SAMPLES, [("a", "a")])
        cells = _cell_map(table)
        assert cells["Difference between means"]["a vs a"].value == 0.0
        assert cells["t (for test of means are equal)"]["a vs a"].value == 0.0


class TestTopShareTables:
    def test_reproduces_published_columns(self):
        table = topshare_table(TOP_COUNTS, 0.10, 10.0)
        cells = _cell_map(table)
        assert cells["Share in top 10% (x100)"]["3"].display() == "11.68"
        assert cells["z (for test of share = 0.1)"]["2"].display() == "14.95"
        assert cells["Cohen's h"]["3"].display() == "0.054"
        assert table.footnotes == [
            "Numbers are multiplied by 100 to convert them into percentages"
        ]

    def test_zero_top_count_endpoint(self):
        import math

        table = topshare_table({"z": (0.0, 50)}, 0.10, 10.0)
        cells = _cell_map(table)
        assert cells["Share in top 10% (x100)"]["z"].value == 0.0
        expected_h = -2 * math.asin(math.sqrt(0.10))
        assert cells["Cohen's h"]["z"].value == pytest.approx(expected_h)

    def test_topcompare_antisymmetric(self):
        table = topcompare_table(TOP_COUNTS, [("1", "2"), ("2", "1")], 10.0)
        cells = _cell_map(table)
        assert cells["Cohen's h"]["1 vs 2"].value == pytest.approx(
            -cells["Cohen's h"]["2 vs 1"].value
        )
        assert cells["z (for test of shares are equal)"]["1 vs 2"].display() == "-5.70"


def _assert_pinned(table, title, tsv, values, footnotes=()):
    """Full TSV byte for byte; full JSON, with values to 1e-12 relative."""
    assert table.to_tsv() == tsv
    header, *lines = [line.split("\t") for line in tsv.splitlines()]
    got = table.to_json_dict()
    assert got["title"] == title
    assert got["columns"] == header[1:]
    assert got["footnotes"] == list(footnotes)
    assert [(r["label"], r["display"]) for r in got["rows"]] == [
        (line[0], line[1:]) for line in lines
    ]
    assert len(got["rows"]) == len(values)
    for row, expected in zip(got["rows"], values):
        assert [type(v) for v in row["values"]] == [type(v) for v in expected]
        assert row["values"] == pytest.approx(expected, rel=1e-12)


class TestPinnedOutputs:
    """Whole-table outputs for the paths the demo golden files do not reach."""

    SAMPLES = {
        "a": [10.0, 20.0, 35.0, 50.0],
        "b": [5.0, 15.0, 25.0],
        "c": [40.0, 60.0, 70.0, 90.0, 95.0],
    }
    PAIRS = [("a", "b"), ("c", "a")]
    COMPARE_TITLE = "Differences in percentiles across institutions"
    COMPARE_TSV = (
        "statistical_measure\ta vs b\tc vs a\n"
        "Difference between means\t13.75\t42.25\n"
        "Standard deviation (pooled)\t14.96\t20.49\n"
        "Standard error of the mean difference\t11.42\t13.74\n"
        "Lower bound of the 95% CI for the difference\t-15.62\t9.75\n"
        "Upper bound of the 95% CI for the difference\t43.12\t74.75\n"
        "t (for test of means are equal)\t1.20\t3.07\n"
        "P value (two-tailed)\t0.2826\t0.0180\n"
        "Cohen's d\t0.919\t2.062\n"
    )
    COMPARE_VALUES = [
        [13.75, 42.25],
        [14.958275301651591, 20.489544371982227],
        [11.42457147263447, 13.744804213125148],
        [-15.61779590748299, 9.748702624249603],
        [43.117795907482986, 74.7512973757504],
        [1.2035462365424978, 3.0738888197224923],
        [0.2826335136895537, 0.017969012190786948],
        [0.9192236218892039, 2.0620273068528263],
    ]

    def test_summary_with_undefined_columns(self):
        stats = {
            "1": SummaryStats.from_moments(268, 49.67, 30.66),
            "flat": SummaryStats(n=3, mean=40.0, sd=0.0, se=0.0),
            "tiny": SummaryStats(n=1, mean=44.0, sd=None, se=None),
        }
        with pytest.warns(RuntimeWarning) as record:
            table = summary_table(stats, 50.0)
        assert [(str(w.message), w.filename) for w in record] == [
            (f"group {label!r} has n < 2 or zero variance; emitting undefined markers", __file__)
            for label in ("flat", "tiny")
        ]
        _assert_pinned(
            table,
            "Effect sizes and significance tests using mean percentiles (mu0 = 50)",
            "statistical_measure\t1\tflat\ttiny\n"
            "Mean\t49.67\t40.00\t44.00\n"
            "Standard deviation\t30.66\tNA\tNA\n"
            "Standard error of the mean\t1.87\tNA\tNA\n"
            "Lower bound of the 95% CI\t45.98\tNA\tNA\n"
            "Upper bound of the 95% CI\t53.36\tNA\tNA\n"
            "t (for test of mean = 50)\t-0.18\tNA\tNA\n"
            "N\t268\t3\t1\n"
            "P value (two-tailed)\t0.8603\tNA\tNA\n"
            "Cohen's d\t-0.011\tNA\tNA\n",
            [
                [49.67, 40.0, 44.0],
                [30.66, None, None],
                [1.872857581982159, None, None],
                [45.98255201536743, None, None],
                [53.35744798463257, None, None],
                [-0.17620133168414187, None, None],
                [268, 3, 1],
                [0.8602693436777149, None, None],
                [-0.010763209393346324, None, None],
            ],
        )

    def test_compare_without_optional_rows(self):
        table = compare_table(self.SAMPLES, self.PAIRS)
        _assert_pinned(table, self.COMPARE_TITLE, self.COMPARE_TSV, self.COMPARE_VALUES)

    def test_compare_with_welch_only(self):
        table = compare_table(self.SAMPLES, self.PAIRS, include_welch=True)
        _assert_pinned(
            table,
            self.COMPARE_TITLE,
            self.COMPARE_TSV
            + "Welch t\t1.31\t3.17\nWelch df\t4.8\t7.0\nWelch P value\t0.2487\t0.0157\n",
            self.COMPARE_VALUES
            + [
                [1.311632245303321, 3.1706703233213047],
                [4.812560804237381, 6.999804580053811],
                [0.24872561429114737, 0.01569376855975313],
            ],
        )

    def test_topshare_from_fractional_counts(self):
        table = topshare_table({"1": (26.5, 268), "2": (57.25, 549)}, 0.10, 10.0)
        _assert_pinned(
            table,
            "Effect sizes and significance tests for the top 10% share",
            "statistical_measure\t1\t2\n"
            "Share in top 10% (x100)\t9.89\t10.43\n"
            "Standard error (x100)\t1.82\t1.30\n"
            "Lower bound of the 95% CI (x100)\t6.31\t7.87\n"
            "Upper bound of the 95% CI (x100)\t13.46\t12.98\n"
            "z (for test of share = 0.1)\t-0.06\t0.33\n"
            "P value (two-tailed)\t0.9513\t0.7381\n"
            "Cohen's h\t-0.004\t0.014\n"
            "N\t268\t549\n",
            [
                [9.888059701492537, 10.428051001821494],
                [1.8233889285230256, 1.3043718365373573],
                [6.314283071778328, 7.871529179759906],
                [13.461836331206744, 12.98457282388308],
                [-0.06108472217815324, 0.33431851982478344],
                [0.9512917363637889, 0.7381392168494745],
                [-0.003740680456581158, 0.01413562902304244],
                [268, 549],
            ],
            ["Numbers are multiplied by 100 to convert them into percentages"],
        )


FIG1 = CiChartSpec(
    series=(
        CiSeries("Institution 1", 49.67, 45.99, 53.36),
        CiSeries("Institution 2", 32.15, 29.85, 34.46),
        CiSeries("Institution 3", 45.98, 43.37, 48.59),
    ),
    title="Average percentile score by institution",
    y_label="Mean percentile",
    reference_line=50.0,
)


def _ref_line_y(svg):
    m = re.search(r'class="ref-line"[^/]*y1="([0-9.]+)"', svg)
    return float(m.group(1))

def _bars(svg):
    return [
        (float(m.group(1)), float(m.group(2)))
        for m in re.finditer(r'class="ci-bar"[^/]*y1="([0-9.]+)" x2="[0-9.]+" y2="([0-9.]+)"', svg)
    ]


class TestSvgChart:
    def test_valid_xml_and_fixed_viewbox(self):
        svg = render_ci_chart(FIG1)
        root = ET.fromstring(svg)
        assert root.attrib["viewBox"] == "0 0 640 420"

    def test_reference_line_crosses_only_institution_1(self):
        svg = render_ci_chart(FIG1)
        ref_y = _ref_line_y(svg)
        bars = _bars(svg)
        assert len(bars) == 3
        crossing = [min(y1, y2) <= ref_y <= max(y1, y2) for y1, y2 in bars]
        assert crossing == [True, False, False]

    def test_difference_chart_crossing(self):
        fig2 = CiChartSpec(
            series=(
                CiSeries("1 vs 2", 17.52, 13.34, 21.70),
                CiSeries("1 vs 3", 3.69, -0.76, 8.15),
                CiSeries("3 vs 2", 13.83, 10.36, 17.30),
            ),
            reference_line=0.0,
        )
        svg = render_ci_chart(fig2)
        ref_y = _ref_line_y(svg)
        crossing = [min(y1, y2) <= ref_y <= max(y1, y2) for y1, y2 in _bars(svg)]
        assert crossing == [False, True, False]

    def test_single_series_zero_width_ci(self):
        svg = render_ci_chart(
            CiChartSpec(series=(CiSeries("only", 5.0, 5.0, 5.0),))
        )
        ET.fromstring(svg)
        [(y1, y2)] = _bars(svg)
        assert y1 == y2
        assert 'class="ci-point"' in svg

    def test_no_timestamps_and_deterministic(self):
        assert render_ci_chart(FIG1) == render_ci_chart(FIG1)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_ci_chart(CiChartSpec(series=()))

    def test_invalid_series_rejected(self):
        with pytest.raises(ValueError):
            CiSeries("bad", 1.0, 2.0, 0.5)

    def test_labels_escaped(self):
        svg = render_ci_chart(
            CiChartSpec(series=(CiSeries("a<b&c", 1.0, 0.5, 1.5),), title="x<y")
        )
        ET.fromstring(svg)
        assert "a&lt;b&amp;c" in svg
