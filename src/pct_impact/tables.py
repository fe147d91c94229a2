"""Report tables: one statistical measure per row, one group per column.

Cells keep their full-precision value next to a display precision, so TSV
output shows rounded numbers while JSON output preserves everything. A
p-value below 5e-5 displays as "<.0001".

Each builder computes one result per column, then lists one (label, cell)
entry per row, where cell maps a column's result to that row's Cell.
"""

from __future__ import annotations

import io
import warnings
from itertools import repeat
from typing import Callable, NamedTuple, Sequence, Union

from .effects import (
    SummaryStats,
    one_sample_prop_z,
    one_sample_t,
    summarize,
    two_sample_pooled_t,
    two_sample_prop_z,
    two_sample_welch_t,
)
from .errors import DegenerateVarianceError, SampleSizeError
from .resampling import mann_whitney_pairs

__all__ = [
    "Cell",
    "ReportTable",
    "summary_table",
    "compare_table",
    "topshare_table",
    "topcompare_table",
]

P_FLOOR = 5e-5  # below this, display "<.0001"
PERCENT_NOTE = "Numbers are multiplied by 100 to convert them into percentages"


class Cell(NamedTuple):
    """One table cell: raw value plus how many decimals to display.

    kind "int" formats the value as an integer; kind "p" applies the
    p-value display rule. A None value renders as the undefined marker.
    """

    value: Union[float, int, None]
    precision: int = 2
    kind: str = "num"  # "num" | "p" | "int"

    def display(self) -> str:
        if self.value is None:
            return "NA"
        if self.kind == "int":
            return str(int(self.value))
        if self.kind == "p":
            if self.value < P_FLOOR:
                return "<.0001"
            return f"{self.value:.4f}"
        return f"{self.value:.{self.precision}f}"


NA = Cell(None)


class ReportTable:
    """A titled grid of cells, indexed [row][col]. Each cell is formatted
    once, into texts (the same grid), which every rendering reads."""

    def __init__(self, title: str, row_labels: list[str], col_labels: list[str],
                 cells: list[list[Cell]], footnotes: Sequence[str] = ()):
        self.title = title
        self.row_labels = row_labels
        self.col_labels = col_labels
        self.cells = cells
        self.footnotes = list(footnotes)
        self.texts = [[c.display() for c in row] for row in cells]

    def to_tsv(self) -> str:
        out = io.StringIO()
        out.write("statistical_measure\t" + "\t".join(self.col_labels) + "\n")
        for label, row in zip(self.row_labels, self.texts):
            out.write(label + "\t" + "\t".join(row) + "\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "columns": self.col_labels,
            "rows": [
                {
                    "label": label,
                    "values": [c.value for c in row],
                    "display": list(texts),
                }
                for label, row, texts in zip(self.row_labels, self.cells, self.texts)
            ],
            "footnotes": self.footnotes,
        }

    def to_text(self) -> str:
        """Fixed-width rendering for the terminal."""
        headers = ["Statistical measure"] + self.col_labels
        rows = [[label] + texts for label, texts in zip(self.row_labels, self.texts)]
        widths = [
            max(len(headers[j]), *(len(r[j]) for r in rows)) for j in range(len(headers))
        ]
        lines = [self.title]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        for note in self.footnotes:
            lines.append(f"* {note}")
        return "\n".join(lines) + "\n"


def _ci_label(ci_level: float, bound: str) -> str:
    return f"{bound} bound of the {100 * ci_level:g}% CI"


def _table(
    title: str,
    cols: list[str],
    results: list[tuple],
    rows: list[tuple[str, Callable[..., Cell]]],
    footnotes: Sequence[str] = (),
) -> ReportTable:
    """Transpose per-column results into a table: row (label, cell) reads cell(*result)."""
    return ReportTable(
        title=title,
        row_labels=[label for label, _ in rows],
        col_labels=cols,
        cells=[[cell(*result) for result in results] for _, cell in rows],
        footnotes=footnotes,
    )


def summary_table(
    stats_by_group: dict[str, SummaryStats],
    mu0: float,
    ci_level: float = 0.95,
) -> ReportTable:
    """Mean percentile table: one column per institution, tested against mu0.

    Groups that one_sample_t rejects (n < 2 or zero SD) get undefined
    markers in every inferential row and trigger a warning.
    """
    results = []
    for label, s in stats_by_group.items():
        try:
            results.append((s, one_sample_t(s, mu0, ci_level=ci_level)))
        except (SampleSizeError, DegenerateVarianceError):
            warnings.warn(
                f"group {label!r} has n < 2 or zero variance; emitting undefined markers",
                RuntimeWarning,
                stacklevel=2,
            )
            results.append((s, None))
    rows = [
        ("Mean", lambda s, r: Cell(s.mean)),
        ("Standard deviation", lambda s, r: Cell(s.sd) if r else NA),
        ("Standard error of the mean", lambda s, r: Cell(s.se) if r else NA),
        (_ci_label(ci_level, "Lower"), lambda s, r: Cell(r.ci_low) if r else NA),
        (_ci_label(ci_level, "Upper"), lambda s, r: Cell(r.ci_high) if r else NA),
        (f"t (for test of mean = {mu0:g})", lambda s, r: Cell(r.statistic_t) if r else NA),
        ("N", lambda s, r: Cell(s.n, kind="int")),
        ("P value (two-tailed)", lambda s, r: Cell(r.p_two_tailed, kind="p") if r else NA),
        ("Cohen's d", lambda s, r: Cell(r.effect_d, precision=3) if r else NA),
    ]
    title = f"Effect sizes and significance tests using mean percentiles (mu0 = {mu0:g})"
    return _table(title, list(stats_by_group), results, rows)


def compare_table(
    samples: dict[str, Sequence[float]],
    pairs: Sequence[tuple[str, str]],
    ci_level: float = 0.95,
    include_welch: bool = False,
    include_mann_whitney: bool = False,
) -> ReportTable:
    """Pairwise mean-difference table; pair (a, b) reports statistic(a) - statistic(b)."""
    labels = dict.fromkeys(label for pair in pairs for label in pair)
    stats = {label: summarize(samples[label]) for label in labels}
    # each pair's Mann-Whitney result is taken after its t tests, so an error
    # stops the table at the same pair and test as a per-pair call would
    rank_sums = mann_whitney_pairs(samples, pairs) if include_mann_whitney else repeat(None)
    results = []
    for a, b in pairs:
        sa, sb = stats[a], stats[b]
        r = two_sample_pooled_t(sa, sb, ci_level=ci_level)
        w = two_sample_welch_t(sa, sb, ci_level=ci_level) if include_welch else None
        results.append((r, w, next(rank_sums)))
    rows = [
        ("Difference between means", lambda r, w, mw: Cell(r.estimate)),
        ("Standard deviation (pooled)", lambda r, w, mw: Cell(r.pooled_sd)),
        ("Standard error of the mean difference", lambda r, w, mw: Cell(r.se)),
        (_ci_label(ci_level, "Lower") + " for the difference", lambda r, w, mw: Cell(r.ci_low)),
        (_ci_label(ci_level, "Upper") + " for the difference", lambda r, w, mw: Cell(r.ci_high)),
        ("t (for test of means are equal)", lambda r, w, mw: Cell(r.statistic_t)),
        ("P value (two-tailed)", lambda r, w, mw: Cell(r.p_two_tailed, kind="p")),
        ("Cohen's d", lambda r, w, mw: Cell(r.effect_d, precision=3)),
    ]
    if include_welch:
        rows += [
            ("Welch t", lambda r, w, mw: Cell(w.statistic_t)),
            ("Welch df", lambda r, w, mw: Cell(w.df, precision=1)),
            ("Welch P value", lambda r, w, mw: Cell(w.p_two_tailed, kind="p")),
        ]
    if include_mann_whitney:
        rows += [
            ("Mann-Whitney z", lambda r, w, mw: Cell(mw.z_approx)),
            ("Mann-Whitney P value", lambda r, w, mw: Cell(mw.p_two_tailed, kind="p")),
        ]
    title = "Differences in percentiles across institutions"
    return _table(title, [f"{a} vs {b}" for a, b in pairs], results, rows)


def topshare_table(
    counts_by_group: dict[str, tuple[float, int]],
    p0: float,
    x: float,
    ci_level: float = 0.95,
) -> ReportTable:
    """Top-x% share table from (top count, n) per institution.

    All share-scale rows are multiplied by 100, as the footnote records.
    """
    results = [
        (one_sample_prop_z(count, n, p0, ci_level=ci_level), n)
        for count, n in counts_by_group.values()
    ]
    rows = [
        (f"Share in top {x:g}% (x100)", lambda r, n: Cell(100 * r.estimate)),
        ("Standard error (x100)", lambda r, n: Cell(100 * r.se)),
        (_ci_label(ci_level, "Lower") + " (x100)", lambda r, n: Cell(100 * r.ci_low)),
        (_ci_label(ci_level, "Upper") + " (x100)", lambda r, n: Cell(100 * r.ci_high)),
        (f"z (for test of share = {p0:g})", lambda r, n: Cell(r.statistic_z)),
        ("P value (two-tailed)", lambda r, n: Cell(r.p_two_tailed, kind="p")),
        ("Cohen's h", lambda r, n: Cell(r.effect_h, precision=3)),
        ("N", lambda r, n: Cell(n, kind="int")),
    ]
    title = f"Effect sizes and significance tests for the top {x:g}% share"
    return _table(title, list(counts_by_group), results, rows, [PERCENT_NOTE])


def topcompare_table(
    counts_by_group: dict[str, tuple[float, int]],
    pairs: Sequence[tuple[str, str]],
    x: float,
    ci_level: float = 0.95,
) -> ReportTable:
    """Pairwise top-x% share differences; pair (a, b) reports share(a) - share(b)."""
    results = [
        (two_sample_prop_z(*counts_by_group[a], *counts_by_group[b], ci_level=ci_level),)
        for a, b in pairs
    ]
    rows = [
        ("Difference between shares (x100)", lambda r: Cell(100 * r.estimate)),
        ("Standard error (x100)", lambda r: Cell(100 * r.se)),
        (
            _ci_label(ci_level, "Lower") + " for the difference (x100)",
            lambda r: Cell(100 * r.ci_low),
        ),
        (
            _ci_label(ci_level, "Upper") + " for the difference (x100)",
            lambda r: Cell(100 * r.ci_high),
        ),
        ("z (for test of shares are equal)", lambda r: Cell(r.statistic_z)),
        ("Cohen's h", lambda r: Cell(r.effect_h, precision=3)),
        ("P value (two-tailed)", lambda r: Cell(r.p_two_tailed, kind="p")),
    ]
    title = f"Differences in the top {x:g}% share across institutions"
    return _table(title, [f"{a} vs {b}" for a, b in pairs], results, rows, [PERCENT_NOTE])
