"""Report tables: one statistical measure per row, one group per column.

Cells keep their full-precision value next to a display precision, so TSV
output shows rounded numbers while JSON output preserves everything. A
p-value below 5e-5 displays as "<.0001".
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .effects import (
    SummaryStats,
    one_sample_prop_z,
    one_sample_t,
    summarize,
    two_sample_pooled_t,
    two_sample_prop_z,
    two_sample_welch_t,
)
from .resampling import mann_whitney

__all__ = [
    "Cell",
    "ReportTable",
    "summary_table",
    "compare_table",
    "topshare_table",
    "topcompare_table",
]

P_FLOOR = 5e-5  # below this, display "<.0001"


@dataclass(frozen=True)
class Cell:
    """One table cell: raw value plus how many decimals to display.

    precision None formats integers as integers; kind "p" applies the
    p-value display rule. A None value renders as the undefined marker.
    """

    value: Union[float, int, None]
    precision: Optional[int] = 2
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


@dataclass
class ReportTable:
    title: str
    row_labels: list[str]
    col_labels: list[str]
    cells: list[list[Cell]]  # indexed [row][col]
    footnotes: list[str] = field(default_factory=list)

    def to_tsv(self) -> str:
        out = io.StringIO()
        out.write("statistical_measure\t" + "\t".join(self.col_labels) + "\n")
        for label, row in zip(self.row_labels, self.cells):
            out.write(label + "\t" + "\t".join(c.display() for c in row) + "\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "title": self.title,
            "columns": self.col_labels,
            "rows": [
                {
                    "label": label,
                    "values": [c.value for c in row],
                    "display": [c.display() for c in row],
                }
                for label, row in zip(self.row_labels, self.cells)
            ],
            "footnotes": self.footnotes,
        }

    def to_text(self) -> str:
        """Fixed-width rendering for the terminal."""
        headers = ["Statistical measure"] + self.col_labels
        rows = [
            [label] + [c.display() for c in row]
            for label, row in zip(self.row_labels, self.cells)
        ]
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


def summary_table(
    stats_by_group: dict[str, SummaryStats],
    mu0: float,
    ci_level: float = 0.95,
) -> ReportTable:
    """Mean percentile table: one column per institution, tested against mu0.

    Groups with n < 2 get undefined markers in every inferential row and
    trigger a warning.
    """
    cols = list(stats_by_group)
    rows = [
        "Mean",
        "Standard deviation",
        "Standard error of the mean",
        _ci_label(ci_level, "Lower"),
        _ci_label(ci_level, "Upper"),
        f"t (for test of mean = {mu0:g})",
        "N",
        "P value (two-tailed)",
        "Cohen's d",
    ]
    cells: list[list[Cell]] = [[] for _ in rows]
    for label in cols:
        s = stats_by_group[label]
        if s.n < 2 or s.sd is None or s.sd == 0:
            warnings.warn(
                f"group {label!r} has n < 2 or zero variance; emitting undefined markers",
                RuntimeWarning,
                stacklevel=2,
            )
            col = [
                Cell(s.mean),
                Cell(None),
                Cell(None),
                Cell(None),
                Cell(None),
                Cell(None),
                Cell(s.n, kind="int"),
                Cell(None),
                Cell(None),
            ]
        else:
            r = one_sample_t(s, mu0, ci_level=ci_level)
            col = [
                Cell(s.mean),
                Cell(s.sd),
                Cell(s.se),
                Cell(r.ci_low),
                Cell(r.ci_high),
                Cell(r.statistic_t),
                Cell(s.n, kind="int"),
                Cell(r.p_two_tailed, kind="p"),
                Cell(r.effect_d, precision=3),
            ]
        for i, c in enumerate(col):
            cells[i].append(c)
    return ReportTable(
        title=f"Effect sizes and significance tests using mean percentiles (mu0 = {mu0:g})",
        row_labels=rows,
        col_labels=cols,
        cells=cells,
    )


def compare_table(
    samples: dict[str, Sequence[float]],
    pairs: Sequence[tuple[str, str]],
    ci_level: float = 0.95,
    include_welch: bool = False,
    include_mann_whitney: bool = False,
) -> ReportTable:
    """Pairwise mean-difference table; pair (a, b) reports statistic(a) - statistic(b)."""
    rows = [
        "Difference between means",
        "Standard deviation (pooled)",
        "Standard error of the mean difference",
        _ci_label(ci_level, "Lower") + " for the difference",
        _ci_label(ci_level, "Upper") + " for the difference",
        "t (for test of means are equal)",
        "P value (two-tailed)",
        "Cohen's d",
    ]
    if include_welch:
        rows += ["Welch t", "Welch df", "Welch P value"]
    if include_mann_whitney:
        rows += ["Mann-Whitney z", "Mann-Whitney P value"]
    cols = [f"{a} vs {b}" for a, b in pairs]
    cells: list[list[Cell]] = [[] for _ in rows]
    labels = dict.fromkeys(label for pair in pairs for label in pair)
    stats = {label: summarize(samples[label]) for label in labels}
    for a, b in pairs:
        sa, sb = stats[a], stats[b]
        r = two_sample_pooled_t(sa, sb, ci_level=ci_level)
        col = [
            Cell(r.estimate),
            Cell(r.pooled_sd),
            Cell(r.se),
            Cell(r.ci_low),
            Cell(r.ci_high),
            Cell(r.statistic_t),
            Cell(r.p_two_tailed, kind="p"),
            Cell(r.effect_d, precision=3),
        ]
        if include_welch:
            w = two_sample_welch_t(sa, sb, ci_level=ci_level)
            col += [Cell(w.statistic_t), Cell(w.df, precision=1), Cell(w.p_two_tailed, kind="p")]
        if include_mann_whitney:
            mw = mann_whitney(samples[a], samples[b])
            col += [Cell(mw.z_approx), Cell(mw.p_two_tailed, kind="p")]
        for i, c in enumerate(col):
            cells[i].append(c)
    return ReportTable(
        title="Differences in percentiles across institutions",
        row_labels=rows,
        col_labels=cols,
        cells=cells,
    )


def topshare_table(
    counts_by_group: dict[str, tuple[float, int]],
    p0: float,
    x: float,
    ci_level: float = 0.95,
) -> ReportTable:
    """Top-x% share table from (top count, n) per institution.

    All share-scale rows are multiplied by 100, as the footnote records.
    """
    cols = list(counts_by_group)
    rows = [
        f"Share in top {x:g}% (x100)",
        "Standard error (x100)",
        _ci_label(ci_level, "Lower") + " (x100)",
        _ci_label(ci_level, "Upper") + " (x100)",
        f"z (for test of share = {p0:g})",
        "P value (two-tailed)",
        "Cohen's h",
        "N",
    ]
    cells: list[list[Cell]] = [[] for _ in rows]
    for label in cols:
        count, n = counts_by_group[label]
        r = one_sample_prop_z(count, n, p0, ci_level=ci_level)
        col = [
            Cell(100 * r.estimate),
            Cell(100 * r.se),
            Cell(100 * r.ci_low),
            Cell(100 * r.ci_high),
            Cell(r.statistic_z),
            Cell(r.p_two_tailed, kind="p"),
            Cell(r.effect_h, precision=3),
            Cell(n, kind="int"),
        ]
        for i, c in enumerate(col):
            cells[i].append(c)
    return ReportTable(
        title=f"Effect sizes and significance tests for the top {x:g}% share",
        row_labels=rows,
        col_labels=cols,
        cells=cells,
        footnotes=["Numbers are multiplied by 100 to convert them into percentages"],
    )


def topcompare_table(
    counts_by_group: dict[str, tuple[float, int]],
    pairs: Sequence[tuple[str, str]],
    x: float,
    ci_level: float = 0.95,
) -> ReportTable:
    """Pairwise top-x% share differences; pair (a, b) reports share(a) - share(b)."""
    rows = [
        "Difference between shares (x100)",
        "Standard error (x100)",
        _ci_label(ci_level, "Lower") + " for the difference (x100)",
        _ci_label(ci_level, "Upper") + " for the difference (x100)",
        "z (for test of shares are equal)",
        "Cohen's h",
        "P value (two-tailed)",
    ]
    cols = [f"{a} vs {b}" for a, b in pairs]
    cells: list[list[Cell]] = [[] for _ in rows]
    for a, b in pairs:
        (c1, n1), (c2, n2) = counts_by_group[a], counts_by_group[b]
        r = two_sample_prop_z(c1, n1, c2, n2, ci_level=ci_level)
        col = [
            Cell(100 * r.estimate),
            Cell(100 * r.se),
            Cell(100 * r.ci_low),
            Cell(100 * r.ci_high),
            Cell(r.statistic_z),
            Cell(r.effect_h, precision=3),
            Cell(r.p_two_tailed, kind="p"),
        ]
        for i, c in enumerate(col):
            cells[i].append(c)
    return ReportTable(
        title=f"Differences in the top {x:g}% share across institutions",
        row_labels=rows,
        col_labels=cols,
        cells=cells,
        footnotes=["Numbers are multiplied by 100 to convert them into percentages"],
    )
