"""Independent numpy reference for the outputs the benchmark checks.

It reads the generated CSV itself and recomputes, for the InCites
formula, inverted and zero-adjusted: each paper's percentile in its best
reference set, that set's rank, tie-group size and fractional top-x
weight, and from those each institution's mean percentile and fractional
top-x share. It shares no code with pct_impact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

TOL = 1e-9


@dataclass(frozen=True)
class Input:
    ids: list[str]
    institutions: list[str]
    years: np.ndarray
    categories: list[list[str]]
    citations: np.ndarray


def read_input(data: bytes) -> Input:
    lines = data.decode("utf-8").splitlines()[1:]
    cells = [line.split(",") for line in lines]
    return Input(
        ids=[c[0] for c in cells],
        institutions=[c[1] for c in cells],
        years=np.array([int(c[2]) for c in cells], dtype=np.int64),
        categories=[c[3].split("|") for c in cells],
        citations=np.array([int(c[4]) for c in cells], dtype=np.int64),
    )


@dataclass(frozen=True)
class Best:
    """Per paper, its best reference set and what that set assigns it."""

    percentile: np.ndarray
    weight: np.ndarray
    rank: np.ndarray
    tied: np.ndarray
    set_label: list[str]


def best_assignment(data: Input, x: float) -> Best:
    """Rank every paper in each (category, year) set and keep the set with
    the lowest inverted percentile; on equal values the set that sorts
    first by (category, year) wins."""
    paper, key = [], []
    for i, (cats, year) in enumerate(zip(data.categories, data.years.tolist())):
        for c in cats:
            paper.append(i)
            key.append((c, year))
    keys = sorted(set(key))
    set_index = {k: j for j, k in enumerate(keys)}
    paper = np.array(paper, dtype=np.int64)
    sid = np.array([set_index[k] for k in key], dtype=np.int64)
    cits = data.citations[paper]

    pct = np.empty(paper.size)
    weight = np.empty(paper.size)
    rank = np.empty(paper.size, dtype=np.int64)
    tied = np.empty(paper.size, dtype=np.int64)
    for j in range(len(keys)):
        where = np.flatnonzero(sid == j)
        c = cits[where]
        n = c.size
        ordered = np.sort(c)
        below = np.searchsorted(ordered, c, side="left")
        upto = np.searchsorted(ordered, c, side="right")
        rank[where] = n - below  # descending rank, ties at the maximum
        tied[where] = upto - below
        pct[where] = np.where(c == 0, 100.0, 100.0 * rank[where] / n)

        slots = Fraction(n) * Fraction(x) / 100
        threshold = ordered[n - math.ceil(slots)]
        above = int(n - np.searchsorted(ordered, threshold, side="right"))
        at = int(np.count_nonzero(ordered == threshold))
        w_tie = float(min(max((slots - above) / at, Fraction(0)), Fraction(1)))
        weight[where] = np.where(c > threshold, 1.0, np.where(c == threshold, w_tie, 0.0))

    order = np.lexsort((sid, pct, paper))
    first = order[np.r_[True, paper[order][1:] != paper[order][:-1]]]
    labels = [f"{c}:{y}" for c, y in keys]
    return Best(
        percentile=pct[first],
        weight=weight[first],
        rank=rank[first],
        tied=tied[first],
        set_label=[labels[s] for s in sid[first].tolist()],
    )


def percentiles_csv(data: Input, best: Best) -> bytes:
    """The exact bytes `pct-impact percentiles` should write."""
    out = ["paper_id,reference_set,rank,percentile,tie_group_size,top_x_weight\n"]
    for pid, label, r, p, t, w in zip(
        data.ids, best.set_label, best.rank.tolist(), best.percentile.tolist(),
        best.tied.tolist(), best.weight.tolist(),
    ):
        out.append(f"{pid},{label},{r},{p:.6g},{t},{w:.6g}\n")
    return "".join(out).encode("utf-8")


def by_institution(data: Input, values: np.ndarray) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for label, v in zip(data.institutions, values.tolist()):
        groups.setdefault(label, []).append(v)
    return {label: math.fsum(vs) / len(vs) for label, vs in groups.items()}


class Truth:
    """Expected values for one generated input, computed once per run."""

    def __init__(self, csv_bytes: bytes, x: float = 10.0):
        self.data = read_input(csv_bytes)
        self.x = x
        self.best = best_assignment(self.data, x)
        self.mean_pct = by_institution(self.data, self.best.percentile)
        self.top_share = by_institution(self.data, self.best.weight)
        self.sets: dict[tuple, list[int]] = {}
        for cats, year, c in zip(self.data.categories, self.data.years.tolist(),
                                 self.data.citations.tolist()):
            for cat in cats:
                self.sets.setdefault((cat, year), []).append(c)

    def stats(self) -> dict:
        """Rows, reference sets, set-size quantiles and tie groups."""
        sizes = np.array([len(v) for v in self.sets.values()])
        ties = sum(int(np.count_nonzero(np.unique(v, return_counts=True)[1] > 1))
                   for v in self.sets.values())
        return {
            "rows": len(self.data.ids),
            "reference_sets": len(self.sets),
            "set_size_quantiles": [int(q) for q in np.quantile(sizes, [0, 0.25, 0.5, 0.75, 1])],
            "tie_groups": ties,
        }

    def check(self, sub: str, out_dir: Path) -> list[str]:
        """Problems found in one invocation's outputs; empty when correct."""
        if sub == "percentiles":
            return self._check_percentiles(out_dir / "percentiles.csv")
        if sub == "summary":
            return _check_row(out_dir / "summary.json", "Mean", self.mean_pct, 1.0)
        if sub == "topshare":
            return _check_row(
                out_dir / "topshare.json", f"Share in top {self.x:g}% (x100)",
                self.top_share, 100.0,
            )
        return []

    def _check_percentiles(self, path: Path) -> list[str]:
        got = path.read_bytes()
        if got != percentiles_csv(self.data, self.best):
            return [f"{path.name} differs from the oracle"]
        if len(self.sets) == 1:
            weights = np.loadtxt(path, delimiter=",", skiprows=1, usecols=5, dtype=float)
            want = weights.size * self.x / 100
            if abs(math.fsum(weights.tolist()) - want) > TOL:
                return [f"top_x_weight sums to {weights.sum()}, expected {want}"]
        return []


def _check_row(path: Path, label: str, want: dict[str, float], scale: float) -> list[str]:
    table = json.loads(path.read_text(encoding="utf-8"))
    rows = [r for r in table["rows"] if r["label"] == label]
    if len(rows) != 1:
        return [f"{path.name}: no single row {label!r}"]
    got = dict(zip(table["columns"], rows[0]["values"]))
    if set(got) != set(want):
        return [f"{path.name}: columns {sorted(got)} != institutions {sorted(want)}"]
    bad = [k for k in want if not abs(got[k] - scale * want[k]) <= TOL]
    if bad:
        k = bad[0]
        return [f"{path.name}: {label} for {k} is {got[k]}, oracle {scale * want[k]}"]
    return []
