"""Citation counts to percentile ranks, top-x% classification, MNCS.

A reference set (all papers sharing a subject category and publication
year) is normalized by ranking its citation counts. Two rank-to-percentile
formulas are supported, in plain or inverted orientation, with optional
pinning of uncited papers to the worst value. Ties at the top-x% threshold
are resolved by fractional counting so the set-level share is exactly x%.

The rank, percentile and tie-weight rules live in _rank_in_sets, which
handles any number of reference sets in one numpy pass;
assign_best_percentiles runs it over a whole dataset and percentile_rank
over a single set.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .data import Dataset
from .errors import DegenerateReferenceError, SampleSizeError

__all__ = [
    "PercentileFormula",
    "PercentileScheme",
    "PercentileAssignment",
    "BestPercentiles",
    "FractionalTopShare",
    "OutlierSensitivityReport",
    "percentile_rank",
    "classify_top_x",
    "fractional_top_share",
    "mncs",
    "outlier_sensitivity",
    "outlier_sensitivity_report",
    "assign_best_percentiles",
]


class PercentileFormula(Enum):
    """Rank-to-percentile mapping: 100 (i-1)/n or 100 i/n."""

    COMMON = "common"
    INCITES = "incites"


class PercentileScheme(NamedTuple):
    """Fully determines how citation ranks become percentiles.

    inverted ranks papers by descending citations, so 100 means worst.
    zero_rank_adjust pins uncited papers to the orientation's worst value
    (0 when not inverted, 100 when inverted) after tie resolution.
    """

    formula: PercentileFormula = PercentileFormula.COMMON
    inverted: bool = False
    zero_rank_adjust: bool = False

    def worst_value(self) -> float:
        return 100.0 if self.inverted else 0.0


class PercentileAssignment(NamedTuple):
    rank: int
    percentile: float
    tied_with: int  # size of the tie group, including the paper itself
    top_x_weight: float


class _SetRanks(NamedTuple):
    """_rank_in_sets output: per (set, paper) pair, then per set."""

    rank: np.ndarray
    percentile: np.ndarray
    tied_with: np.ndarray
    top_x_weight: np.ndarray
    set_tie_groups: np.ndarray  # tie groups of two or more papers


def _rank_in_sets(
    set_ids: np.ndarray, bounds: np.ndarray, citations: np.ndarray, scheme: PercentileScheme,
    x: float,
) -> _SetRanks:
    """Rank every (set, paper) pair within its set, all sets in one pass.

    Pair i is a paper with citations[i] in set set_ids[i]; set j holds the
    pairs at bounds[j]:bounds[j + 1], at least one, as in SetMembership.
    Pair results come back in input order.
    The rank i is ascending (or descending when inverted) with max-tie
    resolution: a tie group at sorted positions j..k of its set all get
    rank k, so a tied paper never ranks better than the last paper it ties
    with. The percentile is 100 (i-1)/n or 100 i/n depending on the
    formula, and zero_rank_adjust then pins uncited papers to the worst
    value. Each set's top-x weights come from _top_x_split.
    """
    order = np.lexsort((citations, set_ids))  # each set stays in place
    c = citations[order]
    m = len(c)
    n_sets = len(bounds) - 1  # sorted by set, set j is c[bounds[j]:bounds[j + 1]]
    # tie groups: runs of equal (set, citations) in sorted order, group g at first[g]:last[g]
    first = np.flatnonzero(np.r_[True, (c[1:] != c[:-1]) | (set_ids[1:] != set_ids[:-1])])
    last = np.concatenate((first[1:], [m]))
    size = last - first
    g_set = set_ids[first]
    g_cits = c[first]
    set_lo, set_hi = bounds[g_set], bounds[g_set + 1]

    rank = set_hi - first if scheme.inverted else last - set_lo
    if scheme.formula is PercentileFormula.COMMON:
        pct = 100.0 * (rank - 1) / (set_hi - set_lo)
    else:
        pct = 100.0 * rank / (set_hi - set_lo)
    if scheme.zero_rank_adjust:
        pct[g_cits == 0] = scheme.worst_value()

    threshold = np.empty(n_sets, dtype=c.dtype)
    w_threshold = np.empty(n_sets)
    for j, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        threshold[j], _, _, w_tie = _top_x_split(c[a:b], x)
        w_threshold[j] = float(w_tie)
    t = threshold[g_set]
    weight = np.where(g_cits > t, 1.0, np.where(g_cits == t, w_threshold[g_set], 0.0))

    pair_group = np.empty(m, dtype=np.intp)  # each input pair's tie group
    pair_group[order] = np.repeat(np.arange(len(first)), size)
    return _SetRanks(
        rank=rank[pair_group],
        percentile=pct[pair_group],
        tied_with=size[pair_group],
        top_x_weight=weight[pair_group],
        set_tie_groups=np.bincount(g_set[size > 1], minlength=n_sets),
    )


def percentile_rank(
    citations: Sequence[int],
    scheme: PercentileScheme,
    x: float = 10.0,
) -> list[PercentileAssignment]:
    """Assign a percentile to every paper of one reference set.

    The rank i is ascending (or descending when inverted) with max-tie
    resolution: a tie group at sorted positions j..k all get rank k. The
    percentile is 100 (i-1)/n or 100 i/n depending on the formula.
    Fractional top-x weights are computed for the same set so the
    assignment rows carry everything downstream indicators need.
    """
    n = len(citations)
    if n == 0:
        raise ValueError("percentile_rank: empty citation list")
    ranked = _rank_in_sets(
        np.zeros(n, dtype=np.int64), np.array([0, n]), np.asarray(citations), scheme, x
    )
    return [
        PercentileAssignment(rank=i, percentile=pct, tied_with=t, top_x_weight=w)
        for i, pct, t, w in zip(
            ranked.rank.tolist(), ranked.percentile.tolist(),
            ranked.tied_with.tolist(), ranked.top_x_weight.tolist(),
        )
    ]


def classify_top_x(inv_percentile: float, x: float) -> int:
    """1 if an inverted percentile is x or better (smaller), else 0."""
    if not 0.0 <= inv_percentile <= 100.0:
        raise ValueError(
            f"classify_top_x: inv_percentile must be in [0, 100], got {inv_percentile}"
        )
    if not 0.0 < x < 100.0:
        raise ValueError(f"classify_top_x: x must be in (0, 100), got {x}")
    return 1 if inv_percentile <= x else 0


class FractionalTopShare(NamedTuple):
    """Per-paper top-x weights for one reference set.

    Papers strictly above the threshold citation count get weight 1;
    papers tied at the threshold share the remaining slots equally, which
    makes the set-level share exactly x/100. The two binary readings of a
    threshold tie (exclude or include the tie group) are exposed as counts.
    """

    weights: tuple[Fraction, ...]
    share: Fraction
    slots: Fraction
    threshold_value: int
    count_above: int
    tie_count: int
    weight_at_threshold: Fraction

    def weight_for(self, citations: int) -> Fraction:
        """Weight of any paper in this set with the given citation count."""
        return _top_x_weight(citations, self.threshold_value, self.weight_at_threshold)

    @property
    def binary_share_excluding_ties(self) -> Fraction:
        return Fraction(self.count_above, len(self.weights))

    @property
    def binary_share_including_ties(self) -> Fraction:
        return Fraction(self.count_above + self.tie_count, len(self.weights))


def _top_x_split(ordered: Sequence[int], x: float) -> tuple[int, int, int, Fraction]:
    """Threshold count, papers above it, papers tied at it, and the tie weight.

    ordered is one reference set's citations sorted ascending. The n*x/100
    top slots are filled from the top: the threshold is the citation count
    at descending position ceil(n*x/100), and the papers tied there share
    the slots left over equally (clamped to [0, 1]). Exact rational
    arithmetic, so the weights are Waltman & Schreiber's exact 1, w, 0.
    """
    if not 0.0 < x < 100.0:
        raise ValueError(f"top-x share: x must be in (0, 100), got {x}")
    n = len(ordered)
    p, q = x.as_integer_ratio()
    top, scale = n * p, 100 * q  # the slots are exactly top / scale
    k = -(-top // scale)  # ceil(n*x/100)
    threshold = ordered[n - k]  # descending position k is ordered[n - k]
    end = bisect_right(ordered, threshold)
    count_above = n - end
    tie_count = end - bisect_left(ordered, threshold)
    room = scale * tie_count
    w_tie = Fraction(min(max(top - scale * count_above, 0), room), room)
    return threshold, count_above, tie_count, w_tie


def _top_x_weight(citations: int, threshold: int, w_tie: Fraction) -> Fraction:
    """A paper's top-x weight: 1 above the threshold count, w_tie at it, else 0."""
    if citations > threshold:
        return Fraction(1)
    return w_tie if citations == threshold else Fraction(0)


def fractional_top_share(citations: Sequence[int], x: float) -> FractionalTopShare:
    """Distribute n*x/100 top slots over a reference set, splitting ties.

    The threshold is the citation count at descending position
    ceil(n*x/100). Computed in exact rational arithmetic.
    """
    if len(citations) == 0:
        raise ValueError("fractional_top_share: empty citation list")
    threshold, count_above, tie_count, w_tie = _top_x_split(sorted(citations), x)
    n = len(citations)
    weights = tuple(_top_x_weight(c, threshold, w_tie) for c in citations)
    return FractionalTopShare(
        weights=weights,
        share=sum(weights, Fraction(0)) / n,
        slots=Fraction(n) * Fraction(x) / 100,
        threshold_value=int(threshold),
        count_above=count_above,
        tie_count=tie_count,
        weight_at_threshold=w_tie,
    )


def mncs(citations: Sequence[float], ref_means: Sequence[float]) -> float:
    """Mean normalized citation score: average of citations / field mean."""
    if len(citations) != len(ref_means):
        raise ValueError("mncs: citations and ref_means lengths differ")
    if len(citations) == 0:
        raise ValueError("mncs: empty sample")
    bad = [m for m in ref_means if m <= 0]
    if bad:
        raise DegenerateReferenceError(
            f"mncs: reference means must be positive, got {bad[0]}"
        )
    return math.fsum(c / m for c, m in zip(citations, ref_means)) / len(citations)


class OutlierSensitivityReport(NamedTuple):
    """How MNCS and the fractional top-x share react to the top-cited paper."""

    n: int
    dropped_citations: int
    mncs_full: float
    mncs_without_max: float
    mncs_abs_delta: float
    mncs_rel_delta: float
    top_share_full: float
    top_share_without_max: float
    top_share_abs_delta: float
    top_share_rel_delta: float
    threshold_x: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dropped_citations": self.dropped_citations,
            "mncs": {
                "full": self.mncs_full,
                "without_max": self.mncs_without_max,
                "abs_delta": self.mncs_abs_delta,
                "rel_delta": self.mncs_rel_delta,
            },
            "top_share": {
                "full": self.top_share_full,
                "without_max": self.top_share_without_max,
                "abs_delta": self.top_share_abs_delta,
                "rel_delta": self.top_share_rel_delta,
            },
            "threshold_x": self.threshold_x,
        }


def outlier_sensitivity_report(
    citations: Sequence[int],
    ref_means: Sequence[float],
    weights: Sequence[Union[float, Fraction]],
    x: float = 10.0,
) -> OutlierSensitivityReport:
    """Drop the top-cited paper and compare both indicators before and after.

    The per-paper reference means and top-x weights are taken as given and
    held fixed; only the sample membership changes. Of the papers tied at
    the top citation count, the one with the smallest reference mean (the
    largest normalized score) is dropped, then the one with the largest
    weight, so the row order of the sample never decides. Raises
    SampleSizeError for fewer than 2 papers.
    """
    n = len(citations)
    if n < 2:
        raise SampleSizeError("outlier sensitivity needs at least 2 papers")
    if len(ref_means) != n or len(weights) != n:
        raise ValueError("citations, ref_means and weights must have equal length")

    idx_max = max(range(n), key=lambda i: (citations[i], -ref_means[i], weights[i]))
    kept = [i for i in range(n) if i != idx_max]

    mncs_full = mncs(citations, ref_means)
    mncs_drop = mncs([citations[i] for i in kept], [ref_means[i] for i in kept])
    share_full = math.fsum(weights) / n
    share_drop = math.fsum([weights[i] for i in kept]) / (n - 1)

    def rel(a: float, b: float) -> float:
        return abs(a - b) / abs(a) if a != 0 else (0.0 if b == 0 else math.inf)

    return OutlierSensitivityReport(
        n=n,
        dropped_citations=int(citations[idx_max]),
        mncs_full=mncs_full,
        mncs_without_max=mncs_drop,
        mncs_abs_delta=abs(mncs_full - mncs_drop),
        mncs_rel_delta=rel(mncs_full, mncs_drop),
        top_share_full=share_full,
        top_share_without_max=share_drop,
        top_share_abs_delta=abs(share_full - share_drop),
        top_share_rel_delta=rel(share_full, share_drop),
        threshold_x=x,
    )


def outlier_sensitivity(
    citations: Sequence[int],
    x: float = 10.0,
    reference_citations: Optional[Sequence[int]] = None,
    ref_means: Optional[Sequence[float]] = None,
) -> OutlierSensitivityReport:
    """Recompute MNCS and fractional top-x share without the top-cited paper.

    The reference distribution (threshold and field means) is held fixed;
    only the institution sample loses its maximum. Defaults treat the
    sample itself as its reference set. outlier_sensitivity_report checks
    the sample's size and lengths.
    """
    if reference_citations is None:
        reference_citations = citations
    if len(reference_citations) == 0:
        raise ValueError("outlier_sensitivity: empty reference_citations")
    if ref_means is None:
        ref_means = [math.fsum(reference_citations) / len(reference_citations)] * len(citations)
    threshold, _, _, w_tie = _top_x_split(sorted(reference_citations), x)
    weights = [_top_x_weight(c, threshold, w_tie) for c in citations]
    return outlier_sensitivity_report(citations, ref_means, weights, x)


class BestPercentiles(NamedTuple):
    """Each paper's best reference set and what that set assigns it.

    The per-paper arrays follow the dataset's row order; best_set indexes
    set_labels ("category:year", sorted by category then year). Per set,
    set_tie_groups counts its groups of two or more papers with equal
    citations.
    """

    set_labels: tuple[str, ...]
    set_tie_groups: np.ndarray
    best_set: np.ndarray
    rank: np.ndarray
    percentile: np.ndarray
    tied_with: np.ndarray
    top_x_weight: np.ndarray


def assign_best_percentiles(
    dataset: Dataset, scheme: PercentileScheme, x: float = 10.0
) -> BestPercentiles:
    """Percentile every paper within each of its reference sets, keep the best.

    A paper with k categories is ranked in k sets; the reported percentile
    is the one where it performs best (lowest when inverted, highest
    otherwise), together with that set's rank, tie-group size and
    fractional weight. On equal percentiles the set that sorts first wins.
    """
    sets = dataset.set_membership
    ranked = _rank_in_sets(sets.set_ids, sets.bounds, dataset.citations[sets.rows], scheme, x)
    better_first = ranked.percentile if scheme.inverted else -ranked.percentile
    # stable, and the pairs are listed set by set, so on equal percentiles the first set wins
    order = np.lexsort((better_first, sets.rows))
    paper = sets.rows[order]
    best = order[np.flatnonzero(np.r_[True, paper[1:] != paper[:-1]])]
    return BestPercentiles(
        set_labels=tuple(f"{k.category}:{k.pub_year}" for k in sets.keys),
        set_tie_groups=ranked.set_tie_groups,
        best_set=sets.set_ids[best],
        rank=ranked.rank[best],
        percentile=ranked.percentile[best],
        tied_with=ranked.tied_with[best],
        top_x_weight=ranked.top_x_weight[best],
    )
