"""Percentile ranking, tie handling, fractional counting, MNCS.

The oracle here defines max-tie ranks by brute-force counting
(#values <= c, or #values >= c when inverted) rather than sorting, so it
stays independent of the bisect-based implementation it checks.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from pct_impact.errors import DegenerateReferenceError, SampleSizeError
from pct_impact.percentiles import (
    PercentileFormula,
    PercentileScheme,
    classify_top_x,
    fractional_top_share,
    mncs,
    outlier_sensitivity,
    outlier_sensitivity_report,
    percentile_rank,
)

# the fictitious 50-paper reference set with ties at the top-10% threshold
TIE_SET = [61, 61, 61] + [58] * 7 + [1] * 40


def oracle_percentiles(citations, formula, inverted, zero_adjust):
    """Exhaustive counting definition of both percentile formulas."""
    n = len(citations)
    out = []
    for c in citations:
        if inverted:
            i = sum(1 for v in citations if v >= c)
        else:
            i = sum(1 for v in citations if v <= c)
        pct = 100.0 * (i - 1) / n if formula is PercentileFormula.COMMON else 100.0 * i / n
        if zero_adjust and c == 0:
            pct = 100.0 if inverted else 0.0
        out.append(pct)
    return out


def ranks(citations, inverted=False):
    """The rank column of percentile_rank: ascending, or descending when inverted."""
    return [a.rank for a in percentile_rank(citations, PercentileScheme(inverted=inverted))]


class TestRanking:
    def test_strict_ordering(self):
        assert ranks([5, 1, 3]) == [3, 1, 2]

    def test_tie_takes_maximum_rank(self):
        # the two tie policies would give [1, 1] (min) or [2, 2] (max)
        assert ranks([2, 2]) == [2, 2]

    def test_empty_raises(self):
        for inverted in (False, True):
            with pytest.raises(ValueError, match="empty citation list"):
                ranks([], inverted)

    def test_paper_tie_set_top_ranks(self):
        desc = ranks(TIE_SET, inverted=True)
        # the three 61-citation papers jointly occupy descending positions 1..3,
        # and under max-tie each reports rank 3
        assert desc[:3] == [3, 3, 3]
        assert all(r > 3 for r in desc[3:])
        asc = ranks(TIE_SET)
        assert asc[:3] == [50, 50, 50]

    def test_descending_is_ascending_reversed_for_distinct_values(self):
        values = [9, 4, 7, 1]
        n = len(values)
        asc, desc = ranks(values), ranks(values, inverted=True)
        assert all(a + d == n + 1 for a, d in zip(asc, desc))


class TestPercentileRank:
    def test_single_paper_common(self):
        scheme = PercentileScheme(PercentileFormula.COMMON, inverted=False)
        [a] = percentile_rank([7], scheme)
        assert a.percentile == 0.0 and a.rank == 1 and a.tied_with == 1

    def test_single_paper_incites_inverted(self):
        scheme = PercentileScheme(PercentileFormula.INCITES, inverted=True)
        [a] = percentile_rank([7], scheme)
        assert a.percentile == 100.0

    def test_ten_distinct_common(self):
        scheme = PercentileScheme(PercentileFormula.COMMON)
        out = percentile_rank(list(range(1, 11)), scheme)
        assert [a.percentile for a in out] == [10.0 * i for i in range(10)]
        # the paper at the 50th percentile rank separates the halves
        median = next(a for a in out if a.percentile == 50.0)
        assert median.rank == 6

    def test_zero_adjust_pins_after_tie_resolution(self):
        scheme = PercentileScheme(
            PercentileFormula.COMMON, inverted=False, zero_rank_adjust=True
        )
        out = percentile_rank([0, 0, 0, 4, 9], scheme)
        assert [a.percentile for a in out][:3] == [0.0, 0.0, 0.0]
        # without the pin, the zero tie group would sit at rank 3 -> 40.0
        plain = percentile_rank([0, 0, 0, 4, 9], PercentileScheme(PercentileFormula.COMMON))
        assert [a.percentile for a in plain][:3] == [40.0, 40.0, 40.0]

    def test_zero_adjust_incites_inverted_pins_to_100(self):
        scheme = PercentileScheme(
            PercentileFormula.INCITES, inverted=True, zero_rank_adjust=True
        )
        out = percentile_rank([0, 3, 8], scheme)
        assert out[0].percentile == 100.0

    def test_tie_equality(self):
        scheme = PercentileScheme(PercentileFormula.INCITES, inverted=True)
        out = percentile_rank(TIE_SET, scheme, x=10.0)
        by_cit = {}
        for c, a in zip(TIE_SET, out):
            by_cit.setdefault(c, set()).add((a.percentile, a.top_x_weight))
        for c, combos in by_cit.items():
            assert len(combos) == 1, f"unequal assignment within tie group {c}"

    def test_matches_counting_oracle_small_exhaustive(self):
        # lists of length <= 4 over {0, 1, 2}; the full <= 8 sweep runs in
        # the acceptance suite
        for formula in PercentileFormula:
            for inverted in (False, True):
                for zero_adjust in (False, True):
                    scheme = PercentileScheme(formula, inverted, zero_adjust)
                    for n in range(1, 5):
                        for cits in itertools.product((0, 1, 2), repeat=n):
                            got = [a.percentile for a in percentile_rank(list(cits), scheme)]
                            want = oracle_percentiles(cits, formula, inverted, zero_adjust)
                            assert got == want, (cits, scheme)


class TestClassifyTopX:
    def test_boundary_inclusive(self):
        assert classify_top_x(10.0, 10.0) == 1

    def test_just_over_boundary(self):
        assert classify_top_x(10.0001, 10.0) == 0

    def test_zero(self):
        assert classify_top_x(0.0, 10.0) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            classify_top_x(101.0, 10.0)
        with pytest.raises(ValueError):
            classify_top_x(50.0, 0.0)


class TestFractionalTopShare:
    def test_paper_tie_set_weights(self):
        fts = fractional_top_share(TIE_SET, 10.0)
        assert fts.threshold_value == 58
        assert fts.count_above == 3 and fts.tie_count == 7
        # slot arithmetic: 5 slots, 3 taken by the 61s, 2 shared by seven 58s
        assert fts.weight_at_threshold == Fraction(2, 7)
        assert fts.weights[:3] == (Fraction(1),) * 3
        assert fts.weights[3:10] == (Fraction(2, 7),) * 7
        assert fts.weights[10:] == (Fraction(0),) * 40
        assert fts.share == Fraction(1, 10)
        # the two binary readings the tie makes ambiguous
        assert fts.binary_share_excluding_ties == Fraction(3, 50)
        assert fts.binary_share_including_ties == Fraction(10, 50)

    def test_no_tie_at_threshold(self):
        fts = fractional_top_share([10, 9, 8, 7, 6, 5, 4, 3, 2, 1], 10.0)
        assert sorted(fts.weights, reverse=True) == [Fraction(1)] + [Fraction(0)] * 9
        assert fts.share == Fraction(1, 10)

    def test_all_identical_split_evenly(self):
        fts = fractional_top_share([4] * 10, 10.0)
        assert fts.weights == (Fraction(1, 10),) * 10
        assert fts.share == Fraction(1, 10)

    def test_fractional_slot_target(self):
        fts = fractional_top_share(TIE_SET, 7.0)
        assert sum(fts.weights) == Fraction(50) * 7 / 100

    def test_weight_for_maps_any_member_value(self):
        fts = fractional_top_share(TIE_SET, 10.0)
        assert fts.weight_for(61) == 1
        assert fts.weight_for(58) == Fraction(2, 7)
        assert fts.weight_for(1) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            fractional_top_share([], 10.0)
        with pytest.raises(ValueError):
            fractional_top_share([1, 2], 100.0)

    def test_agrees_with_binary_when_no_straddle(self):
        # the top tie group fits the slots exactly, so classify-based binary
        # counting and fractional counting coincide
        cits = [30, 20, 12, 9, 8, 7, 3, 2, 1, 0]
        fts = fractional_top_share(cits, 10.0)
        scheme = PercentileScheme(PercentileFormula.INCITES, inverted=True)
        binary = sum(
            classify_top_x(a.percentile, 10.0) for a in percentile_rank(cits, scheme)
        )
        assert fts.share == Fraction(binary, len(cits))
        assert fts.share == fts.binary_share_including_ties

    def test_straddling_tie_makes_binary_ambiguous(self):
        # classify-based binary picks the conservative (excluding) reading
        scheme = PercentileScheme(PercentileFormula.INCITES, inverted=True)
        binary = sum(
            classify_top_x(a.percentile, 10.0) for a in percentile_rank(TIE_SET, scheme)
        )
        fts = fractional_top_share(TIE_SET, 10.0)
        assert Fraction(binary, 50) == fts.binary_share_excluding_ties == Fraction(3, 50)
        assert fts.share == Fraction(5, 50)


class TestMncs:
    def test_all_at_reference_mean(self):
        assert mncs([4.0, 10.0, 2.5], [4.0, 10.0, 2.5]) == pytest.approx(1.0)

    def test_hand_computed(self):
        assert mncs([10, 0], [5, 5]) == pytest.approx(1.0)

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateReferenceError):
            mncs([1, 2], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mncs([1, 2], [1.0])


class TestOutlierSensitivity:
    def test_all_equal_citations(self):
        r = outlier_sensitivity([7] * 20, 10.0)
        assert r.mncs_abs_delta == 0.0
        assert r.top_share_abs_delta == pytest.approx(0.0, abs=1e-12)

    def test_extreme_outlier_hits_mncs_not_topshare(self):
        cits = [1000 * 3] + [3] * 199
        r = outlier_sensitivity(cits, 10.0)
        assert r.mncs_rel_delta > 0.40
        assert r.top_share_abs_delta < 0.02
        assert r.dropped_citations == 3000

    def test_two_paper_set_still_well_formed(self):
        r = outlier_sensitivity([50, 1], 10.0)
        assert r.n == 2
        assert r.mncs_without_max == pytest.approx(1 / ((50 + 1) / 2))

    def test_needs_two_papers(self):
        with pytest.raises(SampleSizeError, match="at least 2 papers"):
            outlier_sensitivity([5], 10.0)
        with pytest.raises(SampleSizeError, match="at least 2 papers"):
            outlier_sensitivity([5], 10.0, reference_citations=[5, 1, 0])
        with pytest.raises(SampleSizeError, match="at least 2 papers"):
            outlier_sensitivity_report([5], [1.0], [1.0])

    def test_empty_sample_is_a_value_error(self):
        """The defaulted reference set is the empty sample: no mean of it
        is taken."""
        with pytest.raises(ValueError, match="empty reference_citations"):
            outlier_sensitivity([])

    def test_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            outlier_sensitivity([5, 1], 10.0, ref_means=[1.0])
        with pytest.raises(ValueError, match="equal length"):
            outlier_sensitivity_report([5, 1], [1.0, 1.0], [1.0])

    def test_tied_top_papers_are_dropped_by_value_not_position(self):
        """Of the papers tied at the top count, the one with the smallest
        reference mean goes, then the one with the largest weight, wherever
        it sits in the sample."""
        papers = [(9, 4.0, 0.5), (9, 2.0, 0.0), (9, 2.0, 1.0), (3, 1.0, 0.0), (1, 5.0, 0.0)]
        reports = {
            outlier_sensitivity_report(*map(list, zip(*order)))
            for order in itertools.permutations(papers)
        }
        assert len(reports) == 1
        (report,) = reports
        rest = [p for p in papers if p != (9, 2.0, 1.0)]
        assert report.mncs_without_max == mncs([c for c, _, _ in rest], [m for _, m, _ in rest])
        assert report.top_share_without_max == 0.5 / 4

    def test_shares_are_float_sums_of_the_weights(self):
        """As topshare sums an institution's weights: math.fsum, then / n."""
        for weights in ([0.1, 0.1, 0.1], [0.1, 0.2, 0.3, 0.7]):
            n = len(weights)
            report = outlier_sensitivity_report([*range(1, n), 9], [1.0] * n, weights)
            assert report.top_share_full == math.fsum(weights) / n
            assert report.top_share_without_max == math.fsum(weights[:-1]) / (n - 1)

    def test_fixed_reference_distribution(self):
        # institution is a subset of a larger reference set
        reference = [100] + [10] * 9 + [1] * 90
        sample = [100, 10, 1, 1]
        r = outlier_sensitivity(sample, 10.0, reference_citations=reference)
        fts_share = 1.0  # 100 is above the threshold in the big set
        assert r.dropped_citations == 100
        assert r.top_share_full >= r.top_share_without_max

    def test_weights_are_the_reference_sets_top_share_weights(self):
        reference = TIE_SET + [70, 0, 0]
        means = [sum(reference) / len(reference)] * 4
        for sample in ([61, 58, 1, 0], [70, 61, 61, 58], [1, 1, 0, 0]):
            for x in (1.0, 10.0, 33.3):
                fts = fractional_top_share(reference, x)
                weights = [fts.weight_for(c) for c in sample]
                assert outlier_sensitivity(
                    sample, x, reference_citations=reference, ref_means=means
                ) == outlier_sensitivity_report(sample, means, weights, x)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            outlier_sensitivity([5, 1], 10.0, reference_citations=[], ref_means=[1.0, 1.0])

    def test_json_shape(self):
        d = outlier_sensitivity([9, 2, 2], 10.0).to_json_dict()
        assert set(d) == {"n", "dropped_citations", "mncs", "top_share", "threshold_x"}
        assert set(d["mncs"]) == {"full", "without_max", "abs_delta", "rel_delta"}


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("citations", [[0], [7, 0], [61, 58, 58, 1, 0, 0]])
def test_array_inputs_match_lists(citations, dtype):
    """numpy arrays are read like lists, a one-element [0] included: an
    emptiness check must not take the array's truth value."""
    array = np.array(citations, dtype=dtype)
    means = [2.5] * len(citations)
    scheme = PercentileScheme(inverted=True)
    assert percentile_rank(array, scheme) == percentile_rank(citations, scheme)
    assert fractional_top_share(array, 10.0) == fractional_top_share(citations, 10.0)
    assert mncs(array, np.array(means)) == mncs(citations, means)
    if len(citations) >= 2:
        assert outlier_sensitivity(array) == outlier_sensitivity(citations)
        assert outlier_sensitivity(citations, reference_citations=array) == outlier_sensitivity(
            citations, reference_citations=citations
        )
        weights = [float(w) for w in fractional_top_share(citations, 10.0).weights]
        assert outlier_sensitivity_report(
            array, np.array(means), np.array(weights)
        ) == outlier_sensitivity_report(citations, means, weights)


@pytest.mark.parametrize("citations", [[9, 2, 2], np.array([9, 2, 2], dtype=np.int64)])
def test_reports_hold_python_ints(citations):
    """An int64 array gives the list's results, with Python ints that
    json.dumps writes."""
    report = outlier_sensitivity(citations)
    share = fractional_top_share(citations, 10.0)
    assert report == outlier_sensitivity([9, 2, 2])
    assert share == fractional_top_share([9, 2, 2], 10.0)
    json.dumps(report.to_json_dict())
    assert type(report.dropped_citations) is int and type(report.n) is int
    assert all(type(v) is int for v in (share.threshold_value, share.count_above,
                                         share.tie_count))
