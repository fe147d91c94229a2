"""Effect sizes, t tests and proportion z tests.

Expected values for the three-institution fixtures were verified against
the published summary table values; derived expectations carry an
independent recomputation in the test body.
"""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pct_impact.effects import (
    Magnitude,
    SummaryStats,
    _mean_test,
    ci_overlap_verdict,
    classify_magnitude,
    cohens_h_one,
    one_sample_prop_z,
    one_sample_t,
    pooled_sd,
    summarize,
    two_sample_pooled_t,
    two_sample_prop_z,
    two_sample_welch_t,
)
from pct_impact.errors import DegenerateVarianceError, SampleSizeError

INST1 = SummaryStats.from_moments(268, 49.67, 30.66)
INST2 = SummaryStats.from_moments(549, 32.15, 27.49)
INST3 = SummaryStats.from_moments(488, 45.98, 29.40)


class TestSummarize:
    def test_constant_sample(self):
        s = summarize([5.0, 5.0, 5.0])
        assert (s.mean, s.sd, s.se) == (5.0, 0.0, 0.0)

    def test_single_value_has_undefined_spread(self):
        s = summarize([7.0])
        assert s.n == 1 and s.mean == 7.0
        assert s.sd is None and s.se is None

    def test_empty_input(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_matches_naive_two_pass_oracle(self):
        import random

        rng = random.Random(20240517)
        values = [rng.uniform(-50, 150) for _ in range(20)]
        # independent naive two-pass computation
        n = len(values)
        mean = sum(values) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        s = summarize(values)
        assert s.mean == pytest.approx(mean, rel=1e-12)
        assert s.sd == pytest.approx(sd, rel=1e-12)
        assert s.se == pytest.approx(sd / math.sqrt(n), rel=1e-12)

    def test_se_is_sd_over_sqrt_n(self):
        s = summarize([1.0, 4.0, 9.0, 16.0])
        assert s.se == s.sd / 2.0
        for s in (summarize([0.1, 0.7, 2.9]), SummaryStats.from_moments(549, 32.15, 27.49),
                  SummaryStats.from_moments(1, 5.0, 0.0)):
            assert s.se == s.sd / math.sqrt(s.n)

    def test_simulated_institution2_moments(self):
        import numpy as np

        rng = np.random.default_rng(549)
        x = rng.uniform(0, 100, 549)
        x = 32.15 + 27.49 * (x - x.mean()) / x.std(ddof=1)
        s = summarize(list(x))
        assert s.mean == pytest.approx(32.15, abs=0.01)
        assert s.sd == pytest.approx(27.49, abs=0.01)
        assert s.se == pytest.approx(1.17, abs=0.01)


class TestOneSampleT:
    def test_institution2_row(self):
        r = one_sample_t(INST2, 50.0)
        assert r.statistic_t == pytest.approx(-15.21, abs=0.01)
        assert r.p_two_tailed < 1e-4
        assert r.ci_low == pytest.approx(29.85, abs=0.05)
        assert r.ci_high == pytest.approx(34.46, abs=0.05)
        assert r.effect_d == pytest.approx(-0.649, abs=0.001)
        assert r.magnitude is Magnitude.MEDIUM

    def test_institution3_row(self):
        r = one_sample_t(INST3, 50.0)
        assert r.statistic_t == pytest.approx(-3.02, abs=0.01)
        assert r.p_two_tailed == pytest.approx(0.003, abs=0.002)

    def test_institution1_row(self):
        r = one_sample_t(INST1, 50.0)
        assert r.statistic_t == pytest.approx(-0.17, abs=0.01)
        # recomputation from rounded moments lands near the published .8613
        assert r.p_two_tailed == pytest.approx(0.8613, abs=0.002)
        assert r.effect_d == pytest.approx(-0.011, abs=0.001)

    def test_mean_equal_mu0(self):
        s = SummaryStats.from_moments(30, 50.0, 10.0)
        r = one_sample_t(s, 50.0)
        assert r.statistic_t == 0.0
        assert r.p_two_tailed == pytest.approx(1.0)
        assert r.ci_low < 50.0 < r.ci_high
        assert (r.ci_low + r.ci_high) / 2 == pytest.approx(50.0)

    def test_zero_sd_raises(self):
        with pytest.raises(DegenerateVarianceError):
            one_sample_t(SummaryStats.from_moments(10, 5.0, 0.0), 50.0)

    def test_d_equals_t_over_sqrt_n(self):
        r = one_sample_t(INST2, 50.0)
        assert r.effect_d == pytest.approx(r.statistic_t / math.sqrt(INST2.n), rel=1e-10)


class TestOneSampleD:
    def test_worked_value(self):
        assert one_sample_t(INST2, 50.0).effect_d == pytest.approx(-0.649, abs=0.0005)

    def test_zero_when_mean_is_mu0(self):
        assert one_sample_t(SummaryStats.from_moments(5, 42.0, 3.0), 42.0).effect_d == 0.0


class TestPooledSd:
    def test_institutions_1_and_2(self):
        assert pooled_sd(INST1, INST2) == pytest.approx(28.57, abs=0.01)

    def test_institutions_1_and_3(self):
        assert pooled_sd(INST1, INST3) == pytest.approx(29.85, abs=0.01)

    def test_equal_variance_identity(self):
        a = SummaryStats.from_moments(12, 1.0, 4.5)
        b = SummaryStats.from_moments(40, 9.0, 4.5)
        assert pooled_sd(a, b) == pytest.approx(4.5, rel=1e-12)

    def test_both_zero_raises(self):
        a = SummaryStats.from_moments(5, 1.0, 0.0)
        with pytest.raises(DegenerateVarianceError):
            pooled_sd(a, a)


class TestTwoSamplePooledT:
    def test_1_vs_2(self):
        r = two_sample_pooled_t(INST1, INST2)
        assert r.estimate == pytest.approx(17.52, abs=0.005)
        assert r.se == pytest.approx(2.13, abs=0.01)
        assert r.statistic_t == pytest.approx(8.23, abs=0.01)
        assert r.ci_low == pytest.approx(13.34, abs=0.05)
        assert r.ci_high == pytest.approx(21.70, abs=0.05)
        assert r.effect_d == pytest.approx(0.613, abs=0.001)

    def test_1_vs_3(self):
        r = two_sample_pooled_t(INST1, INST3)
        assert r.statistic_t == pytest.approx(1.63, abs=0.01)
        assert r.p_two_tailed == pytest.approx(0.1042, abs=0.002)
        assert r.ci_low == pytest.approx(-0.76, abs=0.05)
        assert r.ci_high == pytest.approx(8.15, abs=0.05)
        assert r.effect_d == pytest.approx(0.124, abs=0.001)

    def test_3_vs_2(self):
        r = two_sample_pooled_t(INST3, INST2)
        assert r.pooled_sd == pytest.approx(28.40, abs=0.01)
        assert r.statistic_t == pytest.approx(7.83, abs=0.01)
        assert r.effect_d == pytest.approx(0.487, abs=0.001)

    def test_identical_groups(self):
        a = SummaryStats.from_moments(40, 25.0, 8.0)
        r = two_sample_pooled_t(a, a)
        assert r.statistic_t == 0.0 and r.effect_d == 0.0
        assert r.ci_low == pytest.approx(-r.ci_high, rel=1e-12)

    def test_swap_negates(self):
        fwd = two_sample_pooled_t(INST1, INST2)
        rev = two_sample_pooled_t(INST2, INST1)
        assert rev.statistic_t == pytest.approx(-fwd.statistic_t, rel=1e-12)
        assert rev.effect_d == pytest.approx(-fwd.effect_d, rel=1e-12)
        assert rev.ci_low == pytest.approx(-fwd.ci_high, rel=1e-12)
        assert rev.ci_high == pytest.approx(-fwd.ci_low, rel=1e-12)


class TestWelch:
    def test_matches_pooled_under_equal_variances_and_sizes(self):
        a = SummaryStats.from_moments(50, 40.0, 10.0)
        b = SummaryStats.from_moments(50, 35.0, 10.0)
        w, p = two_sample_welch_t(a, b), two_sample_pooled_t(a, b)
        assert w.statistic_t == pytest.approx(p.statistic_t, abs=1e-9)
        assert w.df == pytest.approx(p.df, rel=1e-9)

    def test_close_to_pooled_on_table_inputs(self):
        # exact Welch statistic is 7.9276 here, 0.30 from the pooled 8.23;
        # the approaches agree on every substantive conclusion
        w = two_sample_welch_t(INST1, INST2)
        assert abs(w.statistic_t - 8.23) < 0.35
        assert w.p_two_tailed < 1e-4

    def test_df_matches_direct_welch_satterthwaite(self):
        a = SummaryStats.from_moments(5, 0.0, 10.0)
        b = SummaryStats.from_moments(500, 1.0, 1.0)
        w = two_sample_welch_t(a, b)
        va, vb = a.sd**2 / a.n, b.sd**2 / b.n
        df = (va + vb) ** 2 / (va**2 / (a.n - 1) + vb**2 / (b.n - 1))
        assert w.df == pytest.approx(df, rel=1e-12)
        # dominated by the small noisy group
        assert w.df < 2 * a.n

    def test_both_zero_variances_raise(self):
        a = SummaryStats.from_moments(5, 1.0, 0.0)
        with pytest.raises(DegenerateVarianceError):
            two_sample_welch_t(a, a)


def _square(x):
    """The correctly rounded square of x."""
    return float(Fraction(x) ** 2)


class TestSquares:
    """Every square is a product, which IEEE arithmetic rounds correctly;
    x ** 2 calls the C library's pow, which need not."""

    def test_sd_where_pow_rounds_otherwise(self):
        assert summarize([24.9, 21.3, 39.6]).sd == 9.694843990493093

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=30),
           b=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=30))
    def test_match_a_reference_with_exact_squares(self, a, b):
        sa, sb = summarize(a), summarize(b)
        assume(sa.sd > 1e-50 and sb.sd > 1e-50)  # no square underflows
        for values, s in ((a, sa), (b, sb)):
            assert s.sd == math.sqrt(math.fsum(_square(v - s.mean) for v in values) / (s.n - 1))
        sp = math.sqrt(((sa.n - 1) * _square(sa.sd) + (sb.n - 1) * _square(sb.sd))
                       / (sa.n + sb.n - 2))
        assert pooled_sd(sa, sb) == sp
        pooled = two_sample_pooled_t(sa, sb)
        assert pooled.se == math.sqrt(_square(sp) * (sa.n + sb.n) / (sa.n * sb.n))
        va, vb = _square(sa.sd) / sa.n, _square(sb.sd) / sb.n
        welch = two_sample_welch_t(sa, sb)
        assert welch.se == math.sqrt(va + vb)
        assert welch.df == _square(va + vb) / (_square(va) / (sa.n - 1) + _square(vb) / (sb.n - 1))


class TestOneSampleProportion:
    def test_institution2_row(self):
        r = one_sample_prop_z(160, 549, 0.10)
        assert r.statistic_z == pytest.approx(14.95, abs=0.01)
        assert r.ci_low == pytest.approx(0.2534, abs=0.0005)
        assert r.ci_high == pytest.approx(0.3295, abs=0.0005)
        assert r.effect_h == pytest.approx(0.497, abs=0.001)

    def test_institution1_row(self):
        r = one_sample_prop_z(30, 268, 0.10)
        assert r.statistic_z == pytest.approx(0.65, abs=0.01)
        assert r.p_two_tailed == pytest.approx(0.51, abs=0.005)

    def test_null_proportion(self):
        r = one_sample_prop_z(10, 100, 0.10)
        assert r.statistic_z == 0.0 and r.effect_h == 0.0
        assert r.p_two_tailed == pytest.approx(1.0)

    def test_p0_domain(self):
        with pytest.raises(ValueError):
            one_sample_prop_z(5, 10, 0.0)
        with pytest.raises(ValueError):
            one_sample_prop_z(5, 10, 1.0)

    def test_count_domain(self):
        with pytest.raises(ValueError):
            one_sample_prop_z(11, 10, 0.5)


class TestCohensH:
    def test_worked_value(self):
        assert cohens_h_one(0.2914, 0.10) == pytest.approx(0.497, abs=0.001)

    def test_arcsine_transforms_match_worked_example(self):
        assert 2 * math.asin(math.sqrt(0.2914)) == pytest.approx(1.1404341, abs=5e-8)
        assert 2 * math.asin(math.sqrt(0.10)) == pytest.approx(0.64350111, abs=5e-9)

    def test_equal_proportions(self):
        assert cohens_h_one(0.37, 0.37) == 0.0

    def test_near_half_linearization(self):
        # around p0 = .5, h is approximately 2 (p - .5)
        assert abs(cohens_h_one(0.55, 0.5) - 0.1) < 0.005

    def test_endpoints_allowed(self):
        assert cohens_h_one(1.0, 0.0) == pytest.approx(math.pi)

    def test_antisymmetry(self):
        assert cohens_h_one(0.3, 0.1) == pytest.approx(-cohens_h_one(0.1, 0.3), rel=1e-12)


class TestTwoSampleProportion:
    def test_1_vs_2(self):
        r = two_sample_prop_z(30, 268, 160, 549)
        assert r.estimate == pytest.approx(-0.1795, abs=0.0005)
        assert r.statistic_z == pytest.approx(-5.70, abs=0.01)
        assert r.ci_low == pytest.approx(-0.2331, abs=0.0005)
        assert r.ci_high == pytest.approx(-0.1259, abs=0.0005)
        assert r.effect_h == pytest.approx(-0.458, abs=0.001)

    def test_1_vs_3(self):
        r = two_sample_prop_z(30, 268, 57, 488)
        assert r.statistic_z == pytest.approx(-0.20, abs=0.01)
        assert r.p_two_tailed == pytest.approx(0.8411, abs=0.002)
        assert r.effect_h == pytest.approx(-0.015, abs=0.001)

    def test_3_vs_2(self):
        r = two_sample_prop_z(57, 488, 160, 549)
        assert r.statistic_z == pytest.approx(-6.90, abs=0.01)
        assert r.effect_h == pytest.approx(-0.443, abs=0.001)

    def test_identical_groups(self):
        r = two_sample_prop_z(20, 100, 20, 100)
        assert r.statistic_z == 0.0 and r.effect_h == 0.0
        assert r.ci_low == pytest.approx(-r.ci_high, rel=1e-12)

    def test_degenerate_pooled(self):
        with pytest.raises(DegenerateVarianceError):
            two_sample_prop_z(0, 10, 0, 20)
        with pytest.raises(DegenerateVarianceError):
            two_sample_prop_z(10, 10, 20, 20)


@pytest.mark.parametrize("test,args", [
    (two_sample_pooled_t, (INST1, INST2)),
    (two_sample_welch_t, (INST1, INST2)),
    (two_sample_prop_z, (30, 268, 60, 549)),
])
@pytest.mark.parametrize("ci_level", [0.0, 1.0, 1.5, -0.2, 1.0 - 2.0**-53, math.nan])
def test_two_sample_tests_check_ci_level(test, args, ci_level):
    message = f"{test.__name__}: ci_level must be in (0, 1), got {ci_level}"
    with pytest.raises(ValueError, match=re.escape(message)):
        test(*args, ci_level=ci_level)


# SDs from 0 down into the range where sd**2, or a variance's square,
# underflows to 0.0
SAMPLES = st.builds(
    SummaryStats, n=st.integers(2, 60), mean=st.floats(0.0, 100.0),
    sd=st.just(0.0) | st.floats(-170.0, 1.0).map(lambda e: 10.0**e),
)
# log-uniform in [5e-324, 1]; 2**-1074 is the least positive double
DOWN_TO_5E_324 = st.floats(-1074.0, 0.0).map(lambda e: 2.0**e)


def finite_or_degenerate(test, *args):
    """test(*args) returns finite fields, or refuses a degenerate or too
    small sample; any other exception, ZeroDivisionError included, fails."""
    try:
        result = test(*args)
    except (DegenerateVarianceError, SampleSizeError):
        return
    assert all(math.isfinite(v) for v in result if isinstance(v, float))


@settings(max_examples=300, deadline=None)
@given(a=SAMPLES, b=SAMPLES, mu0=st.floats(0.0, 100.0))
def test_t_tests_on_tiny_or_zero_sds(a, b, mu0):
    finite_or_degenerate(one_sample_t, a, mu0)
    finite_or_degenerate(two_sample_pooled_t, a, b)
    finite_or_degenerate(two_sample_welch_t, a, b)


def test_t_or_d_that_overflows_is_refused():
    """An SD so small that t and d overflow is degenerate, as a zero SD is."""
    tiny_a = SummaryStats.from_moments(2, 0.0, 1e-307)
    tiny_b = SummaryStats.from_moments(2, 50.0, 1e-307)
    for test, args in ((one_sample_t, (tiny_a, 50.0)), (two_sample_pooled_t, (tiny_a, tiny_b)),
                       (two_sample_welch_t, (tiny_a, tiny_b))):
        message = f"{test.__name__}: t and d must be finite, got t = -inf, d = -inf"
        with pytest.raises(DegenerateVarianceError, match=re.escape(message)):
            test(*args)


def _unscaled(a, b):
    """The pooled SD and SE and the Welch SE and df by the formulas that do
    not scale the SDs, or None where one of their steps underflows."""
    sq_a, sq_b = a.sd * a.sd, b.sd * b.sd
    num = (a.n - 1) * sq_a + (b.n - 1) * sq_b
    sp = math.sqrt(num / (a.n + b.n - 2))
    se_sq = sp * sp * (a.n + b.n) / (a.n * b.n)
    va, vb = sq_a / a.n, sq_b / b.n
    terms = (va * va / (a.n - 1), vb * vb / (b.n - 1))
    steps = (sq_a, sq_b, num, sp * sp, se_sq, va, vb, va * va, vb * vb, *terms)
    if min(steps) < sys.float_info.min:
        return None
    return sp, math.sqrt(se_sq), math.sqrt(va + vb), (va + vb) * (va + vb) / sum(terms)


# n up to 5,000, means of percentiles and positive SDs down to 1e-300
MOMENTS = st.builds(
    SummaryStats, n=st.integers(2, 5000), mean=st.floats(0.0, 100.0),
    sd=st.floats(-300.0, 2.0).map(lambda e: 10.0**e) | st.floats(1e-300, 100.0),
)


@settings(max_examples=500, deadline=None)
@given(a=MOMENTS, b=MOMENTS)
def test_scaled_t_tests_never_refuse_and_keep_the_unscaled_bits(a, b):
    """Both t tests are defined on any two samples with positive SDs; where
    the unscaled formulas do not underflow, they give the same bits."""
    pooled, welch = two_sample_pooled_t(a, b), two_sample_welch_t(a, b)
    unscaled = _unscaled(a, b)
    if unscaled is not None:
        sp, se, welch_se, welch_df = unscaled
        diff = a.mean - b.mean
        n = a.n + b.n - 2
        assert pooled == _mean_test("two_sample_pooled_t", 0.95, diff, 0.0, se, n, sp, sp)
        assert welch == _mean_test(
            "two_sample_welch_t", 0.95, diff, 0.0, welch_se, welch_df, sp, sp
        )


@settings(max_examples=300, deadline=None)
@given(
    n1=st.integers(1, 1000), n2=st.integers(1, 1000),
    share1=st.just(0.0) | DOWN_TO_5E_324, share2=st.just(0.0) | DOWN_TO_5E_324,
    p0=DOWN_TO_5E_324.filter(lambda p: p < 1.0),
)
def test_z_tests_on_tiny_proportions(n1, n2, share1, share2, p0):
    finite_or_degenerate(one_sample_prop_z, share1 * n1, n1, p0)
    finite_or_degenerate(two_sample_prop_z, share1 * n1, n1, share2 * n2, n2)


class TestMagnitude:
    @pytest.mark.parametrize(
        "effect,expected",
        [
            (-0.649, Magnitude.MEDIUM),
            (0.124, Magnitude.NEGLIGIBLE),
            (0.2, Magnitude.SMALL),
            (0.5, Magnitude.MEDIUM),
            (0.8, Magnitude.LARGE),
            (-0.8, Magnitude.LARGE),
            (0.0, Magnitude.NEGLIGIBLE),
            (-0.19999, Magnitude.NEGLIGIBLE),
            (2.4, Magnitude.LARGE),
        ],
    )
    def test_classification(self, effect, expected):
        assert classify_magnitude(effect) is expected

    def test_non_finite(self):
        with pytest.raises(ValueError):
            classify_magnitude(float("inf"))
        with pytest.raises(ValueError):
            classify_magnitude(float("nan"))


class TestCiOverlap:
    def test_disjoint_table2_intervals(self):
        v = ci_overlap_verdict((45.99, 53.36), (29.85, 34.46))
        assert not v.overlap
        assert v.statement == "significant at the .01 level"

    def test_overlapping_table2_intervals(self):
        v = ci_overlap_verdict((45.99, 53.36), (43.37, 48.59))
        assert v.overlap
        assert v.statement == "not significant at the .01 level"

    def test_identical_intervals(self):
        assert ci_overlap_verdict((1.0, 2.0), (1.0, 2.0)).overlap

    def test_never_mentions_05_level(self):
        for pair in [((0.0, 1.0), (0.5, 2.0)), ((0.0, 1.0), (2.0, 3.0))]:
            assert ".05" not in ci_overlap_verdict(*pair).statement

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ci_overlap_verdict((2.0, 1.0), (0.0, 1.0))

