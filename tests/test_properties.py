"""Property-based invariants for the statistical core."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pct_impact.effects import (
    SummaryStats,
    cohens_h_one,
    one_sample_t,
    summarize,
    two_sample_pooled_t,
    two_sample_prop_z,
)
from pct_impact.percentiles import (
    PercentileFormula,
    PercentileScheme,
    fractional_top_share,
    percentile_rank,
)
from pct_impact.resampling import mann_whitney

citation_lists = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60)
schemes = st.builds(
    PercentileScheme,
    formula=st.sampled_from(list(PercentileFormula)),
    inverted=st.booleans(),
    zero_rank_adjust=st.booleans(),
)
sample_values = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=2, max_size=40
)


@given(citation_lists, schemes)
def test_percentiles_in_range_and_tied_equal(cits, scheme):
    out = percentile_rank(cits, scheme)
    by_value = {}
    for c, a in zip(cits, out):
        assert 0.0 <= a.percentile <= 100.0
        assert 1 <= a.rank <= len(cits)
        by_value.setdefault(c, set()).add((a.percentile, a.top_x_weight))
    for combos in by_value.values():
        assert len(combos) == 1


@given(citation_lists, schemes)
def test_more_citations_never_worse(cits, scheme):
    out = percentile_rank(cits, scheme)
    pairs = sorted(zip(cits, [a.percentile for a in out]))
    for (c1, p1), (c2, p2) in zip(pairs, pairs[1:]):
        if c1 < c2:
            if scheme.inverted:
                assert p2 <= p1
            else:
                assert p2 >= p1


@given(citation_lists, st.floats(min_value=0.5, max_value=99.5))
def test_fractional_weights_sum_to_slots(cits, x):
    fts = fractional_top_share(cits, x)
    n = len(cits)
    assert sum(fts.weights, Fraction(0)) == Fraction(n) * Fraction(x) / 100
    assert all(0 <= w <= 1 for w in fts.weights)


@given(sample_values, st.floats(min_value=0.0, max_value=100.0))
def test_one_sample_identity_and_duality(values, mu0):
    s = summarize(values)
    assume(s.sd and s.sd > 1e-9)
    r = one_sample_t(s, mu0)
    # d == t / sqrt(n)
    assert math.isclose(r.effect_d, r.statistic_t / math.sqrt(s.n), rel_tol=1e-10)
    # mu0 inside the 95% CI exactly when p >= .05
    inside = r.ci_low <= mu0 <= r.ci_high
    assert inside == (r.p_two_tailed >= 0.05) or math.isclose(r.p_two_tailed, 0.05, abs_tol=1e-12)
    assert 0.0 <= r.p_two_tailed <= 1.0
    assert math.isfinite(r.ci_low) and math.isfinite(r.ci_high)


@given(sample_values, st.floats(min_value=0.1, max_value=90.0),
       st.floats(min_value=0.01, max_value=50.0))
def test_scale_equivariance(values, mu0, c):
    s = summarize(values)
    assume(s.sd and s.sd > 1e-6)
    base = one_sample_t(s, mu0)
    scaled = one_sample_t(summarize([v * c for v in values]), mu0 * c)
    assert math.isclose(base.statistic_t, scaled.statistic_t, rel_tol=1e-7, abs_tol=1e-9)
    assert math.isclose(base.effect_d, scaled.effect_d, rel_tol=1e-7, abs_tol=1e-9)
    assert math.isclose(base.p_two_tailed, scaled.p_two_tailed, rel_tol=1e-6, abs_tol=1e-12)


@given(sample_values, sample_values)
def test_two_sample_sign_symmetry(a, b):
    sa, sb = summarize(a), summarize(b)
    assume((sa.sd or 0) > 1e-9 or (sb.sd or 0) > 1e-9)
    fwd = two_sample_pooled_t(sa, sb)
    rev = two_sample_pooled_t(sb, sa)
    assert math.isclose(fwd.statistic_t, -rev.statistic_t, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fwd.effect_d, -rev.effect_d, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fwd.ci_low, -rev.ci_high, rel_tol=1e-9, abs_tol=1e-9)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_h_antisymmetry(p, q):
    assert math.isclose(cohens_h_one(p, q), -cohens_h_one(q, p), rel_tol=1e-12, abs_tol=1e-12)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 50), st.integers(1, 50))
def test_two_sample_prop_sign_symmetry(c1, c2, extra1, extra2):
    n1, n2 = c1 + extra1, c2 + extra2
    assume(0 < c1 + c2 < n1 + n2)
    fwd = two_sample_prop_z(c1, n1, c2, n2)
    rev = two_sample_prop_z(c2, n2, c1, n1)
    assert math.isclose(fwd.statistic_z, -rev.statistic_z, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fwd.effect_h, -rev.effect_h, rel_tol=1e-9, abs_tol=1e-12)


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=2, max_size=25),
       st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=2, max_size=25))
@settings(max_examples=50)
def test_mann_whitney_swap_flips_z(a, b):
    assume(len(set(a) | set(b)) > 1)
    fwd = mann_whitney(a, b)
    rev = mann_whitney(b, a)
    assert math.isclose(fwd.z_approx, -rev.z_approx, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fwd.p_two_tailed, rev.p_two_tailed, rel_tol=1e-9, abs_tol=1e-12)
