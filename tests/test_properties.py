"""Property-based invariants for the statistical core."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pct_impact import cli
from pct_impact.data import (
    Dataset,
    InstitutionSample,
    PublicationRecord,
    ReferenceSet,
    group_reference_sets,
)

from pct_impact.effects import (
    SummaryStats,
    cohens_h_one,
    one_sample_t,
    summarize,
    two_sample_pooled_t,
    two_sample_prop_z,
)
from pct_impact.percentiles import (
    PercentileAssignment,
    PercentileFormula,
    PercentileScheme,
    assign_best_percentiles,
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


papers = st.lists(
    st.tuples(
        st.sampled_from(["I", "J"]),
        st.sampled_from([2001, 2002, 2003]),
        st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=1, max_size=3, unique=True),
        st.integers(min_value=0, max_value=30),
    ),
    min_size=1,
    max_size=40,
)


def _brute_force_best(records, scheme, x):
    """Per paper id: (set label, rank, percentile, tie size, Fraction weight),
    ranking by counting and keeping the first set on equal percentiles."""
    sets = {}
    for r in records:
        for cat in r.categories:
            sets.setdefault((cat, r.pub_year), []).append(r)
    best = {}
    for cat, year in sorted(sets):
        cits = [m.citations for m in sets[cat, year]]
        n = len(cits)
        slots = Fraction(n) * Fraction(x) / 100
        threshold = sorted(cits, reverse=True)[math.ceil(slots) - 1]
        above = sum(1 for c in cits if c > threshold)
        w_tie = min(max((slots - above) / cits.count(threshold), Fraction(0)), Fraction(1))
        for m in sets[cat, year]:
            c = m.citations
            if scheme.inverted:
                rank = sum(1 for v in cits if v >= c)
            else:
                rank = sum(1 for v in cits if v <= c)
            if scheme.formula is PercentileFormula.COMMON:
                pct = 100.0 * (rank - 1) / n
            else:
                pct = 100.0 * rank / n
            if scheme.zero_rank_adjust and c == 0:
                pct = scheme.worst_value()
            weight = Fraction(1) if c > threshold else w_tie if c == threshold else Fraction(0)
            prev = best.get(m.id)
            if prev is None or (pct < prev[2] if scheme.inverted else pct > prev[2]):
                best[m.id] = (f"{cat}:{year}", rank, pct, cits.count(c), weight)
    return best


@given(papers, schemes, st.sampled_from([1.0, 10.0, 33.3, 50.0, 99.0]))
@settings(max_examples=200)
def test_best_percentiles_match_brute_force(rows, scheme, x):
    records = [
        PublicationRecord(f"p{k}", inst, year, tuple(cats), cits)
        for k, (inst, year, cats, cits) in enumerate(rows)
    ]
    dataset = Dataset.from_records(records)
    got = assign_best_percentiles(dataset, scheme, x)
    want = _brute_force_best(records, scheme, x)
    for k, r in enumerate(records):
        label, rank, pct, tied, weight = want[r.id]
        assert got.set_labels[got.best_set[k]] == label
        assert (int(got.rank[k]), float(got.percentile[k]), int(got.tied_with[k])) == (
            rank, pct, tied
        )
        assert float(got.top_x_weight[k]) == float(weight)
    for refset in group_reference_sets(dataset):
        n = len(refset.members)
        weights = [a.top_x_weight for a in percentile_rank(
            [m.citations for m in refset.members], scheme, x=x)]
        assert abs(math.fsum(weights) - n * x / 100) <= 1e-9


@pytest.fixture
def constructed(monkeypatch):
    """Counts the objects of the per-record API built while the test runs."""
    counts = Counter()
    for cls in (PublicationRecord, ReferenceSet, InstitutionSample, PercentileAssignment):
        def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return counts


def test_cli_builds_no_per_record_objects(tmp_path, constructed):
    lines = ["id,institution,pub_year,category,citations\n"]
    for k in range(60):
        cats = "A|B" if k % 5 == 0 else "AB"[k % 2]
        lines.append(f"p{k},{'XYZ'[k % 3]},{2001 + k % 2},{cats},{(k * 7) % 11}\n")
    path = tmp_path / "in.csv"
    path.write_text("".join(lines), encoding="utf-8")
    common = ["--input", str(path), "--out-dir", str(tmp_path / "out"),
              "--scheme", "incites", "--inverted", "--zero-adjust"]
    for argv in (
        ["percentiles"], ["summary"], ["compare", "--pairs", "X:Y", "--mann-whitney"],
        ["topshare", "--counting", "fractional"], ["topcompare", "--pairs", "X:Z"],
        ["robustness"],
        ["bootstrap", "--statistic", "prop-diff", "--pairs", "X:Y", "--bootstrap-reps", "20"],
    ):
        assert cli.main(argv + common) == 0
    assert constructed == Counter()
