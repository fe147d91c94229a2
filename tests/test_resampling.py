"""Bootstrap determinism and accuracy; Mann-Whitney against exact enumeration."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pct_impact import resampling
from pct_impact.effects import summarize, two_sample_pooled_t
from pct_impact.errors import DegenerateVarianceError, SampleSizeError
from pct_impact.kernels import normal_cdf, t_quantile
from pct_impact.resampling import (
    BootstrapResult,
    BootstrapSpec,
    BootstrapStatistic,
    CiMethod,
    _bounded_draws,
    _uint32_streams,
    bootstrap_samples,
    bootstrap_statistic,
    mann_whitney,
    mann_whitney_pairs,
)


def pairwise_u(a, b):
    """U for sample a by direct pair counting (independent of ranking)."""
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    return u


def exact_mw_two_tailed_p(a, b):
    """Exact permutation p-value by full enumeration of group assignments."""
    pooled = list(a) + list(b)
    n1 = len(a)
    center = n1 * len(b) / 2.0
    observed_dev = abs(pairwise_u(a, b) - center)
    hits = total = 0
    indices = range(len(pooled))
    for combo in itertools.combinations(indices, n1):
        chosen = set(combo)
        xa = [pooled[i] for i in combo]
        xb = [pooled[i] for i in indices if i not in chosen]
        total += 1
        if abs(pairwise_u(xa, xb) - center) >= observed_dev - 1e-12:
            hits += 1
    return hits / total


class TestBootstrapDeterminism:
    def test_same_seed_same_result(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 100, 80)
        spec = BootstrapSpec(replicates=200, seed=42)
        r1 = bootstrap_statistic(data, BootstrapStatistic.MEAN, spec)
        r2 = bootstrap_statistic(data, BootstrapStatistic.MEAN, spec)
        assert r1 == r2

    def test_different_seed_different_result(self):
        data = np.arange(50, dtype=float)
        r1 = bootstrap_statistic(data, BootstrapStatistic.MEAN, BootstrapSpec(200, seed=1))
        r2 = bootstrap_statistic(data, BootstrapStatistic.MEAN, BootstrapSpec(200, seed=2))
        assert r1.se_boot != r2.se_boot

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_bitwise_identical_across_worker_counts(self, workers):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 100, 120)
        b = rng.uniform(10, 90, 90)
        spec = BootstrapSpec(replicates=500, seed=99, ci_method=CiMethod.PERCENTILE)
        serial = bootstrap_statistic((a, b), BootstrapStatistic.MEAN_DIFF, spec, workers=1)
        parallel = bootstrap_statistic((a, b), BootstrapStatistic.MEAN_DIFF, spec, workers=workers)
        assert serial == parallel

    def test_replicate_streams_are_counter_derived(self):
        # replicate i uses the i-th spawned child of the master seed,
        # drawing group a's indices before group b's
        a = np.array([1.0, 4.0, 9.0, 25.0])
        b = np.array([2.0, 8.0, 32.0])
        spec = BootstrapSpec(replicates=5, seed=13)
        result = bootstrap_statistic((a, b), BootstrapStatistic.MEAN_DIFF, spec)
        seeds = np.random.SeedSequence(13).spawn(5)
        expected = []
        for child in seeds:
            rng = np.random.default_rng(child)
            ra = a[rng.integers(0, a.size, a.size)]
            rb = b[rng.integers(0, b.size, b.size)]
            expected.append(ra.mean() - rb.mean())
        expected = np.array(expected)
        assert result.se_boot == float(expected.std(ddof=1))


def numpy_lemire(stream, n, k):
    """Generator.integers(0, n, k) rebuilt in Python on a 32-bit stream:
    the k indices and the number of draws numpy rejected and redrew."""
    words = iter(int(u) for u in stream)
    out, redraws = [], 0
    threshold = (1 << 32) % n
    while len(out) < k:
        m = next(words) * n
        if (m & 0xFFFFFFFF) < threshold:
            redraws += 1
        else:
            out.append(m >> 32)
    return out, redraws


def reference_bootstrap(data, statistic, spec):
    """The per-replicate loop, one numpy Generator per spawned child."""
    two_sample = statistic in (BootstrapStatistic.MEAN_DIFF, BootstrapStatistic.PROP_DIFF)
    a, b = (np.asarray(x, dtype=float) for x in data) if two_sample else (
        np.asarray(data, dtype=float), None)
    stats = np.empty(spec.replicates)
    for i, child in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.replicates)):
        rng = np.random.default_rng(child)
        ra = a[rng.integers(0, a.size, a.size)]
        if b is None:
            stats[i] = ra.mean()
        else:
            rb = b[rng.integers(0, b.size, b.size)]
            stats[i] = ra.mean() - rb.mean()
    point = math.fsum(a.tolist()) / a.size - (0.0 if b is None else math.fsum(b.tolist()) / b.size)
    se = float(stats.std(ddof=1)) if spec.replicates > 1 else 0.0
    if se == 0.0:
        low = high = point
    elif spec.ci_method is CiMethod.NORMAL_APPROX:
        low, high = point - 1.96 * se, point + 1.96 * se
    else:
        low, high = float(np.quantile(stats, 0.025)), float(np.quantile(stats, 0.975))
    return BootstrapResult(statistic, point, se, low, high, spec.ci_method,
                           spec.replicates, spec.seed)


class TestStreamReplica:
    CHILDREN = np.random.SeedSequence(2024).spawn(200)

    @pytest.mark.parametrize("n", [2, 3, 375, 500, 501, 100_000, 2**31 + 1, 2**32 - 1])
    def test_indices_and_reject_flags_match_numpy(self, n):
        k = 16
        draws = _uint32_streams(self.CHILDREN, 4 * k)
        idx, flagged = _bounded_draws(draws[:, :k], n)
        rejected = 0
        for row, child in enumerate(self.CHILDREN):
            want = np.random.default_rng(child).integers(0, n, k)
            rebuilt, redraws = numpy_lemire(draws[row], n, k)
            assert rebuilt == want.tolist()
            assert bool(flagged[row]) == (redraws > 0)
            if not flagged[row]:
                assert idx[row].tolist() == want.tolist()
            rejected += redraws
        if n == 2**31 + 1:
            # 2**32 mod n = 2**31 - 1: about half of all draws are redrawn
            assert 0.4 < rejected / (rejected + k * len(self.CHILDREN)) < 0.6
        else:
            assert not flagged.any()

    @pytest.mark.parametrize("n", [3, 501, 2**31 + 1])
    def test_reject_threshold_edges(self, n):
        # words whose low half of u * n lands just below, on and just above
        # numpy's threshold 2**32 mod n (odd n, so u * n covers every low
        # half); only the first is redrawn
        threshold = (1 << 32) % n
        inverse = pow(n, -1, 1 << 32)
        words = [(low * inverse) % (1 << 32) for low in (threshold - 1, threshold, threshold + 1)]
        idx, flagged = _bounded_draws(np.array(words, dtype=np.uint64).reshape(3, 1), n)
        assert flagged.tolist() == [True, False, False]
        for row, word in enumerate(words[1:], start=1):
            assert idx[row].tolist() == numpy_lemire([word], n, 1)[0]

    @pytest.mark.parametrize("n_a,n_b", [(3, 500), (375, 2), (501, 501), (1, 7)])
    def test_second_call_after_odd_first_call(self, n_a, n_b):
        # a first call of odd length leaves the high half of its last 64-bit
        # word buffered; numpy's second call starts with it
        draws = _uint32_streams(self.CHILDREN, (n_a + n_b + 1) // 2)
        idx, flagged = _bounded_draws(draws[:, n_a : n_a + n_b], n_b)
        assert not flagged.any()
        for row, child in enumerate(self.CHILDREN):
            rng = np.random.default_rng(child)
            rng.integers(0, 2**20, n_a)
            assert idx[row].tolist() == rng.integers(0, n_b, n_b).tolist()


def sample(draw, statistic, size):
    if statistic in (BootstrapStatistic.PROPORTION, BootstrapStatistic.PROP_DIFF):
        return draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size))
    values = draw(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=size, max_size=size))
    return [values[i] for i in picks]


@st.composite
def bootstrap_cases(draw):
    statistic = draw(st.sampled_from(list(BootstrapStatistic)))
    spec = BootstrapSpec(
        replicates=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2**32 - 1)),
        ci_method=draw(st.sampled_from(list(CiMethod))),
    )
    samples, keys = {}, []  # a later key may name a label drawn before

    def side():
        if samples and draw(st.booleans()):
            return draw(st.sampled_from(list(samples)))
        label = f"s{len(samples)}"
        samples[label] = sample(draw, statistic, draw(st.integers(2, 600)))
        return label

    for _ in range(draw(st.integers(1, 3))):
        if statistic in (BootstrapStatistic.MEAN_DIFF, BootstrapStatistic.PROP_DIFF):
            keys.append((side(), side()))
        else:
            keys.append(side())
    return statistic, spec, samples, keys


def values_of(samples, key):
    """What bootstrap_statistic takes for key: one sample, or a pair of them."""
    return tuple(samples[label] for label in key) if isinstance(key, tuple) else samples[key]


class TestBlockKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(bootstrap_cases())
    def test_matches_per_replicate_loop(self, case):
        statistic, spec, samples, keys = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batch = bootstrap_samples(samples, keys, statistic, spec)
            single = bootstrap_statistic(values_of(samples, keys[0]), statistic, spec)
        assert single == batch[0]
        for key, got in zip(keys, batch, strict=True):
            assert got == reference_bootstrap(values_of(samples, key), statistic, spec)

    def test_rejected_draws_fall_back_to_numpy(self):
        rng = np.random.default_rng(70_001)
        a, b = rng.uniform(0, 100, 100_000), rng.uniform(0, 100, 70_001)
        spec = BootstrapSpec(replicates=8, seed=5, ci_method=CiMethod.PERCENTILE)
        children = np.random.SeedSequence(spec.seed).spawn(spec.replicates)
        draws = _uint32_streams(children, (a.size + b.size + 1) // 2)
        hit = _bounded_draws(draws[:, : a.size], a.size)[1]
        hit |= _bounded_draws(draws[:, a.size : a.size + b.size], b.size)[1]
        assert 0 < hit.sum() < spec.replicates
        got = bootstrap_statistic((a, b), BootstrapStatistic.MEAN_DIFF, spec)
        assert got == reference_bootstrap((a, b), BootstrapStatistic.MEAN_DIFF, spec)
        # in a batch, a's indices and means are shared by every pair that
        # starts with the label "a", rejected rows included; the same values
        # under another label are converted and resampled on their own
        samples = {"a": a, "b": b, "c": rng.uniform(0, 100, 300),
                   "a copy": a.copy(), "a list": a.tolist()}
        pairs = [("a", "b"), ("a", "c"), ("a copy", "b"), ("b", "a"), ("a", "b"),
                 ("c", "a list"), ("a list", "a")]
        batch = bootstrap_samples(samples, pairs, BootstrapStatistic.MEAN_DIFF, spec)
        for pair, result in zip(pairs, batch, strict=True):
            want = bootstrap_statistic(values_of(samples, pair), BootstrapStatistic.MEAN_DIFF, spec)
            assert result == want
        assert batch[0] == got
        singles = ["a", "a list", "a", "b"]
        batch = bootstrap_samples(samples, singles, BootstrapStatistic.MEAN, spec)
        for label, result in zip(singles, batch, strict=True):
            assert result == reference_bootstrap(samples[label], BootstrapStatistic.MEAN, spec)

    def test_memory_is_bounded_by_the_block(self, monkeypatch):
        # each block spawns its own children: beyond one block of 16
        # replicates, the only memory that grows with the replicate count is
        # the 8-byte statistic per replicate (and one temporary of its std)
        monkeypatch.setattr(resampling, "_BLOCK_DRAWS", 64)
        spec = BootstrapSpec(replicates=2000, seed=3)
        # a first call, so that numpy's one-time set-up is not counted
        bootstrap_samples({0: [1.0, 2.0, 4.0]}, [0], BootstrapStatistic.MEAN, spec)
        tracemalloc.start()
        try:
            bootstrap_samples({0: [1.0, 2.0, 4.0]}, [0], BootstrapStatistic.MEAN, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * spec.replicates + 32 * 1024

    def test_empty_batch(self):
        assert bootstrap_samples({}, [], BootstrapStatistic.MEAN, BootstrapSpec(10, 0)) == []

    @pytest.mark.parametrize("statistic, key", [
        (BootstrapStatistic.MEAN, "b"),
        (BootstrapStatistic.MEAN_DIFF, ("a", "b")),
        (BootstrapStatistic.MEAN_DIFF, ("b", "a")),
    ])
    def test_unknown_label_raises_key_error(self, statistic, key):
        with pytest.raises(KeyError):
            bootstrap_samples({"a": [1.0, 2.0]}, [key], statistic, BootstrapSpec(10, 0))


class TestBootstrapAccuracy:
    def test_constant_sample_collapses_with_warning(self):
        with pytest.warns(RuntimeWarning):
            r = bootstrap_statistic(
                [3.0] * 10, BootstrapStatistic.MEAN, BootstrapSpec(100, seed=5)
            )
        assert (r.point, r.ci_low, r.ci_high, r.se_boot) == (3.0, 3.0, 3.0, 0.0)

    def test_se_matches_analytic_oracle(self):
        rng = np.random.default_rng(2024)
        data = rng.uniform(0, 100, 549)
        s = summarize(list(data))
        spec = BootstrapSpec(replicates=2000, seed=11)
        r = bootstrap_statistic(data, BootstrapStatistic.MEAN, spec)
        assert abs(r.se_boot - s.se) / s.se < 0.10

    def test_normal_ci_uses_point_and_se(self):
        data = np.random.default_rng(3).normal(50, 10, 100)
        r = bootstrap_statistic(data, BootstrapStatistic.MEAN, BootstrapSpec(500, seed=4))
        assert r.ci_low == pytest.approx(r.point - 1.96 * r.se_boot)
        assert r.ci_high == pytest.approx(r.point + 1.96 * r.se_boot)

    def test_percentile_ci_brackets_point(self):
        data = np.random.default_rng(5).uniform(0, 100, 200)
        spec = BootstrapSpec(replicates=2000, seed=6, ci_method=CiMethod.PERCENTILE)
        r = bootstrap_statistic(data, BootstrapStatistic.MEAN, spec)
        assert r.ci_low < r.point < r.ci_high

    def test_ci_width_converges_to_analytic(self):
        from pct_impact.effects import one_sample_t
        from pct_impact.kernels import t_quantile

        rng = np.random.default_rng(12)
        data = rng.uniform(0, 100, 500)
        analytic = one_sample_t(summarize(list(data)), 50.0)
        r = bootstrap_statistic(data, BootstrapStatistic.MEAN, BootstrapSpec(10_000, seed=13))
        width_boot = r.ci_high - r.ci_low
        width_analytic = analytic.ci_high - analytic.ci_low
        assert abs(width_boot - width_analytic) / width_analytic < 0.05

    def test_mean_diff_ci_close_to_t_ci(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 100, 268)
        b = rng.uniform(0, 80, 549)
        t_result = two_sample_pooled_t(summarize(list(a)), summarize(list(b)))
        r = bootstrap_statistic(
            (a, b), BootstrapStatistic.MEAN_DIFF, BootstrapSpec(2000, seed=9)
        )
        assert abs(r.ci_low - t_result.ci_low) < 0.5
        assert abs(r.ci_high - t_result.ci_high) < 0.5

    def test_proportion_statistic(self):
        data = np.array([1.0] * 30 + [0.0] * 70)
        r = bootstrap_statistic(data, BootstrapStatistic.PROPORTION, BootstrapSpec(500, seed=10))
        assert r.point == pytest.approx(0.30)
        analytic_se = math.sqrt(0.3 * 0.7 / 100)
        assert abs(r.se_boot - analytic_se) / analytic_se < 0.15

    def test_two_sample_requires_tuple(self):
        with pytest.raises(ValueError):
            bootstrap_statistic([1.0, 2.0], BootstrapStatistic.MEAN_DIFF, BootstrapSpec(10, 0))

    def test_one_sample_rejects_pair_input(self):
        pair = ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        with pytest.raises(ValueError):
            bootstrap_statistic(pair, BootstrapStatistic.MEAN, BootstrapSpec(10, 0))

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            bootstrap_statistic([1.0], BootstrapStatistic.MEAN, BootstrapSpec(10, 0))

    def test_two_sample_rejects_a_sample_that_is_not_flat(self):
        samples = {"A": [[1.0, 2.0], [3.0, 4.0]], "B": [1.0, 2.0, 3.0]}
        with pytest.raises(ValueError, match=r"^mean_diff needs flat \(1-D\) samples$"):
            bootstrap_samples(samples, [("A", "B")], BootstrapStatistic.MEAN_DIFF,
                              BootstrapSpec(50, 1))

    def test_two_sample_minimum_sample_size(self):
        with pytest.raises(SampleSizeError, match="^sample needs at least 2 observations$"):
            bootstrap_statistic(([1.0, 2.0], [3.0]), BootstrapStatistic.MEAN_DIFF,
                                BootstrapSpec(10, 0))

    def test_json_contract(self):
        r = bootstrap_statistic(
            [1.0, 2.0, 3.0], BootstrapStatistic.MEAN, BootstrapSpec(50, seed=12)
        )
        d = r.to_json_dict()
        assert set(d) == {
            "statistic", "point", "se_boot", "ci_method",
            "ci_low", "ci_high", "replicates", "seed",
        }
        assert d["statistic"] == "mean" and d["seed"] == 12


def midrank_mann_whitney(a, b):
    """The per-pair Mann-Whitney test by pooled midranks: U, z and p as the
    one-pair implementation computed them before the rank sums were shared
    between pairs."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("mann_whitney: both samples must be non-empty")
    n1, n2 = x.size, y.size
    _, group, counts = np.unique(np.concatenate([x, y]), return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    u1 = float(midranks[group[:n1]].sum()) - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    tie_term = float((counts**3 - counts).sum())
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0:
        raise DegenerateVarianceError(
            "mann_whitney: all pooled values are identical; U has zero variance"
        )
    dev = u1 - n1 * n2 / 2.0
    corrected = math.copysign(max(abs(dev) - 0.5, 0.0), dev) if dev else 0.0
    z = corrected / math.sqrt(var_u)
    return u1, z, min(2.0 * (1.0 - normal_cdf(abs(z))), 1.0)


def bits(values):
    return [float(v).hex() for v in values]


@st.composite
def rank_sum_cases(draw):
    """Samples over a few shared values (heavy ties, and samples made of
    one value), and pairs that share sides, repeat, reverse or pair a
    sample with itself."""
    pool = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=5))
    samples = {
        label: [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                               min_size=1, max_size=30))]
        for label in "abcde"[: draw(st.integers(1, 5))]
    }
    side = st.sampled_from(sorted(samples))
    pairs = draw(st.lists(st.tuples(side, side), min_size=1, max_size=12))
    return samples, pairs


class TestMannWhitneyPairs:
    @settings(max_examples=200, deadline=None)
    @given(rank_sum_cases())
    def test_matches_per_pair_midranks(self, case):
        samples, pairs = case
        results = mann_whitney_pairs(samples, pairs)
        for a, b in pairs:
            try:
                want = midrank_mann_whitney(samples[a], samples[b])
            except DegenerateVarianceError as exc:
                with pytest.raises(DegenerateVarianceError, match=re.escape(str(exc))):
                    next(results)
                return
            assert bits(next(results)) == bits(want)
            assert bits(mann_whitney(samples[a], samples[b])) == bits(want)
        assert next(results, None) is None

    def test_degenerate_pair_raises_at_its_turn(self):
        samples = {"x": [1.0, 2.0, 2.0], "c": [5.0, 5.0], "d": [5.0]}
        results = mann_whitney_pairs(samples, [("x", "c"), ("x", "x"), ("c", "d"), ("x", "d")])
        assert bits(next(results)) == bits(midrank_mann_whitney([1.0, 2.0, 2.0], [5.0, 5.0]))
        assert next(results).z_approx == 0.0  # a sample paired with itself
        with pytest.raises(DegenerateVarianceError, match="all pooled values are identical"):
            next(results)

    def test_empty_sample_raises_at_its_turn(self):
        results = mann_whitney_pairs({"x": [1.0, 2.0], "e": []}, [("x", "x"), ("e", "x")])
        next(results)
        with pytest.raises(ValueError, match="both samples must be non-empty"):
            next(results)

    def test_no_pairs(self):
        assert list(mann_whitney_pairs({}, [])) == []


class TestMannWhitney:
    def test_identical_samples(self):
        a = [1.0, 2.0, 2.0, 3.0, 5.0]
        r = mann_whitney(a, list(a))
        assert r.z_approx == pytest.approx(0.0, abs=1e-12)
        assert r.p_two_tailed == pytest.approx(1.0)

    def test_complete_separation_is_significant(self):
        a = [float(v) for v in range(20, 30)]
        b = [float(v) for v in range(0, 10)]
        r = mann_whitney(a, b)
        assert r.u_statistic == 100.0  # n1*n2, every pair won
        assert r.p_two_tailed < 0.01

    def test_all_identical_raises(self):
        with pytest.raises(DegenerateVarianceError):
            mann_whitney([5.0, 5.0, 5.0], [5.0, 5.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mann_whitney([], [1.0])

    def test_u_matches_pair_counting(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = list(rng.integers(0, 6, rng.integers(2, 9)).astype(float))
            b = list(rng.integers(0, 6, rng.integers(2, 9)).astype(float))
            assert mann_whitney(a, b).u_statistic == pytest.approx(pairwise_u(a, b))

    def test_normal_approx_close_to_exact_enumeration(self):
        # untied small samples; heavy ties in 3-element groups make the
        # permutation distribution too lumpy for any normal approximation
        rng = np.random.default_rng(17)
        for _ in range(12):
            n1, n2 = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            a = list(rng.uniform(0, 100, n1))
            b = list(rng.uniform(20, 120, n2))
            approx = mann_whitney(a, b).p_two_tailed
            exact = exact_mw_two_tailed_p(a, b)
            assert abs(approx - exact) < 0.05, (a, b, approx, exact)

    def test_tie_correction_matches_scipy(self):
        from scipy.stats import mannwhitneyu

        rng = np.random.default_rng(23)
        for _ in range(10):
            a = list(rng.integers(0, 4, 30).astype(float))
            b = list(rng.integers(0, 4, 25).astype(float))
            ours = mann_whitney(a, b)
            ref = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert ours.p_two_tailed == pytest.approx(float(ref.pvalue), abs=1e-10)

    def test_close_to_t_on_shifted_uniforms(self):
        rng = np.random.default_rng(41)
        a = list(rng.uniform(0, 100, 80))
        b = list(rng.uniform(15, 115, 80))
        z = mann_whitney(a, b).z_approx
        t = two_sample_pooled_t(summarize(a), summarize(b)).statistic_t
        assert abs(z - t) < 1.0
