"""Closed-form inference for percentile scores and top-x% proportions.

Covers summary statistics, one- and two-sample t tests with Cohen's d,
proportion z tests with Cohen's h, Wald confidence intervals, and the
magnitude labels used to judge substantive (not just statistical)
significance. Every p-value and interval goes through the kernels in
:mod:`pct_impact.kernels`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .errors import DegenerateVarianceError, SampleSizeError
from .kernels import normal_cdf, normal_quantile, t_cdf, t_quantile

__all__ = [
    "Magnitude",
    "MAGNITUDE_THRESHOLDS",
    "SummaryStats",
    "MeanTestResult",
    "ProportionTestResult",
    "OverlapVerdict",
    "summarize",
    "one_sample_t",
    "pooled_sd",
    "two_sample_pooled_t",
    "two_sample_welch_t",
    "one_sample_prop_z",
    "cohens_h_one",
    "two_sample_prop_z",
    "classify_magnitude",
    "ci_overlap_verdict",
]

#: Cohen's benchmarks for |d| and |h|; each boundary belongs to the larger class.
MAGNITUDE_THRESHOLDS = (0.2, 0.5, 0.8)


class Magnitude(Enum):
    NEGLIGIBLE = "negligible"
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def classify_magnitude(effect: float) -> Magnitude:
    """Label |effect| using the 0.2 / 0.5 / 0.8 benchmarks.

    Boundaries go to the larger class, so |effect| = 0.5 is MEDIUM.
    """
    if not math.isfinite(effect):
        raise ValueError(f"classify_magnitude: effect must be finite, got {effect}")
    e = abs(effect)
    small, medium, large = MAGNITUDE_THRESHOLDS
    if e < small:
        return Magnitude.NEGLIGIBLE
    if e < medium:
        return Magnitude.SMALL
    if e < large:
        return Magnitude.MEDIUM
    return Magnitude.LARGE


class SummaryStats(NamedTuple):
    """Sample size, mean, sample SD (n-1 divisor) and SE of the mean.

    For n = 1 the SD and SE are undefined: sd is None, and so is se.
    """

    n: int
    mean: float
    sd: Optional[float]

    @property
    def se(self) -> Optional[float]:
        """sd / sqrt(n), the standard error of the mean."""
        return None if self.sd is None else self.sd / math.sqrt(self.n)

    @classmethod
    def from_moments(cls, n: int, mean: float, sd: float) -> "SummaryStats":
        """Build from already-aggregated moments (e.g. a published table)."""
        if n < 1:
            raise ValueError(f"SummaryStats: n must be >= 1, got {n}")
        if not (math.isfinite(mean) and math.isfinite(sd) and sd >= 0):
            raise ValueError(f"SummaryStats: need a finite mean and sd >= 0, got {mean}, {sd}")
        return cls(n=n, mean=float(mean), sd=float(sd))


def summarize(values: Sequence[float]) -> SummaryStats:
    """Mean, sample standard deviation and standard error of a sample."""
    n = len(values)
    if n == 0:
        raise ValueError("summarize: empty input")
    mean = math.fsum(values) / n
    if n == 1:
        return SummaryStats(n=1, mean=mean, sd=None)
    ss = math.fsum((v - mean) * (v - mean) for v in values)
    sd = math.sqrt(ss / (n - 1))
    return SummaryStats(n=n, mean=mean, sd=sd)


class MeanTestResult(NamedTuple):
    """Outcome of a one- or two-sample t test on mean percentile scores."""

    estimate: float  # observed mean, or difference of means
    se: float
    statistic_t: float
    df: float
    p_two_tailed: float
    ci_low: float
    ci_high: float
    effect_d: float
    magnitude: Magnitude
    pooled_sd: Optional[float] = None


class ProportionTestResult(NamedTuple):
    """Outcome of a one- or two-sample large-sample proportion z test."""

    estimate: float  # observed proportion, or difference of proportions
    se: float  # SE used for the confidence interval (unpooled)
    statistic_z: float
    p_two_tailed: float
    ci_low: float
    ci_high: float
    effect_h: float
    magnitude: Magnitude


def _upper_quantile(test: str, ci_level: float) -> float:
    """The quantile whose critical value bounds a two-sided ci_level interval.
    The last double below 1 counts as 1: its quantile rounds to 1."""
    q = 0.5 + ci_level / 2.0
    if not (0.0 < ci_level and q < 1.0):
        raise ValueError(f"{test}: ci_level must be in (0, 1), got {ci_level}")
    return q


def _mean_test(
    test: str, ci_level: float, estimate: float, null: float, se: float, df: float,
    sd: float, sp: Optional[float] = None,
) -> MeanTestResult:
    """t = (estimate - null) / se and d = (estimate - null) / sd, with the
    two-tailed p, t interval and magnitude of d; se and sd > 0, t and d finite."""
    if not (se > 0 and sd > 0):
        raise DegenerateVarianceError(f"{test}: the SE or SD is zero or underflows to zero")
    t = (estimate - null) / se
    d = (estimate - null) / sd
    if not (math.isfinite(t) and math.isfinite(d)):
        raise DegenerateVarianceError(f"{test}: t and d must be finite, got t = {t}, d = {d}")
    crit = t_quantile(_upper_quantile(test, ci_level), df)
    return MeanTestResult(
        estimate=estimate,
        se=se,
        statistic_t=t,
        df=float(df),
        p_two_tailed=2.0 * (1.0 - t_cdf(abs(t), df)),
        ci_low=estimate - crit * se,
        ci_high=estimate + crit * se,
        effect_d=d,
        magnitude=classify_magnitude(d),
        pooled_sd=sp,
    )


def _proportion_test(
    test: str, ci_level: float, estimate: float, null: float, se: float, se_null: float, h: float
) -> ProportionTestResult:
    """z = (estimate - null) / se_null, the two-tailed p, the Wald interval
    estimate +- crit * se and the magnitude of h; se_null must be > 0."""
    if not se_null > 0:
        raise DegenerateVarianceError(f"{test}: the null SE is zero or underflows to zero")
    z = (estimate - null) / se_null
    crit = normal_quantile(_upper_quantile(test, ci_level))
    return ProportionTestResult(
        estimate=estimate,
        se=se,
        statistic_z=z,
        p_two_tailed=2.0 * (1.0 - normal_cdf(abs(z))),
        ci_low=estimate - crit * se,
        ci_high=estimate + crit * se,
        effect_h=h,
        magnitude=classify_magnitude(h),
    )


def one_sample_t(stats: SummaryStats, mu0: float, ci_level: float = 0.95) -> MeanTestResult:
    """Test whether a sample mean differs from mu0.

    t = (mean - mu0) / (sd / sqrt(n)) on n - 1 degrees of freedom, with a
    symmetric t-based confidence interval around the mean and Cohen's d as
    the effect size.
    """
    if stats.n < 2 or stats.sd is None:
        raise SampleSizeError("one_sample_t: need n >= 2 with a defined SD")
    return _mean_test("one_sample_t", ci_level, stats.mean, mu0, stats.se, stats.n - 1, stats.sd)


def pooled_sd(a: SummaryStats, b: SummaryStats) -> float:
    """Pooled standard deviation under the equal-variance assumption.

    sp = sqrt(((n1-1) s1^2 + (n2-1) s2^2) / (n1 + n2 - 2))
    """
    if a.sd is None or b.sd is None:
        raise SampleSizeError("pooled_sd: both samples need a defined SD")
    if a.n + b.n < 3:
        raise SampleSizeError("pooled_sd: need n1 + n2 >= 3")
    if a.sd == 0 and b.sd == 0:
        raise DegenerateVarianceError("pooled_sd: both sample SDs are zero")
    # scaled by a power of two (exact), so that the larger SD's square cannot underflow
    s = math.ldexp(1.0, -math.frexp(max(a.sd, b.sd))[1])
    sa, sb = a.sd * s, b.sd * s
    num = (a.n - 1) * (sa * sa) + (b.n - 1) * (sb * sb)
    return math.sqrt(num / (a.n + b.n - 2)) / s


def two_sample_pooled_t(
    a: SummaryStats, b: SummaryStats, ci_level: float = 0.95
) -> MeanTestResult:
    """Equal-variance two-sample t test for a difference in means.

    The standard error of the difference is sqrt(sp^2 (n1+n2)/(n1 n2)) and
    Cohen's d is the difference divided by the pooled SD.
    """
    sp = pooled_sd(a, b)
    s = math.ldexp(1.0, -math.frexp(sp)[1])  # as in pooled_sd
    se = math.sqrt((sp * s) * (sp * s) * (a.n + b.n) / (a.n * b.n)) / s
    return _mean_test(
        "two_sample_pooled_t", ci_level, a.mean - b.mean, 0.0, se, a.n + b.n - 2, sp, sp
    )


def two_sample_welch_t(
    a: SummaryStats, b: SummaryStats, ci_level: float = 0.95
) -> MeanTestResult:
    """Welch's t test, allowing the two group variances to differ.

    Degrees of freedom follow the Welch-Satterthwaite approximation. The
    effect size is still Cohen's d over the pooled SD so that the pooled
    and Welch variants report comparable magnitudes.
    """
    if a.n < 2 or b.n < 2 or a.sd is None or b.sd is None:
        raise SampleSizeError("two_sample_welch_t: both groups need n >= 2")
    s = math.ldexp(1.0, -math.frexp(max(a.sd, b.sd))[1])  # as in pooled_sd; df is free of s
    sa, sb = a.sd * s, b.sd * s
    va, vb = sa * sa / a.n, sb * sb / b.n
    df_denominator = va * va / (a.n - 1) + vb * vb / (b.n - 1)
    if df_denominator == 0:
        raise DegenerateVarianceError("two_sample_welch_t: the df denominator is zero")
    sp = pooled_sd(a, b)
    return _mean_test(
        "two_sample_welch_t", ci_level, a.mean - b.mean, 0.0, math.sqrt(va + vb) / s,
        (va + vb) * (va + vb) / df_denominator, sp, sp,
    )


def cohens_h_one(p: float, p0: float) -> float:
    """Cohen's h for proportions: 2 asin(sqrt(p)) - 2 asin(sqrt(p0)).

    Defined on the closed interval [0, 1] at both ends (asin(1) = pi/2).
    """
    for name, v in (("p", p), ("p0", p0)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"cohens_h_one: {name} must be in [0, 1], got {v}")
    return 2.0 * math.asin(math.sqrt(p)) - 2.0 * math.asin(math.sqrt(p0))


def one_sample_prop_z(
    count: float, n: int, p0: float, ci_level: float = 0.95
) -> ProportionTestResult:
    """Large-sample z test of a proportion against p0.

    The test uses the null SD sqrt(p0 (1-p0) / n); the confidence interval
    is the Wald interval around the observed proportion. Cohen's h is the
    effect size. count may be fractional when it comes from tie-weighted
    counting.
    """
    if n < 1 or not 0 <= count <= n:
        raise ValueError(f"one_sample_prop_z: need n >= 1 and 0 <= count <= n, got {count}/{n}")
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"one_sample_prop_z: p0 must be in (0, 1), got {p0}")
    p = count / n
    return _proportion_test(
        "one_sample_prop_z", ci_level, p, p0, math.sqrt(p * (1.0 - p) / n),
        math.sqrt(p0 * (1.0 - p0) / n), cohens_h_one(p, p0),
    )


def two_sample_prop_z(
    count1: float, n1: int, count2: float, n2: int, ci_level: float = 0.95
) -> ProportionTestResult:
    """z test for equality of two proportions.

    The z statistic uses the pooled proportion for its standard error; the
    confidence interval for the difference uses the unpooled standard
    error. Cohen's h substitutes the second proportion for p0.
    """
    if not 0 <= count1 <= n1 or not 0 <= count2 <= n2:
        raise ValueError("two_sample_prop_z: counts must satisfy 0 <= count <= n")
    if n1 < 1 or n2 < 1:
        raise ValueError("two_sample_prop_z: both groups must be non-empty")
    p1, p2 = count1 / n1, count2 / n2
    pooled = (count1 + count2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        raise DegenerateVarianceError(
            "two_sample_prop_z: pooled proportion is degenerate (0 or 1)"
        )
    return _proportion_test(
        "two_sample_prop_z", ci_level, p1 - p2, 0.0,
        math.sqrt(p1 * (1.0 - p1) / n1 + p2 * (1.0 - p2) / n2),
        math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)), cohens_h_one(p1, p2),
    )


class OverlapVerdict(NamedTuple):
    """What overlap of two 95% confidence intervals does and does not imply."""

    overlap: bool
    statement: str


def ci_overlap_verdict(
    ci_a: tuple[float, float], ci_b: tuple[float, float]
) -> OverlapVerdict:
    """Apply the interval-overlap rule for two 95% CIs.

    Overlapping intervals mean the difference is not significant at the
    .01 level; disjoint intervals mean it is. Overlap says nothing either
    way about the .05 level, so the verdict never mentions it.
    """
    for name, (lo, hi) in (("ci_a", ci_a), ("ci_b", ci_b)):
        if not lo <= hi:
            raise ValueError(f"ci_overlap_verdict: {name} needs lo <= hi, got {lo}, {hi}")
    overlap = ci_a[0] <= ci_b[1] and ci_b[0] <= ci_a[1]
    if overlap:
        return OverlapVerdict(True, "not significant at the .01 level")
    return OverlapVerdict(False, "significant at the .01 level")
