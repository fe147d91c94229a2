"""Robustness checks: bootstrap, Mann-Whitney, and outlier sensitivity.

Percentiles are uniform rather than normal, so the t-based machinery is
double-checked two ways that need no distributional assumptions. The
outlier demo shows why a mean-ratio indicator (MNCS) can be wrecked by a
single paper while the top-10% share barely moves.
"""

import numpy as np

from pct_impact import (
    BootstrapSpec,
    BootstrapStatistic,
    CiMethod,
    bootstrap_statistic,
    mann_whitney,
    one_sample_t,
    outlier_sensitivity,
    summarize,
    two_sample_pooled_t,
)

rng = np.random.default_rng(42)


def matched(n, mean, sd):
    x = rng.uniform(0, 100, n)
    x = (x - x.mean()) / x.std(ddof=1)
    return mean + sd * x


strong = matched(549, 32.15, 27.49)
average = matched(268, 49.67, 30.66)

print("1. Bootstrap vs analytic CI for the strong institution's mean")
analytic = one_sample_t(summarize(list(strong)), 50.0)
for method in CiMethod:
    spec = BootstrapSpec(replicates=2000, seed=7, ci_method=method)
    boot = bootstrap_statistic(strong, BootstrapStatistic.MEAN, spec)
    print(f"   {method.value:10s}: [{boot.ci_low:6.2f}, {boot.ci_high:6.2f}]"
          f"   se_boot {boot.se_boot:.3f}")
print(f"   analytic t: [{analytic.ci_low:6.2f}, {analytic.ci_high:6.2f}]"
      f"   se {analytic.se:.3f}")

print("\n   same seed, rerun -> bit-identical result:")
spec = BootstrapSpec(replicates=2000, seed=7)
first = bootstrap_statistic(strong, BootstrapStatistic.MEAN, spec)
rerun = bootstrap_statistic(strong, BootstrapStatistic.MEAN, spec)
print(f"   {first == rerun}")

print("\n2. Mann-Whitney rank-sum as an ordinal-scale cross-check")
t = two_sample_pooled_t(summarize(list(average)), summarize(list(strong)))
mw = mann_whitney(list(average), list(strong))
print(f"   pooled t = {t.statistic_t:.2f}, rank-sum z = {mw.z_approx:.2f} "
      f"(virtually the same story)")

print("\n3. One 16000-citation paper among 200")
citations = [16000] + [int(c) for c in rng.poisson(5.0, 199) + 1]
report = outlier_sensitivity(citations, 10.0)
print(f"   MNCS:        {report.mncs_full:.2f} -> {report.mncs_without_max:.2f} "
      f"without it ({100 * report.mncs_rel_delta:.0f}% swing)")
print(f"   top-10%:     {100 * report.top_share_full:.1f}% -> "
      f"{100 * report.top_share_without_max:.1f}% "
      f"({100 * report.top_share_abs_delta:.2f} point change)")
print("   the share only asks membership in the top decile, so the outlier's")
print("   16000th citation counts no more than its first")
