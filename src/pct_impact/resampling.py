"""Nonparametric double-checks: seeded bootstrap and Mann-Whitney.

The bootstrap derives one independent RNG stream per replicate from the
master seed, so results are bit-for-bit reproducible no matter how many
worker threads execute the replicates or in which order they finish.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DegenerateVarianceError, SampleSizeError
from .kernels import normal_cdf

__all__ = [
    "CiMethod",
    "BootstrapStatistic",
    "BootstrapSpec",
    "BootstrapResult",
    "RankSumResult",
    "bootstrap_statistic",
    "mann_whitney",
]


class CiMethod(Enum):
    NORMAL_APPROX = "normal"
    PERCENTILE = "percentile"


class BootstrapStatistic(Enum):
    MEAN = "mean"
    MEAN_DIFF = "mean_diff"
    PROPORTION = "proportion"
    PROP_DIFF = "prop_diff"


_TWO_SAMPLE = (BootstrapStatistic.MEAN_DIFF, BootstrapStatistic.PROP_DIFF)


@dataclass(frozen=True)
class BootstrapSpec:
    """Identical spec + identical data gives identical results, bit for bit."""

    replicates: int = 1000
    seed: int = 0
    ci_method: CiMethod = CiMethod.NORMAL_APPROX

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")


@dataclass(frozen=True)
class BootstrapResult:
    statistic: BootstrapStatistic
    point: float
    se_boot: float
    ci_low: float
    ci_high: float
    ci_method: CiMethod
    replicates_used: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic.value,
            "point": self.point,
            "se_boot": self.se_boot,
            "ci_method": self.ci_method.value,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "replicates": self.replicates_used,
            "seed": self.seed,
        }


def _normalize_data(
    data: Union[Sequence[float], tuple[Sequence[float], Sequence[float]]],
    statistic: BootstrapStatistic,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    if statistic in _TWO_SAMPLE:
        if not (isinstance(data, tuple) and len(data) == 2):
            raise ValueError(f"{statistic.value} needs a (sample_a, sample_b) tuple")
        a = np.asarray(data[0], dtype=float)
        b = np.asarray(data[1], dtype=float)
        if a.size < 2 or b.size < 2:
            raise SampleSizeError("both samples need at least 2 observations")
        return a, b
    a = np.asarray(data, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{statistic.value} needs a single flat sample")
    if a.size < 2:
        raise SampleSizeError("sample needs at least 2 observations")
    return a, None


def _point_estimate(a: np.ndarray, b: Optional[np.ndarray]) -> float:
    if b is None:
        return float(a.mean())
    return float(a.mean() - b.mean())


def _replicate_block(
    a: np.ndarray,
    b: Optional[np.ndarray],
    seeds: Sequence[np.random.SeedSequence],
    start: int,
    stop: int,
    out: np.ndarray,
) -> None:
    for i in range(start, stop):
        rng = np.random.default_rng(seeds[i])
        ra = a[rng.integers(0, a.size, a.size)]
        if b is None:
            out[i] = ra.mean()
        else:
            rb = b[rng.integers(0, b.size, b.size)]
            out[i] = ra.mean() - rb.mean()


def bootstrap_statistic(
    data: Union[Sequence[float], tuple[Sequence[float], Sequence[float]]],
    statistic: BootstrapStatistic,
    spec: BootstrapSpec,
    workers: int = 1,
) -> BootstrapResult:
    """Resample observations with replacement and summarize the statistic.

    Two-sample statistics resample each group independently at its own
    size. The point estimate always comes from the original data; se_boot
    is the standard deviation of the replicate statistics. A degenerate
    (constant) sample collapses the interval to the point with a warning
    rather than an error.
    """
    a, b = _normalize_data(data, statistic)
    point = _point_estimate(a, b)

    seeds = np.random.SeedSequence(spec.seed).spawn(spec.replicates)
    stats = np.empty(spec.replicates, dtype=float)
    if workers <= 1:
        _replicate_block(a, b, seeds, 0, spec.replicates, stats)
    else:
        chunk = math.ceil(spec.replicates / workers)
        bounds = [
            (lo, min(lo + chunk, spec.replicates))
            for lo in range(0, spec.replicates, chunk)
        ]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_replicate_block, a, b, seeds, lo, hi, stats)
                for lo, hi in bounds
            ]
            for f in futures:
                f.result()

    se_boot = float(stats.std(ddof=1)) if spec.replicates > 1 else 0.0
    if se_boot == 0.0:
        warnings.warn(
            "bootstrap: replicate statistics are constant; interval collapses to the point",
            RuntimeWarning,
            stacklevel=2,
        )
        ci_low = ci_high = point
    elif spec.ci_method is CiMethod.NORMAL_APPROX:
        ci_low, ci_high = point - 1.96 * se_boot, point + 1.96 * se_boot
    else:
        ci_low = float(np.quantile(stats, 0.025))
        ci_high = float(np.quantile(stats, 0.975))

    return BootstrapResult(
        statistic=statistic,
        point=point,
        se_boot=se_boot,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_method=spec.ci_method,
        replicates_used=spec.replicates,
        seed=spec.seed,
    )


@dataclass(frozen=True)
class RankSumResult:
    u_statistic: float
    z_approx: float
    p_two_tailed: float

    def to_json_dict(self) -> dict:
        return {
            "u": self.u_statistic,
            "z": self.z_approx,
            "p": self.p_two_tailed,
        }


def mann_whitney(a: Sequence[float], b: Sequence[float]) -> RankSumResult:
    """Mann-Whitney rank-sum test via the normal approximation.

    Ranks the pooled samples with midranks for ties and applies the
    standard tie correction to the variance of U, plus a 0.5 continuity
    correction (without it the approximation misses exact small-sample
    p-values by well over 0.05). Suited to ordinal data such as
    percentiles, which tend to be heavily tied.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("mann_whitney: both samples must be non-empty")
    n1, n2 = x.size, y.size
    pooled = np.concatenate([x, y])
    _, group, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    # a tie group ends at sorted position cumsum(counts); its midrank is the
    # mean of the positions it spans
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    r1 = float(midranks[group[:n1]].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0

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
    p = 2.0 * (1.0 - normal_cdf(abs(z)))
    return RankSumResult(u_statistic=u1, z_approx=z, p_two_tailed=min(p, 1.0))
