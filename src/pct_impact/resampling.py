"""Nonparametric double-checks: seeded bootstrap and Mann-Whitney.

The bootstrap derives one independent RNG stream per replicate from the
master seed: replicate i uses the i-th `SeedSequence` child and draws
group a's indices, then group b's, with `default_rng(child).integers`.
Results are bit-for-bit reproducible. The replicates are computed in
blocks: each replicate's PCG64 stream is read once as an array of 32-bit
words, turned into the same indices numpy's bounded sampler would give,
and shared by every sample bootstrapped under the same spec. The rare
replicate holding a draw that numpy rejects is recomputed by numpy itself.
There is no thread pool; a `workers` argument changes nothing.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from typing import Hashable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateVarianceError, SampleSizeError
from .kernels import normal_cdf

__all__ = [
    "CiMethod",
    "BootstrapStatistic",
    "BootstrapSpec",
    "BootstrapResult",
    "RankSumResult",
    "bootstrap_samples",
    "bootstrap_statistic",
    "mann_whitney",
    "mann_whitney_pairs",
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


class _BootstrapSpec(NamedTuple):
    replicates: int = 1000
    seed: int = 0
    ci_method: CiMethod = CiMethod.NORMAL_APPROX


class BootstrapSpec(_BootstrapSpec):
    """Identical spec + identical data gives identical results, bit for bit."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if spec.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {spec.replicates}")
        return spec


class BootstrapResult(NamedTuple):
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
    samples: Mapping[Hashable, Sequence[float]],
    key: Hashable,
    statistic: BootstrapStatistic,
    arrays: dict,
) -> tuple[tuple, np.ndarray, Optional[np.ndarray]]:
    """key's labels, (a,) or (a, b), and their float arrays, b None for one
    sample; arrays holds each label's array, converted and checked once."""
    two_sample = statistic in _TWO_SAMPLE
    if two_sample and not (isinstance(key, tuple) and len(key) == 2):
        raise ValueError(f"{statistic.value} needs a (sample_a, sample_b) tuple")
    labels = key if two_sample else (key,)
    for label in labels:
        if label not in arrays:
            values = np.asarray(samples[label], dtype=float)
            if values.ndim != 1:
                raise ValueError(f"{statistic.value} needs flat (1-D) samples")
            if values.size < 2:
                raise SampleSizeError("sample needs at least 2 observations")
            arrays[label] = values
    return labels, arrays[labels[0]], arrays[labels[1]] if two_sample else None


# Draws per block of replicates: the stream, index and value arrays of one
# block stay near 1 MB whatever the sample sizes.
_BLOCK_DRAWS = 1 << 15


def _replicate(a: np.ndarray, b: Optional[np.ndarray], child: np.random.SeedSequence) -> float:
    """One replicate drawn by numpy itself; the reference the block kernel
    reproduces, and its exact fallback."""
    rng = np.random.default_rng(child)
    ra = a[rng.integers(0, a.size, a.size)]
    if b is None:
        return ra.mean()
    rb = b[rng.integers(0, b.size, b.size)]
    return ra.mean() - rb.mean()


def _uint32_streams(children: Sequence[np.random.SeedSequence], words: int) -> np.ndarray:
    """Row i holds the first 2 * words 32-bit outputs of child i's PCG64, in
    the order `Generator.integers` consumes them: each 64-bit word split into
    its low half, then its high half (a spare half carries over between
    calls). Held as uint64 so that a draw times a range below 2**32 cannot
    overflow."""
    raw = np.stack([np.random.PCG64(child).random_raw(words) for child in children])
    return raw.astype("<u8", copy=False).view("<u4").astype(np.uint64)


def _bounded_draws(u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices in [0, n), 2 <= n < 2**32, from 32-bit draws u as
    `Generator.integers(0, n)` computes them (Lemire 2019, multiply-shift):
    the high half of u * n. Also flags each row holding a draw that numpy
    rejects and redraws, one whose low half is below 2**32 mod n; every later
    index of such a row comes from a shifted stream."""
    m = u * np.uint64(n)
    rejected = (m & np.uint64(0xFFFFFFFF)) < np.uint64((1 << 32) % n)
    return (m >> np.uint64(32)).astype(np.intp), rejected.any(axis=1)


def _block_statistics(
    labels: tuple,
    a: np.ndarray,
    b: Optional[np.ndarray],
    children: Sequence[np.random.SeedSequence],
    draws: np.ndarray,
    parts: dict,
    out: np.ndarray,
) -> None:
    """Replicate statistics for one block, into out: group a reads draws
    [0, n_a), group b draws [n_a, n_a + n_b), as the two `integers` calls of
    `_replicate` do; labels names them. parts holds the means and
    rejected-draw rows of each (label, first draw) part, computed once per
    block. Rows with a rejected draw are recomputed by `_replicate`."""
    for label, values, offset in zip(labels, (a, b), (0, a.size)):
        if (label, offset) not in parts:
            idx, redraw = _bounded_draws(draws[:, offset : offset + values.size], values.size)
            parts[label, offset] = values[idx].mean(axis=1), redraw
    stats, redraw = parts[labels[0], 0]
    if b is not None:
        means_b, redraw_b = parts[labels[1], a.size]
        stats, redraw = stats - means_b, redraw | redraw_b
    out[:] = stats
    for row in np.flatnonzero(redraw):
        out[row] = _replicate(a, b, children[row])


def _replicate_statistics(
    samples: Sequence[tuple[tuple, np.ndarray, Optional[np.ndarray]]], spec: BootstrapSpec
) -> np.ndarray:
    """Replicate statistics, one row per sample: replicate i of every sample
    reads the i-th child of the master seed, spawned with its block. Each
    block builds its streams once, wide enough for the widest sample;
    samples that hold one label at the same draw offset, such as the pairs
    1:k, share its indices and means."""
    master = np.random.SeedSequence(spec.seed)
    width = max(a.size + (0 if b is None else b.size) for _, a, b in samples)
    words = (width + 1) // 2
    rows = max(1, _BLOCK_DRAWS // (2 * words))
    out = np.empty((len(samples), spec.replicates))
    for lo in range(0, spec.replicates, rows):
        block = master.spawn(min(rows, spec.replicates - lo))
        draws = _uint32_streams(block, words)
        parts: dict = {}
        for k, (labels, a, b) in enumerate(samples):
            _block_statistics(labels, a, b, block, draws, parts, out[k, lo : lo + len(block)])
    return out


def _summarize(
    statistic: BootstrapStatistic,
    spec: BootstrapSpec,
    a: np.ndarray,
    b: Optional[np.ndarray],
    stats: np.ndarray,
) -> BootstrapResult:
    point = math.fsum(a.tolist()) / a.size  # the mean rule of effects.summarize
    if b is not None:
        point -= math.fsum(b.tolist()) / b.size
    se_boot = float(stats.std(ddof=1)) if spec.replicates > 1 else 0.0
    if se_boot == 0.0:
        warnings.warn(
            "bootstrap: replicate statistics are constant; interval collapses to the point",
            RuntimeWarning,
            stacklevel=3,
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


def bootstrap_samples(
    samples: Mapping[Hashable, Sequence[float]],
    keys: Sequence[Hashable],
    statistic: BootstrapStatistic,
    spec: BootstrapSpec,
) -> list[BootstrapResult]:
    """`bootstrap_statistic` for each key under one spec, with the replicate
    streams built once for all of them. A key is a label of samples, or a
    pair (a, b) of labels for the two-sample statistics.

    Replicate i of every key uses the same i-th child stream, exactly as
    separate calls would, so each result equals its own call bit for bit.
    A label named by several keys is converted and resampled once.
    """
    arrays: dict = {}
    data = [_normalize_data(samples, key, statistic, arrays) for key in keys]
    if not data:
        return []
    stats = _replicate_statistics(data, spec)
    return [
        _summarize(statistic, spec, a, b, row)
        for (_, a, b), row in zip(data, stats)
    ]


def bootstrap_statistic(
    data: Union[Sequence[float], tuple[Sequence[float], Sequence[float]]],
    statistic: BootstrapStatistic,
    spec: BootstrapSpec,
    workers: int = 1,
) -> BootstrapResult:
    """Resample observations with replacement and summarize the statistic.

    Two-sample statistics resample each group independently at its own
    size. The point estimate is the original data's fsum mean, as in the
    tables; se_boot is the standard deviation of the replicate statistics.
    A degenerate (constant) sample collapses the interval to the point
    with a warning rather than an error. `workers` is accepted for
    compatibility and changes nothing: the replicates run as vectorised
    blocks in the calling thread.
    """
    if statistic in _TWO_SAMPLE and isinstance(data, tuple) and len(data) == 2:
        return bootstrap_samples(dict(enumerate(data)), [(0, 1)], statistic, spec)[0]
    return bootstrap_samples({0: data}, [0], statistic, spec)[0]


class RankSumResult(NamedTuple):
    u_statistic: float
    z_approx: float
    p_two_tailed: float


def mann_whitney(a: Sequence[float], b: Sequence[float]) -> RankSumResult:
    """Mann-Whitney rank-sum test via the normal approximation.

    Ranks the pooled samples with midranks for ties and applies the
    standard tie correction to the variance of U, plus a 0.5 continuity
    correction (without it the approximation misses exact small-sample
    p-values by well over 0.05). Suited to ordinal data such as
    percentiles, which tend to be heavily tied.
    """
    return next(mann_whitney_pairs({0: a, 1: b}, [(0, 1)]))


def mann_whitney_pairs(
    samples: Mapping[Hashable, Sequence[float]], pairs: Sequence[tuple[Hashable, Hashable]]
) -> Iterator[RankSumResult]:
    """mann_whitney(samples[a], samples[b]) for each pair (a, b), in order,
    bit for bit, with each sample's values counted once.

    The pooled values of all the samples are coded once. With c_a(v) the
    count of value v in a and below_b(v) the count of smaller values in b,
    2·U = Σ c_a·(2·below_b + c_b), and the pooled tie term
    Σ (c_a + c_b)³ - (c_a + c_b) is T_a + T_b + 3·Σ c_a·c_b·(c_a + c_b)
    - n_a - n_b, with T a sample's sum of cubed counts: exact integers.
    2·below_b + c_b is laid out over all the values once per second sample.
    The work is done when the first result is asked for; a pair that
    mann_whitney rejects raises when its own result is reached.
    """
    if not pairs:
        return
    named = dict.fromkeys(label for pair in pairs for label in pair)
    labels = {label: k for k, label in enumerate(named)}
    values = [np.asarray(samples[label], dtype=float) for label in labels]
    sizes = [v.size for v in values]
    distinct, code = np.unique(np.concatenate(values), return_inverse=True)
    d = distinct.size
    keys, key_counts = np.unique(np.repeat(np.arange(len(sizes)), sizes) * d + code,
                                 return_counts=True)  # (sample, value) pairs, sorted
    ends = np.searchsorted(keys, np.arange(1, len(sizes) + 1) * d).tolist()
    # each sample's values (as codes) and their counts
    counted = [(keys[lo:hi] % d, key_counts[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    cubes = [int(c @ (c * c)) for _, c in counted]
    by_second: dict[int, list[int]] = {}
    for p, (_, b) in enumerate(pairs):
        by_second.setdefault(labels[b], []).append(p)
    terms = [None] * len(pairs)  # 2·U, the tie term and the two sizes, per pair
    for j, group in by_second.items():
        c_b = np.zeros(d, dtype=np.int64)  # b's count of every value
        c_b[counted[j][0]] = counted[j][1]
        weight = 2 * np.cumsum(c_b) - c_b
        for p in group:
            i = labels[pairs[p][0]]
            v, c_a = counted[i]
            c_b_at = c_b[v]  # b's counts of a's values
            cross = int((c_a * c_b_at) @ (c_a + c_b_at))
            ties = cubes[i] + cubes[j] + 3 * cross - sizes[i] - sizes[j]
            terms[p] = int(c_a @ weight[v]), ties, sizes[i], sizes[j]
    for twice_u, ties, n1, n2 in terms:
        if n1 == 0 or n2 == 0:
            raise ValueError("mann_whitney: both samples must be non-empty")
        u1 = twice_u / 2
        n = n1 + n2
        var_u = n1 * n2 / 12.0 * ((n + 1) - float(ties) / (n * (n - 1)))
        if var_u <= 0:
            raise DegenerateVarianceError(
                "mann_whitney: all pooled values are identical; U has zero variance"
            )
        dev = u1 - n1 * n2 / 2.0
        corrected = math.copysign(max(abs(dev) - 0.5, 0.0), dev) if dev else 0.0
        z = corrected / math.sqrt(var_u)
        p = 2.0 * (1.0 - normal_cdf(abs(z)))
        yield RankSumResult(u_statistic=u1, z_approx=z, p_two_tailed=min(p, 1.0))
