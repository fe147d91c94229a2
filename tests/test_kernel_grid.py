"""The t and normal kernels against a frozen reference grid, plus properties.

``tests/data/kernel_grid.json`` holds about 2,200 points from scipy 1.17.1
(``stdtr``, ``stdtrit``, ``ndtri``), written by
``tests/data/make_kernel_grid.py``: df from 1 to 1e5 (integer, half-integer
and real-valued) and tail probabilities down to 1e-12. Each CDF point stores
x, df, the CDF and the smaller tail P(T > |x|).
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pct_impact.kernels import normal_cdf, normal_quantile, t_cdf, t_quantile

GRID = json.loads(
    (Path(__file__).resolve().parent / "data" / "kernel_grid.json").read_text(encoding="utf-8")
)


def test_t_cdf_smaller_tail_matches_grid():
    bad = [
        (x, df) for x, df, _, tail in GRID["t_cdf"]
        if abs(t_cdf(-abs(x), df) - tail) > 1e-13 * tail
    ]
    assert not bad, f"{len(bad)} points beyond 1e-13 relative, e.g. {bad[:3]}"


def test_t_cdf_upper_tail_within_one_ulp():
    # p = 2(1 - cdf) is read from here. Where the tail is above 1e-2 the
    # reference itself is up to 104 ulp from a 40-digit value (df = 1,
    # x = 1e-3); the tail check above covers those points.
    points = [(x, df, cdf) for x, df, cdf, tail in GRID["t_cdf"] if x > 0 and tail < 1e-2]
    assert len(points) == 440
    bad = [(x, df) for x, df, cdf in points if abs(t_cdf(x, df) - cdf) > math.ulp(cdf)]
    assert not bad, f"{len(bad)} points beyond 1 ulp, e.g. {bad[:3]}"


def test_t_quantile_matches_grid():
    bad = [
        (q, df) for q, df, x in GRID["t_quantile"]
        if abs(t_quantile(q, df) - x) > 1e-13 * max(1.0, abs(x))
    ]
    assert not bad, f"{len(bad)} points beyond 1e-13, e.g. {bad[:3]}"


def test_normal_quantile_matches_grid():
    bad = [
        q for q, x in GRID["normal_quantile"]
        if abs(normal_quantile(q) - x) > 1e-13 * max(1.0, abs(x))
    ]
    assert not bad, f"{len(bad)} points beyond 1e-13, e.g. {bad[:3]}"


@pytest.mark.parametrize("call", [lambda: t_cdf(2.0, math.nan),
                                  lambda: t_quantile(0.5, math.nan)])
def test_nan_df_is_rejected(call):
    with pytest.raises(ValueError, match="df must be positive"):
        call()


def test_infinite_df_is_the_normal_limit():
    assert t_quantile(0.975, math.inf) == pytest.approx(1.9599639845400538, abs=1e-15)
    for x in (-3.0, -0.5, 0.0, 1.25):
        assert t_cdf(x, math.inf) == normal_cdf(x)


DFS = st.one_of(
    st.floats(min_value=1.0, max_value=1e5),
    st.floats(min_value=0.2, max_value=1.0),
    st.sampled_from([1.0, 2.0, 1.5, 30.0, 548.0]),
)
XS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(x=XS, df=DFS)
def test_t_cdf_is_symmetric(x, df):
    assert abs(t_cdf(-x, df) + t_cdf(x, df) - 1.0) <= 1e-15


@given(a=XS, b=XS, df=DFS)
def test_t_cdf_is_monotone(a, b, df):
    lo, hi = sorted((a, b))
    # up to rounding: the tail methods meet to within about 5e-16
    assert t_cdf(lo, df) <= t_cdf(hi, df) + 1e-15


@given(q=st.floats(min_value=1e-10, max_value=1.0 - 1e-10), df=DFS)
def test_t_quantile_round_trips(q, df):
    x = t_quantile(q, df)
    assert (x < 0) == (q < 0.5) or q == 0.5
    p = min(q, 1.0 - q)
    assert abs(t_cdf(-abs(x), df) - p) <= 1e-12 * p
