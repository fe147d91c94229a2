"""Distribution kernels used by every p-value and confidence interval.

The normal distribution comes from :class:`statistics.NormalDist`; the t
kernels are pure Python on :mod:`math`. Importing them loads no numpy. All
functions are pure and thread-safe; the only module-level state is one
``NormalDist`` and a table of constants built at import.

- ``normal_cdf``: ``NormalDist.cdf``, which is ``math.erf``.
- ``normal_quantile``: ``NormalDist.inv_cdf``, which is Wichura's PPND16,
  Algorithm AS 241, *Applied Statistics* 37(3), 1988; about 1e-16 relative.
- ``t_cdf``: the smaller tail ½·I(df/2, ½; df/(df + x²)) of the regularized
  incomplete beta function, returned as ``tail`` for x < 0 and
  ``1 - tail`` for x > 0. For df/2 ≥ 15 and x² < 0.43·df, I comes from the
  asymptotic expansion for a large first parameter of DiDonato & Morris
  (1992), *ACM TOMS* 18(3), Algorithm 708 (BGRAT; with b = ½ its
  incomplete gamma function is ``erfc``); elsewhere from the continued
  fraction for I (modified Lentz). The log of Γ(a + ½)/Γ(a) is taken from
  a Stirling series, not as a difference of two ``lgamma`` values, which
  cancels to about 1e-11 at a = 1e4.
- ``t_quantile``: the start of Hill's Algorithm 396, *CACM* 13(10), 1970,
  polished by at most three Newton steps on the smaller tail, each with
  its second-order term (Hill's 1981 remark, *ACM TOMS* 7(2)); bisection
  on the tail for df < 1, where Hill's start does not apply.

df = 1 and df = 2 use closed forms; df = inf is the normal limit.
"""

import math
import statistics

__all__ = ["normal_cdf", "normal_quantile", "t_cdf", "t_quantile"]

# The t kernels call its inv_cdf directly, not normal_quantile, so a trace of
# normal_quantile counts only the callers outside this module.
_NORMAL = statistics.NormalDist()
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 2.220446049250313e-16


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to machine precision via erf."""
    if math.isnan(x):
        raise ValueError("normal_cdf: x must not be NaN")
    return _NORMAL.cdf(x)


def normal_quantile(q: float) -> float:
    """Inverse of the standard normal CDF for q in (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"normal_quantile: q must be in (0, 1), got {q}")
    return _NORMAL.inv_cdf(q)


# Below this a = df/2 the continued fraction is used throughout, and the
# Stirling series for log Γ(a + ½)/Γ(a) is reached by an upward shift.
_LARGE_A = 15.0


def _stirling(z: float) -> float:
    """log Γ(z) - [(z - ½)·log z - z + ½·log 2π] for z >= 15; error < 1e-17."""
    w = 1.0 / (z * z)
    return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w * (1.0 / 1680 - w * (
        1.0 / 1188 - w * 691.0 / 360360))))) / z


def _log_gamma_ratio(a: float) -> float:
    """log(Γ(a + ½)/(Γ(a)·√a)), which tends to 0 like -1/(8a).

    Taken from the Stirling series directly: as a difference of two lgamma
    values it cancels to about 1e-11 at a = 1e4.
    """
    shift = 1.0
    while a < _LARGE_A:
        shift *= math.sqrt(a * (a + 1.0)) / (a + 0.5)
        a += 1.0
    return (a * math.log1p(0.5 / a) - 0.5) + _stirling(a + 0.5) - _stirling(a) + math.log(shift)


def _sinhc_power_series(power: float, terms: int) -> tuple[float, ...]:
    """Coefficients of (sinh w / w)**power in powers of w², by J.C.P. Miller's
    recurrence for the power of a series."""
    c = [1.0 / math.factorial(2 * k + 1) for k in range(terms)]
    d = [1.0]
    for m in range(1, terms):
        d.append(sum(((power + 1) * k - m) * c[k] * d[m - k] for k in range(1, m + 1)) / m)
    return tuple(d)


# BGRAT with b = ½ expands (sinh w / w)**(b - 1); 25 terms reach 1e-30 of the
# sum at a = 15 and x² < 0.43·df.
_BGRAT_D = _sinhc_power_series(-0.5, 25)


def _bgrat_half(a: float, lnx: float, lgr: float) -> float:
    """I(a, ½; x) for a >= 15 from log x, by DiDonato & Morris's BGRAT.

    With T = a - ¼ and u = -T·log x, I = e^lgr·√(a/T)·Σ d_n·L_n, where
    L_0 = erfc(√u) and L_n = Γ(2n + ½, u)/(√π·(2T)^2n) by the recurrence of
    the incomplete gamma function.
    """
    big_t = a - 0.25
    u = -big_t * lnx
    v = 0.25 / (big_t * big_t)
    t2 = 0.25 * lnx * lnx
    scaled = math.exp(-u) * math.sqrt(u / math.pi)  # e^-u·u^½/Γ(½)
    term_l = math.erfc(math.sqrt(u))
    total = term_l
    power = 1.0  # (log x / 2)^(2n - 2)
    for n in range(1, len(_BGRAT_D)):
        h = 2 * n - 0.5
        term_l = ((h - 1.0) * h * term_l + (u + h) * power * scaled) * v
        power *= t2
        term = _BGRAT_D[n] * term_l
        total += term
        if abs(term) <= _EPS * total:
            break
    return math.exp(lgr - 0.5 * math.log1p(-0.25 / a)) * total  # e^lgr·√(a/T)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I(a, b; x)·a·B(a, b)/(x^a·(1 - x)^b), by the
    modified Lentz method; converges fast for x < (a + 1)/(a + b + 2)."""
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c = 1.0
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return h


def _t_tail(t: float, df: float, lgr: float) -> float:
    """P(T > t) for t > 0, df not 1 or 2; lgr = _log_gamma_ratio(df/2)."""
    r = t * t / df
    if r == 0.0:
        return 0.5
    if math.isinf(r):
        lnx, y = math.log(df) - 2.0 * math.log(t), 1.0
    else:
        lnx, y = -math.log1p(r), r / (1.0 + r)  # x = df/(df + t²), y = 1 - x
    a = 0.5 * df
    if a >= _LARGE_A and y < 0.3:
        return 0.5 * _bgrat_half(a, lnx, lgr)
    # x^a·y^½/B(a, ½)
    front = math.exp(a * lnx + 0.5 * math.log(a * y) + lgr - _LOG_SQRT_PI)
    x = 1.0 / (1.0 + r)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_fraction(a, 0.5, x) / a
    return 0.5 - front * _beta_fraction(0.5, a, y)


def _t_tail_closed(t: float, df: float) -> float:
    """P(T > t) for t > 0 and df = 1 or 2."""
    if df == 1.0:
        return math.atan2(1.0, t) / math.pi
    s = math.sqrt(2.0 + t * t)
    return 1.0 / (s * (s + t))


def _check_df(name: str, df: float) -> None:
    if not df > 0:  # also rejects NaN
        raise ValueError(f"{name}: df must be positive, got {df}")


def t_cdf(x: float, df: float) -> float:
    """CDF of Student's t distribution with df > 0 degrees of freedom."""
    _check_df("t_cdf", df)
    if math.isnan(x):
        raise ValueError("t_cdf: x must not be NaN")
    if math.isinf(df):
        return normal_cdf(x)
    if x == 0.0:
        return 0.5
    t = abs(x)
    if df in (1.0, 2.0):
        tail = _t_tail_closed(t, df)
    else:
        tail = _t_tail(t, df, _log_gamma_ratio(0.5 * df))
    return tail if x < 0 else 1.0 - tail


def _hill_start(p: float, df: float) -> float:
    """|t| whose one-sided tail is p, by Hill's Algorithm 396 (df > 1, not 2)."""
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    log_y = 2.0 / df * math.log(d * 2.0 * p)
    if log_y < math.log(_EPS):  # the series is 1/y to double precision
        half_log_t2 = 0.5 * (math.log(df) - log_y)
        return math.exp(half_log_t2) if half_log_t2 < 709.0 else math.inf
    y = math.exp(log_y)
    if y > 0.05 + a:
        # asymptotic inverse expansion about the normal deviate
        z = _NORMAL.inv_cdf(p)
        y = z * z
        if df < 5.0:
            c += 0.3 * (df - 4.5) * (z + 0.6)
        c = (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * z
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
              + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


def _tail_bisection(p: float, df: float, lgr: float) -> float:
    """t > 0 with P(T > t) = p, by bisection: df < 1 lies outside Hill's range."""
    lo, hi = 0.0, 1.0
    while _t_tail(hi, df, lgr) > p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _t_tail(mid, df, lgr) > p:
            lo = mid
        else:
            hi = mid


def t_quantile(q: float, df: float) -> float:
    """Quantile of Student's t distribution for q in (0, 1).

    Converges to the normal quantile for large df:
    t_quantile(0.975, inf) = 1.959964.
    """
    _check_df("t_quantile", df)
    if not 0.0 < q < 1.0:
        raise ValueError(f"t_quantile: q must be in (0, 1), got {q}")
    if df > 1e20:  # and inf: the t correction, about (x³ + x)/(4·df), is below rounding
        return _NORMAL.inv_cdf(q)
    p = min(q, 1.0 - q)  # the smaller tail; 1 - q is exact for q >= 1/2
    if p == 0.5:
        return 0.0
    if df == 1.0:
        t = 1.0 / math.tan(math.pi * p) if p < 0.25 else math.tan(math.pi * (0.5 - p))
    elif df == 2.0:
        t = (1.0 - 2.0 * p) / math.sqrt(2.0 * p * (1.0 - p))
    elif df < 1.0:
        t = _tail_bisection(p, df, _log_gamma_ratio(0.5 * df))
    else:
        lgr = _log_gamma_ratio(0.5 * df)
        log_pdf0 = lgr - _LOG_SQRT_2PI
        t = _hill_start(p, df)
        for _ in range(3):
            pdf = math.exp(log_pdf0 - 0.5 * (df + 1.0) * math.log1p(t * t / df))
            if pdf == 0.0:
                break
            # Newton's step with its second-order term (Hill, 1981)
            step = (_t_tail(t, df, lgr) - p) / pdf
            step *= 1.0 + step * t * (df + 1.0) / (2.0 * (t * t + df))
            t += step
            if abs(step) <= 1e-7 * t:  # the error is now about step³
                break
    return -t if q < 0.5 else t
