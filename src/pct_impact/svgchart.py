"""Deterministic SVG charts: point estimates with vertical error bars.

Output is a plain-text SVG document with a fixed viewBox and no
timestamps, so identical input always produces byte-identical files.
Structural elements carry stable class names (ci-bar, ci-point, ref-line)
to keep the output testable by string assertion.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

__all__ = ["CiSeries", "CiChartSpec", "render_ci_chart"]

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT = 70, 20
MARGIN_TOP, MARGIN_BOTTOM = 50, 60


class _CiSeries(NamedTuple):
    label: str
    point: float
    ci_low: float
    ci_high: float


class CiSeries(_CiSeries):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, label: str, point: float, ci_low: float, ci_high: float):
        if not ci_low <= ci_high:
            raise ValueError(f"series {label!r}: ci_low > ci_high")
        if not ci_low <= point <= ci_high:
            raise ValueError(f"series {label!r}: point outside its interval")
        return super().__new__(cls, label, point, ci_low, ci_high)


class CiChartSpec(NamedTuple):
    """Everything needed to draw one chart of estimates with error bars.

    reference_line, when set, is drawn dashed across the full plot width
    at the given data value.
    """

    series: tuple[CiSeries, ...]
    title: str = ""
    y_label: str = ""
    x_label: str = ""
    reference_line: Optional[float] = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / max(target, 1)
    mag = 10 ** math.floor(math.log10(raw)) if raw > 0 else 1.0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_ci_chart(spec: CiChartSpec) -> str:
    """Render the chart spec to an SVG document string."""
    if not spec.series:
        raise ValueError("render_ci_chart: at least one series is required")

    values = []
    for s in spec.series:
        values += [s.point, s.ci_low, s.ci_high]
    if spec.reference_line is not None:
        values.append(spec.reference_line)
    vmin, vmax = min(values), max(values)
    if vmin == vmax:
        vmin, vmax = vmin - 1.0, vmax + 1.0
    pad = 0.08 * (vmax - vmin)
    vmin, vmax = vmin - pad, vmax + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def ypix(v: float) -> float:
        return MARGIN_TOP + (vmax - v) / (vmax - vmin) * plot_h

    def xpix(i: int) -> float:
        return MARGIN_LEFT + (i + 0.5) * plot_w / len(spec.series)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}" font-family="sans-serif" font-size="12">',
    ]
    if spec.title:
        parts.append(
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" font-size="15">'
            f"{_esc(spec.title)}</text>"
        )

    # axes
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    parts.append(
        f'<line class="axis" x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>'
    )
    parts.append(
        f'<line class="axis" x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )

    # y ticks
    step = _nice_step(vmax - vmin)
    tick = math.ceil(vmin / step) * step
    while tick <= vmax + 1e-9:
        y = ypix(tick)
        parts.append(
            f'<line class="tick" x1="{x0 - 5}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 9}" y="{_fmt(y + 4)}" text-anchor="end">{tick:g}</text>'
        )
        tick += step

    if spec.reference_line is not None:
        ry = ypix(spec.reference_line)
        parts.append(
            f'<line class="ref-line" x1="{x0}" y1="{_fmt(ry)}" x2="{x1}" y2="{_fmt(ry)}" '
            f'stroke="black" stroke-dasharray="6 4"/>'
        )

    cap = 7
    for i, s in enumerate(spec.series):
        x = xpix(i)
        ylo, yhi = ypix(s.ci_low), ypix(s.ci_high)
        yp = ypix(s.point)
        parts.append(
            f'<line class="ci-bar" x1="{_fmt(x)}" y1="{_fmt(ylo)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(yhi)}" stroke="black" stroke-width="1.5"/>'
        )
        for ycap in (ylo, yhi):
            parts.append(
                f'<line class="ci-cap" x1="{_fmt(x - cap)}" y1="{_fmt(ycap)}" '
                f'x2="{_fmt(x + cap)}" y2="{_fmt(ycap)}" stroke="black" stroke-width="1.5"/>'
            )
        parts.append(
            f'<circle class="ci-point" cx="{_fmt(x)}" cy="{_fmt(yp)}" r="4" fill="black"/>'
        )
        parts.append(
            f'<text class="x-tick-label" x="{_fmt(x)}" y="{y1 + 18}" text-anchor="middle">'
            f"{_esc(s.label)}</text>"
        )

    if spec.x_label:
        parts.append(
            f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle">'
            f"{_esc(spec.x_label)}</text>"
        )
    if spec.y_label:
        cy = (y0 + y1) / 2
        parts.append(
            f'<text x="18" y="{cy:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 18 {cy:.0f})">{_esc(spec.y_label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
