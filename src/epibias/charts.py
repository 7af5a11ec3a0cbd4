"""Minimal SVG line charts for simulation output.

Just enough to plot a handful of series with axes, ticks, and a legend: no
interactivity, no styling options, deterministic text output (fixed
two-decimal pixel coordinates) so repeated runs produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 48
MARGIN_BOTTOM = 56

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

# The tick spacing aims at this many intervals per axis.
TICK_INTERVALS = 5


@dataclass(frozen=True)
class LineSeries:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"series {self.label!r}: {len(self.xs)} x values, {len(self.ys)} y values"
            )
        if not self.xs:
            raise ValueError(f"series {self.label!r} is empty")
        if not all(math.isfinite(v) for v in (*self.xs, *self.ys)):
            raise ValueError(f"series {self.label!r} holds a value that is not finite")


def _nice_step(raw: float) -> float:
    """Round a raw tick spacing up to the nearest 1/2/5 x 10^k value."""
    exponent = math.floor(math.log10(raw))
    base = raw / 10**exponent
    if base <= 1.0:
        nice = 1.0
    elif base <= 2.0:
        nice = 2.0
    elif base <= 5.0:
        nice = 5.0
    else:
        nice = 10.0
    return nice * 10**exponent


def _ticks(lo: float, hi: float) -> list[float]:
    """Ticks at multiples of a nice step across [lo, hi], for lo < hi; a
    tick within round-off of zero is exactly 0.0."""
    step = _nice_step((hi - lo) / TICK_INTERVALS)
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart(
    series: Sequence[LineSeries],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render line series to a standalone SVG document string."""
    if not series:
        raise ValueError("nothing to plot")

    xs = [x for s in series for x in s.xs]
    ys = [y for s in series for y in s.ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
    ]

    axis_color = "#333333"
    grid_color = "#dddddd"
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h

    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP}" x2="{px:.2f}" y2="{y0}" '
            f'stroke="{grid_color}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.6g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{x0}" y1="{py:.2f}" x2="{x0 + plot_w}" y2="{py:.2f}" '
            f'stroke="{grid_color}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.6g}</text>'
        )

    parts.append(
        f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" '
        f'stroke="{axis_color}" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
        f'stroke="{axis_color}" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.2f})">{_escape(y_label)}</text>'
    )

    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        if len(s.xs) == 1:
            (x,), (y,) = s.xs, s.ys
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        else:
            points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.xs, s.ys))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )

    legend_x = x0 + plot_w - 150
    legend_y = MARGIN_TOP + 10
    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        ly = legend_y + index * 18
        parts.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(s.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
