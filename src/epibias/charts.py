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


def _span(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)


def _num(value: float) -> str:
    """A pixel coordinate: a float with two decimals, an int as it is."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _line(x1, y1, x2, y2, color: str, width: float) -> str:
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>')


def _text(x, y, size: int, body: str, anchor: str | None = "middle", rotate: bool = False) -> str:
    """A sans-serif label, escaped, turned to read upwards about (x, y) if `rotate`."""
    align = f' text-anchor="{anchor}"' if anchor else ""
    turn = f' transform="rotate(-90 {_num(x)} {_num(y)})"' if rotate else ""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_num(x)}" y="{_num(y)}"{align} font-family="sans-serif" '
            f'font-size="{size}"{turn}>{body}</text>')


def render_line_chart(
    series: Sequence[LineSeries],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render line series to a standalone SVG document string."""
    if not series:
        raise ValueError("nothing to plot")

    x_lo, x_hi = _span([x for s in series for x in s.xs])
    y_lo, y_hi = _span([y for s in series for y in s.ys])
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    axis_color = "#333333"
    grid_color = "#dddddd"
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH / 2, 24, 16, title),
    ]
    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(_line(px, MARGIN_TOP, px, y0, grid_color, 1))
        parts.append(_text(px, y0 + 18, 11, f"{tick:.6g}"))
    for tick in _ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(_line(x0, py, x0 + plot_w, py, grid_color, 1))
        parts.append(_text(x0 - 8, py + 4, 11, f"{tick:.6g}", anchor="end"))
    parts += [
        _line(x0, MARGIN_TOP, x0, y0, axis_color, 1.5),
        _line(x0, y0, x0 + plot_w, y0, axis_color, 1.5),
        _text(x0 + plot_w / 2, HEIGHT - 12, 13, x_label),
        _text(20, MARGIN_TOP + plot_h / 2, 13, y_label, rotate=True),
    ]

    legend_x, legend = x0 + plot_w - 150, []
    for index, s in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        if len(s.xs) == 1:
            (x,), (y,) = s.xs, s.ys
            mark = f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>'
        else:
            points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.xs, s.ys))
            mark = f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        parts.append(mark)
        ly = MARGIN_TOP + 10 + index * 18
        legend.append(_line(legend_x, ly, legend_x + 22, ly, color, 2))
        legend.append(_text(legend_x + 28, ly + 4, 11, s.label, anchor=None))
    return "\n".join([*parts, *legend, "</svg>"]) + "\n"
