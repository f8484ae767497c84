"""Minimal self-contained SVG line plots (presentation only).

Fixed 800x600 viewport, optional log scaling of the x axis, one polyline per
series, a title and both axis labels (all three required), no external
assets.  All quantitative checks read the CSV files; the SVG exists so
figures can be eyeballed.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .output import write_text

__all__ = ["line_plot"]

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _finite_pairs(xs, ys, x_log, y_lim):
    """The plotted x and y arrays of one series: its finite pairs, those
    with x > 0 on a log axis and those with y in ``y_lim`` when it is set,
    with x taken to its ``math.log10`` on a log axis."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y)
    if x_log:
        keep &= x > 0
    if y_lim is not None:
        keep &= (y_lim[0] <= y) & (y <= y_lim[1])
    x, y = x[keep], y[keep]
    if x_log:  # math's log10, whose rounding does not depend on the CPU
        x = np.array(list(map(math.log10, x.tolist())), dtype=np.float64)
    return x, y


def _ticks(lo: float, hi: float, log_scale: bool) -> list[float]:
    if log_scale:
        return [v for v in range(math.ceil(lo), math.floor(hi) + 1)]
    quarter = (hi - lo) / 4
    # a span of a few subnormal steps, whose quarter or its power of ten
    # rounds to 0, takes one tick, as an empty span does
    step = 10.0 ** math.floor(math.log10(quarter)) if quarter > 0.0 else 0.0
    if step == 0.0:
        return [lo]
    for mult in (1, 2, 5, 10):
        if (hi - lo) / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * abs(step):
        out.append(v)
        if v + step == v:  # a step below half an ulp of v: v would stay
            break
        v += step
    return out


def _fmt_tick(v: float, log_scale: bool) -> str:
    if log_scale:
        return f"1e{int(round(v))}"
    return f"{v:g}"


def _text(x, y, size: int, body: str, anchor: str = "", tail: str = "") -> str:
    """One SVG text element; ``tail`` holds attributes after ``font-size``."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{tail}>{body}</text>')


def line_plot(
    path: str | Path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    x_log: bool = False,
    y_lim: tuple[float, float] | None = None,
) -> None:
    """Write a line plot with one polyline per (label, xs, ys) series.

    ``y_lim`` windows the vertical axis (points outside are dropped), for
    figures whose interesting structure would otherwise be dwarfed by
    divergent tails.
    """
    all_pts = [_finite_pairs(xs, ys, x_log, y_lim) for _, xs, ys in series]
    if any(x.size for x, _ in all_pts):
        # Python's min and max keep the first of equal zeros, so a bound
        # has the sign of the first zero (numpy's may take either)
        xl = np.concatenate([x for x, _ in all_pts]).tolist()
        yl = np.concatenate([y for _, y in all_pts]).tolist()
        x_lo, x_hi, y_lo, y_hi = min(xl), max(xl), min(yl), max(yl)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if y_lim is not None:
        y_lo, y_hi = y_lim
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if y_lim is None:
        pad = 0.05 * (y_hi - y_lo)
        y_lo -= pad
        y_hi += pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
        _text(f"{WIDTH / 2:.1f}", 24, 16, title, "middle"),
    ]
    for tick in _ticks(x_lo, x_hi, x_log):
        if not x_lo <= tick <= x_hi:
            continue
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(_text(f"{px:.1f}", MARGIN_T + plot_h + 20, 11,
                           _fmt_tick(tick, x_log), "middle"))
    for tick in _ticks(y_lo, y_hi, False):
        if not y_lo <= tick <= y_hi:
            continue
        py = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" '
            f'y2="{py:.1f}" stroke="#333"/>'
        )
        parts.append(_text(MARGIN_L - 8, f"{py + 4:.1f}", 11,
                           _fmt_tick(tick, False), "end"))
    cy = f"{MARGIN_T + plot_h / 2:.1f}"
    parts += [
        _text(f"{MARGIN_L + plot_w / 2:.1f}", HEIGHT - 12, 13, x_label, "middle"),
        _text(18, cy, 13, y_label, "middle", f' transform="rotate(-90 18 {cy})"'),
    ]
    for i, ((label, _, _), pts) in enumerate(zip(series, all_pts)):
        color = _PALETTE[i % len(_PALETTE)]
        if pts[0].size:
            # elementwise, sx and sy round as they do on one float
            xy = np.column_stack((sx(pts[0]), sy(pts[1])))
            coords = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 16 + 16 * i
        parts.append(
            f'<line x1="{MARGIN_L + plot_w - 150}" y1="{ly - 4}" '
            f'x2="{MARGIN_L + plot_w - 125}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(_text(MARGIN_L + plot_w - 120, ly, 11, label))
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
