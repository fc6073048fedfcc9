"""Minimal deterministic SVG line plots (no plotting dependency).

Every chart a command emits is also written as CSV, so these plots are a
convenience view, not the canonical output.
"""

from __future__ import annotations

import os
from typing import Sequence

from .fileio import atomic_open

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 24, 40, 56
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_TICKS = 5


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:  # avoid a zero span
        pad = abs(lo) * 0.05 + 0.05
        return lo - pad, hi + pad
    return lo, hi


def line_plot_svg(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render named (x, y) polylines to an SVG document string."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:g}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    # axes, ticks, grid lines
    for i in range(_TICKS + 1):
        frac = i / _TICKS
        gx = _MARGIN_L + frac * plot_w
        gy = _MARGIN_T + plot_h - frac * plot_h
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<line x1="{gx:g}" y1="{_MARGIN_T}" x2="{gx:g}" '
            f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{gy:g}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{gy:g}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{gx:g}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{gy + 4:g}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:g}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:g})">{y_label}</text>'
    )
    for i, (name, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.8"/>'
            )
        ly = _MARGIN_T + 14 + 16 * i
        parts.append(
            f'<line x1="{_MARGIN_L + plot_w - 130}" y1="{ly - 4}" '
            f'x2="{_MARGIN_L + plot_w - 106}" y2="{ly - 4}" stroke="{color}" '
            'stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 100}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(svg: str, path: str | os.PathLike) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
