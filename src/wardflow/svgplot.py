"""Self-contained SVG line/step charts, no plotting dependency."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

WIDTH = 720
PANEL_HEIGHT = 220
MARGIN_LEFT = 55
MARGIN_RIGHT = 15
MARGIN_TOP = 30
MARGIN_BOTTOM = 35
X_LABEL = "time (s)"


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]
    step: bool = False


@dataclass
class Panel:
    title: str
    series: list[Series] = field(default_factory=list)


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        ticks.append(round(v, 10))
        v += step
    return ticks


def _fmt(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:.4g}"


def _render_panel(panel: Panel, y_offset: int) -> list[str]:
    xs = [x for s in panel.series for x in s.xs]
    ys = [y for s in panel.series for y in s.ys]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = PANEL_HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return y_offset + MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = []
    top = y_offset + MARGIN_TOP
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT}" y="{top - 8}" font-size="13" '
        f'font-family="sans-serif">{panel.title}</text>'
    )
    for tx in _nice_ticks(x_lo, x_hi):
        if not x_lo <= tx <= x_hi:
            continue
        parts.append(f'<line x1="{px(tx):.1f}" y1="{top + plot_h}" '
                     f'x2="{px(tx):.1f}" y2="{top + plot_h + 4}" stroke="#333"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{top + plot_h + 16}" font-size="10" '
                     f'text-anchor="middle" font-family="sans-serif">{_fmt(tx)}</text>')
    for ty in _nice_ticks(y_lo, y_hi):
        if not y_lo <= ty <= y_hi:
            continue
        parts.append(f'<line x1="{MARGIN_LEFT - 4}" y1="{py(ty):.1f}" '
                     f'x2="{MARGIN_LEFT}" y2="{py(ty):.1f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 7}" y="{py(ty) + 3:.1f}" font-size="10" '
                     f'text-anchor="end" font-family="sans-serif">{_fmt(ty)}</text>')
    parts.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{top + plot_h + 30}" '
                 f'font-size="11" text-anchor="middle" font-family="sans-serif">'
                 f'{X_LABEL}</text>')
    for i, series in enumerate(panel.series):
        color = _COLORS[i % len(_COLORS)]
        pts = []
        prev = None
        for x, y in zip(series.xs, series.ys):
            if series.step and prev is not None:
                pts.append(f"{px(x):.2f},{py(prev):.2f}")
            pts.append(f"{px(x):.2f},{py(y):.2f}")
            prev = y
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.2"/>')
        if series.label:
            lx = MARGIN_LEFT + plot_w - 5
            ly = top + 14 + 13 * i
            parts.append(f'<text x="{lx}" y="{ly}" font-size="11" text-anchor="end" '
                         f'fill="{color}" font-family="sans-serif">{series.label}</text>')
    return parts


def render_chart(panels: list[Panel]) -> str:
    """Stack panels vertically into one standalone SVG document."""
    total_h = PANEL_HEIGHT * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{total_h}" viewBox="0 0 {WIDTH} {total_h}">',
        f'<rect width="{WIDTH}" height="{total_h}" fill="white"/>',
    ]
    for i, panel in enumerate(panels):
        parts.extend(_render_panel(panel, i * PANEL_HEIGHT))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
