"""Deterministic SVG line charts.

Pure text generation: fixed palette, fixed float formatting, no timestamps,
so identical inputs give byte-identical files. Series may contain missing
values (None), which split the polyline into segments. A log-scale panel
clamps non-positive values to the smallest positive value present and says
so in a footnote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
WIDTH = 640
HEIGHT = 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 16, 34, 46


@dataclass
class Series:
    label: str
    xs: Sequence[float]
    ys: Sequence[Optional[float]]


@dataclass
class Panel:
    title: str
    x_label: str
    y_label: str
    series: list
    vlines: list = field(default_factory=list)  # (x, label) pairs
    log_y: bool = False


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """The range, or, where it is too narrow to resolve at its finite
    magnitude (zero width included), one of width 1 or a thousandth of the
    magnitude, whichever is wider."""
    scale = max(abs(lo), abs(hi))
    if hi - lo <= 1e-9 * scale and np.isfinite(scale):
        hi = lo + max(1.0, 1e-3 * scale)
    return lo, hi


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    lo, hi = _widen(lo, hi)
    span = hi - lo
    if not np.isfinite(span):  # past the float range: tick the (exactly) halved range
        return [2.0 * t for t in _nice_ticks(lo / 2, hi / 2, target)]
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    # step >= span / target, so there are at most target + 1 ticks
    count = int((hi - first + 1e-12 * span) // step) + 1
    ticks = (first + i * step for i in range(count))
    return [0.0 if abs(t) < 1e-12 * span else float(t) for t in ticks]


def _tick_labels(values: Sequence[float]) -> list[str]:
    """Labels for increasing tick values, each printed down to the leading
    digit of its smaller gap to a neighbour, so adjacent labels differ."""
    gaps = np.diff(values, prepend=-np.inf, append=np.inf)
    labels = []
    for v, step in zip(values, np.minimum(gaps[:-1], gaps[1:])):
        # decimal exponents of v and of its gap, with a margin for the
        # rounding in each tick; 0 prints as "0"
        e_v, e_step = np.floor(np.log10([abs(v) or 1.0, min(step, abs(v)) or 1.0]) + 1e-9)
        digits = int(e_v - e_step)
        sci = abs(v) >= 1e4 or 0 < abs(v) < 1e-3
        labels.append(f"{v:.{max(1, digits)}e}" if sci else f"{v:.{max(6, digits + 1)}g}")
    return labels


def render_panel(panel: Panel, width: int = WIDTH, height: int = HEIGHT) -> str:
    """Render one panel to an SVG string."""
    plot_w = width - MARGIN_L - MARGIN_R
    plot_h = height - MARGIN_T - MARGIN_B

    xs_all = [float(x) for s in panel.series for x in s.xs]
    ys_all = [float(y) for s in panel.series for y in s.ys if y is not None and np.isfinite(y)]
    footnote = ""

    if not xs_all or not ys_all:
        xs_all = xs_all or [0.0, 1.0]
        ys_all = ys_all or [0.0, 1.0]
        footnote = "no data"

    log_y = panel.log_y
    clamp_floor = None
    if log_y:
        positive = [y for y in ys_all if y > 0]
        if positive:
            clamp_floor = min(positive)
            n_clamped = sum(1 for y in ys_all if y <= 0)
            if n_clamped:
                footnote = f"{n_clamped} non-positive value(s) clamped to {_tick_labels([clamp_floor])[0]} for log scale"
            ys_all = [max(y, clamp_floor) for y in ys_all]
        else:
            log_y = False
            footnote = "log scale unavailable: no positive values"

    def ty(y: float) -> float:
        return np.log10(max(y, clamp_floor)) if log_y else y

    x_lo, x_hi = _widen(min(xs_all), max(xs_all))
    y_vals = [ty(y) for y in ys_all]
    y_lo, y_hi = _widen(min(y_vals), max(y_vals))
    # a 5% pad, taken on exact halves so a span past the float range stays
    # finite; nan_to_num clamps a padded end to the float range
    pad = 0.1 * (y_hi / 2 - y_lo / 2)
    y_lo, y_hi = (float(v) for v in np.nan_to_num([y_lo - pad, y_hi + pad]))
    if log_y:  # a log tick is labelled 10**t, which must stay a float
        y_hi = min(y_hi, np.log10(np.finfo(float).max))

    def frac(v: float, lo: float, hi: float) -> float:  # (v - lo) / (hi - lo), on halves
        return (v / 2 - lo / 2) / (hi / 2 - lo / 2)

    def px(x: float) -> float:
        return MARGIN_L + frac(x, x_lo, x_hi) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (1.0 - frac(ty(y), y_lo, y_hi)) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="Helvetica,Arial,sans-serif">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    out.append(
        f'<text x="{_fmt(width / 2)}" y="20" font-size="14" text-anchor="middle">{_escape(panel.title)}</text>'
    )

    # frame
    out.append(
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#000000" stroke-width="1"/>'
    )

    # y ticks (in transformed space when log)
    y_ticks = _nice_ticks(y_lo, y_hi)
    for t, label in zip(y_ticks, _tick_labels([10.0**t for t in y_ticks] if log_y else y_ticks)):
        y_pix = MARGIN_T + (1.0 - frac(t, y_lo, y_hi)) * plot_h
        out.append(
            f'<line x1="{_fmt(MARGIN_L - 4)}" y1="{_fmt(y_pix)}" x2="{_fmt(MARGIN_L)}" y2="{_fmt(y_pix)}" stroke="#000000"/>'
        )
        out.append(
            f'<text x="{_fmt(MARGIN_L - 7)}" y="{_fmt(y_pix + 3.5)}" font-size="10" text-anchor="end">{label}</text>'
        )
    x_ticks = _nice_ticks(x_lo, x_hi, target=6)
    for t, label in zip(x_ticks, _tick_labels(x_ticks)):
        x_pix = px(t)
        out.append(
            f'<line x1="{_fmt(x_pix)}" y1="{_fmt(MARGIN_T + plot_h)}" x2="{_fmt(x_pix)}" y2="{_fmt(MARGIN_T + plot_h + 4)}" stroke="#000000"/>'
        )
        out.append(
            f'<text x="{_fmt(x_pix)}" y="{_fmt(MARGIN_T + plot_h + 16)}" font-size="10" text-anchor="middle">{label}</text>'
        )

    out.append(
        f'<text x="{_fmt(MARGIN_L + plot_w / 2)}" y="{_fmt(height - 18)}" font-size="11" text-anchor="middle">{_escape(panel.x_label)}</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(MARGIN_T + plot_h / 2)}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(MARGIN_T + plot_h / 2)})">{_escape(panel.y_label)}</text>'
    )

    # vertical marker lines
    for vx, vlabel in panel.vlines:
        if vx is None or not (x_lo <= vx <= x_hi):
            continue
        x_pix = px(float(vx))
        out.append(
            f'<line x1="{_fmt(x_pix)}" y1="{_fmt(MARGIN_T)}" x2="{_fmt(x_pix)}" y2="{_fmt(MARGIN_T + plot_h)}" '
            f'stroke="#888888" stroke-dasharray="4,3" stroke-width="1"/>'
        )
        if vlabel:
            out.append(
                f'<text x="{_fmt(x_pix + 3)}" y="{_fmt(MARGIN_T + 10)}" font-size="9" fill="#555555">{_escape(vlabel)}</text>'
            )

    # series polylines, split at missing values; a point with no neighbour
    # on either side is a circle
    for i, s in enumerate(panel.series):
        color = PALETTE[i % len(PALETTE)]
        segments = [[]]
        for x, y in zip(s.xs, s.ys):
            if y is None or not np.isfinite(y):
                segments.append([])
                continue
            yy = max(y, clamp_floor) if clamp_floor is not None else y
            segments[-1].append((px(float(x)), py(float(yy))))
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0]
                out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2" fill="{color}"/>')
            elif seg:
                points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in seg)
                out.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )

    # legend
    ly = MARGIN_T + 8
    for i, s in enumerate(panel.series):
        color = PALETTE[i % len(PALETTE)]
        lx = MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 18)}" y2="{_fmt(ly)}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 23)}" y="{_fmt(ly + 3.5)}" font-size="10">{_escape(s.label)}</text>'
        )
        ly += 14

    if footnote:
        out.append(
            f'<text x="{_fmt(MARGIN_L)}" y="{_fmt(height - 5)}" font-size="9" fill="#777777">{_escape(footnote)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
