"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the CSV files are the contract surface and the
plots are convenience views, but they should still be reproducible, so
no timestamps, no randomized ids, fixed float formatting throughout.
"""

from __future__ import annotations

import math

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")
_W, _H = 800, 520
_ML, _MR, _MT, _MB = 72, 24, 40, 56


def _nice_ticks(lo: float, hi: float):
    if not math.isfinite(hi - lo) or hi <= lo:   # one tick where the span overflows
        return [lo]
    raw = (hi - lo) / 5   # about six ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks, v = [], math.ceil(lo / step) * step
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def line_plot(path, x, series, title="", xlabel="", ylabel="",
              logx=False, logy=False):
    """Write a static multi-series line plot.

    ``series`` is a list of (label, y-array) pairs sharing the x grid.
    Samples that are not finite, and nonpositive ones on logarithmic axes,
    are dropped; with none left on either axis, both span 1 to 10.
    """
    xs = [float(v) for v in x]
    finite_y = [float(v) for _, ys in series for v in ys
                if math.isfinite(float(v)) and (not logy or float(v) > 0)]
    fx = [v for v in xs if math.isfinite(v) and (not logx or v > 0)]
    if not finite_y or not fx:
        finite_y = fx = [1.0, 10.0]

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    x_lo, x_hi = min(map(tx, fx)), max(map(tx, fx))
    y_lo, y_hi = min(map(ty, finite_y)), max(map(ty, finite_y))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    px = lambda v: _ML + (tx(v) - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)
    py = lambda v: _H - _MB - (ty(v) - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
               f'viewBox="0 0 {_W} {_H}">')
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(f'<text x="{_W // 2}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="15">{title}</text>')

    if logx:
        xt = [10.0**e for e in range(math.ceil(x_lo), math.floor(x_hi) + 1)]
    else:
        xt = _nice_ticks(x_lo, x_hi)
    if logy:
        lo_e, hi_e = math.ceil(y_lo), math.floor(y_hi)
        step = max(1, (hi_e - lo_e) // 8 + 1)
        yt = [10.0**e for e in range(lo_e, hi_e + 1, step)]
    else:
        yt = _nice_ticks(y_lo, y_hi)

    for v in xt:
        X = px(v)
        out.append(f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" y2="{_H - _MB}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{X:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{v:.6g}</text>')
    for v in yt:
        Y = py(v)
        out.append(f'<line x1="{_ML}" y1="{Y:.2f}" x2="{_W - _MR}" y2="{Y:.2f}" '
                   f'stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{_ML - 6}" y="{Y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{v:.6g}</text>')

    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#333333"/>')

    for idx, (label, ys) in enumerate(series):
        pts = []
        for xv, yv in zip(xs, ys):
            yv = float(yv)
            if (not (math.isfinite(xv) and math.isfinite(yv))
                    or (logy and yv <= 0) or (logx and xv <= 0)):
                continue
            pts.append(f"{px(xv):.2f},{py(yv):.2f}")
        color = _COLORS[idx % len(_COLORS)]
        if pts:
            out.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 8}" y="{_MT + 18 + 16 * idx}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>')

    out.append(f'<text x="{_W // 2}" y="{_H - 16}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="20" y="{_H // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {_H // 2})">{ylabel}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
