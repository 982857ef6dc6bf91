"""Deterministic CSV tables and hand-emitted SVG line plots.

Byte-identical output for identical input is a hard requirement (reruns of
a seeded experiment must reproduce their artifacts exactly), so numbers go
through fixed format strings, nothing iterates an unordered container, and
files land atomically via a sibling temp file plus rename.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

__all__ = ["format_number", "write_csv", "plot_series", "write_text_atomic"]

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 50.0
_TICKS = 5  # linear ticks per axis

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2",
            "#7f7f7f", "#17becf")


def write_text_atomic(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(text.encode("utf-8"))
    os.replace(tmp, path)


def format_number(v) -> str:
    """12 significant digits, '.' decimal separator, plain ints unchanged."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"tables hold finite numbers only, got {v}")
        return f"{v:.12g}"
    return str(v)


def write_csv(path, header, rows):
    """Comma-separated table with a header row and fixed \\n line ends."""
    header = [str(h) for h in header]
    lines = [",".join(header)]
    for row in rows:
        row = list(row)
        if len(row) != len(header):
            raise ValueError(f"row {row!r} does not match the "
                             f"{len(header)}-column header")
        cells = [format_number(v) for v in row]
        for c in cells:
            if "," in c or "\n" in c or '"' in c:
                raise ValueError(f"cell {c!r} needs quoting; table cells must "
                                 "stay plain")
        lines.append(",".join(cells))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _normalize_series(series):
    if isinstance(series, dict):
        return [(str(name), [(float(x), float(y)) for x, y in pts])
                for name, pts in series.items()]
    return [("", [(float(x), float(y)) for x, y in series])]


def _check_points(named):
    if not named:
        raise ValueError("nothing to plot: no series given")
    for name, pts in named:
        label = name or "series"
        if len(pts) < 2:
            raise ValueError(f"{label} needs at least 2 points, got {len(pts)}")
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{label} contains a non-finite point "
                                 f"({x}, {y})")
            if x <= 0:
                raise ValueError(f"log-x plots need positive x, got {x}")


def _ticks_linear(lo: float, hi: float):
    if lo == hi:
        return [lo]
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def plot_series(series, x_label: str = "R", y_label: str = "value") -> str:
    """Self-contained SVG 1.1 line plot: one polyline per series.

    ``series`` is either a list of (x, y) points (one unnamed series) or a
    dict name -> points (named series get a legend). The x axis is log2(x),
    so every x must be positive; with at most seven distinct abscissas the
    ticks sit on them.
    """
    named = _normalize_series(series)
    _check_points(named)

    all_x = [math.log2(x) for _, pts in named for x, _ in pts]
    all_y = [y for _, pts in named for _, y in pts]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_pad = 0.05 * (x_hi - x_lo) if x_hi > x_lo else max(0.5, abs(x_lo) * 0.1)
    # a y span at the rounding level of the values is drawn flat: stretched
    # to full height it would show only rounding, under equal tick labels
    flat = y_hi - y_lo <= 1e-12 * max(abs(y_lo), abs(y_hi))
    y_pad = max(0.5, abs(y_lo) * 0.1) if flat else 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x):
        return _MARGIN_LEFT + (math.log2(x) - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    xs = sorted({x for _, pts in named for x, _ in pts})
    x_ticks = xs if len(xs) <= 7 else [2.0 ** t for t in
                                       _ticks_linear(x_lo, x_hi)]
    y_ticks = _ticks_linear(y_lo, y_hi)

    out = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{_WIDTH:g}" height="{_HEIGHT:g}" '
               f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">')
    out.append(f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>')

    bottom = _MARGIN_TOP + plot_h
    right = _MARGIN_LEFT + plot_w
    for t in y_ticks:
        y = sy(t)
        out.append(f'<line x1="{_MARGIN_LEFT:.2f}" y1="{y:.2f}" '
                   f'x2="{right:.2f}" y2="{y:.2f}" stroke="#dddddd" '
                   'stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{y + 4:.2f}" '
                   'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{t:.6g}</text>')
    for t in x_ticks:
        x = sx(t)
        out.append(f'<line x1="{x:.2f}" y1="{bottom:.2f}" x2="{x:.2f}" '
                   f'y2="{bottom + 5:.2f}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{bottom + 20:.2f}" '
                   'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{t:.6g}</text>')

    out.append(f'<line x1="{_MARGIN_LEFT:.2f}" y1="{_MARGIN_TOP:.2f}" '
               f'x2="{_MARGIN_LEFT:.2f}" y2="{bottom:.2f}" stroke="black" '
               'stroke-width="1"/>')
    out.append(f'<line x1="{_MARGIN_LEFT:.2f}" y1="{bottom:.2f}" '
               f'x2="{right:.2f}" y2="{bottom:.2f}" stroke="black" '
               'stroke-width="1"/>')
    out.append(f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" '
               f'y="{_HEIGHT - 12:.2f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{_esc(x_label)}</text>')
    out.append(f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.2f}" '
               'text-anchor="middle" font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.2f})">'
               f'{_esc(y_label)}</text>')

    for i, (name, pts) in enumerate(named):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline fill="none" stroke="{color}" '
                   f'stroke-width="1.5" points="{coords}"/>')

    legend = [(i, name) for i, (name, _) in enumerate(named) if name]
    for slot, (i, name) in enumerate(legend):
        color = _PALETTE[i % len(_PALETTE)]
        lx = _MARGIN_LEFT + 10 + 150 * (slot % 3)
        ly = _MARGIN_TOP + 14 + 18 * (slot // 3)
        out.append(f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" '
                   f'x2="{lx + 18:.2f}" y2="{ly - 4:.2f}" stroke="{color}" '
                   'stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 24:.2f}" y="{ly:.2f}" '
                   'font-family="sans-serif" font-size="11">'
                   f'{_esc(name)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
