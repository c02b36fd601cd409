"""Minimal deterministic SVG line charts, no plotting dependency.

Good enough for the bound curves and sweep outputs this library emits:
linear axes, five ticks per axis, one polyline per series, and a text
legend.  The output is a pure function of the inputs, so chart files can
be compared byte-for-byte across runs.
"""

from __future__ import annotations

__all__ = ["line_chart"]

_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 28.0, 44.0


def _span(values):
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = 1.0 if lo == 0.0 else abs(lo) * 0.05
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def line_chart(series, *, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render ``series`` = [(label, xs, ys), ...] to an SVG string."""
    series = [(str(label), list(map(float, xs)), list(map(float, ys))) for label, xs, ys in series]
    if not series or any(len(xs) != len(ys) or not xs for _, xs, ys in series):
        raise ValueError("each series needs equally many x and y values, at least one point")

    x_lo, x_hi = _span([x for _, xs, _ in series for x in xs])
    y_lo, y_hi = _span([y for _, _, ys in series for y in ys])
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.2f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )

    # gridlines and tick labels, five per axis
    for i in range(5):
        frac = i / 4.0
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        gx, gy = px(xv), py(yv)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_MARGIN_T:.2f}" x2="{gx:.2f}" '
            f'y2="{_MARGIN_T + plot_h:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L:.2f}" y1="{gy:.2f}" x2="{_MARGIN_L + plot_w:.2f}" '
            f'y2="{gy:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{_MARGIN_T + plot_h + 16:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.6g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6:.2f}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.6g}</text>'
        )

    parts.append(
        f'<rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    if x_label:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 8:.2f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>'
        )
    if y_label:
        yx, yy = 16.0, _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="{yx:.2f}" y="{yy:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 {yx:.2f} {yy:.2f})">{y_label}</text>'
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
