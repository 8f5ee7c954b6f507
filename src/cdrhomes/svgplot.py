"""Tiny deterministic SVG charts.

Report files must be byte-identical across runs and worker counts, so charts
are rendered by hand into plain SVG text: no library metadata, no generated
ids, fixed number formatting.
"""

from __future__ import annotations

from datetime import date

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
)

_W, _H = 880, 460
_ML, _MR, _MT, _MB = 70, 190, 46, 56


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _px(v: float) -> str:
    return f"{v:.2f}"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    *,
    title: str,
    x_label: str,
    y_label: str,
    x_date_ticks: bool = False,
    scatter: bool = False,
) -> str:
    """Render labeled (x, y) series, at least one point in all, as one SVG
    document string.

    x values are plain floats; pass date.toordinal() values together with
    x_date_ticks=True to get ISO dates on the axis.
    """
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB
    xs, ys = zip(*(p for _, data in series for p in data))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_esc(title)}</text>',
    ]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * pw

    def sy(y: float) -> float:
        return _MT + ph - (y - y0) / (y1 - y0) * ph

    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        xp, yp = sx(xv), sy(yv)
        out.append(
            f'<line x1="{_px(xp)}" y1="{_MT}" x2="{_px(xp)}" y2="{_MT + ph}" '
            f'stroke="#e0e0e0"/>'
        )
        out.append(
            f'<line x1="{_ML}" y1="{_px(yp)}" x2="{_ML + pw}" y2="{_px(yp)}" '
            f'stroke="#e0e0e0"/>'
        )
        if x_date_ticks:
            xt = date.fromordinal(round(xv)).isoformat()
        else:
            xt = _fmt(xv)
        out.append(
            f'<text x="{_px(xp)}" y="{_MT + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xt}</text>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{_px(yp + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333"/>'
    )
    out.append(
        f'<text x="{_ML + pw / 2:.2f}" y="{_H - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_esc(x_label)}</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + ph / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MT + ph / 2:.2f})">{_esc(y_label)}</text>'
    )

    for i, (label, data) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        if data and not scatter:
            path = " ".join(f"{_px(sx(x))},{_px(sy(y))}" for x, y in data)
            out.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for x, y in data:
            out.append(
                f'<circle cx="{_px(sx(x))}" cy="{_px(sy(y))}" r="2.6" '
                f'fill="{color}"/>'
            )
        ly = _MT + 14 + i * 18
        out.append(
            f'<line x1="{_ML + pw + 12}" y1="{ly}" x2="{_ML + pw + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        out.append(
            f'<text x="{_ML + pw + 40}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{_esc(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
