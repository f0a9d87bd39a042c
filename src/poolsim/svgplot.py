"""Minimal self-contained SVG line plots (no plotting dependency)."""
from __future__ import annotations

from .csvio import atomic_write

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_plot_svg(
    xs,
    ys,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
) -> str:
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return MARGIN_T + (y1 - y) / (y1 - y0) * ph

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>'
    )
    for t in _ticks(x0, x1):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{HEIGHT - MARGIN_B}" x2="{sx(t):.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{HEIGHT - MARGIN_B + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{t:g}</text>'
        )
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{sy(t):.2f}" x2="{MARGIN_L}" '
            f'y2="{sy(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{sy(t):.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" font-size="12">{t:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_L + pw / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{xlabel}</text>'
        )
    if ylabel:
        cx, cy = 18, MARGIN_T + ph / 2
        parts.append(
            f'<text x="{cx}" y="{cy}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="14" transform="rotate(-90 {cx} {cy})">{ylabel}</text>'
        )
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path: str, svg: str) -> None:
    atomic_write(path, lambda fh: fh.write(svg))
