"""Deterministic SVG heatmaps for upper-triangular feature grids.

Fixed 32-px cells and a numerically defined 8-stop color ramp keep the
output byte-stable across runs and machines; no external assets.
"""

from __future__ import annotations

from .persistence import FeatureGrid

CELL = 32
MARGIN_LEFT = 46
MARGIN_TOP = 40
MARGIN_BOTTOM = 56
MARGIN_RIGHT = 16

# Viridis-like ramp, dark to bright, as (r, g, b) stops at equal spacing.
RAMP = (
    (68, 1, 84),
    (70, 50, 126),
    (54, 92, 141),
    (39, 127, 142),
    (31, 161, 135),
    (74, 193, 109),
    (160, 218, 57),
    (253, 231, 37),
)


def ramp_color(t: float) -> str:
    """Linear interpolation through the ramp stops; t clipped to [0, 1]."""
    t = min(1.0, max(0.0, t))
    scaled = t * (len(RAMP) - 1)
    lo = min(int(scaled), len(RAMP) - 2)
    frac = scaled - lo
    r, g, b = (round(x0 + (x1 - x0) * frac) for x0, x1 in zip(RAMP[lo], RAMP[lo + 1]))
    return f"#{r:02x}{g:02x}{b:02x}"


BAR = tuple(ramp_color(k / 31) for k in range(32))  # the colour bar under every heatmap


def grid_heatmap_svg(grid: FeatureGrid, feature: str, annotate: bool = False) -> str:
    """SVG for one feature of a grid; cells (n, m) drawn for n <= m."""
    n_stages = grid.size
    values = {pair: getattr(fs, feature) for pair, fs in grid.cells.items()}
    vmin = min(values.values())
    vmax = max(values.values())
    span = vmax - vmin
    width = MARGIN_LEFT + n_stages * CELL + MARGIN_RIGHT
    height = MARGIN_TOP + n_stages * CELL + MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="18" font-family="monospace" font-size="13">'
        f"{feature} by stage pair (n, m)</text>",
    ]
    for (n, m) in sorted(values):
        t = 0.5 if span == 0 else (values[(n, m)] - vmin) / span
        x = MARGIN_LEFT + (m - 1) * CELL
        y = MARGIN_TOP + (n - 1) * CELL
        parts.append(f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                     f'fill="{ramp_color(t)}" stroke="#ffffff" stroke-width="1"/>')
        if annotate:
            parts.append(f'<text x="{x + CELL // 2}" y="{y + CELL // 2 + 4}" '
                         f'font-family="monospace" font-size="9" text-anchor="middle" '
                         f'fill="#202020">{values[(n, m)]:.3g}</text>')
    for i in range(1, n_stages + 1):
        parts.append(
            f'<text x="{MARGIN_LEFT + (i - 1) * CELL + CELL // 2}" '
            f'y="{MARGIN_TOP - 6}" font-family="monospace" font-size="10" '
            f'text-anchor="middle">{i}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{MARGIN_TOP + (i - 1) * CELL + CELL // 2 + 4}" '
            f'font-family="monospace" font-size="10" text-anchor="end">{i}</text>'
        )
    bar_y = MARGIN_TOP + n_stages * CELL + 18
    bar_w = n_stages * CELL
    bar_cell = f"{bar_w / len(BAR) + 0.5:.2f}"
    parts += [f'<rect x="{MARGIN_LEFT + k * bar_w / len(BAR):.2f}" y="{bar_y}" width="{bar_cell}" '
              f'height="10" fill="{color}"/>' for k, color in enumerate(BAR)]
    parts += [
        f'<text x="{MARGIN_LEFT}" y="{bar_y + 24}" font-family="monospace" '
        f'font-size="10">{vmin:.6g}</text>',
        f'<text x="{MARGIN_LEFT + bar_w}" y="{bar_y + 24}" font-family="monospace" '
        f'font-size="10" text-anchor="end">{vmax:.6g}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
