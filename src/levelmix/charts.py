"""Radial bar charts of normalized tile densities, one SVG per component.

Bars sit at equal angular offsets in vocabulary order (background excluded
upstream), radius proportional to the normalized density; each angle carries
its tile character label and the component index is captioned at the bottom.
"""

from __future__ import annotations

import math

from .errors import EmptyMatrix

SIZE = 320
MARGIN = 36
BAR_WIDTH_DEG = 18.0
GRID_RINGS = (0.25, 0.5, 0.75, 1.0)


def _polar(cx, cy, radius, angle_rad):
    return cx + radius * math.sin(angle_rad), cy - radius * math.cos(angle_rad)


def _sector_path(cx, cy, radius, angle_rad, width_rad):
    a0 = angle_rad - width_rad / 2.0
    a1 = angle_rad + width_rad / 2.0
    x0, y0 = _polar(cx, cy, radius, a0)
    x1, y1 = _polar(cx, cy, radius, a1)
    return (
        f"M {cx:.2f} {cy:.2f} L {x0:.2f} {y0:.2f} "
        f"A {radius:.2f} {radius:.2f} 0 0 1 {x1:.2f} {y1:.2f} Z"
    )


def radial_chart_svg(densities, tile_chars, component_index):
    """One well-formed SVG document for one component's density row."""
    n = len(tile_chars)
    if n == 0 or len(densities) != n:
        raise EmptyMatrix("need one density per tile character")
    cx = cy = SIZE / 2.0
    max_radius = SIZE / 2.0 - MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE + 28}" '
        f'viewBox="0 0 {SIZE} {SIZE + 28}">',
        f'<rect width="{SIZE}" height="{SIZE + 28}" fill="white"/>',
    ]
    for ring in GRID_RINGS:
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{ring * max_radius:.2f}" '
            f'fill="none" stroke="#dddddd" stroke-width="1"/>'
        )
    width_rad = math.radians(BAR_WIDTH_DEG)
    for i, (char, value) in enumerate(zip(tile_chars, densities)):
        angle = 2.0 * math.pi * i / n
        radius = max(0.0, min(1.0, float(value))) * max_radius
        if radius > 0.0:
            parts.append(
                f'<path d="{_sector_path(cx, cy, radius, angle, width_rad)}" '
                f'fill="#4878a8" stroke="#2f5d8a" stroke-width="0.5"/>'
            )
        lx, ly = _polar(cx, cy, max_radius + 14, angle)
        label = char.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="13" font-family="monospace" '
            f'text-anchor="middle" dominant-baseline="middle">{label}</text>'
        )
    parts.append(
        f'<text x="{cx:.2f}" y="{SIZE + 16}" font-size="14" font-family="sans-serif" '
        f'text-anchor="middle">component {component_index}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_radial_charts(matrix):
    """TileDensityMatrix -> list of SVG documents, one per component, with
    None for a component whose row is all nan (it had no chunks)."""
    if matrix.k == 0 or not matrix.tile_chars:
        raise EmptyMatrix("density matrix has no components or no tiles")
    return [
        None if all(math.isnan(v) for v in row) else radial_chart_svg(row, matrix.tile_chars, i)
        for i, row in enumerate(matrix.values)
    ]
