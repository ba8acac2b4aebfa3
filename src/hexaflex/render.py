"""Deterministic SVG nets and CSV count tables.

Floating point appears here and only here: corner positions are projected
from the exact lattice coordinates at the last moment, and every coordinate
is formatted through one fixed-precision helper so repeated runs emit
byte-identical documents.  The front face shows the top labels; the back is
mirrored horizontally so duplex printing aligns triangle for triangle.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .geometry import TriangleStrip
from .labeling import StripLabels

__all__ = ["render_strip", "render_table"]

_SQRT3_2 = math.sqrt(3.0) / 2.0
_MARGIN = 0.25  # lattice units around the strip


def _fmt(v: float) -> str:
    text = f"{v:.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def render_strip(strip: TriangleStrip, labels: StripLabels, side: str = "front", scale: float = 40.0) -> str:
    """SVG document for one side of a labeled strip.

    One polygon and one centered text element per triangle, in strip order;
    fold edges (shared by consecutive triangles) are dashed, the remaining
    outline is solid.
    """
    if side not in ("front", "back"):
        raise ValueError(f"side must be 'front' or 'back', got {side!r}")
    if len(labels.top) != len(strip.cells):
        raise ValueError(
            f"label rows of length {len(labels.top)} do not fit {len(strip.cells)} cells"
        )
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")

    corner_sets = [cell.corners() for cell in strip.cells]
    points = {c for corners in corner_sets for c in corners}
    xs = [a + b / 2.0 for a, b in points]
    ys = [b * _SQRT3_2 for a, b in points]
    xmin, xmax = min(xs) - _MARGIN, max(xs) + _MARGIN
    ymin, ymax = min(ys) - _MARGIN, max(ys) + _MARGIN

    def project(c: tuple[int, int]) -> tuple[float, float]:
        a, b = c
        x = a + b / 2.0
        if side == "back":
            x = (xmin + xmax) - x
        # flip y: lattice y grows upward, SVG y grows downward
        return ((x - xmin) * scale, (ymax - b * _SQRT3_2) * scale)

    width = _fmt((xmax - xmin) * scale)
    height = _fmt((ymax - ymin) * scale)
    row = labels.top if side == "front" else labels.bottom

    polygons = []
    texts = []
    for cell_corners, value in zip(corner_sets, row):
        pts = [project(c) for c in cell_corners]
        point_attr = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        polygons.append(f'  <polygon points="{point_attr}"/>')
        cx = sum(x for x, _ in pts) / 3.0
        cy = sum(y for _, y in pts) / 3.0
        texts.append(f'  <text x="{_fmt(cx)}" y="{_fmt(cy)}">{value}</text>')

    fold_edges = set()
    for first, second in zip(corner_sets, corner_sets[1:]):
        shared = tuple(sorted(set(first) & set(second)))
        fold_edges.add(shared)
    solid_edges = set()
    for corners in corner_sets:
        for i in range(3):
            edge = tuple(sorted((corners[i], corners[(i + 1) % 3])))
            if edge not in fold_edges:
                solid_edges.add(edge)

    def edge_lines(edges: set, cls: str) -> list[str]:
        lines = []
        for (c1, c2) in sorted(edges):
            (x1, y1), (x2, y2) = project(c1), project(c2)
            lines.append(
                f'  <line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}"'
                f' x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
            )
        return lines

    font = _fmt(scale * 0.4)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        "  <style>",
        "    polygon { fill: white; stroke: none; }",
        "    line.solid { stroke: black; stroke-width: 1; }",
        "    line.fold { stroke: black; stroke-width: 1; stroke-dasharray: 4 3; }",
        f"    text {{ font-family: sans-serif; font-size: {font}px;"
        " text-anchor: middle; dominant-baseline: central; fill: black; }",
        "  </style>",
    ]
    parts.extend(polygons)
    parts.extend(edge_lines(solid_edges, "solid"))
    parts.extend(edge_lines(fold_edges, "fold"))
    parts.extend(texts)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_table(rows: Sequence[tuple[int, int, Optional[int]]]) -> str:
    """CSV table of counts, one row per n, LF line endings.

    Rows are (n, H, Hp) with Hp possibly None; the Hp column appears only
    when at least one row carries it.
    """
    if not rows:
        raise ValueError("render_table needs at least one row")
    with_hp = any(hp is not None for _, _, hp in rows)
    lines = ["n,H,Hp" if with_hp else "n,H"]
    for n, h, hp in rows:
        if with_hp:
            lines.append(f"{n},{h},{'' if hp is None else hp}")
        else:
            lines.append(f"{n},{h}")
    return "\n".join(lines) + "\n"
