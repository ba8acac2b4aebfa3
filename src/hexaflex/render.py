"""Deterministic SVG nets and CSV count tables.

Floating point appears only here and in its slow reference,
verify.naive_render_strip: corner positions are projected from the exact
lattice coordinates at the last moment, and every coordinate is formatted
through one fixed-precision helper so repeated runs emit byte-identical
documents.  The front face shows the top labels; the back is
mirrored horizontally so duplex printing aligns triangle for triangle.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Optional, Sequence

from .geometry import LatticeCell, TriangleStrip
from .labeling import StripLabels

__all__ = ["MAX_DOCUMENT_SIZE", "digits", "render_strip", "render_table"]

_SQRT3_2 = math.sqrt(3.0) / 2.0
_MARGIN = 0.25  # lattice units around the strip
# Largest document width or height in pixels; a double there still resolves
# far finer than the 0.001 that coordinates are printed to.
MAX_DOCUMENT_SIZE = 1e9


def _fmt(v: float) -> str:
    text = f"{v:.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


# Each cell's edges as index pairs into LatticeCell.corners(), smaller corner
# first: up cells give (x,y),(x+1,y),(x,y+1), down cells (x+1,y),(x,y+1),(x+1,y+1).
_EDGES = {"up": ((0, 2), (0, 1), (2, 1)), "down": ((1, 0), (1, 2), (0, 2))}


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
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    row = labels.top if side == "front" else labels.bottom
    # the corner table and edge sets die with _svg_lines, before the join
    parts = _svg_lines(strip.cells, row, side, scale)
    parts.append("")  # the closing newline, without copying the document again
    return "\n".join(parts)


def _svg_lines(
    cells: Sequence[LatticeCell], row: Sequence[int], side: str, scale: float
) -> list[str]:
    """The document's lines; each distinct corner is projected and formatted once."""
    corner_sets = [cell.corners() for cell in cells]
    # distinct corners in sorted order, so an edge between ranks i < j sorts
    # as the integer i * size + j
    points = sorted({c for corners in corner_sets for c in corners})
    size = len(points)
    rank = {c: i for i, c in enumerate(points)}
    xs = [a + b / 2.0 for a, b in points]
    ys = [b * _SQRT3_2 for a, b in points]
    xmin, xmax = min(xs) - _MARGIN, max(xs) + _MARGIN
    ymin, ymax = min(ys) - _MARGIN, max(ys) + _MARGIN
    w, h = (xmax - xmin) * scale, (ymax - ymin) * scale
    if not (w <= MAX_DOCUMENT_SIZE and h <= MAX_DOCUMENT_SIZE):
        raise ValueError(
            f"scale {scale} gives a {w:g} by {h:g} pixel document; "
            f"width and height must not exceed {MAX_DOCUMENT_SIZE:g}"
        )

    def project(c: tuple[int, int]) -> tuple[float, float]:
        a, b = c
        x = a + b / 2.0
        if side == "back":
            x = (xmin + xmax) - x
        # flip y: lattice y grows upward, SVG y grows downward
        return ((x - xmin) * scale, (ymax - b * _SQRT3_2) * scale)

    fx, fy = [], []
    for c in points:
        x, y = project(c)
        fx.append(_fmt(x))
        fy.append(_fmt(y))
    width, height = _fmt(w), _fmt(h)
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

    texts = []
    edges = set()
    fold_edges = set()
    previous: list[int] = []
    for cell, corners, value in zip(cells, corner_sets, row):
        p, q, r = ranks = [rank[c] for c in corners]
        parts.append(f'  <polygon points="{fx[p]},{fy[p]} {fx[q]},{fy[q]} {fx[r]},{fy[r]}"/>')
        (px, py), (qx, qy), (rx, ry) = map(project, corners)
        cx, cy = _fmt((px + qx + rx) / 3.0), _fmt((py + qy + ry) / 3.0)
        texts.append(f'  <text x="{cx}" y="{cy}">{value}</text>')
        current = [ranks[i] * size + ranks[j] for i, j in _EDGES[cell.orient]]
        # consecutive cells are neighbours: the edge they share is a fold
        for edge in current:
            if edge in previous:
                fold_edges.add(edge)
        edges.update(current)
        previous = current

    for lines, cls in ((edges - fold_edges, "solid"), (fold_edges, "fold")):
        for edge in sorted(lines):
            i, j = divmod(edge, size)
            parts.append(
                f'  <line class="{cls}" x1="{fx[i]}" y1="{fy[i]}" x2="{fx[j]}" y2="{fy[j]}"/>'
            )
    parts.extend(texts)
    parts.append("</svg>")
    return parts


def digits(v: int) -> str:
    """The exact decimal text of an int of any size.

    str(int) refuses ints past sys.get_int_max_str_digits() digits (4300 by
    default); Decimal converts exactly and has no such limit.
    """
    return str(Decimal(v))


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
            lines.append(f"{n},{digits(h)},{'' if hp is None else digits(hp)}")
        else:
            lines.append(f"{n},{digits(h)}")
    return "\n".join(lines) + "\n"
