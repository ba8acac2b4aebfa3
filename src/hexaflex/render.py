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
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
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


class _Formats(dict):
    """_fmt of each float, computed on first lookup; one instance per document."""

    def __missing__(self, v: float) -> str:
        text = self[v] = _fmt(v)
        return text


def _svg_lines(
    cells: Sequence[LatticeCell], row: Sequence[int], side: str, scale: float
) -> list[str]:
    """The document's lines, built over the whole strip at once.

    Each corner (a, b) is keyed by the int a * stride + (b - bmin), which sorts
    as the tuple does; each distinct corner is projected once, and each
    distinct float is formatted once.
    """
    bs = [cell.y for cell in cells]
    bmin = min(bs)
    stride = max(bs) + 2 - bmin  # corners have b in bmin .. max(y) + 1
    keys: list[int] = []  # three per cell, in LatticeCell.corners() order
    for x, y, orient in cells:
        k = x * stride + y - bmin
        if orient == "up":  # (x, y), (x + 1, y), (x, y + 1)
            keys += (k, k + stride, k + 1)
        else:  # (x + 1, y), (x, y + 1), (x + 1, y + 1)
            keys += (k + stride, k + 1, k + stride + 1)
    points = sorted(set(keys))
    size = len(points)
    ranks = list(map(dict(zip(points, range(size))).__getitem__, keys))
    ab = [divmod(k, stride) for k in points]
    xs = [a + (d + bmin) / 2.0 for a, d in ab]
    ys = [(d + bmin) * _SQRT3_2 for _, d in ab]
    xmin, xmax = min(xs) - _MARGIN, max(xs) + _MARGIN
    ymin, ymax = min(ys) - _MARGIN, max(ys) + _MARGIN
    w, h = (xmax - xmin) * scale, (ymax - ymin) * scale
    if not (w <= MAX_DOCUMENT_SIZE and h <= MAX_DOCUMENT_SIZE):
        raise ValueError(
            f"scale {scale} gives a {w:g} by {h:g} pixel document; "
            f"width and height must not exceed {MAX_DOCUMENT_SIZE:g}"
        )
    if side == "back":
        xs = [(xmin + xmax) - x for x in xs]
    px = [(x - xmin) * scale for x in xs]
    # flip y: lattice y grows upward, SVG y grows downward
    py = [(ymax - y) * scale for y in ys]
    fmt = _Formats()
    fx, fy = list(map(fmt.__getitem__, px)), list(map(fmt.__getitem__, py))
    pt = [f"{x},{y}" for x, y in zip(fx, fy)]
    printed = len(set(pt))  # coordinates are printed to 0.001
    if printed < size:
        raise ValueError(f"scale {scale} prints {size} distinct corners at {printed} points")
    start = [f'x1="{x}" y1="{y}"' for x, y in zip(fx, fy)]
    end = [f'x2="{x}" y2="{y}"' for x, y in zip(fx, fy)]

    width, height = fmt[w], fmt[h]
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        "  <style>",
        "    polygon { fill: white; stroke: none; }",
        "    line.solid { stroke: black; stroke-width: 1; }",
        "    line.fold { stroke: black; stroke-width: 1; stroke-dasharray: 4 3; }",
        f"    text {{ font-family: sans-serif; font-size: {_fmt(scale * 0.4)}px;"
        " text-anchor: middle; dominant-baseline: central; fill: black; }",
        "  </style>",
    ]
    tris = list(zip(*[iter(ranks)] * 3))  # each cell's corner ranks
    parts += [f'  <polygon points="{pt[p]} {pt[q]} {pt[r]}"/>' for p, q, r in tris]
    # an edge is its rank pair i < j, as i * size + j; corners() lists an up
    # cell's corners in rank order p < r < q and a down cell's as q < p < r
    cell_edges = [
        (p * size + r, p * size + q, r * size + q) if p < q else (q * size + p, q * size + r, p * size + r)
        for p, q, r in tris
    ]
    edges = set().union(*cell_edges)
    # consecutive cells are neighbours: the edge they share is a fold
    folds = {e for prev, cur in zip(cell_edges, cell_edges[1:]) for e in cur if e in prev}
    for lines, cls in ((edges - folds, "solid"), (folds, "fold")):
        parts += [f'  <line class="{cls}" {start[e // size]} {end[e % size]}/>' for e in sorted(lines)]
    parts += [
        f'  <text x="{fmt[(px[p] + px[q] + px[r]) / 3.0]}"'
        f' y="{fmt[(py[p] + py[q] + py[r]) / 3.0]}">{value}</text>'
        for (p, q, r), value in zip(tris, row)
    ]
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
