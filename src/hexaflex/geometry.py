"""Triangular-lattice strips and the printability test.

Cells live on the unit triangular lattice with basis e1 = (1, 0),
e2 = (1/2, sqrt(3)/2): an up triangle at (x, y) has corners p, p+e1, p+e2
and a down triangle p+e1, p+e2, p+e1+e2, where p = x*e1 + y*e2.  Internally
a cell is tracked by its tripled centroid in basis coordinates, (3x+1, 3y+1)
for up and (3x+2, 3y+2) for down, so adjacency and overlap stay purely
integer: no real coordinates are ever compared.

Laying a strip walks one cell per expanded sign.  Consecutive equal signs
continue the current row (alternating exit sides); a sign change repeats the
exit side, turning the strip by 60 degrees.  A class is printable when at
least one orbit representative lays all 3n cells on distinct positions.
Inversion never changes the laid cells (the walk only looks at sign
equality) and reversal lays a congruent strip, so the orbit quantifier
reduces to the n cyclic shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .counting import hexaflexagon_count
from . import sequences

__all__ = [
    "LatticeCell",
    "TriangleStrip",
    "DEFAULT_COUNTING_LIMIT",
    "expand_signs",
    "lay_strip",
    "is_printable",
    "printable_class_count",
]

DEFAULT_COUNTING_LIMIT = 26

# bulk_printable packs cell ids as (cx + 512) << 11 | (cy + 512) in int32 and
# keeps path indices (at most 4n - 2) in int16.  Every move turns by 60
# degrees, so two moves shift a tripled coordinate by at most 3 and the 4n - 1
# cells of a path stay within 6n - 3 of the start (1, 1).  Both fields stay in
# range while 6n - 4 <= 512, and int16 indices hold far beyond that.
_PACKING_MAX_N = (512 + 4) // 6
MAX_N = min(sequences.MAX_N, _PACKING_MAX_N)


class LatticeCell(NamedTuple):
    x: int
    y: int
    orient: str  # "up" or "down"

    def corners(self) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
        """Corner coordinates in the (e1, e2) basis."""
        x, y = self.x, self.y
        if self.orient == "up":
            return ((x, y), (x + 1, y), (x, y + 1))
        return ((x + 1, y), (x, y + 1), (x + 1, y + 1))


@dataclass(frozen=True)
class TriangleStrip:
    """Laid-out strip: one lattice cell per expanded sign (plus glue cell)."""

    cells: tuple[LatticeCell, ...]
    expanded_signs: tuple[int, ...]


def expand_signs(s: Iterable[int]) -> tuple[int, ...]:
    """The sign sequence concatenated three times: one sign per strip triangle."""
    t = sequences._validate(s)
    return t * 3


# Tripled-centroid displacement per direction index (60-degree steps).
# Even indices leave up cells, odd indices leave down cells.
_DX = (1, -1, -2, -1, 1, 2)
_DY = (1, 2, 1, -1, -2, -1)


def _walk(signs: tuple[int, ...]) -> list[tuple[int, int]]:
    """Tripled-centroid positions for one cell per entry of signs."""
    cx, cy = 1, 1  # up(0, 0)
    cells = [(cx, cy)]
    a = 0  # direction of the first move, by convention
    side = 1  # +1 exits left, -1 exits right; first exit is left
    for j in range(1, len(signs)):
        if j >= 2:
            if signs[j - 1] == signs[j - 2]:
                side = -side
            a = (a + side) % 6
        cx += _DX[a]
        cy += _DY[a]
        cells.append((cx, cy))
    return cells


def _cell_from_center(cx: int, cy: int) -> LatticeCell:
    if cx % 3 == 1:
        return LatticeCell((cx - 1) // 3, (cy - 1) // 3, "up")
    return LatticeCell((cx - 2) // 3, (cy - 2) // 3, "down")


def lay_strip(s: Iterable[int], glue: bool = False) -> TriangleStrip:
    """Lay the 3n strip triangles (plus one glue triangle) on the lattice."""
    t = sequences._validate(s)
    if not sequences.is_valid(t):
        raise ValueError(f"{t} is not a valid sign sequence")
    expanded = expand_signs(t)
    walk_signs = expanded + (t[0],) if glue else expanded
    centers = _walk(walk_signs)
    return TriangleStrip(
        cells=tuple(_cell_from_center(cx, cy) for cx, cy in centers),
        expanded_signs=expanded,
    )


def is_printable(s: Iterable[int]) -> bool:
    """True iff some orbit representative lays all 3n cells on distinct positions.

    Only cyclic shifts need checking: inversion lays the identical cells and
    reversal a congruent strip (see module docstring).
    """
    t = sequences._validate(s)
    if not sequences.is_valid(t):
        raise ValueError(f"{t} is not a valid sign sequence")
    n = len(t)
    for r in range(n):
        u = t[r:] + t[:r]
        centers = _walk(u * 3)
        if len(set(centers)) == 3 * n:
            return True
    return False


def bulk_printable(masks: np.ndarray, n: int) -> np.ndarray:
    """Printability flags for an array of sign bitmasks, vectorized.

    One 4n-1 cell path per class covers all n shift windows: window r holds
    the cells of the shift-r strip up to congruence.  A window is clean when
    no cell in it re-occurs, tracked with previous-occurrence indices and a
    sliding-window maximum.
    """
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the printability kernel's ceiling {MAX_N}")
    count = len(masks)
    if count == 0:
        return np.zeros(0, dtype=bool)
    path_len = 4 * n - 1
    window = 3 * n
    out = np.empty(count, dtype=bool)
    chunk = max(1, (1 << 23) // (path_len * 8))  # bytes per int64 (rows, path) array
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    for start in range(0, count, chunk):
        block = np.asarray(masks[start : start + chunk], dtype=np.uint64)
        rows = len(block)
        bits = ((block[:, None] >> shifts[None, :]) & 1).astype(np.int8)
        sig = bits[:, np.arange(path_len) % n]
        # exit side flips where consecutive cell signs are equal
        flips = (sig[:, 1 : path_len - 1] == sig[:, : path_len - 2]).astype(np.int8)
        side = np.where(np.cumsum(flips, axis=1) % 2 == 1, -1, 1).astype(np.int8)
        a = np.zeros((rows, path_len - 1), dtype=np.int64)
        a[:, 1:] = np.cumsum(side, axis=1)
        a %= 6
        dx = np.asarray(_DX, dtype=np.int64)[a]
        dy = np.asarray(_DY, dtype=np.int64)[a]
        cx = np.ones((rows, path_len), dtype=np.int64)
        cy = np.ones((rows, path_len), dtype=np.int64)
        np.cumsum(dx, axis=1, out=dx)
        np.cumsum(dy, axis=1, out=dy)
        cx[:, 1:] += dx
        cy[:, 1:] += dy
        ids = ((cx + 512) << 11 | (cy + 512)).astype(np.int32)
        order = np.argsort(ids, axis=1, kind="stable")
        sorted_ids = np.take_along_axis(ids, order, axis=1)
        same = sorted_ids[:, 1:] == sorted_ids[:, :-1]
        prev = np.full((rows, path_len), -1, dtype=np.int16)
        np.put_along_axis(
            prev,
            order[:, 1:],
            np.where(same, order[:, :-1], -1).astype(np.int16),
            axis=1,
        )
        windows = np.lib.stride_tricks.sliding_window_view(prev, window, axis=1)
        worst = windows.max(axis=2)  # (rows, n)
        out[start : start + chunk] = (worst < np.arange(n, dtype=np.int16)).any(axis=1)
    return out


def printable_class_count(n: int, *, limit: int = DEFAULT_COUNTING_LIMIT) -> int:
    """Number of printable equivalence classes at length n."""
    if n < 3:
        raise ValueError(f"printable_class_count needs n >= 3, got {n}")
    if limit > MAX_N:
        raise ValueError(f"limit {limit} exceeds the largest supported n {MAX_N}")
    if n > limit:
        raise ValueError(f"n={n} exceeds the counting limit {limit}")
    masks = sequences.canonical_masks(n)
    expected = hexaflexagon_count(n)
    if len(masks) != expected:
        raise ArithmeticError(f"{len(masks)} classes generated at n={n}, but H({n}) = {expected}")
    return int(bulk_printable(masks, n).sum())
