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
reduces to the n cyclic shifts.  Most classes never reach the walk: by
Lemma D below, five alternating signs in a row make a class unprintable.
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
    "lay_strip",
    "is_printable",
    "printable_class_count",
]

DEFAULT_COUNTING_LIMIT = 26

# bulk_printable sorts one int32 key per path cell j: the cell's tripled centroid in two
# _COORD_BITS fields offset by _ORIGIN, above _INDEX_BITS of j, 30 bits in all.  Two moves
# shift a tripled coordinate by at most 3, so a path's 4n - 1 cells stay within 6n - 3 of (1, 1).
_COORD_BITS, _INDEX_BITS = 11, 8
_ORIGIN = 1 << (_COORD_BITS - 1)
# a field holds -_ORIGIN.._ORIGIN - 1, so 1 + (6n - 3) < _ORIGIN; and j <= 4n - 2 < 2**_INDEX_BITS
_PACKING_MAX_N = min((_ORIGIN + 1) // 6, ((1 << _INDEX_BITS) + 1) // 4)


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


# Tripled-centroid displacement per direction index (60-degree steps).
# Even indices leave up cells, odd indices leave down cells.
_DX = (1, -1, -2, -1, 1, 2)
_DY = (1, 2, 1, -1, -2, -1)
# Orientation by tripled centroid mod 3: (3x + 1, 3y + 1) is up(x, y), (3x + 2, 3y + 2) down(x, y).
_ORIENT = (None, "up", "down")


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


def lay_strip(s: Iterable[int], glue: bool = False) -> TriangleStrip:
    """Lay the 3n strip triangles (plus one glue triangle) on the lattice."""
    t = sequences._require_valid(s)
    expanded = t * 3  # one sign per strip triangle
    walk_signs = expanded + (t[0],) if glue else expanded
    centers = _walk(walk_signs)
    cells = [tuple.__new__(LatticeCell, (cx // 3, cy // 3, _ORIENT[cx % 3])) for cx, cy in centers]
    return TriangleStrip(cells=tuple(cells), expanded_signs=expanded)


def is_printable(s: Iterable[int]) -> bool:
    """True iff some orbit representative lays all 3n cells on distinct positions.

    Only cyclic shifts need checking: inversion lays the identical cells and
    reversal a congruent strip (see module docstring).
    """
    t = sequences._require_valid(s)
    n = len(t)
    for r in range(n):
        u = t[r:] + t[:r]
        centers = _walk(u * 3)
        if len(set(centers)) == 3 * n:
            return True
    return False


# A walk state is a + 6 * (exit side is right); equal signs before a move flip the side.
# _MOVES[12 * equal + state] = _STEP[next] << 4 | next; _STEP moves the key's cell by a, j by 1.
_NEXT = [(i + 1 - 2 * d) % 6 + 6 * d for i in range(24) for d in [i // 6 % 2 ^ i // 12]]
_STEP = [(x << _COORD_BITS + _INDEX_BITS) + (y << _INDEX_BITS) + 1 for x, y in zip(_DX, _DY)] * 2
_MOVES = np.array([_STEP[t] << 4 | t for t in _NEXT], dtype=np.int32)


# Lemma D: a sequence with five cyclically consecutive alternating signs (four unequal
# neighbour pairs in a row) is not printable.  In _walk, move j (cell j - 1 to cell j)
# turns direction a by the current side, and the side flips only when signs j - 2 and
# j - 1 are equal.  Let signs i..i + 4 alternate, with i >= 1.  The pairs (i, i + 1) to
# (i + 3, i + 4) are unequal, so moves i + 1..i + 5 keep one side s, and moves i..i + 5
# head in directions a, a + s, ..., a + 5s: once round a lattice vertex.  _DX and _DY
# each sum to 0, so cell i + 5 is cell i - 1.  The strip's signs repeat with period n,
# so a window of 3n path cells from cell r has such a run at some i in r + 1..r + n, and
# i + 5 <= r + n + 5 <= r + 3n - 1 for n >= 3: every shift repeats a cell.


def bulk_printable(masks: np.ndarray, n: int) -> np.ndarray:
    """Printability flags for an array of sign bitmasks, vectorized.

    One 4n-1 cell path per class covers all n shift windows: window r, cells
    r..r+3n-1, holds the shift-r strip up to congruence.  Sorted keys give g[p],
    the index where cell p < n next recurs.  Cells p + n and q + n meet iff cells
    p and q do (the same signs lay them, turned or mirrored), so window r repeats
    a cell iff g[p] < r + 3n for a p >= r or g[p] + n < r + 3n for a p < r.
    Rows with five alternating signs in a row are unprintable by Lemma D and
    skip the walk.
    """
    sequences.check_size(n, min(sequences.MAX_N, _PACKING_MAX_N), "the printability kernel")
    path_len = 4 * n - 1
    out = np.zeros(len(masks), dtype=bool)  # the rows Lemma D decides stay False
    chunk = max(1, sequences._BLOCK_BYTES // (path_len * 4))  # int32 (rows, path) keys
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None]
    index_mask = (1 << _INDEX_BITS) - 1
    r = np.arange(n, dtype=np.int16)[:, None]
    for start in range(0, len(masks), chunk):
        block = np.asarray(masks[start : start + chunk], dtype=np.uint64)
        unequal = block ^ sequences._rotl(block, n)  # bit set: an unequal neighbour pair
        unequal &= sequences._rotl(unequal, n)
        walked = np.flatnonzero((unequal & sequences._rotl(unequal, n, 2)) == 0)
        del unequal
        block = block[walked]
        rows = len(block)
        signs = (block >> shifts) & np.uint64(1)  # (n, rows): row k holds sign k
        equal12 = 12 * (signs == np.roll(signs, -1, axis=0)).astype(np.int32)
        walk = np.empty((path_len, rows), dtype=np.int32)  # walk[j]: the keys of cell j
        walk[0] = (1 + _ORIGIN) << (_COORD_BITS + _INDEX_BITS) | (1 + _ORIGIN) << _INDEX_BITS
        walk[1] = walk[0] + _STEP[0]
        state = np.zeros(rows, dtype=np.int32)
        for j in range(2, path_len):
            code = _MOVES.take(equal12[(j - 2) % n] + state)
            state = code & 15
            np.add(walk[j - 1], code >> 4, out=walk[j])
        keys = np.ascontiguousarray(walk.T)
        keys.sort(axis=1)
        lo, hi = keys.ravel()[:-1], keys.ravel()[1:]
        # equal cells, the first at an index below n; never across rows, as every path
        # holds cells (1, 1) and (2, 2): a row's last cell is above the next row's first
        at = np.flatnonzero(((lo ^ hi) <= index_mask) & ((lo & index_mask) < n))
        g = np.full((n, rows), path_len, dtype=np.int16)
        g.ravel()[(lo[at] & index_mask) * rows + at // path_len] = hi[at] & index_mask
        clean = np.minimum.accumulate(g[::-1], axis=0)[::-1] >= r + 3 * n
        clean[1:] &= np.minimum.accumulate(g[:-1], axis=0) >= r[1:] + 2 * n
        out[start + walked] = clean.any(axis=0)
    return out


def printable_class_count(n: int, *, limit: int = DEFAULT_COUNTING_LIMIT) -> int:
    """Number of printable equivalence classes at length n."""
    sequences.check_size(n, limit, "counting")
    masks = sequences.canonical_masks(n)
    expected = hexaflexagon_count(n)
    if len(masks) != expected:
        raise ArithmeticError(f"{len(masks)} classes generated at n={n}, but H({n}) = {expected}")
    return int(bulk_printable(masks, n).sum())
