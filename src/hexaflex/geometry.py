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
Lemma D below, five alternating signs in a row make a class unprintable, and
by Lemma F, nine signs whose pairs read as a window of (u u u e e)^inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

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
# _NEXT[12 * equal + state] is the next state; _STEP[state] moves the key's cell by a, j by 1.
# _CHUNK_TABLE makes k = _CHUNK_STEPS moves: column 12 * e + state starts at state and reads
# pair i from bit k - 1 - i of e, set where its signs are equal.  Row i < k is the key offset
# after i + 1 moves and row k the state after k.  Built in plain Python as one flat list, it
# adds about 25 KiB to the peak RSS of every command's import; built by numpy calls, or from
# a list of rows, it added 0.25 MiB.
_NEXT = [(i + 1 - 2 * d) % 6 + 6 * d for i in range(24) for d in [i // 6 % 2 ^ i // 12]]
_STEP = [(x << _COORD_BITS + _INDEX_BITS) + (y << _INDEX_BITS) + 1 for x, y in zip(_DX, _DY)] * 2
_CHUNK_STEPS = 6


def _chunk_table(k: int) -> list[int]:
    """The k-move walk table, row after row, grown one pair at a time."""
    state, key, table = list(range(12)), [0] * 12, []
    for i in range(k):
        # window 2e + b from state s goes on from column 12e + s of window e, by pair b
        state = [_NEXT[12 * (j // 12 & 1) + state[j // 24 * 12 + j % 12]] for j in range(24 << i)]
        key = [key[j // 24 * 12 + j % 12] + _STEP[t] for j, t in enumerate(state)]
        # row i: each window's key begins 2 ** (k - 1 - i) adjacent k-pair windows
        table += [x for c in range(0, len(key), 12) for x in key[c : c + 12] * (1 << k - 1 - i)]
    return table + state


_CHUNK_TABLE = np.array(_chunk_table(_CHUNK_STEPS), dtype=np.int32).reshape(_CHUNK_STEPS + 1, -1)


# Lemma D: a sequence with five cyclically consecutive alternating signs (four unequal
# neighbour pairs in a row) is not printable.  In _walk, move j (cell j - 1 to cell j)
# turns direction a by the current side, and the side flips only when signs j - 2 and
# j - 1 are equal.  Let signs i..i + 4 alternate, with i >= 1.  The pairs (i, i + 1) to
# (i + 3, i + 4) are unequal, so moves i + 1..i + 5 keep one side s, and moves i..i + 5
# head in directions a, a + s, ..., a + 5s: once round a lattice vertex.  _DX and _DY
# each sum to 0, so cell i + 5 is cell i - 1.  The strip's signs repeat with period n,
# so a window of 3n path cells from cell r has such a run at some i in r + 1..r + n, and
# i + 5 <= r + n + 5 <= r + 3n - 1 for n >= 3: every shift repeats a cell.
#
# Lemma F: a sequence with nine cyclically consecutive signs whose eight neighbour pairs
# read as a window of (u u u e e)^inf, u an unequal pair and e an equal one, is not
# printable.  In _walk, move m >= 2 turns direction a by the side s_m, and s_{m + 1} = -s_m
# exactly when signs m - 1 and m are equal.  Let signs j + 1..j + 9 be the nine, with
# j >= 0: their pairs take s_{j + 2} to s_{j + 3}..s_{j + 10}.  The window repeats with
# period 5 and flips the side at two adjacent pairs of each period, so the turns
# s_{j + 2}..s_{j + 10} repeat with period 5 and any five of them are four of one sign and
# one of the other: they sum to 3 or -3.  So move m + 5 heads opposite move m for
# m = j + 1..j + 5; _DX[a + 3] = -_DX[a] and _DY likewise, so the ten moves from cell j
# cancel and cell j + 10 is cell j.  A window of 3n path cells from cell r has the nine
# signs at some j + 1 in r + 1..r + n, and j + 10 <= r + n + 9 <= r + 3n - 1 for n >= 5:
# every shift repeats a cell.  No valid sequence shorter than 8 has the nine signs.


def bulk_printable(masks: np.ndarray, n: int) -> np.ndarray:
    """Printability flags for one block of sign bitmasks, vectorized.

    One 4n-1 cell path per class covers all n shift windows: window r, cells
    r..r+3n-1, holds the shift-r strip up to congruence.  Sorted keys give g[p],
    the index where cell p < n next recurs.  Cells p + n and q + n meet iff cells
    p and q do (the same signs lay them, turned or mirrored), so window r repeats
    a cell iff g[p] < r + 3n for a p >= r or g[p] + n < r + 3n for a p < r.
    Rows with five alternating signs in a row (Lemma D) or with Lemma F's nine
    signs are unprintable and skip the walk.  The rest walk _CHUNK_STEPS moves
    per take: one column of _CHUNK_TABLE per row gives the chunk's key offsets
    and its last state.  sequences.class_rows sizes the blocks for the walk's keys.
    """
    n = sequences.check_size(n, min(sequences.MAX_N, _PACKING_MAX_N), "the printability kernel")
    path_len = 4 * n - 1
    masks = np.asarray(masks).astype(sequences._word(n), copy=False)
    out = np.zeros(len(masks), dtype=bool)  # the rows Lemma D decides stay False
    index_mask = (1 << _INDEX_BITS) - 1
    r = np.arange(n, dtype=np.int16)[:, None]
    unequal = masks ^ sequences._rotl(masks, n)  # bit n - 1 - k: signs k and k + 1 differ
    # pairs k + 1, k + 2 and k + 3, and two unequal pairs in a row from k and from k + 2
    next1, next2, next3 = (sequences._rotl(unequal, n, s % n) for s in (1, 2, 3))
    run, run2 = unequal & next1, next2 & next3
    # Lemma F's nine signs from k are those whose signs k..k + 3 each differ from the sign
    # five on (cyclically) and whose pairs k..k + 3 read uuue, uuee, ueeu, eeuu or euuu: a
    # period of the window holds three u's, an odd count, which fixes pair k + 4 and makes
    # pairs k + 5..k + 7 repeat pairs k..k + 2
    apart = masks ^ sequences._rotl(masks, n, 5 % n)
    apart &= sequences._rotl(apart, n)
    apart &= sequences._rotl(apart, n, 2)
    window = run & ~next3 | run2 & ~unequal | unequal & next3 & ~(next1 | next2)
    walked = np.flatnonzero((run & run2 | apart & window) == 0)
    del run, run2, next1, next2, next3, apart, window
    rows = len(walked)
    # (n, rows): row p is 12 * e for the chunk from pair p (cyclically) of each walked class
    equal = unequal[walked] ^ ((1 << n) - 1)
    del unequal  # like run, before the walk: kept, they fragment the heap (+4 MiB peak RSS)
    length = n * -(-_CHUNK_STEPS // n)  # a cycle shorter than a chunk is repeated
    equal *= sum(1 << i for i in range(0, length, n))
    codes = sequences._rotl(equal, length, np.arange(n, dtype=equal.dtype)[:, None])
    codes = (codes >> (length - _CHUNK_STEPS)).astype(np.int32)
    codes *= 12
    walk = np.empty((path_len, rows), dtype=np.int32)  # walk[j]: the keys of cell j
    walk[0] = (1 + _ORIGIN) << (_COORD_BITS + _INDEX_BITS) | (1 + _ORIGIN) << _INDEX_BITS
    walk[1] = walk[0] + _STEP[0]
    state = np.zeros(rows, dtype=np.int32)
    for j in range(2, path_len, _CHUNK_STEPS):
        step = _CHUNK_TABLE.take(codes[(j - 2) % n] + state, axis=1)
        m = min(_CHUNK_STEPS, path_len - j)
        np.add(walk[j - 1], step[:m], out=walk[j : j + m])
        state = step[_CHUNK_STEPS]
    # the scan reuses the walk's buffer, dead once copied, as fresh block-sized temporaries
    # are fresh pages each block; ascontiguousarray(walk.T) would be walk itself for one row
    keys = walk.T.copy()
    keys.sort(axis=1)
    lo, hi = keys.ravel()[:-1], keys.ravel()[1:]
    # equal cells, the first at an index below n: lo ^ (hi & ~index_mask) is lo's index where
    # the coordinates agree and above n where not; never across rows, as every path holds
    # cells (1, 1) and (2, 2): a row's last cell is above the next row's first
    scan = np.bitwise_and(hi, ~index_mask, out=walk.ravel()[: len(lo)])
    scan ^= lo
    at = np.flatnonzero(scan < n)
    g = np.full((n, rows), path_len, dtype=np.int16)
    g.ravel()[(lo[at] & index_mask) * rows + at // path_len] = hi[at] & index_mask
    # running minima down (low) and up (g) the rows, a row at a time: minimum.accumulate
    # along axis 0 is a strided scan, about 5x slower at (26, 2100)
    low = g.copy()
    for k in range(1, n):
        np.minimum(low[k - 1], low[k], out=low[k])
        np.minimum(g[n - k], g[n - k - 1], out=g[n - k - 1])
    clean = g >= r + 3 * n
    clean[1:] &= low[:-1] >= r[1:] + 2 * n
    out[walked] = clean.any(axis=0)
    return out


def printable_class_count(n: int, *, limit: int = DEFAULT_COUNTING_LIMIT) -> int:
    """Number of printable equivalence classes at length n."""
    n = sequences.check_size(n, limit, "counting")
    return sum(int(flags.sum()) for _, _, flags, _ in sequences.class_rows(n))
