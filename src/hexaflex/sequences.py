"""Sign sequences: the combinatorial identity of a hexaflexagon.

A sequence (a_1, ..., a_n) with entries +1/-1 describes one strip shape;
two sequences describe the same hexaflexagon when they differ by cyclic
shift, reversal, or global sign inversion.  This module provides the orbit
operations, a canonical form, the extend/reduce moves that grow and shrink
sequences, validity (reachability from the length-3 base), enumeration
of every equivalence class, grown level by level by extension, and the
extension histories and face labels of a whole level at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Optional

import numpy as np

from .counting import sum_set

__all__ = [
    "ClassRecord",
    "DEFAULT_ENUMERATION_LIMIT",
    "cyclic_shift",
    "reverse",
    "invert",
    "canonicalize",
    "check_size",
    "class_rows",
    "extend",
    "reduce",
    "is_valid",
    "reduction_history",
    "enumerate_classes",
]

SignSequence = tuple[int, ...]

# cmd_enumerate-facing guard; the number of classes is exponential in n.
DEFAULT_ENUMERATION_LIMIT = 24


def _validate(s: Iterable[int]) -> SignSequence:
    t = tuple(s)
    if len(t) < 3:
        raise ValueError(f"sign sequences need length >= 3, got {len(t)}")
    if any(a not in (1, -1) for a in t):
        raise ValueError(f"sign sequences take entries +1/-1, got {t}")
    return t


def cyclic_shift(s: Iterable[int], offset: int) -> SignSequence:
    """Rotate left by offset: (a_1, ..., a_n) -> (a_{1+offset}, ..., a_offset)."""
    t = _validate(s)
    r = offset % len(t)
    return t[r:] + t[:r]


def reverse(s: Iterable[int]) -> SignSequence:
    return _validate(s)[::-1]


def invert(s: Iterable[int]) -> SignSequence:
    return tuple(-a for a in _validate(s))


def _orbit(t: SignSequence) -> Iterable[SignSequence]:
    # shifts x {id, reversal} x {id, inversion}: at most 4n members
    n = len(t)
    for base in (t, t[::-1], tuple(-a for a in t), tuple(-a for a in t[::-1])):
        for r in range(n):
            yield base[r:] + base[:r]


_LEX_KEY = {1: 0, -1: 1}  # +1 sorts before -1


def canonicalize(s: Iterable[int]) -> SignSequence:
    """Lexicographically least orbit member with non-negative sum, +1 first."""
    t = _validate(s)
    return min(
        (u for u in _orbit(t) if sum(u) >= 0),
        key=lambda u: tuple(_LEX_KEY[a] for a in u),
    )


def extend(s: Iterable[int], i: int) -> SignSequence:
    """Replace a_i with the pair (-a_i, -a_i); the sum changes by -3*a_i."""
    t = _validate(s)
    if not 1 <= i <= len(t):
        raise ValueError(f"extend position {i} out of range 1..{len(t)}")
    a = t[i - 1]
    return t[: i - 1] + (-a, -a) + t[i:]


def reduce(s: Iterable[int], i: int) -> SignSequence:
    """Contract the equal cyclically-adjacent pair at (i, i+1) to a single -a_i.

    Inverse of extend at interior positions: reduce(extend(s, i), i) == s.
    For i == n the pair wraps (a_n, a_1) and the merged entry leads the result.
    """
    t = _validate(s)
    n = len(t)
    if not 1 <= i <= n:
        raise ValueError(f"reduce position {i} out of range 1..{n}")
    j = i % n  # 0-based index of the partner entry
    if t[i - 1] != t[j]:
        raise ValueError(f"entries at cyclic positions {i},{i % n + 1} differ")
    if i < n:
        return t[: i - 1] + (-t[i - 1],) + t[i + 1 :]
    return (-t[n - 1],) + t[1 : n - 1]


def is_valid(s: Iterable[int]) -> bool:
    """True iff s has an equal cyclically-adjacent pair and its sum is achievable."""
    t = _validate(s)
    n = len(t)
    if all(t[j] != t[(j + 1) % n] for j in range(n)):
        return False
    return sum(t) in sum_set(n)


# The contraction rule of reduction_history and _histories: contract at the
# leftmost equal pair (p, p + 1), cyclically, whose result is valid.  Two
# lemmas let both kernels skip the wrapped pair (a_L, a_1) and the ends.
#
# Lemma B: every sum in sum_set(m) is a multiple of 3, since the bases sum to
# +-3 and an extension moves the sum by +-3.  A sequence whose only equal pair
# is the wrapped one alternates inside and has odd length, so it sums to +-1
# and is invalid: once the sum passes, an inner equal pair exists.
#
# Lemma A: if contracting the wrapped pair (a, a) of t (L >= 4) gives a valid
# sequence, so does an inner pair, so the wrapped pair is never the leftmost.
# Every a-pair moves the sum to s - 3a.  An a-pair at 2 <= p <= L - 2 keeps
# a_L = a_1 adjacent.  Else a_2 = a (so a_3 = -a) or a_{L-1} = a (so a_{L-2} =
# -a), and contracting there leaves (-a, -a) at an end.  Else every other a
# is isolated; take a = +1 (inversion mirrors the rest), so s <= 1.  t does
# not alternate inside (s - 3 = -2 would break Lemma B), so it has an inner
# (-, -) pair, which keeps a_L = a_1 adjacent and gives the sum
# s + 3 = (s - 3) + 6 <= max sum_set(L - 1), as s - 3 < 0.


def reduction_history(s: Iterable[int]) -> list[int]:
    """Extension positions that replay from (1, 1, 1) to an orbit member of s.

    Contracts s down to the length-3 base by the leftmost valid contraction
    (never at the wrapped pair; see the lemmas above), then replays upwards:
    each step takes the first extension position whose result is a rotation
    of the next chain entry.  A chain that lands on (-1, -1, -1) is replayed
    from there against itself, which picks the same positions as inverting
    the whole chain.

    The sequence is kept as a '+'/'-' string with its sum alongside, so a
    validity check is a sum_set lookup plus a search for an equal pair, and
    a rotation test is a substring search in the doubled target.
    """
    t = _validate(s)
    if not is_valid(t):
        raise ValueError(f"{t} is not a valid sign sequence")
    cur = "".join("+" if a == 1 else "-" for a in t)
    total = sum(t)
    chain = [cur]
    while len(cur) > 3:
        n = len(cur)
        sums = sum_set(n - 1)
        for p in range(1, n):  # never the wrapped pair (Lemma A)
            a = cur[p - 1]
            if a != cur[p]:
                continue
            # the pair (a, a) becomes one -a: the sum moves by -3a
            shorter_total = total - 3 if a == "+" else total + 3
            if shorter_total not in sums:
                continue
            shorter = cur[: p - 1] + ("-" if a == "+" else "+") + cur[p + 1 :]
            if "++" in shorter or "--" in shorter:  # the ends need no test (Lemma B)
                cur, total = shorter, shorter_total
                break
        else:
            raise AssertionError(f"no valid contraction found for {cur}")
        chain.append(cur)
    steps: list[int] = []
    cur = chain.pop()
    for target in reversed(chain):
        ring = target + target
        for i in range(1, len(cur) + 1):
            a = cur[i - 1]
            grown = cur[: i - 1] + ("--" if a == "+" else "++") + cur[i:]
            if grown in ring:
                steps.append(i)
                cur = grown
                break
        else:
            raise AssertionError(f"no extension of {cur} matches {target}")
    return steps


@dataclass(frozen=True)
class ClassRecord:
    """One hexaflexagon equivalence class: canonical signs plus metadata."""

    n: int
    signs: SignSequence
    sum: int
    printable: Optional[bool] = None
    labels: Optional[tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# Class ladder.  Sequences are packed into uint64 bitmasks (a_1 at the MSB,
# bit 1 = +1), so a class's canonical form is its largest orbit mask with
# non-negative sum.  Rotating left by r in sequence terms is a left
# bit-rotation; reversal is a bit reversal; inversion is complement.
#
# A sequence is valid exactly when extension moves reach it from (1, 1, 1),
# and extension commutes with the orbit operations, so level n holds the
# canonical forms of every one-position extension of level n - 1.

MAX_N = 64  # the mask width: the one ceiling of every level kernel
_BLOCK_BYTES = 1 << 21  # per temporary array of _grow, class_rows and geometry.bulk_printable

_REV8 = np.array([int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8)
_LADDER: dict[int, np.ndarray] = {3: np.array([0b111], dtype=np.uint64)}
_LADDER[3].flags.writeable = False


def _bitrev(x: np.ndarray, n: int) -> np.ndarray:
    """Each n-bit mask reversed.

    A 64-bit reversal is a byte-order reversal plus a bit reversal within
    each byte, so the byte table works on either endianness.
    """
    full = _REV8[np.ascontiguousarray(x).view(np.uint8)].view(np.uint64)
    full.byteswap(inplace=True)
    full >>= np.uint64(64 - n)
    return full


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """Ascending distinct values; np.unique's hashing is far slower than a sort here."""
    x = np.sort(x, axis=None)
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _orbit_max(x: np.ndarray, n: int) -> np.ndarray:
    """Largest rotation of each mask or of its reversal.

    A window word holds one rotation in its top n bits and the next 64 - n
    bits of the cycle below them, so each left shift by s < 65 - n puts one
    more rotation on top.  The bits below never decide a maximum.  One
    window covers every rotation up to n = 32; above that a new window
    starts every 65 - n rotations.
    """
    span = 65 - n  # rotations per window
    best = np.zeros_like(x)
    window = np.empty_like(x)
    shifted = np.empty_like(x)
    for v in (x, _bitrev(x, n)):
        for start in range(0, n, span):
            # the cycle from rotation start, repeated down the 64 bits
            np.left_shift(v, np.uint64(64 - n + start), out=window)
            if start:
                np.right_shift(v, np.uint64(n - start), out=shifted)
                shifted <<= np.uint64(64 - n)
                window |= shifted
            period = n
            while period < 64:
                np.right_shift(window, np.uint64(period), out=shifted)
                window |= shifted
                period *= 2
            np.maximum(best, window, out=best)
            for s in range(1, min(span, n - start)):
                np.left_shift(window, np.uint64(s), out=shifted)
                np.maximum(best, shifted, out=best)
    best >>= np.uint64(64 - n)
    return best


def _canonical_extensions(parent: np.ndarray, n: int) -> np.ndarray:
    """Ascending distinct canonical forms of every one-position extension of parent."""
    mask = np.uint64((1 << n) - 1)
    candidates = np.empty((n - 1, len(parent)), dtype=np.uint64)
    for b in range(n - 1):  # extend the entry at bit b of the parent
        high = (parent >> np.uint64(b + 1)) << np.uint64(b + 2)
        pair = ((~parent >> np.uint64(b)) & np.uint64(1)) * np.uint64(3) << np.uint64(b)
        low = parent & np.uint64((1 << b) - 1)
        candidates[b] = high | pair | low
    x = _sorted_unique(candidates)
    # canonical forms have non-negative sum: complement negative sums, and
    # let a zero sum also try its complement
    twice_ones = 2 * np.bitwise_count(x).astype(np.int64)
    x[twice_ones < n] ^= mask
    zero = twice_ones == n
    best = _orbit_max(x, n)
    best[zero] = np.maximum(best[zero], _orbit_max(x[zero] ^ mask, n))
    return _sorted_unique(best)


def _grow(parent: np.ndarray, n: int) -> np.ndarray:
    """Level n from level n - 1, canonicalized one block of parents at a time.

    Each block's sorted canonical set waits until the waiting sets together
    outgrow the merged set, and all are then merged into it, so a merge
    sorts at most twice the level plus one block's set.  A level of one
    block is never sorted again.
    """
    block = max(1, _BLOCK_BYTES // (8 * (n - 1)))
    merged = _canonical_extensions(parent[:block], n)
    pending: list[np.ndarray] = []
    for start in range(block, len(parent), block):
        pending.append(_canonical_extensions(parent[start : start + block], n))
        if start + block >= len(parent) or sum(map(len, pending)) > len(merged):
            merged = _sorted_unique(np.concatenate([merged, *pending]))
            pending = []
    out = merged[::-1].copy()
    out.flags.writeable = False
    return out


def canonical_masks(n: int) -> np.ndarray:
    """Canonical bitmasks of every class at length n, descending (= canonical order).

    Levels are grown once and kept.  Each level is grown from the one below
    in bounded blocks of parents (see _grow), so the candidate arrays do not
    grow with the level.
    """
    check_size(n, MAX_N, "the class ladder")
    grown = n
    while grown not in _LADDER:
        grown -= 1
    for level in range(grown + 1, n + 1):
        _LADDER.setdefault(level, _grow(_LADDER[level - 1], level))
    return _LADDER[n]


def signs_from_mask(m: int, n: int) -> SignSequence:
    return tuple(1 if (m >> (n - i)) & 1 else -1 for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Histories and labels of a whole level.  _histories follows the rule of
# reduction_history and _labels that of build_pattern, on the ladder's masks:
# position p of a length-L mask sits at bit L - p, so the leftmost valid
# position is the highest valid bit.

_SIGN_BYTES = np.frombuffer(b"-+", dtype=np.uint8)


def _rotl(x: np.ndarray, length: int, r: int = 1) -> np.ndarray:
    """Length-L masks rotated left by 0 < r < L."""
    full = np.uint64((1 << length) - 1)
    return ((x << np.uint64(r)) | (x >> np.uint64(length - r))) & full


def _contract(x: np.ndarray, length: int) -> np.ndarray:
    """Each length-L mask contracted at its leftmost equal pair whose result is valid."""
    one = np.uint64(1)
    full = np.uint64((1 << length) - 1)
    # bit j: positions L - j and L - j + 1 (cyclically) hold equal signs
    equal = ~(x ^ _rotl(x, length)) & full
    # contracting a pair (a, a) moves the sum 2k - L of a mask with k ones by -3a
    sums = sum_set(length - 1)
    plus, minus = (
        np.array(
            [full if 2 * k - length - 3 * a in sums else 0 for k in range(length + 1)],
            dtype=np.uint64,
        )
        for a in (1, -1)
    )
    ones = np.bitwise_count(x)
    valid = equal & ((x & plus[ones]) | (~x & minus[ones]))
    # the shorter sequence has an equal pair unless the equal pairs are
    # exactly three consecutive ones and the middle one is contracted
    middle = equal & _rotl(equal, length) & _rotl(equal, length, length - 1)
    valid &= ~np.where(np.bitwise_count(equal) == 3, middle, np.uint64(0))
    if not valid.all():
        raise ValueError(f"no valid contraction of a length-{length} mask")
    top = valid.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        top |= top >> np.uint64(shift)
    j = np.bitwise_count(top).astype(np.uint64) - one  # the highest valid bit
    merged = ((x >> j) & one) ^ one  # the pair (a, a) becomes one -a
    # the pair at bits (j, j - 1) merges in place; j > 0 by Lemma A
    return (x >> (j + one)) << j | merged << (j - one) | x & ((one << (j - one)) - one)


def _histories(masks: np.ndarray, n: int) -> np.ndarray:
    """reduction_history of each length-n mask, as an int8 (rows, n - 3) array.

    Every row is contracted down to length 3 together, never at the wrapped
    pair (see the lemmas above reduction_history); the replay then
    compares all L extensions of each row with the L + 1 rotations of its
    next chain entry and takes the first match.
    """
    # int8 holds every step and label, each <= n
    check_size(n, min(MAX_N, np.iinfo(np.int8).max), "the history kernel")
    one = np.uint64(1)
    chain = [np.asarray(masks, dtype=np.uint64)]
    for length in range(n, 3, -1):
        chain.append(_contract(chain[-1], length))
    cur = chain.pop()
    columns = np.arange(len(cur))
    steps = np.empty((len(cur), n - 3), dtype=np.int8)
    for length in range(3, n):
        target = chain.pop()
        grown = np.empty((length, len(cur)), dtype=np.uint64)
        for i, b in enumerate(np.arange(length - 1, -1, -1, dtype=np.uint64)):
            # extend position i + 1, at bit b: its entry a becomes the pair (-a, -a)
            high = (cur >> (b + one)) << (b + np.uint64(2))
            pair = ((~cur >> b) & one) * np.uint64(3) << b
            grown[i] = high | pair | cur & ((one << b) - one)
        match = grown == target
        for r in range(1, length + 1):
            match |= grown == _rotl(target, length + 1, r)
        first = match.argmax(axis=0)
        if not match[first, columns].all():
            raise ValueError(f"no extension matches its chain entry at length {length + 1}")
        steps[:, length - 3] = first + 1
        cur = grown[first, columns]
    return steps


def _labels(steps: np.ndarray, n: int) -> np.ndarray:
    """build_pattern(history).labels of each row of steps, as an int8 (rows, n) array.

    Tracks the index of each label: a step at position i puts label m + 1 at
    index i - 1 and moves every label at or after that index one to the right.
    """
    at = np.empty((len(steps), n), dtype=np.int8)  # at[:, k]: the index of label k + 1
    at[:, :3] = (0, 1, 2)
    for m in range(3, n):
        index = steps[:, m - 3] - 1
        placed = at[:, :m]
        placed += placed >= index[:, None]
        at[:, m] = index
    labels = np.empty_like(at)
    labels[np.arange(len(steps))[:, None], at] = np.arange(1, n + 1, dtype=np.int8)
    return labels


def class_rows(
    masks: np.ndarray, n: int, *, labels: bool = False
) -> Iterator[tuple[str, int, Optional[list[int]]]]:
    """(signs as '+'/'-' text, sum, face labels or None) of each length-n mask.

    The labels are build_pattern(reduction_history(signs)).labels, computed
    for a block of rows at a time so the (L, rows) extension arrays stay
    within the level kernels' byte budget.
    """
    check_size(n, MAX_N, "the row kernel")
    block = max(1, _BLOCK_BYTES // (8 * n))
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    for start in range(0, len(masks), block):
        chunk = masks[start : start + block]
        text = _SIGN_BYTES[(chunk[:, None] >> shifts) & np.uint64(1)].view(f"S{n}")
        signs = text.ravel().astype(f"U{n}").tolist()
        sums = (2 * np.bitwise_count(chunk).astype(np.int64) - n).tolist()
        rows = repeat(None)
        if labels:  # listed row by row, so a block's label lists are never all alive at once
            rows = map(np.ndarray.tolist, _labels(_histories(chunk, n), n))
        yield from zip(signs, sums, rows)


def check_size(n: int, limit: int, what: str) -> None:
    """The one size guard of every level kernel and command: 3 <= n <= limit <= MAX_N."""
    if n < 3:
        raise ValueError(f"{what} needs n >= 3, got {n}")
    if limit > MAX_N:
        raise ValueError(f"limit {limit} exceeds the largest supported n {MAX_N}")
    if n > limit:
        raise ValueError(f"n={n} exceeds the {what} limit {limit}")


def enumerate_classes(
    n: int,
    *,
    printability: bool = False,
    labels: bool = False,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> list[ClassRecord]:
    """Every equivalence class at length n, canonically sorted.

    The classes come from the extension ladder (see canonical_masks); their
    number equals counting.hexaflexagon_count(n).
    """
    check_size(n, limit, "enumeration")
    masks = canonical_masks(n)
    flags = repeat(None)
    if printability:
        from . import geometry

        flags = geometry.bulk_printable(masks, n).tolist()
    return [
        ClassRecord(
            n=n,
            signs=tuple(1 if c == "+" else -1 for c in text),
            sum=total,
            printable=flag,
            labels=None if row is None else tuple(row),
        )
        for (text, total, row), flag in zip(class_rows(masks, n, labels=labels), flags)
    ]
