"""Sign sequences: the combinatorial identity of a hexaflexagon.

A sequence (a_1, ..., a_n) with entries +1/-1 describes one strip shape;
two sequences describe the same hexaflexagon when they differ by cyclic
shift, reversal, or global sign inversion.  This module provides the orbit
operations, a canonical form, the extend/reduce moves that grow and shrink
sequences, validity (reachability from the length-3 base), enumeration
of every equivalence class, grown level by level by extension, and the
face labels and JSON lines of a whole level, a block of classes at a time,
the labels from one replay of each block's extension histories.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Optional

import numpy as np

from .counting import hexaflexagon_count

__all__ = [
    "ClassRecord",
    "DEFAULT_ENUMERATION_LIMIT",
    "cyclic_shift",
    "reverse",
    "invert",
    "canonicalize",
    "check_size",
    "class_jsonl",
    "class_rows",
    "extend",
    "reduce",
    "invalid_reason",
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
    if set(map(type, t)) != {int}:
        # numpy and other integer entries become ints; bool, float and the rest fail
        if any(isinstance(a, bool) or not hasattr(type(a), "__index__") for a in t):
            raise ValueError(f"sign sequences take entries +1/-1, got {t}")
        t = tuple(map(operator.index, t))
    if t.count(1) + t.count(-1) < len(t):
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


def canonicalize(s: Iterable[int]) -> SignSequence:
    """Lexicographically least orbit member with non-negative sum, +1 first.

    As +1 > -1, that member is the greatest such tuple.
    """
    return max(u for u in _orbit(_validate(s)) if sum(u) >= 0)


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


def invalid_reason(s: Iterable[int]) -> Optional[str]:
    """Why extension moves cannot reach s from (1, 1, 1) or (-1, -1, -1), or None.

    By Lemma C below, s is valid exactly when it has an equal cyclically-adjacent
    pair and 3 divides its sum.
    """
    return _invalid_reason(_validate(s))


def _invalid_reason(t: SignSequence) -> Optional[str]:
    if all(a != b for a, b in zip(t, t[1:] + t[:1])):
        return (
            "signs alternate, so no two adjacent triangles fold together; "
            "a foldable sequence needs at least one equal adjacent pair"
        )
    if sum(t) % 3:
        return f"entry sum {sum(t)} is not a multiple of 3, so extension moves cannot reach it"
    return None


def is_valid(s: Iterable[int]) -> bool:
    """True iff extension moves reach s from (1, 1, 1) or (-1, -1, -1)."""
    return invalid_reason(s) is None


def _require_valid(s: Iterable[int]) -> SignSequence:
    """s as a tuple; the one ValueError of every caller that needs a valid s."""
    t = _validate(s)
    if _invalid_reason(t) is not None:
        raise ValueError(f"{t} is not a valid sign sequence")
    return t


# The contraction rule of reduction_history and _labels: contract at the
# leftmost equal pair (p, p + 1), cyclically, whose result is valid.  Three
# lemmas let both kernels skip the sum, the ends and the wrapped pair; a
# fourth, Lemma R', lets the class ladder skip most extensions.
#
# Lemma B: every valid sum is a multiple of 3, since the bases sum to +-3 and
# an extension moves the sum by +-3.  A sequence whose only equal pair is the
# wrapped one alternates inside and has odd length, so it sums to +-1 and is
# invalid: once the sum passes, an inner equal pair exists.
#
# Lemma C: the paper's table of achievable sums at length m steps by 6 from
# m, m - 4 or m - 2 (as m = 0, 1 or 2 mod 3) down to its negative: every
# multiple of 3 in [-m, m] with the parity of m.  Each sum s of m signs has
# |s| <= m and that parity, so a +-1 sequence is valid exactly when it has
# an equal pair and 3 divides s.  A contraction (a, a) -> -a moves the sum by
# -3a, so every contraction of a valid sequence keeps a sum that 3 divides,
# and its result is valid exactly when it still has an equal pair.
#
# Lemma A: if contracting the wrapped pair (a, a) of t (L >= 4) gives a valid
# sequence, so does an inner pair, so the wrapped pair is never the leftmost.
# Like the shorter sequence, t has a sum divisible by 3, so by Lemma C an
# inner contraction is valid when it leaves an equal pair.  An a-pair at
# 2 <= p <= L - 2 keeps a_L = a_1 adjacent.  Else a_2 = a (so a_3 = -a) or
# a_{L-1} = a (so a_{L-2} = -a), and contracting there leaves (-a, -a) at an
# end.  Else every other a is isolated.  t does not alternate inside (its
# sum would be a, and s - 3a = -2a would break Lemma B), so it has an inner
# (-a, -a) pair, which lies in 2 <= p <= L - 2 and keeps a_L = a_1 adjacent.
#
# Lemma R': every class at length n >= 4 has a member ext(p, i), with p the
# canonical form of a class at length n - 1, whose new pair is the first or the
# last pair of a longest cyclic run; so the ladder extends each parent only
# there (see _longest_run).  Take a member c of the class and a longest run of
# c; a valid c has an equal pair, so the run holds a pair.  If c is constant,
# take any pair pi: contracting it leaves n - 2 >= 2 equal entries.  Else take
# the run's first pair pi = (a, a): contracting it puts -a next to the run
# before, whose sign is -a.  Either way an equal pair is left, so by Lemma C the
# result is valid.  Rotate c so that pi does not wrap.  q = contract(c, pi) is
# valid, so its class is at length n - 1, with canonical form p = sigma(q) for a
# rotation, reversal or inversion sigma.  Extension commutes with these moves,
# and they keep every run and its length, a reversal turning a first pair into
# a last one: if sigma takes pi's merged entry to position i, ext(p, i) is the
# image of c under the same move, and its new pair, the image of pi, is the
# first or the last pair of a longest run; a constant ext(p, i) has a parent
# with a single entry of the other sign.  _grow's count check, exactly H(n)
# classes, still checks every level.


def reduction_history(s: Iterable[int]) -> list[int]:
    """Extension positions that replay from (1, 1, 1) to an orbit member of s.

    Contracts s down to the length-3 base by the leftmost valid contraction
    (never at the wrapped pair; see the lemmas above), then replays upwards:
    each step takes the first extension position whose result is a rotation
    of the next chain entry.  A chain that lands on (-1, -1, -1) is replayed
    from there against itself, which picks the same positions as inverting
    the whole chain.

    The sequence is kept as a '+'/'-' string, so a validity check is a
    search for an equal pair (Lemmas B and C) and a rotation test is a
    substring search in the doubled target.
    """
    cur = "".join("+" if a == 1 else "-" for a in _require_valid(s))
    chain = [cur]
    while len(cur) > 3:
        for p in range(1, len(cur)):  # never the wrapped pair (Lemma A)
            a = cur[p - 1]
            if a != cur[p]:
                continue
            # the pair (a, a) becomes one -a, with an achievable sum (Lemma C)
            shorter = cur[: p - 1] + ("-" if a == "+" else "+") + cur[p + 1 :]
            if "++" in shorter or "--" in shorter:  # the ends need no test (Lemma B)
                cur = shorter
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
    printable: bool
    labels: Optional[tuple[int, ...]] = None


# ---------------------------------------------------------------------------
# Class ladder.  Sequences are packed into bitmasks (a_1 at the MSB, bit 1 =
# +1), so a class's canonical form is its largest orbit mask with
# non-negative sum.  Rotating left by r in sequence terms is a left
# bit-rotation; reversal is a bit reversal; inversion is complement.  For
# the word of each level and of every kernel, see _word.
#
# A sequence is valid exactly when extension moves reach it from (1, 1, 1),
# and extension commutes with the orbit operations, so level n holds the
# canonical forms of the one-position extensions of level n - 1; by Lemma R',
# of those whose new pair is the first or the last pair of a longest cyclic run.

MAX_N = 64  # the mask width: the one ceiling of every level kernel
# per temporary array of _grow and of each kernel class_rows runs; it also sizes
# _orbit_max's chunks, whose temporaries of _BLOCK_BYTES // 64 masks stay in cache
_BLOCK_BYTES = 1 << 21


def _word(n: int) -> type[np.unsignedinteger]:
    """The narrowest unsigned word that holds n bits: uint32 up to n = 32, uint64 above.

    Each level is kept in the word of its n, which halves the bytes a kernel streams up to
    n = 32.  Kernels keep their input's word: Python int scalars take it (NEP 50) where a
    numpy scalar of another width would widen it.  A level is widened only to grow n = 33.
    """
    return np.uint32 if n <= 32 else np.uint64


_LADDER: dict[int, np.ndarray] = {3: np.array([0b111], dtype=_word(3))}
_LADDER[3].flags.writeable = False


def _bitrev(x: np.ndarray, n: int) -> np.ndarray:
    """Each n-bit mask reversed, in the word of x.

    Three mask-and-shift swaps reverse the bits within each byte and a
    byte swap reverses the byte order.  Both act on the values, so the
    result is the same on either endianness.
    """
    bits = 8 * x.itemsize
    bytes_one = ((1 << bits) - 1) // 0xFF  # 0x0101...01
    v = x
    for shift, byte in ((1, 0x55), (2, 0x33), (4, 0x0F)):
        m = byte * bytes_one
        v = ((v >> shift) & m) | ((v & m) << shift)
    v.byteswap(inplace=True)
    v >>= bits - n
    return v


def _sorted_unique(x: np.ndarray, kind: Optional[str] = None) -> np.ndarray:
    """Ascending distinct values; np.unique's hashing is far slower than a sort here.

    A contiguous x is sorted in place, so a read-only one raises ValueError.
    """
    x = x.ravel()
    x.sort(kind=kind)
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _orbit_max(x: np.ndarray, n: int) -> np.ndarray:
    """Largest rotation of each mask or of its reversal, by chunks of rows.

    The window passes stream their temporaries about 4n times, so each
    chunk is sized to keep them in cache: _BLOCK_BYTES // 64 rows.
    """
    chunk = max(1, _BLOCK_BYTES // 64)
    best = np.empty(len(x), dtype=x.dtype)
    for start in range(0, len(x), chunk):
        best[start : start + chunk] = _window_max(x[start : start + chunk], n)
    return best


def _window_max(x: np.ndarray, n: int) -> np.ndarray:
    """Largest rotation of each mask or of its reversal, in the word of x.

    A window word of b bits holds one rotation in its top n bits and the
    next b - n bits of the cycle below them, so each left shift by
    s < b + 1 - n puts one more rotation on top.  The bits below never
    decide a maximum.  One window covers every rotation up to n = b / 2;
    above that a new window starts every b + 1 - n rotations.
    """
    bits = 8 * x.itemsize
    span = bits + 1 - n  # rotations per window
    best = np.zeros_like(x)
    window = np.empty_like(x)
    shifted = np.empty_like(x)
    for v in (x, _bitrev(x, n)):
        for start in range(0, n, span):
            # the cycle from rotation start, repeated down the word
            np.left_shift(v, bits - n + start, out=window)
            if start:
                np.right_shift(v, n - start, out=shifted)
                shifted <<= bits - n
                window |= shifted
            period = n
            while period < bits:
                np.right_shift(window, period, out=shifted)
                window |= shifted
                period *= 2
            np.maximum(best, window, out=best)
            for s in range(1, min(span, n - start)):
                np.left_shift(window, s, out=shifted)
                np.maximum(best, shifted, out=best)
    best >>= bits - n
    return best


def _extensions(x: np.ndarray, length: int) -> np.ndarray:
    """Each length-L mask extended at positions 1..L, as the rows of a (L, masks) array.

    The rows take x's word, and L must be below its bit width: position 1 sets bit L.
    """
    bits = 1 << np.arange(length - 1, -1, -1, dtype=x.dtype)[:, None]  # row k - 1: bit b = L - k
    # adding x's bits above b lifts them one place and leaves entry a at b, below a 0; adding
    # 1 at b then leaves (a, -a) at (b + 1, b), and flipping b + 1 leaves (-a, -a)
    out = x & -(bits << 1)
    out += x
    out += bits
    out ^= bits << 1
    return out


def _longest_run(parent: np.ndarray, length: int) -> np.ndarray:
    """Which extensions of each canonical parent put their new pair at an end of a longest run.

    Row i - 1 of the (L, parents) bool result tests ext(p, i), whose new
    pair (-a, -a) replaces a = a_i (Lemma R').  Its run r is the pair plus each
    neighbouring run of sign -a.  The child's other runs are the parent's
    runs, less those r takes in, which are shorter than r, and less the run
    through i, which splits into two pieces.  So r is a longest run when it
    is at least the parent's longest run, or, if i lies in the only longest
    run, at least the second longest and both pieces.  The pair is first or
    last in r unless a_i is a run of its own, with -a on both sides; that
    child is kept only when it is constant, from a parent with a single -1.
    A constant parent's pieces meet round the wrap, L - 1 long, so only
    L = 3 keeps any.

    A canonical parent that is not constant has a_L != a_1 (the largest
    rotation starts a run of ones), so no run wraps: a carry from bit L - i + 1
    up counts the equal pairs left of i, and one in the reversed word the
    pairs right of it.  Every count is at most 2L + 3, which uint8 holds.
    """
    full = (1 << length) - 1
    equal = parent ^ _rotl(parent, length)
    equal ^= full  # bit L - i: a_i == a_{i+1}, with a_{L+1} = a_1
    # row i - 1 carries from bit L - i + 1: in the word, through the equal pairs left of
    # position i; in the reversal lifted a place, through those right of position L + 1 - i
    pairs = np.array([equal, _bitrev(equal, length + 1)])
    carry = pairs + ((1 << length) >> np.arange(length, dtype=parent.dtype)[:, None, None])
    carry ^= pairs  # one bit for each pair the carry ran through, and one where it stopped
    counts = np.bitwise_count(carry)
    del carry  # so that the uint8 rows below can reuse its memory
    counts -= 1
    left, right = counts[:, 0], counts[::-1, 1]  # equal pairs left and right of position i
    # the run through each position, between copies of the last and first rows
    ring = np.empty((length + 2, len(parent)), dtype=np.uint8)
    run = ring[1:-1]
    np.add(left, right, out=run)
    run += 1
    ring[0] = run[-1]
    ring[-1] = run[0]
    longest = run.max(axis=0)
    only = run == longest
    only &= only.sum(axis=0, dtype=np.uint8) == longest  # in the only longest run
    second = (run * (run < longest)).max(axis=0)
    # r: the run before joins where i starts its run, and the run after where i ends it
    r = ring[:-2] * (left == 0)
    r += ring[2:] * (right == 0)
    r += 2
    bound = np.maximum(left, right)
    np.maximum(bound, second, out=bound)
    only &= r >= bound  # bound < longest, so r >= longest covers the rest
    keep = r >= longest
    keep |= only
    at_end = np.logical_or(left, right)  # else a_i is alone and the pair lies inside r
    at_end |= np.bitwise_count(parent) == length - 1  # or the child is constant
    keep &= at_end
    keep[:, equal == full] = length <= 3  # constant parents, whose carries may also wrap
    return keep


def _canonical_extensions(parent: np.ndarray, n: int) -> np.ndarray:
    """Ascending distinct canonical forms of the extensions _longest_run keeps, in _word(n)."""
    mask = (1 << n) - 1
    parent = parent.astype(_word(n), copy=False)
    keep = _longest_run(parent, n - 1)
    x = _sorted_unique(_extensions(parent, n - 1)[keep])
    # canonical forms have non-negative sum: complement negative sums, and
    # let a zero sum also try its complement; uint8 holds twice up to 64 ones
    twice_ones = np.bitwise_count(x) << 1
    np.bitwise_xor(x, mask, out=x, where=twice_ones < n)
    zero = twice_ones == n
    # one orbit pass over the candidates and the complements of the zero-sum ones
    both = _orbit_max(np.concatenate([x, x[zero] ^ mask]), n)
    best = both[: len(x)]
    best[zero] = np.maximum(best[zero], both[len(x) :])
    return _sorted_unique(best)


def _grow(parent: np.ndarray, n: int) -> np.ndarray:
    """Level n from the whole of level n - 1, canonicalized one block of parents at a time.

    The level fills one buffer of exactly H(n) = counting.hexaflexagon_count(n)
    masks: each block's canonical forms are merged with the sorted prefix,
    the forms found twice dropped, and the result written back; the full
    buffer is then reversed in place.  A level that overfills or underfills
    the buffer raises ArithmeticError, the ladder's one count check.
    """
    block = max(1, _BLOCK_BYTES // (8 * (n - 1)))
    level = np.empty(hexaflexagon_count(n), dtype=_word(n))
    size = 0
    for start in range(0, len(parent), block):
        new = _canonical_extensions(parent[start : start + block], n)
        if size:  # two sorted runs, which a stable sort merges; drop the forms found twice
            new = _sorted_unique(np.concatenate([level[:size], new]), kind="stable")
        if len(new) > len(level):
            raise ArithmeticError(f"more than H({n}) = {len(level)} classes grown at n={n}")
        level[: len(new)] = new
        size = len(new)
    if size < len(level):
        raise ArithmeticError(f"{size} classes grown at n={n}, but H({n}) = {len(level)}")
    half = size // 2  # reversed in place, through a copy of the first half
    head = level[:half].copy()
    level[:half] = level[::-1][:half]
    level[size - half :] = head[::-1]
    level.flags.writeable = False
    return level


def canonical_masks(n: int) -> np.ndarray:
    """Canonical bitmasks of every class at length n, descending (= canonical order).

    Levels are grown once and kept, each from the whole level below, in
    bounded blocks of parents, into one buffer of exactly H(n) masks (see
    _grow).  A level that _grow finds with any other count raises
    ArithmeticError and is not kept.
    """
    n = check_size(n, MAX_N, "the class ladder")
    grown = n
    while grown not in _LADDER:
        grown -= 1
    for level in range(grown + 1, n + 1):
        _LADDER.setdefault(level, _grow(_LADDER[level - 1], level))
    return _LADDER[n]


def signs_from_mask(m: int, n: int) -> SignSequence:
    return tuple(1 if (m >> (n - i)) & 1 else -1 for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Labels of a whole level.  _labels replays the rule of reduction_history and
# inserts each label as build_pattern does, in one pass over the ladder's masks:
# position p of a length-L mask sits at bit L - p, so the leftmost valid
# position is the highest valid bit.  Masks keep their word (see _word).
# Label indices are kept label-major, (n, rows): one contiguous pass per insertion.


def _rotl(x: np.ndarray, length: int, r: int | np.ndarray = 1) -> np.ndarray:
    """Length-L masks rotated left by 0 <= r < L, in x's word; an (R, 1) column r gives R rows."""
    return ((x << r) | (x >> (length - r))) & ((1 << length) - 1)


def _contract(x: np.ndarray, length: int) -> np.ndarray:
    """Each length-L mask contracted at its leftmost equal pair whose result is valid."""
    # bit j: positions L - j and L - j + 1 (cyclically) hold equal signs
    equal = ~(x ^ _rotl(x, length)) & ((1 << length) - 1)
    # a sum that is a multiple of 3 stays one, so it stays achievable (Lemma C):
    # the shorter sequence is valid unless it has no equal pair, when the equal
    # pairs are exactly three consecutive ones and the middle one is contracted
    middle = equal & _rotl(equal, length) & _rotl(equal, length, length - 1)
    valid = equal & ~np.where(np.bitwise_count(equal) == 3, middle, 0)
    if not valid.all():
        raise ValueError(f"no valid contraction of a length-{length} mask")
    top = valid
    for shift in (1, 2, 4, 8, 16, 32)[: (length - 1).bit_length()]:
        top |= top >> shift
    j = np.bitwise_count(top).astype(x.dtype) - 1  # the highest valid bit
    merged = ((x >> j) & 1) ^ 1  # the pair (a, a) becomes one -a
    # the pair at bits (j, j - 1) merges in place; j > 0 by Lemma A
    return (x >> (j + 1)) << j | merged << (j - 1) | x & ((1 << (j - 1)) - 1)


def _labels(masks: np.ndarray, n: int) -> np.ndarray:
    """build_pattern(reduction_history(signs)).labels of each length-n mask, as int8 (rows, n).

    Every row is contracted down to length 3 together, never at the wrapped
    pair (see the lemmas above reduction_history); the replay then
    compares all L extensions of each row with the L + 1 rotations of its
    next chain entry and takes the first match, all in the word of n (see _word).
    The step i that it takes puts label L + 1 at index i - 1 and moves every
    label at or after that index one to the right, as build_pattern does; one
    flat scatter then inverts every row at once.
    """
    # int8 holds every label and its index, each <= n
    n = check_size(n, min(MAX_N, np.iinfo(np.int8).max), "the label kernel")
    chain = [np.asarray(masks).astype(_word(n), copy=False)]
    # contractions move a sum by 3, so one check here covers every length (Lemma C)
    if ((2 * np.bitwise_count(chain[0]).astype(np.int64) - n) % 3).any():
        raise ValueError(f"a length-{n} mask has a sum that is not a multiple of 3")
    for length in range(n, 3, -1):
        chain.append(_contract(chain[-1], length))
    cur = chain.pop()
    columns = np.arange(len(cur))
    at = np.empty((n, len(cur)), dtype=np.int8)  # at[k]: the index of label k + 1 in each row
    at[:3] = np.arange(3, dtype=np.int8)[:, None]
    for length in range(3, n):
        target = chain.pop()
        grown = _extensions(cur, length)
        match = grown == target
        hit = np.empty_like(match)
        rotations = np.arange(1, length + 1, dtype=cur.dtype)[:, None]
        for rotation in _rotl(target, length + 1, rotations):
            match |= np.equal(grown, rotation, out=hit)
        # row k weighs L - k, so the first match weighs most: unlike argmax(axis=0), a max
        # down the rows runs a row at a time, not a strided scan of each column
        weights = np.arange(length, 0, -1, dtype=np.uint8)[:, None]
        best = np.multiply(match.view(np.uint8), weights, out=hit.view(np.uint8)).max(axis=0)
        if not best.all():
            raise ValueError(f"no extension matches its chain entry at length {length + 1}")
        np.subtract(length, best, out=at[length])  # the step L + 1 - best puts its label here
        at[:length] += at[:length] >= at[length]
        cur = grown[at[length], columns]  # extension i is row i - 1, as its label's index
        del grown, match, hit  # not held through the next length or the scatter's int64 index
    labels = np.empty((len(cur), n), dtype=np.int8)
    labels.ravel()[at.T + np.arange(0, at.size, n)[:, None]] = np.arange(1, n + 1, dtype=np.int8)
    return labels


def class_rows(
    n: int, *, labels: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """(masks, sums, printable flags, face labels or None) of each block of level n.

    The masks are canonical_masks(n), the ladder's, so every row is a class.
    The flags are geometry.bulk_printable's and the labels, an int8 (rows, n)
    array, are build_pattern(reduction_history(signs)).labels of each row,
    from one replay of the block (_labels).
    This is the one place that cuts a level for the row kernels (_grow and
    _orbit_max cut their own blocks), each block sized by the largest per-row
    temporary of those kernels: the walk's int32 keys, 4n - 1 per row.
    """
    from . import geometry  # geometry imports this module

    n = check_size(n, MAX_N, "the class ladder")
    masks = canonical_masks(n)
    block = max(1, _BLOCK_BYTES // (4 * (4 * n - 1)))
    for start in range(0, len(masks), block):
        chunk = masks[start : start + block]
        sums = 2 * np.bitwise_count(chunk).astype(np.int64) - n
        faces = _labels(chunk, n) if labels else None
        yield chunk, sums, geometry.bulk_printable(chunk, n), faces


_SIGN_BYTES = np.frombuffer(b"-+", dtype=np.uint8)


def _text_table(template: str, values: range) -> np.ndarray:
    """template.format(v) of each value as ASCII bytes, padded with NUL to one width."""
    return np.array([template.format(v).encode() for v in values], dtype=bytes)


def _fixed(text: str) -> np.ndarray:
    """text as one row of bytes, the same on every line."""
    return np.frombuffer(text.encode(), dtype=np.uint8)[None, :]


def class_jsonl(n: int, *, labels: bool = False) -> Iterator[str]:
    """The JSON line of each class at length n, one string per block of class_rows(n).

    Each line is json.dumps of {"n", "signs", "sum", "printable"} and, with
    labels, "labels".  A block's lines are rows of one byte array, each field
    a fixed-width run of columns taken from a table padded with NUL; one
    translate drops the NULs.
    """
    n = check_size(n, MAX_N, "the class ladder")
    shifts = np.arange(n - 1, -1, -1, dtype=_word(n))
    sum_text = _text_table("{}", range(-n, n + 1))  # indexed by the sum plus n
    flag_text = np.array([b"false", b"true"])
    label_text = _text_table("{}, ", range(n + 1))  # indexed by the label
    last_text = _text_table("{}]}}\n", range(n + 1))
    for chunk, sums, flags, faces in class_rows(n, labels=labels):
        fields = [
            _fixed(f'{{"n": {n}, "signs": "'),
            _SIGN_BYTES.take((chunk[:, None] >> shifts) & 1),
            _fixed('", "sum": '),
            sum_text.take(sums[:, None] + n),
            _fixed(', "printable": '),
            flag_text.take(flags.view(np.uint8)[:, None]),
        ]
        if faces is None:
            fields.append(_fixed("}\n"))
        else:
            fields += [
                _fixed(', "labels": ['),
                label_text.take(faces[:, :-1]),
                last_text.take(faces[:, -1:]),
            ]
        # one chain, so each copy of the block is freed as the next is made
        yield np.concatenate(
            [np.broadcast_to(f, (len(chunk), f.shape[1])).view(np.uint8) for f in fields], axis=1
        ).tobytes().translate(None, b"\0").decode("ascii")
        del fields  # before class_rows builds the next block


def check_size(n: int, limit: int, what: str) -> int:
    """The one size guard of every level kernel and command: 3 <= n <= limit <= MAX_N.

    Returns n as a Python int, which callers compute with in place of n: in a narrow
    numpy integer type the kernels' arithmetic would overflow or wrap silently.
    """
    n = operator.index(n)  # a TypeError for a non-integral n, which no level is grown to
    if n < 3:
        raise ValueError(f"{what} needs n >= 3, got {n}")
    if limit > MAX_N:
        raise ValueError(f"limit {limit} exceeds the largest supported n {MAX_N}")
    if n > limit:
        raise ValueError(f"n={n} exceeds the {what} limit {limit}")
    return n


def enumerate_classes(
    n: int, *, labels: bool = False, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[ClassRecord]:
    """Every equivalence class at length n, canonically sorted.

    The classes come from class_rows(n), so from the extension ladder, which
    grows exactly counting.hexaflexagon_count(n) of them or raises ArithmeticError.
    """
    n = check_size(n, limit, "enumeration")
    records = []
    for chunk, sums, flags, faces in class_rows(n, labels=labels):
        rows = repeat(None) if faces is None else map(tuple, faces.tolist())
        records += (
            ClassRecord(n, signs_from_mask(m, n), total, flag, row)
            for m, total, flag, row in zip(chunk.tolist(), sums.tolist(), flags.tolist(), rows)
        )
    return records
