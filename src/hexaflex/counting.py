"""Closed-form counting of binary necklaces, bracelets, and hexaflexagon classes.

Everything here is exact integer arithmetic.  Divisor sums over the cyclic
and dihedral group actions give necklace / bracelet / Lyndon counts; the
hexaflexagon count combines bracelet counts over the achievable sums with a
correction for zero-sum classes fixed by sign inversion.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = [
    "totient",
    "moebius",
    "binomial",
    "necklace_count",
    "bracelet_count",
    "lyndon_count",
    "self_conjugate_count",
    "sum_set",
    "hexaflexagon_count",
]


def _prime_factors(m: int) -> list[tuple[int, int]]:
    """Distinct prime factors of m with multiplicities, by trial division."""
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    return factors


def totient(m: int) -> int:
    """Euler's totient of a positive integer."""
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"totient is defined for positive integers, got {m}")
    result = m
    for p, _ in _prime_factors(m):
        result -= result // p
    return result


def moebius(m: int) -> int:
    """Moebius function: 0 if m has a squared prime factor, else (-1)^(#primes)."""
    m = operator.index(m)
    if m < 1:
        raise ValueError(f"moebius is defined for positive integers, got {m}")
    factors = _prime_factors(m)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def binomial(a: int, b: int) -> int:
    """C(a, b), zero outside 0 <= b <= a."""
    if a < 0:
        raise ValueError(f"binomial needs a non-negative upper index, got {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _check_args(n: int, k: int) -> tuple[int, int]:
    """(n, k) as Python ints, so a numpy integer cannot overflow or leak into a result."""
    n, k = operator.index(n), operator.index(k)
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k} with n={n}")
    return n, k


def necklace_count(n: int, k: int) -> int:
    """Binary necklaces of length n with k ones (strings up to cyclic shift)."""
    n, k = _check_args(n, k)
    g = math.gcd(n, k)  # gcd(n, 0) == n, so k == 0 works out to 1 necklace
    total = sum(totient(j) * binomial(n // j, k // j) for j in _divisors(g))
    q, r = divmod(total, n)
    if r:
        raise ArithmeticError(f"necklace divisor sum {total} not divisible by n={n}")
    return q


def _reflection_fixed(n: int, k: int) -> int:
    # Average number of arrangements fixed per reflection of the n-gon.
    if n % 2 == 1:
        return binomial((n - 1) // 2, k // 2)
    if k % 2 == 0:
        return binomial(n // 2, k // 2)
    return binomial(n // 2 - 1, (k - 1) // 2)


def bracelet_count(n: int, k: int) -> int:
    """Binary bracelets of length n with k ones (strings up to shift and reversal)."""
    n, k = _check_args(n, k)
    total = necklace_count(n, k) + _reflection_fixed(n, k)
    q, r = divmod(total, 2)
    if r:
        raise ArithmeticError(f"bracelet sum {total} is odd at (n={n}, k={k})")
    return q


def _bracelet_even_even_printed(n: int, k: int) -> Fraction:
    """Non-integral variant of the even/even bracelet branch, kept for verify.

    Replaces the reflection term with C(n/2-1, k/2)/4 + C(n/2, k/2-1)/4, which
    already fails at (4, 2) where it yields 3/2.  Exposed through cmd_verify's
    hidden --paper-bracelet flag to demonstrate why the corrected branch above
    is the one in use.
    """
    n, k = _check_args(n, k)
    if n % 2 or k % 2:
        return Fraction(bracelet_count(n, k))
    half = Fraction(necklace_count(n, k), 2)
    return half + Fraction(binomial(n // 2 - 1, k // 2), 4) + Fraction(
        binomial(n // 2, k // 2 - 1), 4
    )


def lyndon_count(n: int, k: int) -> int:
    """Aperiodic binary necklaces of length n with k ones."""
    n, k = _check_args(n, k)
    g = math.gcd(n, k)
    total = sum(moebius(j) * binomial(n // j, k // j) for j in _divisors(g))
    q, r = divmod(total, n)
    if r:
        raise ArithmeticError(f"Lyndon divisor sum {total} not divisible by n={n}")
    return q


def self_conjugate_count(n: int) -> int:
    """Balanced bracelets of even length n that contain their own inversion.

    Counts dihedral classes with n/2 ones that are fixed by swapping ones and
    zeros: twice the bracelets up to inversion, less the bracelets.  By
    Burnside's lemma that is the mean, over the dihedral group, of the
    strings each symmetry maps to their inversion.  A rotation of order d
    has n/d cycles and maps 2^(n/d) strings to their inversion when d is
    even, none when d is odd; each of the n/2 reflections through edge
    midpoints maps 2^(n/2), and those through vertices none.
    """
    n = operator.index(n)
    if n < 2 or n % 2:
        raise ValueError(f"self-conjugate classes need even n >= 2, got {n}")
    rotations = sum(totient(d) * 2 ** (n // d) for d in _divisors(n) if d % 2 == 0)
    q, r = divmod(n * 2 ** (n // 2 - 1) + rotations, 2 * n)
    if r:
        raise ArithmeticError(f"self-conjugate sum at n={n} not divisible by 2n")
    return q


def sum_set(n: int) -> tuple[int, ...]:
    """Achievable entry sums for valid sign sequences of length n, ascending.

    A step-6 progression whose bounds depend on n mod 3:
    -n..n for n % 3 == 0, (-n+4)..(n-4) for n % 3 == 1, (-n+2)..(n-2) otherwise.
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError(f"sum_set needs n >= 3, got {n}")
    r = n % 3
    if r == 0:
        lo, hi = -n, n
    elif r == 1:
        lo, hi = -n + 4, n - 4
    else:
        lo, hi = -n + 2, n - 2
    return tuple(range(lo, hi + 1, 6))


def hexaflexagon_count(n: int) -> int:
    """Number of hexaflexagon equivalence classes with n top faces.

    Sums the bracelets with (n + s) / 2 ones over the achievable sums s >= 0,
    never 0 for odd n; for even n the zero-sum layer is corrected by the
    self-conjugate count (inversion orbits) and the unreachable alternating
    class is subtracted.
    """
    n = operator.index(n)
    if n < 3:
        raise ValueError(f"hexaflexagon_count needs n >= 3, got {n}")
    layers = sum(bracelet_count(n, (n + s) // 2) for s in sum_set(n) if s >= 0)
    if n % 2:
        return layers
    balanced = bracelet_count(n, n // 2)
    fixed = self_conjugate_count(n)
    q, r = divmod(fixed - balanced, 2)
    if r:
        raise ArithmeticError(f"inversion-orbit parity broken at n={n}")
    return q - 1 + layers
