"""Closed-form counting of binary necklaces, bracelets, and hexaflexagon classes.

Everything here is exact integer arithmetic.  Divisor sums over the cyclic
and dihedral group actions give necklace / bracelet / Lyndon counts; as an
achievable sum is any multiple of 3 (Lemma C), the hexaflexagon count is one
such sum over sign strings, corrected for classes fixed by sign inversion.
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


def _index(m: int) -> int:
    """m as a Python int; a bool is refused, as the sign-entry and history-step gates refuse it."""
    if isinstance(m, bool):
        raise ValueError(f"need an integer, not the bool {m}")
    return operator.index(m)


def totient(m: int) -> int:
    """Euler's totient of a positive integer."""
    m = _index(m)
    if m < 1:
        raise ValueError(f"totient is defined for positive integers, got {m}")
    result = m
    for p, _ in _prime_factors(m):
        result -= result // p
    return result


def moebius(m: int) -> int:
    """Moebius function: 0 if m has a squared prime factor, else (-1)^(#primes)."""
    m = _index(m)
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
    divisors = [1]
    for p, e in _prime_factors(m):
        divisors = [d * p**j for d in divisors for j in range(e + 1)]
    return divisors


def _check_args(n: int, k: int) -> tuple[int, int]:
    """(n, k) as Python ints, so a numpy integer cannot overflow or leak into a result."""
    n, k = _index(n), _index(k)
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
    n = _index(n)
    if n < 2 or n % 2:
        raise ValueError(f"self-conjugate classes need even n >= 2, got {n}")
    rotations = sum(totient(d) * 2 ** (n // d) for d in _divisors(n) if d % 2 == 0)
    q, r = divmod(n * 2 ** (n // 2 - 1) + rotations, 2 * n)
    if r:
        raise ArithmeticError(f"self-conjugate sum at n={n} not divisible by 2n")
    return q


def hexaflexagon_count(n: int) -> int:
    """Number of hexaflexagon equivalence classes with n top faces.

    By Lemma C the paper's bracelets over every achievable sum are the T(n)
    bracelets of n signs whose sum 3 divides.  Inversion pairs all but the
    F(n) = self_conjugate_count(n), and even n loses the alternating class,
    so H(n) = (T(n) + F(n)) / 2 - [n even].  In T(n)'s Burnside sum a rotation
    with c cycles fixes 2^c strings if 3 | n/c, else t(c) = (2^c + 2(-1)^c) / 3.
    """
    n = _index(n)
    if n < 3:
        raise ValueError(f"hexaflexagon_count needs n >= 3, got {n}")

    def t3(c: int) -> int:  # 3 t(c); a swapped pair is one sign as 2 = -1 (mod 3)
        return 2**c + 2 * (-1) ** c

    rotations = sum(totient(n // c) * (t3(c) if n // c % 3 else 3 * 2**c) for c in _divisors(n))
    if n % 2:
        reflections, conjugate = n * t3((n + 1) // 2), 0
    else:
        reflections = n // 2 * (t3(n // 2 + 1) + t3(n // 2))
        conjugate = self_conjugate_count(n)
    # rotations + reflections is 3 * 2n * T(n); inversion pairs halve T(n) + F(n)
    q, r = divmod(rotations + reflections + 6 * n * conjugate, 12 * n)
    if r:
        raise ArithmeticError(f"Burnside sum at n={n} not divisible by 12n")
    return q - (n % 2 == 0)
