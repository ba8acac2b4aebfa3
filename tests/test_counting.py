import math
from fractions import Fraction

import numpy as np
import pytest

from hexaflex.counting import (
    _bracelet_even_even_printed,
    binomial,
    bracelet_count,
    hexaflexagon_count,
    lyndon_count,
    moebius,
    necklace_count,
    self_conjugate_count,
    totient,
)
from hexaflex.verify import brute_self_conjugate_count

from reference_table import paper_sum_set


def test_totient_small():
    assert [totient(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    with pytest.raises(ValueError):
        totient(0)


def test_moebius_small():
    assert [moebius(m) for m in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        moebius(0)


def test_binomial_boundaries():
    assert binomial(6, 3) == 20
    assert binomial(5, 0) == 1
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_necklace_examples():
    assert necklace_count(6, 3) == 4
    assert necklace_count(6, 0) == 1
    assert necklace_count(1, 0) == 1
    with pytest.raises(ValueError):
        necklace_count(6, 7)
    with pytest.raises(ValueError, match="need n >= 1, got n=0"):
        necklace_count(0, 0)


def test_necklace_symmetry_and_totality():
    for n in range(1, 17):
        for k in range(n + 1):
            assert necklace_count(n, k) == necklace_count(n, n - k)
        total = sum(necklace_count(n, k) for k in range(n + 1))
        burnside = sum(
            totient(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0
        )
        assert total * n == burnside


def test_bracelet_examples():
    assert bracelet_count(6, 3) == 3
    assert bracelet_count(4, 2) == 2
    assert bracelet_count(7, 5) == 3


def test_bracelet_symmetry():
    for n in range(1, 17):
        for k in range(n + 1):
            assert bracelet_count(n, k) == bracelet_count(n, n - k)


def test_even_even_variant_not_integral():
    assert _bracelet_even_even_printed(4, 2) == Fraction(3, 2)
    assert _bracelet_even_even_printed(4, 2) != bracelet_count(4, 2)


def test_lyndon_examples():
    assert lyndon_count(6, 3) == 3
    assert lyndon_count(3, 3) == 0
    assert lyndon_count(1, 0) == 1
    assert lyndon_count(4, 0) == 0


def test_self_conjugate_examples():
    assert self_conjugate_count(4) == 2
    assert self_conjugate_count(6) == 3
    assert self_conjugate_count(8) == 6
    for n in range(2, 15, 2):
        assert self_conjugate_count(n) == brute_self_conjugate_count(n)
    with pytest.raises(ValueError):
        self_conjugate_count(5)
    with pytest.raises(ValueError, match="needs even n, got 5"):
        brute_self_conjugate_count(5)


def _composition_self_conjugate_count(n):
    # the composition form: k block-size parts interleaved with their
    # complements, grouped by the divisor l of gcd(n/2, k)
    half = n // 2
    total = 0
    for k in range(1, half + 1):
        g = math.gcd(half, k)
        for l in (d for d in range(1, g + 1) if g % d == 0):
            total += lyndon_count(n // (2 * l), k // l) * ((k + 2 * l - 1) // (2 * l))
    return total


def test_self_conjugate_burnside_matches_composition_form():
    for n in range(2, 201, 2):
        assert self_conjugate_count(n) == _composition_self_conjugate_count(n), n


def test_sum_set_branches():
    assert paper_sum_set(3) == (-3, 3)
    assert paper_sum_set(4) == (0,)
    assert paper_sum_set(6) == (-6, 0, 6)
    assert paper_sum_set(7) == (-3, 3)
    assert paper_sum_set(8) == (-6, 0, 6)
    assert paper_sum_set(12) == (-12, -6, 0, 6, 12)
    with pytest.raises(ValueError):
        paper_sum_set(2)


def _layered_hexaflexagon_count(n):
    # the paper's form: bracelets with (n + s) / 2 ones over the achievable
    # sums s >= 0; the zero-sum layer of even n is corrected by the
    # self-conjugate count and loses the unreachable alternating class
    layers = sum(bracelet_count(n, (n + s) // 2) for s in paper_sum_set(n) if s >= 0)
    if n % 2:
        return layers
    balanced = bracelet_count(n, n // 2)
    q, r = divmod(self_conjugate_count(n) - balanced, 2)
    assert r == 0, n
    return q - 1 + layers


def test_burnside_count_matches_layered_form():
    for n in range(3, 401):
        assert hexaflexagon_count(n) == _layered_hexaflexagon_count(n), n


def test_hexaflexagon_count_table():
    with pytest.raises(ValueError):
        hexaflexagon_count(2)


def test_exactness_up_to_64():
    # every internal division must come out exact; any failure raises
    for n in range(1, 65):
        for k in range(n + 1):
            necklace_count(n, k)
            bracelet_count(n, k)
            lyndon_count(n, k)
        if n >= 2 and n % 2 == 0:
            self_conjugate_count(n)
        if n >= 3:
            hexaflexagon_count(n)


def test_gcd_zero_convention():
    # gcd(n, 0) = n makes the k = 0 column a single class
    for n in range(1, 20):
        assert necklace_count(n, 0) == 1
        assert math.gcd(n, 0) == n


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
def test_closed_forms_exact_for_numpy_integers(kind):
    # a numpy argument must neither overflow nor leak into the result
    for n in range(3, 81):
        value = hexaflexagon_count(kind(n))
        assert type(value) is int and value == hexaflexagon_count(n)
        if n % 2 == 0:
            value = self_conjugate_count(kind(n))
            assert type(value) is int and value == self_conjugate_count(n)
        for one in (totient, moebius):
            assert type(one(kind(n))) is int and one(kind(n)) == one(n)
        for k in range(0, n + 1, 5):
            for count in (necklace_count, bracelet_count, lyndon_count):
                value = count(kind(n), kind(k))
                assert type(value) is int and value == count(n, k), (count.__name__, n, k)


def test_closed_forms_reject_bools():
    # True would count as 1, as in necklace_count(True, False) == 1; the sign gates refuse bools too
    for one in (totient, moebius, self_conjugate_count, hexaflexagon_count):
        with pytest.raises(ValueError, match="bool"):
            one(True)
    for count in (necklace_count, bracelet_count, lyndon_count, _bracelet_even_even_printed):
        for n, k in ((True, False), (True, 0), (6, True)):
            with pytest.raises(ValueError, match="bool"):
                count(n, k)
