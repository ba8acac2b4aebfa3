"""The three lemmas that keep the contraction kernels off the wrapped pair and the sum.

The lemmas and their proofs sit above sequences.reduction_history.  Lemmas A
and C are checked here from the definition of validity, reachability by
extension moves from '+++' or its inversion '---', with no code of the
package; Lemma C also against the closed form of counting.sum_set.
"""

from functools import lru_cache

from hexaflex.counting import sum_set

_FLIP = {"+": "-", "-": "+"}


@lru_cache(maxsize=None)
def _reachable(max_length: int) -> frozenset[str]:
    """Every '+'/'-' string of length <= max_length that extensions reach from a base."""
    level = {"+++", "---"}
    reached = set(level)
    for _ in range(max_length - 3):
        # an extension turns one entry a into the pair (-a, -a)
        level = {u[:i] + 2 * _FLIP[u[i]] + u[i + 1 :] for u in level for i in range(len(u))}
        reached |= level
    return frozenset(reached)


def test_wrapped_contraction_is_never_the_only_valid_one():
    # Lemma A, for every sign string of length 4..16, valid or not
    valid = _reachable(15)
    for length in range(4, 17):
        for bits in range(1 << length):
            t = format(bits, f"0{length}b").replace("1", "+").replace("0", "-")
            # the wrapped pair (t_L, t_1) contracts to one -a that leads
            if t[-1] != t[0] or _FLIP[t[0]] + t[1:-1] not in valid:
                continue
            assert any(
                t[p] == t[p + 1] and t[:p] + _FLIP[t[p]] + t[p + 2 :] in valid
                for p in range(length - 1)
            ), t


def test_valid_sums_are_multiples_of_three_with_an_inner_pair():
    # Lemma B from the definition: no valid string needs its ends for an equal pair
    for u in _reachable(15):
        assert (u.count("+") - u.count("-")) % 3 == 0, u
        assert "++" in u or "--" in u, u


def test_reachable_strings_are_those_with_an_equal_pair_and_a_sum_of_threes():
    # Lemma C from the definition: validity is an equal cyclic pair plus 3 | sum
    reachable = _reachable(15)
    for length in range(4, 16):
        for bits in range(1 << length):
            t = format(bits, f"0{length}b").replace("1", "+").replace("0", "-")
            paired = "++" in t or "--" in t or t[-1] == t[0]
            threes = (t.count("+") - t.count("-")) % 3 == 0
            assert (t in reachable) == (paired and threes), t


def test_sum_set_is_every_multiple_of_three_with_the_parity_of_m():
    for m in range(3, 301):
        assert sum_set(m) == tuple(v for v in range(-m, m + 1) if v % 3 == 0 and (v - m) % 2 == 0)
