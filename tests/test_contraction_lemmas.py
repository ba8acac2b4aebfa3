"""The lemmas that keep the contraction kernels off the wrapped pair and the sum,
and the one that lets the class ladder extend each parent only in a longest run.

The lemmas and their proofs sit above sequences.reduction_history.  Lemmas A,
C and R are checked here from the definition of validity, reachability by
extension moves from '+++' or its inversion '---', with no code of the
package; Lemma C also against the paper's table of achievable sums.
sequences.invalid_reason, the package's one validity rule, is checked
against the same reachability, and sequences._longest_run, Lemma R's test in
the ladder, against the tuple oracle verify.naive_longest_run_positions.
"""

from functools import lru_cache

import numpy as np

from hexaflex import sequences
from hexaflex.sequences import (
    canonical_masks,
    canonicalize,
    invalid_reason,
    signs_from_mask,
)
from hexaflex.verify import naive_longest_run_positions

from reference_table import paper_sum_set
from support import grown_to, to_mask

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
        threes = tuple(v for v in range(-m, m + 1) if v % 3 == 0 and (v - m) % 2 == 0)
        assert paper_sum_set(m) == threes


def test_invalid_reason_is_none_exactly_for_the_reachable_strings():
    reachable = _reachable(12)
    for length in range(3, 13):
        for bits in range(1 << length):
            t = format(bits, f"0{length}b").replace("1", "+").replace("0", "-")
            signs = tuple(1 if c == "+" else -1 for c in t)
            assert (invalid_reason(signs) is None) == (t in reachable), t


def _longest_runs(t: str) -> set[int]:
    """The indices of t that lie in a longest cyclic run."""
    if len(set(t)) == 1:
        return set(range(len(t)))
    lengths = {}
    for k in range(len(t)):
        if t[k] != t[k - 1]:  # a run starts at k
            end = k + 1
            while t[end % len(t)] == t[k]:
                end += 1
            lengths.update((j % len(t), end - k) for j in range(k, end))
    return {k for k, length in lengths.items() if length == max(lengths.values())}


def test_a_longest_run_holds_a_valid_contraction():
    # Lemma R from the definition: every valid string of length 4..14 has an equal pair
    # (p, p + 1) inside a longest cyclic run whose contraction is valid
    valid = _reachable(14)
    for length in range(4, 15):
        for bits in range(1 << length):
            t = format(bits, f"0{length}b").replace("1", "+").replace("0", "-")
            if t not in valid:
                continue
            longest = _longest_runs(t)
            shorter = [
                t[:p] + _FLIP[t[p]] + t[p + 2 :] if p < length - 1 else _FLIP[t[0]] + t[1:-1]
                for p in range(length)
                if {p, (p + 1) % length} <= longest and t[p] == t[(p + 1) % length]
            ]
            assert any(u in valid for u in shorter), t


def _assert_filter_matches_oracle(parents: list[tuple[int, ...]], word: type) -> None:
    length = len(parents[0])
    keep = sequences._longest_run(np.array([to_mask(p) for p in parents], dtype=word), length)
    assert keep.shape == (length, len(parents))
    for column, parent in zip(keep.T.tolist(), parents):
        kept = [i for i in range(1, length + 1) if column[i - 1]]
        assert kept == naive_longest_run_positions(parent), parent


def test_longest_run_filter_matches_the_tuple_oracle():
    # every parent of levels 3..15, in the ladder's word for them and in uint64
    for length in range(3, 16):
        parents = [signs_from_mask(m, length) for m in canonical_masks(length).tolist()]
        for word in (np.uint32, np.uint64):
            _assert_filter_matches_oracle(parents, word)


def test_longest_run_filter_on_constant_and_full_width_parents():
    # a constant parent's pieces meet round the wrap, L - 1 long: only L = 3 keeps any
    for length, kept in ((3, [1, 2, 3]), (6, []), (9, [])):
        assert naive_longest_run_positions((1,) * length) == kept
        _assert_filter_matches_oracle([(1,) * length], np.uint32)
    # L = 63, the widest parent the ladder extends: a run of 60 beside one of 3, two runs
    # of 33 and 30, the constant parent, and a parent grown by seeded extensions
    grown = grown_to(63, np.random.default_rng(3))
    parents = [(1,) * 60 + (-1,) * 3, (1,) * 33 + (-1,) * 30, (1,) * 63, grown]
    _assert_filter_matches_oracle([canonicalize(p) for p in parents], np.uint64)
