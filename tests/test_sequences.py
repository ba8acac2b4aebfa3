import random
import sys
import threading
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexaflex import geometry, sequences
from hexaflex.counting import hexaflexagon_count
from hexaflex.labeling import build_pattern
from hexaflex.sequences import (
    canonical_masks,
    canonicalize,
    cyclic_shift,
    enumerate_classes,
    extend,
    invert,
    is_valid,
    reduce,
    reduction_history,
    reverse,
    signs_from_mask,
)
from hexaflex.verify import naive_longest_run_positions, naive_reduction_history

from reference_table import paper_sum_set
from support import grown_to, shuffled, to_mask


@st.composite
def valid_sequences(draw, max_n=12):
    signs = (1, 1, 1)
    for _ in range(draw(st.integers(0, max_n - 3))):
        signs = extend(signs, draw(st.integers(1, len(signs))))
    if draw(st.booleans()):
        signs = invert(signs)
    return cyclic_shift(signs, draw(st.integers(0, len(signs) - 1)))


raw_sequences = st.lists(st.sampled_from([1, -1]), min_size=3, max_size=12).map(tuple)


def test_shift_reverse_invert_examples():
    assert cyclic_shift((1, 1, -1), 1) == (1, -1, 1)
    assert cyclic_shift((1, 1, -1), 0) == (1, 1, -1)
    assert cyclic_shift((1, 1, -1), 4) == (1, -1, 1)
    assert reverse((1, 1, -1)) == (-1, 1, 1)
    assert invert((1, 1, -1)) == (-1, -1, 1)


def test_entry_validation():
    with pytest.raises(ValueError):
        cyclic_shift((1, 1), 1)
    with pytest.raises(ValueError):
        canonicalize((1, 0, 1))


def test_entries_are_integers_and_come_back_as_ints():
    # bool and float entries fail the entry gate, as build_pattern's bool steps do;
    # numpy integers pass and leave no numpy scalar in a result
    calls = {
        "canonicalize": canonicalize,
        "extend": lambda s: extend(s, 1),
        "invalid_reason": sequences.invalid_reason,
        "reduction_history": reduction_history,
        "lay_strip": lambda s: geometry.lay_strip(s).expanded_signs,
    }
    for signs in [(True, True, True), (1.0, 1.0, 1.0)]:
        for name, call in calls.items():
            with pytest.raises(ValueError, match=r"take entries \+1/-1"):
                call(signs)
                pytest.fail(f"{name} took {signs}")
    results = {name: call(np.array([1, 1, 1])) for name, call in calls.items()}
    assert results == {
        "canonicalize": (1, 1, 1),
        "extend": (-1, -1, 1, 1),
        "invalid_reason": None,
        "reduction_history": [],
        "lay_strip": (1,) * 9,
    }
    assert {type(a) for result in results.values() if result for a in result} == {int}


def test_canonicalize_examples():
    assert canonicalize((-1, -1, -1)) == (1, 1, 1)
    assert canonicalize((-1, 1, 1, -1)) == (1, 1, -1, -1)


@given(raw_sequences)
def test_canonicalize_nonnegative_sum_and_idempotent(signs):
    canon = canonicalize(signs)
    assert sum(canon) >= 0
    assert canonicalize(canon) == canon


@given(raw_sequences, st.integers(0, 11), st.booleans(), st.booleans())
def test_canonicalize_constant_on_orbit(signs, offset, rev, inv):
    image = cyclic_shift(signs, offset)
    if rev:
        image = reverse(image)
    if inv:
        image = invert(image)
    assert canonicalize(image) == canonicalize(signs)


def test_extend_examples():
    assert extend((1, 1, 1), 3) == (1, 1, -1, -1)
    assert extend((1, 1, -1, -1), 4) == (1, 1, -1, 1, 1)
    with pytest.raises(ValueError):
        extend((1, 1, 1), 4)


def test_reduce_examples():
    assert reduce((1, 1, -1, -1), 3) == (1, 1, 1)
    assert reduce((1, 1, -1, -1), 1) == (-1, -1, -1)
    with pytest.raises(ValueError):
        reduce((1, 1, -1, -1), 2)  # entries differ
    # wrap-around pair (a_n, a_1)
    assert reduce((1, -1, -1, 1), 4) == (-1, -1, -1)
    for i in (0, 5):
        with pytest.raises(ValueError, match=f"reduce position {i} out of range 1..4"):
            reduce((1, 1, -1, -1), i)


@given(valid_sequences(), st.integers(1, 30))
def test_extend_reduce_roundtrip_and_sum_law(signs, raw_i):
    i = (raw_i - 1) % len(signs) + 1
    grown = extend(signs, i)
    assert reduce(grown, i) == signs
    assert sum(grown) == sum(signs) - 3 * signs[i - 1]


@given(valid_sequences(), st.integers(1, 30))
def test_extension_preserves_validity(signs, raw_i):
    i = (raw_i - 1) % len(signs) + 1
    assert is_valid(signs)
    assert is_valid(extend(signs, i))


def test_is_valid_examples():
    assert is_valid((1, 1, 1))
    assert not is_valid((1, -1, 1, -1, 1, -1))  # alternating
    assert is_valid((1, 1, 1, 1, -1, 1, -1))
    assert not is_valid((1, 1, -1))  # sum 1 not achievable at n=3


def test_sum_set_achievability():
    for n in range(3, 13):
        achieved = {
            sum(signs)
            for signs in product((1, -1), repeat=n)
            if is_valid(signs)
        }
        assert achieved == set(paper_sum_set(n))


def test_reduction_history_examples():
    assert reduction_history((1, 1, 1)) == []
    assert len(reduction_history((1, 1, -1, -1))) == 1
    hist = reduction_history((1, 1, 1, 1, 1, 1))
    assert len(hist) == 3
    replayed = (1, 1, 1)
    for i in hist:
        replayed = extend(replayed, i)
    assert replayed == (1, 1, 1, 1, 1, 1)


def test_reduction_history_rejects_invalid():
    with pytest.raises(ValueError):
        reduction_history((1, -1, 1, -1))


@pytest.mark.parametrize(
    "signs",
    [(1, 1), (1, 1, 0), (1, -1, 1, -1), (1, 1, 1, 1), (-1, -1, -1, -1, -1)],
)
def test_reduction_history_errors_match_naive(signs):
    with pytest.raises(ValueError) as fast:
        reduction_history(signs)
    with pytest.raises(ValueError) as naive:
        naive_reduction_history(signs)
    assert str(fast.value) == str(naive.value)


@pytest.mark.parametrize(
    "caller", [reduction_history, geometry.lay_strip, geometry.is_printable],
    ids=lambda caller: caller.__name__,
)
@pytest.mark.parametrize("signs", [(1, -1, 1, -1), (1, 1, 1, -1)], ids=["alternating", "sum-2"])
def test_invalid_sequences_share_one_gate(caller, signs):
    with pytest.raises(ValueError) as error:
        caller(signs)
    assert str(error.value) == f"{signs} is not a valid sign sequence"


def test_reduction_history_matches_naive_every_class():
    for n in range(3, 19):
        for record in enumerate_classes(n):
            assert reduction_history(record.signs) == naive_reduction_history(record.signs)


def test_reduction_history_matches_naive_on_orbit_members():
    # non-canonical inputs, as `net --signs` passes them, past the n = 18 classes
    rng = random.Random(3)
    for n in range(19, 49):
        for _ in range(4):
            signs = shuffled(grown_to(n, rng), rng, "sri")
            assert reduction_history(signs) == naive_reduction_history(signs)


def _assert_batch_matches_scalar(masks, n):
    # the labels fix the history: label n sits at index (last step - 1)
    labels = sequences._labels(masks, n)
    assert labels.dtype == np.int8 and labels.shape == (len(masks), n)
    for m, batch_labels in zip(masks.tolist(), labels.tolist()):
        history = reduction_history(signs_from_mask(m, n))
        assert tuple(batch_labels) == build_pattern(history).labels


def test_batch_histories_and_labels_match_scalar_every_class():
    for n in range(3, 19):
        _assert_batch_matches_scalar(canonical_masks(n), n)


def test_batch_histories_and_labels_match_scalar_seeded_rows():
    rng = np.random.default_rng(11)
    for n in range(19, 25):
        masks = canonical_masks(n)
        _assert_batch_matches_scalar(masks[np.sort(rng.choice(len(masks), 150, replace=False))], n)


def test_batch_histories_on_orbit_members_up_to_full_width():
    # any valid mask, not only canonical ones, the uint32/uint64 switch after n = 32,
    # and the 64-bit shifts at n = 64; _labels' flat scatter over rows up to 64 wide,
    # with int8 indices up to 63
    rng = random.Random(5)
    for n in (25, 31, 32, 33, 40, 63, 64):
        rows = [shuffled(grown_to(n, rng), rng, "si") for _ in range(20)]
        masks = np.array([to_mask(t) for t in rows], dtype=np.uint64)
        labels = [tuple(row) for row in sequences._labels(masks, n).tolist()]
        assert labels == [build_pattern(naive_reduction_history(t)).labels for t in rows]


def test_contract_takes_leftmost_valid_pair():
    # every mask of length 4..10, valid or not, and masks up to 64 bits whose few
    # equal pairs lie far apart, against the rule of reduction_history
    rng = random.Random(8)
    cases = {n: [signs_from_mask(m, n) for m in range(1 << n)] for n in range(4, 11)}
    for length in (40, 57, 64):
        cases[length] = []
        for _ in range(100):
            signs = [1 if i % 2 else -1 for i in range(length)]
            for i in rng.sample(range(length), 3):
                signs[i] = -signs[i]
            cases[length].append(tuple(signs))
    for length, rows in cases.items():
        contracted = {}
        for signs in rows:
            for p in range(1, length + 1):
                if signs[p - 1] == signs[p % length] and is_valid(reduce(signs, p)):
                    contracted[to_mask(signs)] = to_mask(reduce(signs, p))
                    break
        masks = np.array(list(contracted), dtype=np.uint64)
        # the uint32 copy, as _labels contracts for n <= 32
        for x in [masks] + ([masks.astype(np.uint32)] if length <= 32 else []):
            shorter = sequences._contract(x, length)
            assert shorter.dtype == x.dtype
            assert shorter.tolist() == list(contracted.values())
            # every rotation, as the replay builds them; _OneWord fails any ufunc
            # call of _rotl that leaves the word
            shifts = np.arange(1, length, dtype=x.dtype)[:, None]
            rotated = sequences._rotl(x.view(_OneWord), length, shifts)
            assert rotated.dtype == x.dtype
            members = [signs_from_mask(m, length) for m in x.tolist()]
            expected = [[to_mask(cyclic_shift(t, r)) for t in members] for r in range(1, length)]
            assert rotated.tolist() == expected


def test_batch_histories_reject_invalid_masks_and_sizes():
    with pytest.raises(ValueError):
        sequences._labels(np.array([0b1010], dtype=np.uint64), 4)  # alternating
    with pytest.raises(ValueError):
        sequences._labels(np.array([0b1111], dtype=np.uint64), 4)  # sum 4 is not a multiple of 3
    for n in (2, sequences.MAX_N + 1):
        with pytest.raises(ValueError):
            sequences._labels(np.array([0], dtype=np.uint64), n)


def test_class_rows_one_row_per_block(monkeypatch):
    # every level up to n = 20 is one block at the default budget, so the reference
    # is the whole level: its masks, sums, flags and labels, each from one kernel call
    def levels():
        # each column of a level's blocks, joined
        return [
            [np.concatenate(column) for column in zip(*blocks)]
            for blocks in (sequences.class_rows(n, labels=True) for n in range(3, 17))
        ]

    expected = levels()
    monkeypatch.setattr(sequences, "_BLOCK_BYTES", 1)
    for n, level, want in zip(range(3, 17), levels(), expected, strict=True):
        for column, want_column in zip(level, want, strict=True):
            assert np.array_equal(column, want_column), n


def test_class_rows_printable_matches_whole_level(monkeypatch):
    # class_rows computes the flags block by block; one whole-level call is the reference
    levels = range(3, 17)
    expected = {n: geometry.bulk_printable(canonical_masks(n), n).tolist() for n in levels}
    for block_bytes in (sequences._BLOCK_BYTES, 1):
        monkeypatch.setattr(sequences, "_BLOCK_BYTES", block_bytes)
        for n in levels:
            blocks = sequences.class_rows(n)
            flags = np.concatenate([flags for _, _, flags, _ in blocks]).tolist()
            assert flags == expected[n], (n, block_bytes)


@pytest.mark.parametrize("labels", [False, True])
def test_class_rows_size_guard(labels):
    # uint64 shifts past the mask width would wrap, and n = 0 divided by zero
    for rows in (sequences.class_rows, sequences.class_jsonl):
        for n in (0, 2, sequences.MAX_N + 1):
            with pytest.raises(ValueError):
                list(rows(n, labels=labels))


@given(valid_sequences())
@settings(max_examples=60)
def test_reduction_history_replay_lands_in_orbit(signs):
    replayed = (1, 1, 1)
    for i in reduction_history(signs):
        replayed = extend(replayed, i)
    assert canonicalize(replayed) == canonicalize(signs)


def test_enumerate_classes_n6():
    records = enumerate_classes(6)
    assert [r.signs for r in records] == [
        (1, 1, 1, 1, 1, 1),
        (1, 1, 1, -1, -1, -1),
        (1, 1, -1, 1, -1, -1),
    ]
    assert [r.sum for r in records] == [6, 0, 0]
    assert [r.printable for r in records] == [True, True, True]


def test_ladder_step_at_full_mask_width():
    # one parent of length 63 extended to 64 bits, against the tuple-level canonical forms
    # of the extensions whose new pair is the first or the last pair of a longest run (Lemma R')
    parent = canonicalize(grown_to(63, np.random.default_rng(3)))
    grown = sequences._canonical_extensions(np.array([to_mask(parent)], dtype=np.uint64), 64)
    kept = naive_longest_run_positions(parent)
    expected = {to_mask(canonicalize(extend(parent, i))) for i in kept}
    assert grown.tolist() == sorted(expected)
    assert expected <= {to_mask(canonicalize(extend(parent, i))) for i in range(1, 64)}


class _OneWord(np.ndarray):
    """A mask array whose ufunc calls fail unless every operand and result is in its word.

    Python int operands take the array's word (NEP 50), so they pass; a numpy
    scalar of another width, which would widen the call, does not.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        operands = [a for a in inputs + out if isinstance(a, (np.ndarray, np.generic))]
        assert {a.dtype for a in operands} == {self.dtype}, (ufunc.__name__, operands)
        plain = lambda a: a.view(np.ndarray) if isinstance(a, _OneWord) else a  # noqa: E731
        if out:
            kwargs["out"] = tuple(map(plain, out))
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        assert result.dtype == self.dtype, ufunc.__name__
        return out[0] if out else result.view(_OneWord)


def test_ladder_step_across_the_word_switch():
    # one parent each side of the uint32/uint64 switch, in uint64 and in the word of its
    # length: at n = 33 the one widening, a uint32 parent grown into uint64 forms
    rng = np.random.default_rng(31)
    for n in (31, 32, 33):
        parent = canonicalize(grown_to(n - 1, rng))
        kept = naive_longest_run_positions(parent)  # Lemma R'
        expected = {to_mask(canonicalize(extend(parent, i))) for i in kept}
        for word in (np.uint64, sequences._word(n - 1)):
            grown = sequences._canonical_extensions(np.array([to_mask(parent)], dtype=word), n)
            assert grown.dtype == sequences._word(n)
            assert grown.tolist() == sorted(expected), (n, word)
        assert expected <= {to_mask(canonicalize(extend(parent, i))) for i in range(1, n)}
        if n <= 32:  # the narrow extensions, each in its own row
            narrow = np.array([to_mask(parent)], dtype=np.uint32).view(_OneWord)
            rows = sequences._extensions(narrow, n - 1)
            assert rows.dtype == np.uint32
            assert rows[:, 0].tolist() == [to_mask(extend(parent, i)) for i in range(1, n)]


def test_ladder_keeps_only_longest_run_extensions(monkeypatch):
    # no output shows the pruning, so pin its count: level 19 has 2385 parents and
    # 19 * 2385 = 45315 extensions, of which Lemma R' keeps 12475 for the orbit pass
    parent = canonical_masks(19)
    sizes = []
    sorted_unique = sequences._sorted_unique
    monkeypatch.setattr(
        sequences, "_sorted_unique", lambda x: sizes.append(x.size) or sorted_unique(x)
    )
    grown = sequences._canonical_extensions(parent, 20)
    assert sizes[0] == 12475
    assert len(grown) == hexaflexagon_count(20) and grown.dtype == sequences._word(20)


def test_extensions_match_extend_in_each_word():
    """Random masks extended at every position, against extend on the signs.

    L stays below the word's bit width, as _extensions needs: position 1 sets
    bit L, the word's top bit at L = bits - 1, and under NEP 50 a Python int
    1 << 32 raises OverflowError against a uint32 array.
    """
    rng = np.random.default_rng(37)
    for word, lengths in ((np.uint32, (3, 17, 31)), (np.uint64, (32, 47, 63))):
        for length in lengths:
            masks = rng.integers(0, 1 << length, size=40, dtype=np.uint64).astype(word)
            # _OneWord fails any ufunc call that leaves the word
            rows = sequences._extensions(masks.view(_OneWord), length)
            assert rows.dtype == word and rows.shape == (length, len(masks))
            for column, m in zip(rows.T.tolist(), masks.tolist()):
                signs = signs_from_mask(m, length)
                assert column == [to_mask(extend(signs, i)) for i in range(1, length + 1)]


def test_ladder_rejects_a_level_with_duplicates(monkeypatch):
    # every block's forms twice: the level outgrows H(n) and is never kept
    extensions = sequences._canonical_extensions
    monkeypatch.setattr(sequences, "_LADDER", {3: canonical_masks(3)})
    monkeypatch.setattr(
        sequences, "_canonical_extensions", lambda parent, n: np.tile(extensions(parent, n), 2)
    )
    with pytest.raises(ArithmeticError):
        canonical_masks(8)
    assert 8 not in sequences._LADDER


def test_orbit_max_and_bitrev_match_strings():
    # every width, so the window boundaries at n = 32, 33 and 64 are crossed
    rng = np.random.default_rng(17)
    for n in range(3, sequences.MAX_N + 1):
        full = (1 << n) - 1
        masks = rng.integers(0, 1 << 63, size=60, dtype=np.uint64) << np.uint64(1)
        masks |= rng.integers(0, 2, size=60, dtype=np.uint64)
        masks &= np.uint64(full)
        edges = [0, full] + [1 << b for b in range(n)]
        masks = np.concatenate([masks, np.array(edges, dtype=np.uint64)])
        # the uint32 copy also fails any ufunc call that leaves its word
        words = [masks] + ([masks.astype(np.uint32).view(_OneWord)] if n <= 32 else [])
        for x in [y for w in words for y in (w, w[::3])]:  # contiguous and strided
            bits = [format(m, f"0{n}b") for m in x.tolist()]
            reversed_ = sequences._bitrev(x, n)
            assert reversed_.dtype == x.dtype
            assert reversed_.tolist() == [int(b[::-1], 2) for b in bits]
            expected = [
                max(int((t + t)[r : r + n], 2) for t in (b, b[::-1]) for r in range(n))
                for b in bits
            ]
            for kernel in (sequences._window_max, sequences._orbit_max):
                best = kernel(x, n)
                assert best.dtype == x.dtype
                assert best.tolist() == expected


def test_orbit_max_across_chunk_boundaries(monkeypatch):
    # chunks of 7 rows, each call ending in a partial chunk, at every width
    monkeypatch.setattr(sequences, "_BLOCK_BYTES", 7 * 64)
    rng = np.random.default_rng(23)
    for n in range(3, sequences.MAX_N + 1):
        masks = rng.integers(0, 1 << 63, size=68, dtype=np.uint64) << np.uint64(1)
        masks |= rng.integers(0, 2, size=len(masks), dtype=np.uint64)
        masks &= np.uint64((1 << n) - 1)
        words = [masks] + ([masks.astype(np.uint32)] if n <= 32 else [])
        for x in [y for w in words for y in (w, w[::3])]:  # 68 and 23 rows
            bits = [format(m, f"0{n}b") for m in x.tolist()]
            expected = [
                max(int((t + t)[r : r + n], 2) for t in (b, b[::-1]) for r in range(n))
                for b in bits
            ]
            best = sequences._orbit_max(x, n)
            assert best.dtype == x.dtype, n
            assert best.tolist() == expected, n


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(29)
    arrays = [
        rng.integers(0, 50, size=300, dtype=np.uint64),
        rng.integers(0, 50, size=(7, 40), dtype=np.uint64),  # C-contiguous 2-D
        np.empty(0, dtype=np.uint64),
        np.array([5], dtype=np.uint64),
        np.full(9, 4, dtype=np.uint64),
    ]
    for x in arrays:
        expected = np.unique(x)
        assert np.array_equal(sequences._sorted_unique(x.copy()), expected)
        # a contiguous input is sorted in place
        sequences._sorted_unique(x)
        assert np.array_equal(x.ravel(), np.sort(x, axis=None))
    level = canonical_masks(12)
    with pytest.raises(ValueError):  # read-only, so not silently copied
        sequences._sorted_unique(level)
    assert (level[:-1] > level[1:]).all()


def test_ladder_canonical_against_tuple_oracle():
    # verify's class-count suite checks every level up to n = 12 against the naive
    # scan; this checks each level's word and order and a seeded sample of up to 300
    rng = np.random.default_rng(19)
    for n in range(3, 27):
        masks = canonical_masks(n)
        assert masks.dtype == sequences._word(n)
        assert (masks[:-1] > masks[1:]).all()
        for m in masks[rng.choice(len(masks), min(300, len(masks)), replace=False)].tolist():
            signs = signs_from_mask(m, n)
            assert signs == canonicalize(signs)


def test_ladder_grown_from_threads(monkeypatch):
    expected = {n: canonical_masks(n).copy() for n in range(3, 19)}
    monkeypatch.setattr(sequences, "_LADDER", {3: canonical_masks(3)})
    targets = [18, 11, 15, 18, 7, 16]
    results = [None] * len(targets)

    def grow(slot):
        results[slot] = {n: canonical_masks(n) for n in (targets[slot], 10, 17)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(k,)) for k in range(len(targets))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(sequences._LADDER) == list(range(3, 19))
    for result in results:
        for n, masks in result.items():
            assert np.array_equal(masks, expected[n])


def test_ladder_grown_one_parent_per_block(monkeypatch):
    expected = {n: canonical_masks(n).copy() for n in range(3, 19)}
    monkeypatch.setattr(sequences, "_LADDER", {3: canonical_masks(3)})
    monkeypatch.setattr(sequences, "_BLOCK_BYTES", 1)
    for n in range(3, 19):
        assert np.array_equal(canonical_masks(n), expected[n])
        assert not canonical_masks(n).flags.writeable


def test_ladder_grown_in_orbit_chunks_of_few_rows(monkeypatch):
    # orbit chunks of 7 rows, with a partial last chunk in most calls; even n
    # also runs the zero-sum complement rows through them
    expected = {n: canonical_masks(n).copy() for n in range(3, 19)}
    monkeypatch.setattr(sequences, "_LADDER", {3: canonical_masks(3)})
    monkeypatch.setattr(sequences, "_BLOCK_BYTES", 7 * 64)
    for n in range(3, 19):
        assert np.array_equal(canonical_masks(n), expected[n]), n


def test_check_size_rejects_non_integral_n():
    # a float between 3 and the limit passes the range checks, and the ladder's search
    # for the level below it steps past every integer level
    with pytest.raises(TypeError):
        sequences.check_size(7.5, 24, "x")
    sequences.check_size(np.int64(7), 24, "x")
    for call in (
        lambda: canonical_masks(3.5),
        lambda: enumerate_classes(7.5),
        lambda: geometry.printable_class_count(7.5),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize(
    "kind", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.int64], ids=lambda k: k.__name__
)
def test_numpy_integer_n_computes_as_a_python_int(kind):
    # in a narrow type, the block size 4 * (4n - 1) and the word mask (1 << n) - 1 overflow
    # or wrap at n = 14
    n, masks = kind(14), canonical_masks(14)
    assert canonical_masks(n) is masks
    assert np.array_equal(geometry.bulk_printable(masks, n), geometry.bulk_printable(masks, 14))
    assert np.array_equal(sequences._labels(masks, n), sequences._labels(masks, 14))
    for block, want in zip(
        sequences.class_rows(n, labels=True), sequences.class_rows(14, labels=True), strict=True
    ):
        assert all(np.array_equal(a, b) for a, b in zip(block, want))
    jsonl = sequences.class_jsonl
    assert list(jsonl(n, labels=True)) == list(jsonl(14, labels=True))
    records = enumerate_classes(n, labels=True)
    assert records == enumerate_classes(14, labels=True)
    assert {type(record.n) for record in records} == {int}
    assert geometry.printable_class_count(n) == geometry.printable_class_count(14)


def test_canonical_masks_range():
    with pytest.raises(ValueError):
        canonical_masks(sequences.MAX_N + 1)
    with pytest.raises(ValueError):
        canonical_masks(2)


def test_enumerate_classes_labels():
    for n in range(3, 13):
        for record in enumerate_classes(n, labels=True):
            assert record.labels == build_pattern(reduction_history(record.signs)).labels
        assert all(record.labels is None for record in enumerate_classes(n))


def test_enumerate_records_are_canonical():
    for record in enumerate_classes(9):
        assert record.signs == canonicalize(record.signs)
        assert record.sum == sum(record.signs)
        assert record.sum >= 0


def test_enumerate_limit_guard():
    with pytest.raises(ValueError):
        enumerate_classes(25)
    with pytest.raises(ValueError):
        enumerate_classes(2)
