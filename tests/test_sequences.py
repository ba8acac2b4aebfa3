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
from hexaflex.verify import naive_classes, naive_reduction_history, reachable_classes

from reference_table import paper_sum_set


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
            signs = (1, 1, 1)
            while len(signs) < n:
                signs = extend(signs, rng.randint(1, len(signs)))
            signs = cyclic_shift(signs, rng.randrange(n))
            if rng.random() < 0.5:
                signs = reverse(signs)
            if rng.random() < 0.5:
                signs = invert(signs)
            assert reduction_history(signs) == naive_reduction_history(signs)


def _assert_batch_matches_scalar(masks, n):
    steps = sequences._histories(masks, n)
    labels = sequences._labels(steps, n)
    assert steps.dtype == labels.dtype == np.int8
    assert steps.shape == (len(masks), n - 3) and labels.shape == (len(masks), n)
    for m, batch_steps, batch_labels in zip(masks.tolist(), steps.tolist(), labels.tolist()):
        history = reduction_history(signs_from_mask(m, n))
        assert batch_steps == history
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
    # any valid mask, not only canonical ones, and the 64-bit shifts at n = 64
    rng = random.Random(5)
    for n in (25, 40, 63, 64):
        rows = []
        for _ in range(20):
            signs = (1, 1, 1)
            while len(signs) < n:
                signs = extend(signs, rng.randint(1, len(signs)))
            signs = cyclic_shift(signs, rng.randrange(n))
            rows.append(invert(signs) if rng.random() < 0.5 else signs)
        masks = np.array(
            [int("".join("1" if a > 0 else "0" for a in t), 2) for t in rows], dtype=np.uint64
        )
        assert sequences._histories(masks, n).tolist() == [naive_reduction_history(t) for t in rows]


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
    to_mask = lambda t: int("".join("1" if a > 0 else "0" for a in t), 2)  # noqa: E731
    for length, rows in cases.items():
        contracted = {}
        for signs in rows:
            for p in range(1, length + 1):
                if signs[p - 1] == signs[p % length] and is_valid(reduce(signs, p)):
                    contracted[to_mask(signs)] = to_mask(reduce(signs, p))
                    break
        masks = np.array(list(contracted), dtype=np.uint64)
        assert sequences._contract(masks, length).tolist() == list(contracted.values())


def test_batch_histories_reject_invalid_masks_and_sizes():
    with pytest.raises(ValueError):
        sequences._histories(np.array([0b1010], dtype=np.uint64), 4)  # alternating
    with pytest.raises(ValueError):
        sequences._histories(np.array([0b1111], dtype=np.uint64), 4)  # sum 4 is not a multiple of 3
    for n in (2, sequences.MAX_N + 1):
        with pytest.raises(ValueError):
            sequences._histories(np.array([0], dtype=np.uint64), n)


def test_class_rows_one_row_per_block(monkeypatch):
    def levels():
        return [
            list(sequences.class_rows(canonical_masks(n), n, labels=True)) for n in range(3, 13)
        ]

    expected = levels()
    monkeypatch.setattr(sequences, "_BLOCK_BYTES", 1)
    assert levels() == expected


def test_class_rows_printable_matches_whole_level(monkeypatch):
    # class_rows computes the flags block by block; one whole-level call is the reference
    levels = range(3, 17)
    expected = {n: geometry.bulk_printable(canonical_masks(n), n).tolist() for n in levels}
    for block_bytes in (sequences._BLOCK_BYTES, 1):
        monkeypatch.setattr(sequences, "_BLOCK_BYTES", block_bytes)
        for n in levels:
            flags = [row[2] for row in sequences.class_rows(canonical_masks(n), n)]
            assert flags == expected[n], (n, block_bytes)


@pytest.mark.parametrize("labels", [False, True])
def test_class_rows_size_guard(labels):
    # uint64 shifts past the mask width would wrap, and n = 0 divided by zero
    for n in (0, 2, sequences.MAX_N + 1):
        with pytest.raises(ValueError):
            list(sequences.class_rows(np.array([5], dtype=np.uint64), n, labels=labels))


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


def test_enumerate_matches_naive_scan():
    for n in range(3, 11):
        assert [r.signs for r in enumerate_classes(n)] == naive_classes(n)


def test_ladder_matches_naive_scan_in_order():
    for n in range(3, 13):
        masks = canonical_masks(n)
        assert masks.dtype == np.uint64
        assert [signs_from_mask(m, n) for m in masks.tolist()] == naive_classes(n)


def test_ladder_cardinality():
    # levels from 23 on are grown in more than one parent block
    for n in range(3, 25):
        assert len(canonical_masks(n)) == hexaflexagon_count(n)


def test_ladder_step_at_full_mask_width():
    # one parent of length 63 grown to 64 bits, against the tuple-level canonical form
    signs = (1, 1, 1)
    rng = np.random.default_rng(3)
    while len(signs) < 63:
        signs = extend(signs, int(rng.integers(1, len(signs) + 1)))
    parent = canonicalize(signs)
    to_mask = lambda t: int("".join("1" if a > 0 else "0" for a in t), 2)  # noqa: E731
    grown = sequences._grow(np.array([to_mask(parent)], dtype=np.uint64), 64)
    expected = {to_mask(canonicalize(extend(parent, i))) for i in range(1, 64)}
    assert grown.tolist() == sorted(expected, reverse=True)


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
        for x in (masks, masks[::3]):  # contiguous and strided
            bits = [format(m, f"0{n}b") for m in x.tolist()]
            assert sequences._bitrev(x, n).tolist() == [int(b[::-1], 2) for b in bits]
            expected = [
                max(int((t + t)[r : r + n], 2) for t in (b, b[::-1]) for r in range(n))
                for b in bits
            ]
            assert sequences._orbit_max(x, n).tolist() == expected


def test_ladder_canonical_against_tuple_oracle():
    # above n = 12 the naive scan is too slow; check order and a seeded sample
    rng = np.random.default_rng(19)
    for n in range(13, 25):
        masks = canonical_masks(n)
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
    for n in range(3, 13):
        assert [signs_from_mask(m, n) for m in canonical_masks(n).tolist()] == naive_classes(n)
    for n in range(3, 19):
        assert np.array_equal(canonical_masks(n), expected[n])
        assert not canonical_masks(n).flags.writeable


def test_canonical_masks_range():
    with pytest.raises(ValueError):
        canonical_masks(sequences.MAX_N + 1)
    with pytest.raises(ValueError):
        canonical_masks(2)


def test_enumerate_cardinality():
    for n in range(3, 17):
        assert len(enumerate_classes(n)) == hexaflexagon_count(n)


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


def test_validity_equals_reachability():
    for n in range(3, 11):
        assert set(naive_classes(n)) == reachable_classes(n)
