import random
from itertools import product

import numpy as np
import pytest

from hexaflex import geometry, sequences
from hexaflex.counting import hexaflexagon_count
from hexaflex.geometry import (
    LatticeCell,
    bulk_printable,
    is_printable,
    lay_strip,
    printable_class_count,
)
from hexaflex.labeling import build_pattern, strip_labels
from hexaflex.sequences import (
    canonical_masks,
    enumerate_classes,
    extend,
    invert,
    is_valid,
    reduction_history,
    reverse,
)
from hexaflex.verify import naive_is_printable

from reference_table import KNOWN_COUNTS


def _adjacent(a: LatticeCell, b: LatticeCell) -> bool:
    if a.orient == "down":
        a, b = b, a
    if a.orient != "up" or b.orient != "down":
        return False
    return (b.x, b.y) in {(a.x, a.y), (a.x, a.y - 1), (a.x - 1, a.y)}


def _alternating_start(bits: str, length: int) -> int:
    """Where bits first has length cyclically consecutive alternating digits, or -1."""
    ring = (bits * 3)[: len(bits) + length - 1]
    starts = [ring.find(("01" * length)[:length]), ring.find(("10" * length)[:length])]
    return min((k for k in starts if k >= 0), default=-1)


def _signs(bits: str) -> tuple[int, ...]:
    return tuple(1 if c in "1+" else -1 for c in bits)


def test_straight_row():
    strip = lay_strip((1, 1, 1))
    assert strip.cells == (
        LatticeCell(0, 0, "up"),
        LatticeCell(0, 0, "down"),
        LatticeCell(1, 0, "up"),
        LatticeCell(1, 0, "down"),
        LatticeCell(2, 0, "up"),
        LatticeCell(2, 0, "down"),
        LatticeCell(3, 0, "up"),
        LatticeCell(3, 0, "down"),
        LatticeCell(4, 0, "up"),
    )
    assert strip.expanded_signs == (1,) * 9


def test_glue_adds_one_cell():
    plain = lay_strip((1, 1, -1, -1))
    glued = lay_strip((1, 1, -1, -1), glue=True)
    assert len(plain.cells) == 12
    assert len(glued.cells) == 13
    assert glued.cells[:12] == plain.cells
    assert len(glued.expanded_signs) == 12  # glue never enters the sign expansion


def test_lay_strip_cells_follow_the_walk():
    for n in range(3, 13):
        for record in enumerate_classes(n):
            for glue in (False, True):
                signs = record.signs * 3 + record.signs[:1] if glue else record.signs * 3
                expected = tuple(
                    LatticeCell((cx - 1) // 3, (cy - 1) // 3, "up")
                    if cx % 3 == 1
                    else LatticeCell((cx - 2) // 3, (cy - 2) // 3, "down")
                    for cx, cy in geometry._walk(signs)
                )
                cells = lay_strip(record.signs, glue=glue).cells
                assert cells == expected
                assert {type(cell) for cell in cells} == {LatticeCell}


def test_lay_strip_rejects_invalid():
    with pytest.raises(ValueError):
        lay_strip((1, -1, 1, -1))
    with pytest.raises(ValueError):
        lay_strip((1, 1, -1))


def test_consecutive_cells_adjacent_and_alternating():
    for n in range(3, 15):
        for record in enumerate_classes(n):
            cells = lay_strip(record.signs, glue=True).cells
            for a, b in zip(cells, cells[1:]):
                assert a.orient != b.orient
                assert _adjacent(a, b)


def test_corner_sharing():
    # consecutive cells share exactly two corners (one edge)
    for record in enumerate_classes(8):
        cells = lay_strip(record.signs).cells
        for a, b in zip(cells, cells[1:]):
            assert len(set(a.corners()) & set(b.corners())) == 2


def test_known_overlap_example():
    assert not is_printable((1, 1, 1, 1, -1, 1, -1))
    assert is_printable((1, 1, 1))
    assert is_printable((1, 1, -1, -1))


def test_is_printable_rejects_invalid():
    with pytest.raises(ValueError):
        is_printable((1, -1, 1, -1))


def test_mirror_and_reversal_insensitivity():
    for n in range(3, 13):
        for record in enumerate_classes(n):
            flag = is_printable(record.signs)
            assert is_printable(invert(record.signs)) == flag
            assert is_printable(reverse(record.signs)) == flag
            assert is_printable(invert(reverse(record.signs))) == flag


def test_bulk_matches_per_sequence():
    for n in range(3, 13):
        masks = canonical_masks(n)
        flags = bulk_printable(masks, n)
        records = enumerate_classes(n)
        for record, flag in zip(records, flags):
            assert is_printable(record.signs) == bool(flag)


def test_bulk_matches_full_orbit_oracle():
    for n in range(3, 16):
        for record in enumerate_classes(n):
            assert record.printable == naive_is_printable(record.signs)


def test_five_alternating_signs_never_lay_flat():
    # Lemma D (above geometry.bulk_printable) from the walk alone, for every valid string
    # of length 3..14: five alternating signs from k send cell i + 5 back to cell i - 1
    tight = set()
    for n in range(3, 15):
        for digits in product("10", repeat=n):
            bits = "".join(digits)
            signs = _signs(bits)
            if not is_valid(signs):
                continue
            k = _alternating_start(bits, 5)
            if k >= 0:
                i = k or n  # moves i..i + 5 need i >= 1
                cells = geometry._walk(signs * 3)
                assert cells[i - 1] == cells[i + 5], signs
                assert not is_printable(signs), signs
            elif _alternating_start(bits, 4) >= 0 and is_printable(signs):
                tight.add(n)
    # four alternating signs do not suffice: the lemma's run cannot be shorter
    assert tight == {6, *range(8, 15)}


def test_printable_class_count_small():
    for n in range(3, 15):
        assert printable_class_count(n) == KNOWN_COUNTS[n][1]


def test_printable_count_limit_guard():
    with pytest.raises(ValueError):
        printable_class_count(27)
    with pytest.raises(ValueError):
        printable_class_count(2)
    with pytest.raises(ValueError, match="limit 65"):
        printable_class_count(5, limit=65)


def test_printable_count_checks_class_count(monkeypatch):
    monkeypatch.setattr(geometry, "hexaflexagon_count", lambda n: hexaflexagon_count(n) - 1)
    with pytest.raises(ArithmeticError):
        printable_class_count(8)


def test_all_valid_sequences_lay_consistently():
    # exhaustive at small n: laying never depends on the representative's sum sign
    for n in (3, 4, 5, 6, 7):
        for signs in product((1, -1), repeat=n):
            if not is_valid(signs):
                continue
            cells = lay_strip(signs).cells
            inverted = lay_strip(invert(signs)).cells
            assert cells == inverted  # the walk only sees sign equality


def test_bulk_printable_empty():
    assert bulk_printable(np.zeros(0, dtype=np.uint32), 5).shape == (0,)


def test_bulk_printable_across_chunk_boundaries():
    # tile the n = 12 classes past two chunks with an odd remainder
    n = 12
    masks = canonical_masks(n)
    flags = bulk_printable(masks, n)
    chunk = sequences._BLOCK_BYTES // ((4 * n - 1) * 4)
    count = 2 * chunk + 2 * len(masks) + 1
    tiled = bulk_printable(np.resize(masks, count), n)
    assert np.array_equal(tiled, np.resize(flags, count))
    records = enumerate_classes(n)
    for boundary in (chunk, 2 * chunk):
        for row in (boundary - 1, boundary):
            assert bool(tiled[row]) == is_printable(records[row % len(masks)].signs)
    assert {bool(flag) for flag in flags} == {True, False}


def test_bulk_printable_one_row_per_chunk(monkeypatch):
    expected = {n: bulk_printable(canonical_masks(n), n) for n in range(3, 13)}
    monkeypatch.setattr(sequences, "_BLOCK_BYTES", 1)
    for n, flags in expected.items():
        assert np.array_equal(bulk_printable(canonical_masks(n), n), flags)


def test_bulk_printable_ceiling():
    assert sequences.MAX_N == 64
    with pytest.raises(ValueError):
        bulk_printable(np.zeros(1, dtype=np.uint64), sequences.MAX_N + 1)


def test_bulk_printable_rejects_short_sequences():
    for n in (0, 1, 2):
        with pytest.raises(ValueError):
            bulk_printable(np.ones(3, dtype=np.uint64), n)


def test_bulk_printable_at_full_mask_width():
    # sequences longer than 32 keep their high bits: compare with the scalar walk
    rng = np.random.default_rng(7)
    for n in (33, 48, 64):
        signs = (1, 1, 1)
        while len(signs) < n:
            signs = extend(signs, int(rng.integers(1, len(signs) + 1)))
        mask = int("".join("1" if a > 0 else "0" for a in signs), 2)
        flags = bulk_printable(np.array([mask], dtype=np.uint64), n)
        assert bool(flags[0]) == is_printable(signs)


def test_bulk_matches_scalar_past_the_table():
    # H_p has no table past n = 26: check the kernel against the scalar walk
    # on seeded valid sequences instead of growing the class ladder
    rng = random.Random(2024)
    seen = set()
    for n in range(27, 41):
        batch = []
        for _ in range(20):
            signs = (1, 1, 1)
            while len(signs) < n:
                signs = extend(signs, rng.randint(1, len(signs)))
            batch.append(signs)
        masks = np.array(
            [int("".join("1" if a > 0 else "0" for a in signs), 2) for signs in batch],
            dtype=np.uint64,
        )
        for signs, flag in zip(batch, bulk_printable(masks, n)):
            assert bool(flag) == is_printable(signs)
            seen.add(bool(flag))
    assert seen == {True, False}


def test_bulk_printable_blocks_lemma_d_decides_wholly_or_not_at_all():
    # several blocks each way at n = 24: every row decided, so the walk gets no rows,
    # and no row decided, so the walk alone finds every printable class
    n = 24
    masks = canonical_masks(n)
    decided = np.array([_alternating_start(format(int(m), f"0{n}b"), 5) >= 0 for m in masks])
    chunk = sequences._BLOCK_BYTES // ((4 * n - 1) * 4)
    assert min(decided.sum(), (~decided).sum()) > 2 * chunk
    assert not bulk_printable(masks[decided], n).any()
    assert bulk_printable(masks[~decided], n).sum() == KNOWN_COUNTS[n][1]


def test_bulk_printable_mixed_blocks_match_the_walk():
    # n = 12 classes tiled over two chunks and one row, so that a row Lemma D decides
    # ends the first chunk and a row the walk decides starts the second
    n = 12
    masks = canonical_masks(n)
    flags = np.array([is_printable(record.signs) for record in enumerate_classes(n)])
    decided = np.array([_alternating_start(format(int(m), f"0{n}b"), 5) >= 0 for m in masks])
    d = next(k for k in range(len(masks) - 1) if decided[k] and not decided[k + 1])
    chunk = sequences._BLOCK_BYTES // ((4 * n - 1) * 4)
    rows = (np.arange(2 * chunk + 1) + d - (chunk - 1)) % len(masks)
    assert decided[rows[chunk - 1]] and not decided[rows[chunk]]
    assert all(len(set(decided[rows[s : s + chunk]])) == 2 for s in (0, chunk))
    assert np.array_equal(bulk_printable(masks[rows], n), flags[rows])


def test_bulk_printable_lemma_d_across_the_mask_width():
    # at n = 64 the mask test's rotations wrap a full uint64: every rotation of a string
    # puts its alternating run somewhere, across the wrap too
    n = 64
    seen = set()
    for text in ("+-+-+" + "+" * 59, "+" * 32 + "--+-++" + "-" * 26, "+" * 62 + "--"):
        signs = _signs(text)
        flag = is_printable(signs)
        bits = text.replace("+", "1").replace("-", "0")
        masks = np.array([int(bits[r:] + bits[:r], 2) for r in range(n)], dtype=np.uint64)
        assert bulk_printable(masks, n).tolist() == [flag] * n, text
        seen.add((_alternating_start(bits, 5) >= 0, flag))
    assert seen == {(True, False), (False, True)}


def test_net_lays_every_printable_class_flat():
    # the orbit member that net lays, build_pattern(reduction_history(s)).signs, has 3n
    # distinct cells for every printable class; with glue, the glue cell is new or closes
    # a ring on cell 0 with cell 0's top and bottom labels (checked up to n = 20 here)
    rings = 0
    for n in range(3, 21):
        for record in enumerate_classes(n):
            if not record.printable:
                continue
            pattern = build_pattern(reduction_history(record.signs))
            cells = lay_strip(pattern.signs).cells
            assert len(set(cells)) == 3 * n, record.signs
            glue = lay_strip(pattern.signs, glue=True).cells[-1]
            if glue in cells:
                labels = strip_labels(pattern, glue=True)
                assert glue == cells[0], record.signs
                assert (labels.top[-1], labels.bottom[-1]) == (labels.top[0], labels.bottom[0])
                rings += 1
    assert rings == 1002
