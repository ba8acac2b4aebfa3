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
from hexaflex.sequences import (
    canonical_masks,
    enumerate_classes,
    extend,
    invert,
    is_valid,
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
