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
    invert,
    is_valid,
    reduction_history,
    reverse,
)
from hexaflex.verify import naive_is_printable

from reference_table import KNOWN_COUNTS
from support import grown_to, to_mask


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
    # acceptance criterion 8 checks the cells
    assert lay_strip((1, 1, 1)).expanded_signs == (1,) * 9


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


def test_is_printable_rejects_invalid():
    with pytest.raises(ValueError):
        is_printable((1, -1, 1, -1))


def test_mirror_and_reversal_insensitivity():
    # acceptance criterion 8 checks invert and reverse each
    for n in range(3, 13):
        for record in enumerate_classes(n):
            assert is_printable(invert(reverse(record.signs))) == is_printable(record.signs)


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
    # Lemma D (above geometry.bulk_printable) from the walk alone, for every class of
    # length 3..14: five alternating signs from k send cell i + 5 back to cell i - 1.
    # A cyclic run of alternating signs and printability hold on the whole orbit or on
    # none of it; test_lemma_d_from_the_twelve_walk_states proves the step for every member
    tight = set()
    for n in range(3, 15):
        for record in enumerate_classes(n):
            signs = record.signs
            bits = "".join("1" if a > 0 else "0" for a in signs)
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


def _pattern_start(bits: str, length: int) -> int:
    """Where length cyclically consecutive pairs of bits first read as a window of (uuuee)^inf.

    u is an unequal pair and e an equal one; -1 where no window starts.
    """
    pairs = "".join("u" if a != b else "e" for a, b in zip(bits, bits[1:] + bits[:1]))
    ring = pairs * (length // len(bits) + 2)
    windows = {("uuuee" * 3)[phase : phase + length] for phase in range(5)}
    return next((k for k in range(len(bits)) if ring[k : k + length] in windows), -1)


def test_nine_signs_of_lemma_f_never_lay_flat():
    # Lemma F (above geometry.bulk_printable) from the walk alone, for every class of
    # length 3..14: eight pairs from q that read as a window send cell j + 10 back to
    # cell j, where j + 1 = q (or n, for q = 0).  A reversed window reads in (eeuuu)^inf,
    # a shift of (uuuee)^inf, so a window, like printability, holds on the whole orbit or
    # on none of it; test_lemma_f_from_the_twelve_walk_states proves the step for every member
    found, tight = set(), set()
    for n in range(3, 15):
        for record in enumerate_classes(n):
            signs = record.signs
            bits = "".join("1" if a > 0 else "0" for a in signs)
            q = _pattern_start(bits, 8)
            if q >= 0:
                found.add(n)
                j = (q or n) - 1
                cells = geometry._walk(signs * 3)
                assert cells[j] == cells[j + 10], signs
                assert not is_printable(signs), signs
            elif _pattern_start(bits, 7) >= 0 and is_printable(signs):
                tight.add(n)
    assert found == {8, *range(10, 15)}  # none below 8, as the lemma's last line says
    # seven pairs do not suffice: the window cannot be shorter
    assert tight == {10, 12, 13, 14}


def _key_offset(state: int, pairs: tuple[int, ...]) -> int:
    """The summed _STEP key offset of one move per pair-equality bit, from state.

    A few moves shift a tripled coordinate by far less than a field holds, so an offset
    equal to the number of moves is that many in the index field and 0 in both coordinates.
    """
    offset = 0
    for equal in pairs:
        state = geometry._NEXT[12 * equal + state]
        offset += geometry._STEP[state]
    return offset


_FREE_PAIRS = list(product((0, 1), repeat=2))  # the two pairs read before a lemma's run


def test_lemma_d_from_the_twelve_walk_states():
    # moves i..i + 5 read two free pairs and then four unequal ones: cell i + 5 is cell i - 1
    for state, free in product(range(12), _FREE_PAIRS):
        assert _key_offset(state, free + (0,) * 4) == 6, (state, free)


def test_lemma_f_from_the_twelve_walk_states():
    # moves j + 1..j + 10 read two free pairs and then a window of (u u u e e)^inf at one
    # of its 5 phases: cell j + 10 is cell j
    for state, free, phase in product(range(12), _FREE_PAIRS, range(5)):
        window = tuple(int(pair == "e") for pair in ("uuuee" * 3)[phase : phase + 8])
        assert _key_offset(state, free + window) == 10, (state, free, phase)


def test_walk_window_congruence_from_the_twelve_walk_states():
    # the maps a -> c + eps * a of the window congruence (above geometry.bulk_printable);
    # a mirror, eps = -1, turns left into right
    def image(c: int, eps: int, state: int) -> int:
        a, right = state % 6, state // 6
        return (c + eps * a) % 6 + 6 * (right if eps == 1 else 1 - right)

    maps = list(product(range(6), (1, -1)))
    for (c, eps), state, equal in product(maps, range(12), (0, 1)):
        after = geometry._NEXT[12 * equal + state]
        assert image(c, eps, after) == geometry._NEXT[12 * equal + image(c, eps, state)]
    dx, dy = geometry._DX, geometry._DY
    for a in range(6):
        # a -> a + 1 turns a move by 60 degrees and a -> -a swaps x and y: lattice isometries
        assert (dx[(a + 1) % 6], dy[(a + 1) % 6]) == (-dy[a], dx[a] + dy[a])
        assert (dx[-a % 6], dy[-a % 6]) == (dy[a], dx[a])
    assert sorted(image(c, eps, 0) for c, eps in maps) == list(range(12))
    # the walk's first move, which reads no pair, enters state 0 as a move from state 5 does
    assert geometry._NEXT[5] == 0


class _TakeRecorder:
    """geometry._CHUNK_TABLE that keeps what each bulk_printable chunk takes from it."""

    def __init__(self, table: np.ndarray) -> None:
        self.table, self.takes = table, []

    def take(self, codes: np.ndarray, axis: int) -> np.ndarray:
        self.takes.append(self.table.take(codes, axis=axis))
        return self.takes[-1]


def test_lemmas_d_and_f_leave_few_rows_to_walk(monkeypatch):
    # no output shows which rows skip the walk, so pin their count at n = 20: of the
    # 4643 classes, Lemmas D and F leave 1784 to walk
    n = 20
    recorder = _TakeRecorder(geometry._CHUNK_TABLE)
    monkeypatch.setattr(geometry, "_CHUNK_TABLE", recorder)
    walked = 0
    for _ in sequences.class_rows(n):
        walked += recorder.takes[0].shape[1]
        # one take per chunk of the walk's 4n - 3 steps, the last one partial
        assert len(recorder.takes) == -(-(4 * n - 3) // geometry._CHUNK_STEPS)
        recorder.takes.clear()
    assert hexaflexagon_count(n) == 4643 and walked == 1784


def test_walk_chunk_table_matches_single_steps():
    # column 12 * e + state holds the walk from state over the k pairs of e, the first pair
    # at e's highest bit: the key offsets after 1..k single steps, then the state after k
    k, table = geometry._CHUNK_STEPS, geometry._CHUNK_TABLE
    assert table.shape == (k + 1, 12 << k) and table.dtype == np.int32
    for column in range(12 << k):
        e, state = divmod(column, 12)
        key, expected = 0, []
        for i in range(k):
            state = geometry._NEXT[12 * (e >> k - 1 - i & 1) + state]
            key += geometry._STEP[state]
            expected.append(key)
        assert table[:, column].tolist() == expected + [state], column
    assert 0 <= table[k].min() and table[k].max() <= 11


def test_walk_chunks_follow_the_scalar_walk(monkeypatch):
    # printability holds for every shift, so a walk of a shifted sequence gives the same
    # flags: check each chunk's key offsets against _walk's cells instead.  Printable
    # classes skip no walk, so row r of each take is class r; n = 3..14 covers n < k,
    # n = k and n = k + 1
    k = geometry._CHUNK_STEPS
    x_shift, y_shift = geometry._COORD_BITS + geometry._INDEX_BITS, geometry._INDEX_BITS
    recorder = _TakeRecorder(geometry._CHUNK_TABLE)
    for n in range(3, 15):
        masks = canonical_masks(n)
        masks = masks[bulk_printable(masks, n)]
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_CHUNK_TABLE", recorder)
            assert bulk_printable(masks, n).all()
        path_len = 4 * n - 1
        assert len(recorder.takes) == -(-(path_len - 2) // k)
        for row, mask in enumerate(masks.tolist()):
            cells = geometry._walk((sequences.signs_from_mask(mask, n) * 4)[:path_len])
            for chunk, step in enumerate(recorder.takes):
                j = 2 + chunk * k  # the chunk's first cell; its offsets are from cell j - 1
                for i in range(min(k, path_len - j)):
                    (x, y), (x0, y0) = cells[j + i], cells[j - 1]
                    assert step[i, row] == (x - x0 << x_shift) + (y - y0 << y_shift) + i + 1
        recorder.takes.clear()


def test_printable_count_limit_guard():
    with pytest.raises(ValueError):
        printable_class_count(27)
    with pytest.raises(ValueError):
        printable_class_count(2)
    with pytest.raises(ValueError, match="limit 65"):
        printable_class_count(5, limit=65)


def test_printable_count_checks_class_count(monkeypatch):
    # the ladder checks each level as it grows it, so start it again under the patch
    monkeypatch.setattr(sequences, "_LADDER", {3: canonical_masks(3)})
    monkeypatch.setattr(sequences, "hexaflexagon_count", lambda n: hexaflexagon_count(n) - 1)
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


def _block_rows(n: int) -> int:
    """Rows per class_rows block at the default budget: the walk's int32 keys, 4n - 1 per row."""
    return sequences._BLOCK_BYTES // ((4 * n - 1) * 4)


def _row_blocks(masks: np.ndarray, n: int) -> tuple[list[int], np.ndarray]:
    """The length of each class_rows block over masks, and their printable flags joined.

    class_rows reads its level from the ladder, so masks stand in for level n
    while the blocks are cut.
    """
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(sequences._LADDER, n, masks)
        blocks = [flags for _, _, flags, _ in sequences.class_rows(n)]
    return [len(flags) for flags in blocks], np.concatenate(blocks)


def test_bulk_printable_across_chunk_boundaries():
    # tile the n = 12 classes past two class_rows blocks with an odd remainder
    n = 12
    masks = canonical_masks(n)
    flags = bulk_printable(masks, n)
    chunk = _block_rows(n)
    count = 2 * chunk + 2 * len(masks) + 1
    sizes, tiled = _row_blocks(np.resize(masks, count), n)
    assert sizes == [chunk, chunk, count - 2 * chunk]
    assert np.array_equal(tiled, np.resize(flags, count))
    records = enumerate_classes(n)
    for boundary in (chunk, 2 * chunk):
        for row in (boundary - 1, boundary):
            assert bool(tiled[row]) == is_printable(records[row % len(masks)].signs)
    assert {bool(flag) for flag in flags} == {True, False}


def test_bulk_printable_one_and_two_row_blocks():
    # a block that walks one row has a walk whose transpose is already contiguous,
    # so the sorted keys must be a copy, never the walk buffer the scan reuses
    for n in range(3, 17):
        masks = canonical_masks(n)
        flags = bulk_printable(masks, n)
        for width in (1, 2):
            for start in range(len(masks) - width + 1):
                block = slice(start, start + width)
                assert np.array_equal(bulk_printable(masks[block], n), flags[block]), (n, block)
    assert flags.any() and not flags.all()


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
        signs = grown_to(n, rng)
        flags = bulk_printable(np.array([to_mask(signs)], dtype=np.uint64), n)
        assert bool(flags[0]) == is_printable(signs)


def test_bulk_matches_scalar_past_the_table():
    # H_p has no table past n = 26: check the kernel against the scalar walk
    # on seeded valid sequences instead of growing the class ladder
    rng = random.Random(2024)
    seen = set()
    for n in range(27, 41):
        batch = [grown_to(n, rng) for _ in range(20)]
        masks = np.array([to_mask(signs) for signs in batch], dtype=np.uint64)
        for signs, flag in zip(batch, bulk_printable(masks, n)):
            assert bool(flag) == is_printable(signs)
            seen.add(bool(flag))
    assert seen == {True, False}


def test_bulk_printable_blocks_lemma_d_decides_wholly_or_not_at_all():
    # several class_rows blocks each way at n = 24: every row decided, so the walk gets
    # no rows, and no row decided, so the walk alone finds every printable class
    n = 24
    masks = canonical_masks(n)
    decided = np.array([_alternating_start(format(int(m), f"0{n}b"), 5) >= 0 for m in masks])
    assert min(decided.sum(), (~decided).sum()) > 2 * _block_rows(n)
    sizes, flags = _row_blocks(masks[decided], n)
    assert len(sizes) > 2 and not flags.any()
    sizes, flags = _row_blocks(masks[~decided], n)
    assert len(sizes) > 2 and flags.sum() == KNOWN_COUNTS[n][1]


def test_bulk_printable_mixed_blocks_match_the_walk():
    # n = 12 classes tiled over two class_rows blocks and one row, so that a row Lemma D
    # decides ends the first block and a row the walk decides starts the second
    n = 12
    masks = canonical_masks(n)
    flags = np.array([is_printable(record.signs) for record in enumerate_classes(n)])
    decided = np.array([_alternating_start(format(int(m), f"0{n}b"), 5) >= 0 for m in masks])
    d = next(k for k in range(len(masks) - 1) if decided[k] and not decided[k + 1])
    chunk = _block_rows(n)
    rows = (np.arange(2 * chunk + 1) + d - (chunk - 1)) % len(masks)
    assert decided[rows[chunk - 1]] and not decided[rows[chunk]]
    assert all(len(set(decided[rows[s : s + chunk]])) == 2 for s in (0, chunk))
    sizes, tiled = _row_blocks(masks[rows], n)
    assert sizes == [chunk, chunk, 1]
    assert np.array_equal(tiled, flags[rows])


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
    # a ring on cell 0 with cell 0's top and bottom labels, only at even n (checked up to
    # n = 20 here)
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
                assert glue == cells[0] and n % 2 == 0, record.signs
                assert (labels.top[-1], labels.bottom[-1]) == (labels.top[0], labels.bottom[0])
                rings += 1
    assert rings == 1002
