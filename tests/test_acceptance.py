"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each reads `ACCEPTANCE <k> <name>: PASS|FAIL (<elapsed>s[, budget <b>s])`.
Criteria with a runtime budget fail when the budget is exceeded, even if
every value matched.
"""

import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product
from pathlib import Path

from hexaflex.counting import (
    _bracelet_even_even_printed,
    bracelet_count,
    hexaflexagon_count,
    lyndon_count,
    necklace_count,
    self_conjugate_count,
)
from hexaflex.geometry import LatticeCell, is_printable, lay_strip, printable_class_count
from hexaflex.labeling import build_pattern, strip_labels
from hexaflex.render import render_strip
from hexaflex.sequences import (
    canonicalize,
    enumerate_classes,
    extend,
    invert,
    is_valid,
    reduce,
    reduction_history,
    reverse,
)
from hexaflex.verify import (
    brute_bracelet_count,
    brute_lyndon_count,
    brute_necklace_count,
    brute_self_conjugate_count,
    reachable_classes,
)

from reference_table import KNOWN_COUNTS

GOLDEN = Path(__file__).parent / "golden"


def _criterion(number: int, name: str, body, budget: float | None = None) -> None:
    start = time.perf_counter()
    error = None
    try:
        body()
    except BaseException as exc:  # the verdict line must print either way
        error = exc
    elapsed = time.perf_counter() - start
    ok = error is None and (budget is None or elapsed < budget)
    note = f"{elapsed:.2f}s" + ("" if budget is None else f", budget {budget:g}s")
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({note})")
    if error is not None:
        raise error
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds the {budget:g}s budget"


def test_criterion_1_class_count_table():
    def body():
        for n, (h, _) in KNOWN_COUNTS.items():
            assert hexaflexagon_count(n) == h, f"H({n})"

    _criterion(1, "class-count-table", body, budget=1.0)


def test_criterion_2_enumeration_matches_formula():
    def body():
        for n in range(3, 19):
            # distinct classes, since the ladder's buffer holds exactly H(n) masks, repeated or not
            assert len({r.signs for r in enumerate_classes(n)}) == hexaflexagon_count(n), f"n={n}"

    _criterion(2, "enumeration-vs-formula", body, budget=60.0)


def test_criterion_3_printable_count_table():
    def body():
        for n, (_, hp) in KNOWN_COUNTS.items():
            assert printable_class_count(n) == hp, f"Hp({n})"

    _criterion(3, "printable-count-table", body, budget=120.0)


def test_criterion_4_cyclic_class_oracles():
    # every (n, k) with n <= 14 runs against brute force in verify's necklace,
    # bracelet and Lyndon suites, which tier-1 runs as the `verify --max-n 18` digest
    def body():
        # 0011 and 0101 up to rotation, and only 0011 aperiodic
        assert necklace_count(4, 2) == brute_necklace_count(4, 2) == 2
        assert lyndon_count(4, 2) == brute_lyndon_count(4, 2) == 1
        # the uncorrected even/even branch is off by a quarter at (4, 2)
        assert _bracelet_even_even_printed(4, 2) == Fraction(3, 2)
        assert bracelet_count(4, 2) == brute_bracelet_count(4, 2) == 2

    _criterion(4, "cyclic-class-oracles", body, budget=30.0)


def test_criterion_5_self_conjugate_oracle():
    # every even n <= 16 runs against brute force in verify's self-conjugate suite,
    # which tier-1 runs as the `verify --max-n 18` digest
    def body():
        for n, f in ((4, 2), (6, 3), (8, 6)):
            assert self_conjugate_count(n) == brute_self_conjugate_count(n) == f, f"F({n})"

    _criterion(5, "self-conjugate-oracle", body)


def test_criterion_6_labeling_fidelity():
    def body():
        base = build_pattern([])
        assert base.labels == (1, 2, 3)
        assert base.signs == (1, 1, 1)
        step = build_pattern([3])
        assert step.labels == (1, 2, 4, 3)
        assert step.signs == (1, 1, -1, -1)

        tri = strip_labels(build_pattern(reduction_history((1, 1, 1))), glue=False)
        assert tri.top == (1, 1, 3, 3, 2, 2, 1, 1, 3)
        assert tri.bottom == (3, 2, 2, 1, 1, 3, 3, 2, 2)

        tetra = strip_labels(build_pattern([3]), glue=True)
        assert tetra.top == (1, 1, 4, 2, 1, 1, 4, 2, 1, 1, 4, 2, 1)
        assert tetra.bottom == (4, 2, 3, 3, 4, 2, 3, 3, 4, 2, 3, 3, 4)

    _criterion(6, "labeling-fidelity", body)


def test_criterion_7_validity_equals_reachability():
    def body():
        for n in range(3, 11):
            reachable = reachable_classes(n)
            for signs in product((1, -1), repeat=n):
                assert is_valid(signs) == (canonicalize(signs) in reachable), signs
        # extend/reduce round-trip on every valid class
        for n in range(3, 11):
            for record in enumerate_classes(n):
                for i in range(1, n + 1):
                    grown = extend(record.signs, i)
                    assert is_valid(grown)
                    assert reduce(grown, i) == record.signs

    _criterion(7, "validity-equals-reachability", body, budget=30.0)


def test_criterion_8_geometry_properties():
    def body():
        assert lay_strip((1, 1, 1)).cells == (
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
        assert not is_printable((1, 1, 1, 1, -1, 1, -1))
        for n in range(3, 13):
            for record in enumerate_classes(n):
                flag = is_printable(record.signs)
                assert is_printable(reverse(record.signs)) == flag
                assert is_printable(invert(record.signs)) == flag

    _criterion(8, "geometry-properties", body)


def test_criterion_9_rendering_goldens():
    def body():
        strip = lay_strip((1, 1, 1))
        labels = strip_labels(build_pattern(reduction_history((1, 1, 1))), glue=False)
        front = render_strip(strip, labels, side="front")
        back = render_strip(strip, labels, side="back")
        assert front == (GOLDEN / "trihexaflexagon_front.svg").read_text()
        assert back == (GOLDEN / "trihexaflexagon_back.svg").read_text()

        svg_ns = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(front)
        assert len(list(root.iter(f"{svg_ns}polygon"))) == 9
        texts = [el.text for el in root.iter(f"{svg_ns}text")]
        assert texts == [str(v) for v in labels.top]
        texts = [el.text for el in ET.fromstring(back).iter(f"{svg_ns}text")]
        assert texts == [str(v) for v in labels.bottom]

    _criterion(9, "rendering-goldens", body)
