"""Brute-force oracles and the suites that run them against the fast paths.

The oracles deliberately ignore the closed forms and the vectorized kernels:
classes are deduplicated by explicit orbit scans over small exhaustive
spaces, labels are rebuilt block by block, extension histories are replayed
by plain tuple moves, validity is rechecked by breadth-first reachability,
SVG nets are drawn corner by corner.  The suites run the oracles against the
closed forms and the kernels, and cmd_verify reports each suite's first
counterexample, which keeps the fast paths honest.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations, product
from typing import Callable, Iterable, Iterator

from . import counting, geometry, labeling, render, sequences

__all__ = [
    "brute_necklace_count",
    "brute_bracelet_count",
    "brute_lyndon_count",
    "brute_self_conjugate_count",
    "naive_classes",
    "reachable_classes",
    "naive_longest_run_positions",
    "naive_reduction_history",
    "blockwise_strip_labels",
    "naive_is_printable",
    "naive_render_strip",
    "run_suites",
]


def _rotations(bits: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [bits[r:] + bits[:r] for r in range(len(bits))]


def _bracelet_canon(bits: tuple[int, ...]) -> tuple[int, ...]:
    return min(min(_rotations(bits)), min(_rotations(bits[::-1])))


def _combinations(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every binary string of length n with exactly k ones."""
    for support in combinations(range(n), k):
        bits = [0] * n
        for j in support:
            bits[j] = 1
        yield tuple(bits)


def brute_necklace_count(n: int, k: int) -> int:
    """Distinct cyclic-shift classes among binary strings with k ones."""
    return len({min(_rotations(bits)) for bits in _combinations(n, k)})


def brute_bracelet_count(n: int, k: int) -> int:
    """Distinct dihedral classes among binary strings with k ones."""
    return len({_bracelet_canon(bits) for bits in _combinations(n, k)})


def brute_lyndon_count(n: int, k: int) -> int:
    """Aperiodic cyclic-shift classes: all n rotations distinct."""
    return len({min(r) for r in map(_rotations, _combinations(n, k)) if len(set(r)) == n})


def brute_self_conjugate_count(n: int) -> int:
    """Balanced dihedral classes fixed by swapping ones and zeros."""
    if n % 2:
        raise ValueError(f"self-conjugate oracle needs even n, got {n}")
    seen = set()
    for bits in _combinations(n, n // 2):
        canon = _bracelet_canon(bits)
        if canon == _bracelet_canon(tuple(1 - b for b in bits)):
            seen.add(canon)
    return len(seen)


def naive_classes(n: int) -> list[tuple[int, ...]]:
    """Canonical forms of every valid sequence, by plain tuple-level scanning."""
    seen = set()
    for signs in product((1, -1), repeat=n):
        if sequences.is_valid(signs):
            seen.add(sequences.canonicalize(signs))
    return sorted(seen, reverse=True)


def reachable_classes(n: int) -> set[tuple[int, ...]]:
    """Canonical classes reachable from (1,1,1) by extension moves only."""
    level = {sequences.canonicalize((1, 1, 1))}
    for m in range(3, n):
        grown = set()
        for signs in level:
            for i in range(1, m + 1):
                grown.add(sequences.canonicalize(sequences.extend(signs, i)))
        level = grown
    return level


def naive_longest_run_positions(s: Iterable[int]) -> list[int]:
    """Positions i whose extension puts the new pair first or last in a longest cyclic run.

    The run lengths are read off the child by walking it from a run boundary.
    The new pair, child entries i and i + 1, is first in its run when entry
    i - 1 differs from it, and last when entry i + 2 does; a constant child
    is one run, whose every pair counts as first.
    """
    t = tuple(s)
    positions = []
    for i in range(1, len(t) + 1):
        child = sequences.extend(t, i)
        m = len(child)
        lengths = [m] * m  # a constant child is one run
        boundaries = [k for k in range(m) if child[k] != child[k - 1]]
        for start, end in zip(boundaries, boundaries[1:] + boundaries[:1]):
            run = (end - start) % m
            for k in range(start, start + run):
                lengths[k % m] = run
        first = child[i - 2] != child[i - 1]  # at i = 1, entry i - 1 is the last one
        last = child[(i + 1) % m] != child[i]
        if lengths[i - 1] == max(lengths) and (first or last or not boundaries):
            positions.append(i)
    return positions


def _contract_chain(t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Chain t -> ... -> length 3 via leftmost valid contractions."""
    chain = [t]
    cur = t
    while len(cur) > 3:
        n = len(cur)
        for p in range(1, n + 1):
            if cur[p - 1] == cur[p % n]:
                shorter = sequences.reduce(cur, p)
                if sequences.is_valid(shorter):
                    cur = shorter
                    break
        else:
            raise AssertionError(f"no valid contraction found for {cur}")
        chain.append(cur)
    return chain


def naive_reduction_history(s: Iterable[int]) -> list[int]:
    """sequences.reduction_history by plain tuple moves: the slow reference.

    Contracts s down to the length-3 base (inverting the whole chain if it
    lands on all-minus), then recovers replay positions by matching each
    extension against the next chain entry up to rotation.
    """
    chain = _contract_chain(sequences._require_valid(s))
    if chain[-1] == (-1, -1, -1):
        chain = [tuple(-a for a in u) for u in chain]
    steps: list[int] = []
    cur = chain[-1]
    for target in chain[-2::-1]:
        for i in range(1, len(cur) + 1):
            grown = sequences.extend(cur, i)
            if grown in _rotations(target):
                steps.append(i)
                cur = grown
                break
        else:
            raise AssertionError(f"no extension of {cur} matches {target}")
    return steps


def blockwise_strip_labels(
    pattern: labeling.PatternPath, glue: bool = False
) -> labeling.StripLabels:
    """Strip labels built block by block instead of by global alternation.

    The label sequence is written out three times; each block alternates
    primary sides starting top / bottom / top for odd n and starting top
    every time for even n.  Equivalent to labeling.strip_labels, which the
    labeling suite checks.
    """
    seq = pattern.labels
    n = len(seq)
    starts = ("top", "bottom", "top") if n % 2 else ("top", "top", "top")
    primary_sides = []
    for start in starts:
        for offset in range(n):
            flipped = offset % 2 == 1
            primary_sides.append("bottom" if (start == "top") == flipped else "top")
    if glue:
        # the glue triangle opens a fourth block: starts keep alternating
        # for odd n (top, bottom, top, bottom) and stay top for even n
        primary_sides.append("bottom" if n % 2 else "top")
    top, bottom = [], []
    for j, primary_side in enumerate(primary_sides):
        primary = seq[j % n]
        secondary = primary - 1 if primary > 1 else n
        if primary_side == "top":
            top.append(primary)
            bottom.append(secondary)
        else:
            top.append(secondary)
            bottom.append(primary)
    return labeling.StripLabels(top=tuple(top), bottom=tuple(bottom))


def naive_is_printable(signs: tuple[int, ...]) -> bool:
    """Overlap test over the 4n orbit members, one laid strip each, until one lays flat."""
    reversed_ = sequences.reverse(signs)
    for base in (signs, reversed_, sequences.invert(signs), sequences.invert(reversed_)):
        for r in range(len(signs)):
            strip = geometry.lay_strip(sequences.cyclic_shift(base, r))
            if len(set(strip.cells)) == len(strip.cells):
                return True
    return False


def naive_render_strip(
    strip: geometry.TriangleStrip,
    labels: labeling.StripLabels,
    side: str = "front",
    scale: float = 40.0,
) -> str:
    """render.render_strip corner by corner: the slow reference, byte for byte.

    Projects and formats every corner again for each polygon and edge that
    touches it, and finds each fold edge by intersecting the corner sets of
    consecutive cells.
    """
    if side not in ("front", "back"):
        raise ValueError(f"side must be 'front' or 'back', got {side!r}")
    if len(labels.top) != len(strip.cells):
        raise ValueError(
            f"label rows of length {len(labels.top)} do not fit {len(strip.cells)} cells"
        )
    if not (0 < scale < float("inf")):
        raise ValueError(f"scale must be positive and finite, got {scale}")

    corner_sets = [cell.corners() for cell in strip.cells]
    points = {c for corners in corner_sets for c in corners}
    xs = [a + b / 2.0 for a, b in points]
    ys = [b * render._SQRT3_2 for a, b in points]
    xmin, xmax = min(xs) - render._MARGIN, max(xs) + render._MARGIN
    ymin, ymax = min(ys) - render._MARGIN, max(ys) + render._MARGIN
    if max(xmax - xmin, ymax - ymin) * scale > render.MAX_DOCUMENT_SIZE:
        raise ValueError(f"scale {scale} gives a side over {render.MAX_DOCUMENT_SIZE:g} pixels")

    def project(c: tuple[int, int]) -> tuple[float, float]:
        a, b = c
        x = a + b / 2.0
        if side == "back":
            x = (xmin + xmax) - x
        # flip y: lattice y grows upward, SVG y grows downward
        return ((x - xmin) * scale, (ymax - b * render._SQRT3_2) * scale)

    printed = {tuple(map(render._fmt, project(c))) for c in points}
    if len(printed) < len(points):
        raise ValueError(f"scale {scale} prints {len(points)} corners at {len(printed)} points")

    width = render._fmt((xmax - xmin) * scale)
    height = render._fmt((ymax - ymin) * scale)
    row = labels.top if side == "front" else labels.bottom

    polygons = []
    texts = []
    for cell_corners, value in zip(corner_sets, row):
        pts = [project(c) for c in cell_corners]
        point_attr = " ".join(f"{render._fmt(x)},{render._fmt(y)}" for x, y in pts)
        polygons.append(f'  <polygon points="{point_attr}"/>')
        cx = sum(x for x, _ in pts) / 3.0
        cy = sum(y for _, y in pts) / 3.0
        texts.append(f'  <text x="{render._fmt(cx)}" y="{render._fmt(cy)}">{value}</text>')

    fold_edges = set()
    for first, second in zip(corner_sets, corner_sets[1:]):
        shared = tuple(sorted(set(first) & set(second)))
        fold_edges.add(shared)
    solid_edges = set()
    for corners in corner_sets:
        for i in range(3):
            edge = tuple(sorted((corners[i], corners[(i + 1) % 3])))
            if edge not in fold_edges:
                solid_edges.add(edge)

    def edge_lines(edges: set, cls: str) -> list[str]:
        lines = []
        for (c1, c2) in sorted(edges):
            (x1, y1), (x2, y2) = project(c1), project(c2)
            lines.append(
                f'  <line class="{cls}" x1="{render._fmt(x1)}" y1="{render._fmt(y1)}"'
                f' x2="{render._fmt(x2)}" y2="{render._fmt(y2)}"/>'
            )
        return lines

    font = render._fmt(scale * 0.4)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        "  <style>",
        "    polygon { fill: white; stroke: none; }",
        "    line.solid { stroke: black; stroke-width: 1; }",
        "    line.fold { stroke: black; stroke-width: 1; stroke-dasharray: 4 3; }",
        f"    text {{ font-family: sans-serif; font-size: {font}px;"
        " text-anchor: middle; dominant-baseline: central; fill: black; }",
        "  </style>",
    ]
    parts.extend(polygons)
    parts.extend(edge_lines(solid_edges, "solid"))
    parts.extend(edge_lines(fold_edges, "fold"))
    parts.extend(texts)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class SuiteFailure(Exception):
    """First counterexample found by a verification suite."""


def _check(condition: bool, detail: str) -> None:
    if not condition:
        raise SuiteFailure(detail)


def _suite_formula(
    letter: str, formula: Callable[[int, int], int], brute: Callable[[int, int], int], max_n: int
) -> None:
    for n in range(1, min(max_n, 14) + 1):
        for k in range(n + 1):
            value, count = formula(n, k), brute(n, k)
            _check(value == count, f"{letter}({n},{k}): formula {value} != brute {count}")


def _suite_paper_bracelet(max_n: int) -> None:
    # scan the domain the class-count theorem actually uses (n >= 3,
    # k >= 1); the first even/even pair there is (4, 2)
    for n in range(3, min(max_n, 14) + 1):
        for k in range(1, n + 1):
            brute = brute_bracelet_count(n, k)
            formula = counting._bracelet_even_even_printed(n, k)
            _check(
                formula == brute,
                f"B({n},{k}): even/even variant gives {formula}, brute-force {brute}",
            )


def _suite_self_conjugate(max_n: int) -> None:
    for n in range(2, min(max_n, 16) + 1, 2):
        formula = counting.self_conjugate_count(n)
        brute = brute_self_conjugate_count(n)
        _check(formula == brute, f"F({n}): formula {formula} != brute {brute}")


def _suite_class_count(max_n: int) -> None:
    for n in range(3, min(max_n, 18) + 1):
        # _grow checks the count; strictly descending means distinct and in canonical order
        ladder = [record.signs for record in sequences.enumerate_classes(n)]
        for above, below in zip(ladder, ladder[1:]):
            _check(above > below, f"H({n}): ladder class {below} is not below {above}")
        if n <= 12:  # naive_classes holds canonical forms, so equal means canonical too
            _check(naive_classes(n) == ladder, f"H({n}): ladder differs from the naive scan")


def _suite_printable(max_n: int) -> None:
    for n in range(3, min(max_n, 12) + 1):
        for record in sequences.enumerate_classes(n):
            naive = naive_is_printable(record.signs)
            _check(
                naive == record.printable,
                f"Hp: {record.signs} bulk {record.printable} != full-orbit {naive}",
            )


def _suite_lemma(max_n: int) -> None:
    below: set[tuple[int, ...]] = set()
    for n in range(3, min(max_n, 12) + 1):
        valid = set(naive_classes(n))
        reachable = reachable_classes(n)
        _check(
            valid == reachable,
            f"Lemma: n={n} validity/reachability differ by {valid ^ reachable}",
        )
        if below:  # Lemma R': the extensions at an end of a longest run reach them all
            reached = {
                sequences.canonicalize(sequences.extend(p, i))
                for p in below
                for i in naive_longest_run_positions(p)
            }
            _check(reached == valid, f"Lemma R': n={n} classes differ by {valid ^ reached}")
        below = valid


def _suite_labeling(max_n: int) -> None:
    tri = labeling.strip_labels(labeling.build_pattern([]))
    _check(tri.top == (1, 1, 3, 3, 2, 2, 1, 1, 3), f"trihexa top row {tri.top}")
    _check(tri.bottom == (3, 2, 2, 1, 1, 3, 3, 2, 2), f"trihexa bottom row {tri.bottom}")
    for n in range(3, min(max_n, 12) + 1):
        for record in sequences.enumerate_classes(n, labels=True):
            history = sequences.reduction_history(record.signs)
            naive = naive_reduction_history(record.signs)
            _check(history == naive, f"history {history} != naive {naive} for {record.signs}")
            pattern = labeling.build_pattern(history)
            _check(
                record.labels == pattern.labels,
                f"batch labels {record.labels} != {pattern.labels} for {record.signs}",
            )
            for glue in (False, True):
                fast = labeling.strip_labels(pattern, glue)
                slow = blockwise_strip_labels(pattern, glue)
                _check(
                    fast == slow,
                    f"global/blockwise disagree for {record.signs} glue={glue}",
                )
                strip = geometry.lay_strip(pattern.signs, glue)
                if record.printable:  # lays flat, but a glue cell may close a ring on cell 0
                    cells, top, bottom = strip.cells, fast.top, fast.bottom
                    closes = glue and cells.index(cells[-1]) == 0
                    relabels = (top[0], bottom[0]) == (top[-1], bottom[-1])
                    _check(
                        len(set(cells)) == len(cells) - (closes and relabels),
                        f"net of printable {record.signs} repeats a cell, glue={glue}",
                    )
                for side in ("front", "back"):
                    svg = render.render_strip(strip, fast, side)
                    same = svg == naive_render_strip(strip, fast, side)
                    _check(same, f"{side} net != naive for {record.signs} glue={glue}")


_SUITES: dict[str, Callable[[int], None]] = {
    "necklace": partial(_suite_formula, "N", counting.necklace_count, brute_necklace_count),
    "bracelet": partial(_suite_formula, "B", counting.bracelet_count, brute_bracelet_count),
    "lyndon": partial(_suite_formula, "L", counting.lyndon_count, brute_lyndon_count),
    "self-conjugate": _suite_self_conjugate,
    "class-count": _suite_class_count,
    "printable": _suite_printable,
    "lemma": _suite_lemma,
    "labeling": _suite_labeling,
}


def run_suites(max_n: int, paper_bracelet: bool = False) -> bool:
    """Run every suite up to max_n; print one line per suite; True iff all pass.

    A suite that raises fails with the exception's type and message, and the
    remaining suites still run.
    """
    if max_n < 3:
        raise ValueError(f"verify needs --max-n >= 3, got {max_n}")
    all_ok = True
    suites = {**_SUITES, "bracelet": _suite_paper_bracelet} if paper_bracelet else _SUITES
    for name, runner in suites.items():
        try:
            runner(max_n)
        except Exception as error:  # a crashing fast path is a mismatch, not a usage error
            kind = "" if isinstance(error, SuiteFailure) else f"{type(error).__name__}: "
            print(f"FAIL {name}: {kind}{error}")
            all_ok = False
        else:
            print(f"PASS {name}")
    return all_ok
