import math
import random
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hexaflex.geometry import LatticeCell, TriangleStrip, lay_strip
from hexaflex.labeling import StripLabels, build_pattern, strip_labels
from hexaflex.render import MAX_DOCUMENT_SIZE, render_strip, render_table
from hexaflex.sequences import enumerate_classes, extend, reduction_history
from hexaflex.verify import naive_render_strip

GOLDEN = Path(__file__).parent / "golden"

_SVG = "{http://www.w3.org/2000/svg}"
_SQRT3_2 = math.sqrt(3.0) / 2.0


def _parts(signs, glue=False):
    strip = lay_strip(signs, glue=glue)
    labels = strip_labels(build_pattern(reduction_history(signs)), glue=glue)
    return strip, labels


def test_golden_front():
    strip, labels = _parts((1, 1, 1))
    svg = render_strip(strip, labels, side="front")
    assert svg == (GOLDEN / "trihexaflexagon_front.svg").read_text()


def test_golden_back():
    strip, labels = _parts((1, 1, 1))
    svg = render_strip(strip, labels, side="back")
    assert svg == (GOLDEN / "trihexaflexagon_back.svg").read_text()


def test_render_deterministic():
    strip, labels = _parts((1, 1, -1, -1), glue=True)
    assert render_strip(strip, labels) == render_strip(strip, labels)


def test_labels_roundtrip():
    strip, labels = _parts((1, 1, 1))
    front = ET.fromstring(render_strip(strip, labels, side="front"))
    back = ET.fromstring(render_strip(strip, labels, side="back"))
    assert [el.text for el in front.iter(f"{_SVG}text")] == [str(v) for v in labels.top]
    assert [el.text for el in back.iter(f"{_SVG}text")] == [str(v) for v in labels.bottom]


def test_polygon_counts():
    strip, labels = _parts((1, 1, -1, -1), glue=True)
    root = ET.fromstring(render_strip(strip, labels))
    assert len(list(root.iter(f"{_SVG}polygon"))) == 13

    plain, short = _parts((1, 1, -1, -1), glue=False)
    root = ET.fromstring(render_strip(plain, short))
    assert len(list(root.iter(f"{_SVG}polygon"))) == 12


def test_polygon_geometry_matches_cells():
    strip, labels = _parts((1, 1, 1))
    scale = 40.0
    root = ET.fromstring(render_strip(strip, labels, scale=scale))
    polys = list(root.iter(f"{_SVG}polygon"))
    assert len(polys) == len(strip.cells)

    corners = [c for cell in strip.cells for c in cell.corners()]
    xs = [a + b / 2.0 for a, b in corners]
    ys = [b * _SQRT3_2 for a, b in corners]
    xmin = min(xs) - 0.25
    ymax = max(ys) + 0.25

    for cell, poly in zip(strip.cells, polys):
        pts = [tuple(map(float, pair.split(","))) for pair in poly.get("points").split()]
        for (px, py), (a, b) in zip(pts, cell.corners()):
            assert px == pytest.approx((a + b / 2.0 - xmin) * scale, abs=2e-3)
            assert py == pytest.approx((ymax - b * _SQRT3_2) * scale, abs=2e-3)


def test_back_is_mirrored():
    strip, labels = _parts((1, 1, 1))
    front = ET.fromstring(render_strip(strip, labels, side="front"))
    back = ET.fromstring(render_strip(strip, labels, side="back"))
    width = float(front.get("width"))

    def poly_points(root):
        out = []
        for poly in root.iter(f"{_SVG}polygon"):
            out.append([tuple(map(float, p.split(","))) for p in poly.get("points").split()])
        return out

    for fpts, bpts in zip(poly_points(front), poly_points(back)):
        for (fx, fy), (bx, by) in zip(fpts, bpts):
            assert bx == pytest.approx(width - fx, abs=2e-3)
            assert by == pytest.approx(fy, abs=2e-3)


def test_render_strip_errors():
    strip, labels = _parts((1, 1, 1))
    with pytest.raises(ValueError):
        render_strip(strip, labels, side="reverse")
    short = StripLabels(top=labels.top[:-1], bottom=labels.bottom[:-1])
    with pytest.raises(ValueError):
        render_strip(strip, short)
    with pytest.raises(ValueError):
        render_strip(strip, labels, scale=0.0)
    with pytest.raises(ValueError):
        render_strip(strip, labels, scale=-4.0)


def test_render_strip_rejects_non_finite_scale():
    strip, labels = _parts((1, 1, 1))
    for scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="scale must be finite"):
            render_strip(strip, labels, scale=scale)


def test_render_strip_rejects_oversized_documents():
    strip, labels = _parts((1, 1, 1))
    root = ET.fromstring(render_strip(strip, labels, scale=1.0))
    largest = max(float(root.get("width")), float(root.get("height")))
    # a document just under the cap renders; one just over it does not
    fits = render_strip(strip, labels, scale=MAX_DOCUMENT_SIZE / largest * (1 - 1e-12))
    assert max(float(ET.fromstring(fits).get(k)) for k in ("width", "height")) <= MAX_DOCUMENT_SIZE
    for scale in (MAX_DOCUMENT_SIZE / largest * (1 + 1e-9), 1e300, 1e308):
        with pytest.raises(ValueError, match="must not exceed 1e\\+09"):
            render_strip(strip, labels, scale=scale)


def test_render_strip_rejects_collapsed_corners():
    strip, labels = _parts((1, 1, 1), glue=True)
    for scale in (1e-9, 5e-4):
        with pytest.raises(ValueError, match="12 distinct corners at [18] points"):
            render_strip(strip, labels, scale=scale)
    root = ET.fromstring(render_strip(strip, labels, scale=1e-3))
    points = {p for poly in root.iter(f"{_SVG}polygon") for p in poly.get("points").split()}
    assert len(points) == 12


def test_oracle_rejects_what_render_strip_rejects():
    strip, labels = _parts((1, 1, 1))
    short = StripLabels(top=labels.top[:-1], bottom=labels.bottom[:-1])
    root = ET.fromstring(render_strip(strip, labels, scale=1.0))
    over_cap = MAX_DOCUMENT_SIZE / max(float(root.get(k)) for k in ("width", "height")) * (1 + 1e-9)
    rejected = [({"side": "reverse"}, labels), ({}, short)] + [
        ({"scale": scale}, labels)
        for scale in (0.0, -4.0, math.nan, math.inf, -math.inf, over_cap, 1e300, 1e-9, 5e-4)
    ]
    for kwargs, rows in rejected:
        with pytest.raises(ValueError):
            render_strip(strip, rows, **kwargs)
        with pytest.raises(ValueError):
            naive_render_strip(strip, rows, **kwargs)


def _shifted(strip, dx, dy):
    cells = tuple(LatticeCell(c.x + dx, c.y + dy, c.orient) for c in strip.cells)
    return TriangleStrip(cells=cells, expanded_signs=strip.expanded_signs)


def _agrees_with_oracle(strip, labels, side, scale):
    """True if both renderers draw the same document, False if both reject it."""
    try:
        fast = render_strip(strip, labels, side=side, scale=scale)
    except ValueError:
        with pytest.raises(ValueError):
            naive_render_strip(strip, labels, side=side, scale=scale)
        return False
    assert fast == naive_render_strip(strip, labels, side=side, scale=scale)
    return True


def test_render_matches_oracle_far_from_the_origin():
    # corner keys are a * stride + (b - bmin): exact at any size and sign of a and b
    far = 2**40
    offsets = [(far, far), (far, -far), (-far, far), (-far, -far), (-far, 3), (5, far - 1)]
    drawn = {}
    for signs in ((1, 1, 1), (1, 1, -1, -1), (1, 1, 1, 1, -1, 1, -1), (1, -1, -1, 1, 1, -1, -1, 1)):
        pattern = build_pattern(reduction_history(signs))
        base = lay_strip(pattern.signs, glue=True)
        labels = strip_labels(pattern, glue=True)
        for dx, dy in offsets:
            strip = _shifted(base, dx, dy)
            for side in ("front", "back"):
                for scale in (0.001, 0.37, 40.0, 1e6):
                    ok = _agrees_with_oracle(strip, labels, side, scale)
                    drawn[scale] = drawn.get(scale, 0) + ok
    # at 0.001 the 8-sign strip prints two of its corners alike; the other three draw
    assert drawn[0.001] == 3 * len(offsets) * 2
    assert drawn[0.37] == drawn[40.0] == drawn[1e6] == 4 * len(offsets) * 2


def _assert_matches_oracle(signs):
    # the net as `net` draws it: strip and labels from the replayed history
    pattern = build_pattern(reduction_history(signs))
    for glue in (True, False):
        strip = lay_strip(pattern.signs, glue=glue)
        labels = strip_labels(pattern, glue=glue)
        for side in ("front", "back"):
            for scale in (40.0, 17.3, 0.37, 1e6):
                fast = render_strip(strip, labels, side=side, scale=scale)
                slow = naive_render_strip(strip, labels, side=side, scale=scale)
                assert fast == slow, (signs, glue, side, scale)


def test_render_matches_oracle_every_class():
    # 109 classes, 48 of them non-printable: overlapping cells, repeated edges
    for n in range(3, 13):
        for record in enumerate_classes(n):
            _assert_matches_oracle(record.signs)


def test_render_matches_oracle_on_grown_sequences():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(13, 48)
        signs = (1, 1, 1)
        while len(signs) < n:
            signs = extend(signs, rng.randint(1, len(signs)))
        _assert_matches_oracle(signs)


def test_render_table_plain():
    out = render_table([(3, 1, None), (4, 1, None)])
    assert out == "n,H\n3,1\n4,1\n"


def test_render_table_with_printable():
    out = render_table([(3, 1, 1), (7, 3, 2)])
    assert out == "n,H,Hp\n3,1,1\n7,3,2\n"


def test_render_table_mixed_rows():
    out = render_table([(3, 1, 1), (4, 1, None)])
    assert out == "n,H,Hp\n3,1,1\n4,1,\n"


def test_render_table_past_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    big = (10**5000 - 1) // 9  # 5000 ones
    assert render_table([(14400, big, big)]) == f"n,H,Hp\n14400,{'1' * 5000},{'1' * 5000}\n"
    assert render_table([(14400, big, None)]) == f"n,H\n14400,{'1' * 5000}\n"
    assert sys.get_int_max_str_digits() == limit


def test_render_table_empty():
    with pytest.raises(ValueError):
        render_table([])
