import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexaflex.labeling import PatternPath, build_pattern, strip_labels
from hexaflex.sequences import (
    canonical_masks,
    extend,
    reduction_history,
    signs_from_mask,
)


@st.composite
def histories(draw, max_steps=9):
    length = 3
    steps = []
    for _ in range(draw(st.integers(0, max_steps))):
        steps.append(draw(st.integers(1, length)))
        length += 1
    return steps


def test_two_step_pattern():
    p = build_pattern([3, 4])
    assert p.labels == (1, 2, 4, 5, 3)
    assert p.signs == (1, 1, -1, 1, 1)


def test_malformed_history():
    with pytest.raises(ValueError):
        build_pattern([4])
    with pytest.raises(ValueError):
        build_pattern([0])
    with pytest.raises(ValueError):
        build_pattern([3, 9])


def test_build_pattern_takes_numpy_steps():
    # each history as a row of int8 steps
    n = 11
    for mask in canonical_masks(n).tolist():
        history = reduction_history(signs_from_mask(mask, n))
        assert build_pattern(np.array(history, dtype=np.int8)) == build_pattern(history)
    assert build_pattern(np.array([1, 2])) == build_pattern([1, 2])
    with pytest.raises(ValueError, match=r"history step 5 out of range 1\.\.4"):
        build_pattern(np.array([1, 5], dtype=np.int64))


@pytest.mark.parametrize("step", [True, np.True_, 1.0, np.float64(1.0), "1", None], ids=repr)
def test_build_pattern_rejects_non_integer_steps(step):
    with pytest.raises(ValueError, match=f"is a {type(step).__name__}, not an integer"):
        build_pattern([step])


@given(histories())
def test_pattern_signs_replay_extension(steps):
    signs = (1, 1, 1)
    for i in steps:
        signs = extend(signs, i)
    assert build_pattern(steps).signs == signs


@given(histories())
def test_pattern_labels_are_permutation(steps):
    labels = build_pattern(steps).labels
    assert sorted(labels) == list(range(1, len(labels) + 1))


@given(histories(), st.booleans())
def test_each_label_six_times_per_strip(steps, glue):
    pattern = build_pattern(steps)
    rows = strip_labels(pattern, glue=glue)
    n = len(pattern.labels)
    counts = {}
    for value in rows.top[: 3 * n] + rows.bottom[: 3 * n]:
        counts[value] = counts.get(value, 0) + 1
    assert counts == {label: 6 for label in range(1, n + 1)}


@given(histories(), st.booleans())
def test_top_differs_from_bottom(steps, glue):
    rows = strip_labels(build_pattern(steps), glue=glue)
    assert all(t != b for t, b in zip(rows.top, rows.bottom))


@given(histories())
def test_label_pairs_form_single_cycle(steps):
    rows = strip_labels(build_pattern(steps))
    n = len(build_pattern(steps).labels)
    edges = {frozenset((t, b)) for t, b in zip(rows.top, rows.bottom)}
    wanted = {
        frozenset((k, k - 1 if k > 1 else n)) for k in range(1, n + 1)
    }
    assert edges == wanted


def test_pattern_path_validation():
    with pytest.raises(ValueError):
        PatternPath(((1, 1), (2, 1)))
    with pytest.raises(ValueError):
        PatternPath(((1, 1), (2, 1), (2, 1)))
    with pytest.raises(ValueError):
        PatternPath(((1, 1), (2, 2), (3, 1)))
