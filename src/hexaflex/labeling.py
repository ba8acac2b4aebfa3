"""Face labels for foldable strips.

A pattern path records, for each strip position, which face number sits
there and with which sign.  Replaying an extension history from the base
path ((1,+), (2,+), (3,+)) grows the path one insertion at a time; the sign
projection of the path replays sequences.extend.  strip_labels then unrolls
the path three times over the physical strip, alternating top and bottom.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

__all__ = ["PatternPath", "StripLabels", "build_pattern", "strip_labels"]


@dataclass(frozen=True)
class PatternPath:
    """Cyclic path of (label, sign) nodes; labels are a permutation of 1..n."""

    nodes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = len(self.nodes)
        if n < 3:
            raise ValueError(f"pattern paths need length >= 3, got {n}")
        if sorted(label for label, _ in self.nodes) != list(range(1, n + 1)):
            raise ValueError("pattern labels must be a permutation of 1..n")
        if any(sign not in (1, -1) for _, sign in self.nodes):
            raise ValueError("pattern signs must be +1/-1")

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.nodes)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(sign for _, sign in self.nodes)


@dataclass(frozen=True)
class StripLabels:
    """Top and bottom face numbers for each triangle of a strip."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.top) != len(self.bottom):
            raise ValueError("top and bottom label rows must have equal length")


def build_pattern(history: Iterable[int]) -> PatternPath:
    """Replay an extension history from the base path ((1,+), (2,+), (3,+)).

    A step at path position i inserts the next face number with sign -s
    immediately before position i and flips node i to -s, where s was node
    i's sign; the sign projection is exactly sequences.extend at position i.
    A step may be any integer type, such as a row of numpy int8 steps, but
    not a bool.
    """
    nodes = [(1, 1), (2, 1), (3, 1)]
    for step in history:
        m = len(nodes)
        if isinstance(step, bool) or not hasattr(type(step), "__index__"):
            raise ValueError(f"history step {step!r} is a {type(step).__name__}, not an integer")
        i = operator.index(step)
        if not 1 <= i <= m:
            raise ValueError(f"history step {i} out of range 1..{m}")
        label, sign = nodes[i - 1]
        nodes[i - 1] = (label, -sign)
        nodes.insert(i - 1, (m + 1, -sign))
    return PatternPath(tuple(nodes))


def strip_labels(pattern: PatternPath, glue: bool = False) -> StripLabels:
    """Face numbers on both sides of the physical strip.

    Triangle j (1-based) takes the label sequence value at ((j-1) mod n)+1 on
    its primary side: top for odd j, bottom for even j.  The other side takes
    the cyclically previous face number (primary - 1, with 0 wrapping to n).
    The strip has 3n triangles, plus one more when glue is requested.
    """
    labels = pattern.labels
    n = len(labels)
    top, bottom = [], []
    for j in range(1, 3 * n + 1 + (1 if glue else 0)):
        primary = labels[(j - 1) % n]
        secondary = primary - 1 if primary > 1 else n
        if j % 2:
            top.append(primary)
            bottom.append(secondary)
        else:
            top.append(secondary)
            bottom.append(primary)
    return StripLabels(top=tuple(top), bottom=tuple(bottom))
