"""Exact enumeration, labeling, and printable-net generation for hexaflexagons."""

from .counting import (
    binomial,
    bracelet_count,
    hexaflexagon_count,
    lyndon_count,
    moebius,
    necklace_count,
    self_conjugate_count,
    totient,
)
from .geometry import (
    LatticeCell,
    TriangleStrip,
    is_printable,
    lay_strip,
    printable_class_count,
)
from .labeling import PatternPath, StripLabels, build_pattern, strip_labels
from .render import render_strip, render_table
from .sequences import (
    ClassRecord,
    canonicalize,
    cyclic_shift,
    enumerate_classes,
    extend,
    invert,
    is_valid,
    reduce,
    reduction_history,
    reverse,
)

__version__ = "0.1.0"

__all__ = [
    "ClassRecord",
    "LatticeCell",
    "PatternPath",
    "StripLabels",
    "TriangleStrip",
    "binomial",
    "bracelet_count",
    "build_pattern",
    "canonicalize",
    "cyclic_shift",
    "enumerate_classes",
    "extend",
    "hexaflexagon_count",
    "invert",
    "is_printable",
    "is_valid",
    "lay_strip",
    "lyndon_count",
    "moebius",
    "necklace_count",
    "printable_class_count",
    "reduce",
    "reduction_history",
    "render_strip",
    "render_table",
    "reverse",
    "self_conjugate_count",
    "strip_labels",
    "totient",
]
