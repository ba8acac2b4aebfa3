"""Spans around the calls into hexaflex's public functions, installed from outside.

Each wrapper is set at the name its caller looks the function up by, so the
spans sit on the path the CLI actually takes:

- `cli` calls `counting.hexaflexagon_count`, while `geometry` imported the
  function under its own name, so both attributes are wrapped;
- `sequences.canonical_masks` is reached from `enumerate_classes` (a module
  global) and from `geometry.printable_class_count` (an attribute lookup), so
  wrapping the module attribute covers both.

Spans are kept in memory and summarised after the round.  `tracemalloc` runs
only inside `canonical_masks` and `bulk_printable`, the two bulk numpy stages.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from dataclasses import dataclass, field

# (metric prefix, patch points as (module, attribute), trace memory)
LAYERS = (
    ("sequences.canonical_masks", (("sequences", "canonical_masks"),), True),
    ("geometry.bulk_printable", (("geometry", "bulk_printable"),), True),
    ("geometry.printable_class_count", (("geometry", "printable_class_count"),), False),
    (
        "counting.hexaflexagon_count",
        (("counting", "hexaflexagon_count"), ("geometry", "hexaflexagon_count")),
        False,
    ),
    ("render.render_table", (("render", "render_table"),), False),
    ("sequences.reduction_history", (("sequences", "reduction_history"),), False),
    ("sequences.enumerate_classes", (("sequences", "enumerate_classes"),), False),
    ("labeling.build_pattern", (("labeling", "build_pattern"),), False),
    ("geometry.lay_strip", (("geometry", "lay_strip"),), False),
    ("labeling.strip_labels", (("labeling", "strip_labels"),), False),
    ("render.render_strip", (("render", "render_strip"),), False),
)
CLI_SPAN = "cli.run"

# Every per-layer metric, in the order BENCHMARK.json lists them: (name, unit).
METRICS = (
    ("sequences.canonical_masks.self_s", "s"),
    ("sequences.canonical_masks.calls", "count"),
    ("sequences.canonical_masks.us_per_class", "us"),
    ("sequences.canonical_masks.peak_mb", "MiB"),
    ("geometry.bulk_printable.self_s", "s"),
    ("geometry.bulk_printable.cells", "count"),
    ("geometry.bulk_printable.ns_per_cell", "ns"),
    ("geometry.bulk_printable.peak_mb", "MiB"),
    ("geometry.printable_class_count.self_s", "s"),
    ("counting.hexaflexagon_count.self_s", "s"),
    ("render.render_table.self_s", "s"),
    ("sequences.reduction_history.self_s", "s"),
    ("sequences.reduction_history.calls", "count"),
    ("sequences.reduction_history.us_per_call", "us"),
    ("sequences.enumerate_classes.self_s", "s"),
    ("labeling.build_pattern.self_s", "s"),
    ("geometry.lay_strip.self_s", "s"),
    ("labeling.strip_labels.self_s", "s"),
    ("render.render_strip.self_s", "s"),
    ("render.render_strip.calls", "count"),
    ("render.render_strip.bytes_out", "bytes"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    n: int = 0  # the sequence length the call worked on, where it has one
    items: int = 0  # classes returned, cells tested or bytes rendered
    peak_bytes: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        span = Span(name, parent, time.perf_counter())
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def install(self) -> None:
        """Replace each layer's function by a wrapper that records a span per call."""
        for name, points, memory in LAYERS:
            modules = [importlib.import_module(f"hexaflex.{module}") for module, _ in points]
            wrapper = self._wrap(name, getattr(modules[0], points[0][1]), memory)
            for module, (_, attribute) in zip(modules, points):
                setattr(module, attribute, wrapper)

    def _wrap(self, name: str, fn, memory: bool):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            tracing = memory and not tracemalloc.is_tracing()
            if tracing:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracing:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.close(span)
            _annotate(span, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-layer totals: calls, self time, items and peak memory, overall and per n."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        layers: dict = {}
        for span, children in zip(self.spans, child_time):
            entry = layers.setdefault(
                span.name, {"calls": 0, "self_s": 0.0, "items": 0, "peak_bytes": 0, "by_n": {}}
            )
            self_s = span.end - span.start - children
            _add(entry, self_s, span)
            if span.n:
                per_n = entry["by_n"].setdefault(
                    str(span.n), {"calls": 0, "self_s": 0.0, "items": 0, "peak_bytes": 0}
                )
                _add(per_n, self_s, span)
        for entry in layers.values():
            if not entry["by_n"]:
                del entry["by_n"]
        return layers


def _add(entry: dict, self_s: float, span: Span) -> None:
    entry["calls"] += 1
    entry["self_s"] += self_s
    entry["items"] += span.items
    entry["peak_bytes"] = max(entry["peak_bytes"], span.peak_bytes)


def _annotate(span: Span, args: tuple, result) -> None:
    if span.name == "sequences.canonical_masks":
        span.n = args[0]
        span.items = len(result)
    elif span.name == "geometry.bulk_printable":
        span.n = args[1]
        span.items = len(args[0]) * (4 * args[1] - 1)
    elif span.name == "render.render_strip":
        span.items = len(result.encode("utf-8"))


def layer_metrics(layers: dict, overhead_s: float) -> dict:
    """The per-layer metrics of METRICS from a summary; an uncalled layer reads 0."""

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0.0 if key == "self_s" else 0)

    def per(layer: str, key: str, scale: float) -> float:
        count = get(layer, key)
        return get(layer, "self_s") * scale / count if count else 0.0

    values = {
        "sequences.canonical_masks.calls": get("sequences.canonical_masks", "calls"),
        "sequences.canonical_masks.us_per_class": per("sequences.canonical_masks", "items", 1e6),
        "sequences.canonical_masks.peak_mb": get("sequences.canonical_masks", "peak_bytes") / 2**20,
        "geometry.bulk_printable.cells": get("geometry.bulk_printable", "items"),
        "geometry.bulk_printable.ns_per_cell": per("geometry.bulk_printable", "items", 1e9),
        "geometry.bulk_printable.peak_mb": get("geometry.bulk_printable", "peak_bytes") / 2**20,
        "sequences.reduction_history.calls": get("sequences.reduction_history", "calls"),
        "sequences.reduction_history.us_per_call": per("sequences.reduction_history", "calls", 1e6),
        "render.render_strip.calls": get("render.render_strip", "calls"),
        "render.render_strip.bytes_out": get("render.render_strip", "items"),
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name, unit in METRICS:
        if name not in values:
            values[name] = get(name.rsplit(".", 1)[0], "self_s")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics
