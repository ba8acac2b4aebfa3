"""Checks on the benchmark itself: call counts that must repeat exactly, and the
metric names BENCHMARK.json declares.

The call counts show that the span wrappers sit on the path the CLI actually
takes.  This file is outside the repository's `testpaths`; run it with

    python -m pytest benchmarks/test_bench.py

It takes about a minute, most of it the traced `table_printable` round.
"""

from __future__ import annotations

import json
import runpy
import time

import pytest

import run
import spans
import worker

# The layers each workload calls, by the metric prefix of spans.LAYERS.
CALLED = {
    "table_printable": {
        "cli.run", "sequences.canonical_masks", "geometry.bulk_printable",
        "geometry.printable_class_count", "counting.hexaflexagon_count", "render.render_table",
    },
    "enumerate_labels": {
        "cli.run", "sequences.enumerate_classes", "sequences.canonical_masks",
        "geometry.bulk_printable", "sequences.reduction_history", "labeling.build_pattern",
    },
    "nets": {
        "cli.run", "sequences.reduction_history", "labeling.build_pattern",
        "geometry.lay_strip", "labeling.strip_labels", "render.render_strip",
    },
}


@pytest.fixture(scope="module", params=sorted(CALLED))
def traced(request) -> tuple[str, list[dict]]:
    """A traced round of the workload: one result per CPU replica."""
    workload = request.param
    replicas = run.run_round(workload, 0, True, time.monotonic() + run.BUDGET_S)
    for result in replicas:
        assert result["failed"] == 0, result["problems"]
    return workload, replicas


def test_each_workload_calls_exactly_its_layers(traced):
    workload, replicas = traced
    for result in replicas:
        assert set(result["layers"]) == CALLED[workload]


@pytest.mark.parametrize("replica", [0, -1])
def test_call_counts(traced, replica):
    workload, replicas = traced
    result = replicas[replica]
    metrics = spans.layer_metrics(result["layers"], 0.0)
    value = lambda name: metrics[name]["value"]  # noqa: E731
    if workload == "table_printable":
        low, high = worker.TABLE_RANGE
        known = runpy.run_path(str(worker.ROOT / "tests" / "reference_table.py"))["KNOWN_COUNTS"]
        assert value("sequences.canonical_masks.calls") == high - low + 1 == 24
        assert value("geometry.bulk_printable.cells") == sum(
            known[n][0] * (4 * n - 1) for n in range(low, high + 1)
        )
    elif workload == "enumerate_labels":
        assert value("sequences.reduction_history.calls") == 8496
    else:
        assert value("render.render_strip.calls") == worker.NETS_OPS == result["attempted"]


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(worker.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(spans.METRICS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        ("wall_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"),
    ]


def test_nets_inputs_follow_the_seed():
    assert worker.op_list("nets", 3) == worker.op_list("nets", 3)
    assert worker.op_list("nets", 3) != worker.op_list("nets", 4)
    lengths = [len(signs) for signs, _ in worker.nets_inputs(3)]
    assert min(lengths) >= worker.NETS_LENGTHS[0] and max(lengths) <= worker.NETS_LENGTHS[1]
