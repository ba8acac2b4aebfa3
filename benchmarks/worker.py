"""One round of one workload, in a fresh interpreter.

    python benchmarks/worker.py <workload> <seed> <trace 0|1> <cpu>

Runs the workload's fixed op list through `hexaflex.cli.run(argv)` with stdout
and stderr captured, checks every output, and prints one JSON line: the time
of each op inside `cli.run` and their sum, the process's peak RSS, ops
attempted and failed, the first few failure messages, a digest of all outputs
and, when traced, the per-layer span summary.  `hexaflex` must be importable from the checkout's
`src/`, which `run.py` puts on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import runpy
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
WORKLOADS = ("table_printable", "enumerate_labels", "nets")
TABLE_RANGE = (3, 26)
ENUMERATE_N = 21
NETS_OPS = 1000
NETS_LENGTHS = (12, 48)
SVG = "{http://www.w3.org/2000/svg}"


def nets_inputs(seed: int) -> list[tuple[str, str]]:
    """(signs, side) pairs; each sign sequence is grown from (1, 1, 1) by random
    extend moves to a length drawn uniformly from NETS_LENGTHS.

    The lengths are a shuffled, evenly filled multiset rather than independent
    draws, so every seed asks for the same amount of work by length.
    """
    rng = random.Random(seed)
    low, high = NETS_LENGTHS
    lengths = [low + i % (high - low + 1) for i in range(NETS_OPS)]
    rng.shuffle(lengths)
    inputs = []
    for n in lengths:
        signs = (1, 1, 1)
        while len(signs) < n:
            i = rng.randrange(len(signs))
            signs = signs[:i] + (-signs[i], -signs[i]) + signs[i + 1 :]
        side = rng.choice(("front", "back"))
        inputs.append(("".join("+" if a > 0 else "-" for a in signs), side))
    return inputs


def op_list(workload: str, seed: int) -> list[list[str]]:
    if workload == "table_printable":
        low, high = TABLE_RANGE
        return [["table", "--min", str(low), "--max", str(high), "--printable"]]
    if workload == "enumerate_labels":
        return [["enumerate", "--n", str(ENUMERATE_N), "--with-labels"]]
    # `--signs=<s>`: argparse reads a separate value starting with '-' as an option
    return [["net", f"--signs={signs}", "--side", side] for signs, side in nets_inputs(seed)]


def reference_table() -> str:
    known = runpy.run_path(str(ROOT / "tests" / "reference_table.py"))["KNOWN_COUNTS"]
    low, high = TABLE_RANGE
    rows = [f"{n},{known[n][0]},{known[n][1]}" for n in range(low, high + 1)]
    return "\n".join(["n,H,Hp", *rows]) + "\n"


def check_op(workload: str, argv: list[str], out: str) -> str | None:
    """Why one successful op's stdout is wrong, or None."""
    if workload == "table_printable":
        return None if out == reference_table() else "table differs from tests/reference_table.py"
    if workload == "enumerate_labels":
        expected = EXPECTED["enumerate_labels"]
        if out.count("\n") != expected["lines"]:
            return f"{out.count(chr(10))} records, expected {expected['lines']}"
        if hashlib.sha256(out.encode()).hexdigest() != expected["sha256"]:
            return "enumerate output digest differs from the recorded one"
        return None
    cells = 3 * len(argv[1].removeprefix("--signs=")) + 1  # 3n strip triangles plus glue
    try:
        svg = ET.fromstring(out)
    except ET.ParseError as error:
        return f"{argv[1]}: SVG does not parse: {error}"
    polygons, texts = len(svg.findall(SVG + "polygon")), len(svg.findall(SVG + "text"))
    if polygons != cells or texts != cells:
        return f"{argv[1]}: {polygons} polygons and {texts} texts, expected {cells}"
    return None


def run_round(workload: str, seed: int, trace: bool) -> dict:
    from hexaflex import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hexaflex imported from {cli.__file__}, not from {ROOT / 'src'}")
    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    digest = hashlib.sha256()
    op_s, failed, problems = [], 0, []
    ops = op_list(workload, seed)
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.open(spans.CLI_SPAN) if tracer else None
            start = time.perf_counter()
            try:
                code = cli.run(argv)
            except SystemExit as stop:  # argparse rejects bad usage this way
                code = stop.code
            except Exception as error:  # a crash counts as a failed op, not a lost round
                code = 1
                err.write(f"{type(error).__name__}: {error}")
            op_s.append(time.perf_counter() - start)
            if span:
                tracer.close(span)
        text = out.getvalue()
        digest.update(" ".join(argv).encode() + b"\0" + text.encode() + b"\0")
        problem = f"{argv}: exit {code}: {err.getvalue().strip()}" if code else check_op(workload, argv, text)
        if problem:
            failed += 1
            problems.append(problem)
    recorded = EXPECTED["nets"]
    if workload == "nets" and seed == recorded["seed"] and digest.hexdigest() != recorded["sha256"]:
        failed = max(failed, 1)
        problems.append(f"digest over all outputs for seed {seed} differs from the recorded one")
    return {
        "wall_s": sum(op_s),
        "op_s": op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems[:5],
        "digest": digest.hexdigest(),
        "layers": tracer.summary() if tracer else None,
    }


if __name__ == "__main__":
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    os.sched_setaffinity(0, {int(sys.argv[4])})
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    print(json.dumps(run_round(workload, seed, trace)))
