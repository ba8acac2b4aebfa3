"""The hexaflex benchmark: CLI workloads with end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Benchmarks the `src/` of the checkout this file sits in; nothing is installed.
Workloads (see README.md in this directory for why each was chosen):

- table_printable   `table --min 3 --max 26 --printable`, serial;
- enumerate_labels  `enumerate --n 21 --with-labels`;
- nets              1000 `net --signs=<s> --side <front|back>` ops built from the seed.

Set-up times `import hexaflex.cli` in fresh interpreters, after one import
that compiles the .pyc files.  Then each round runs the workload's op list in
fresh interpreters (`worker.py`), one pinned to each of up to two CPUs at
once, so caches start cold and peak RSS is the workload's own; rounds repeat
while one more fits in `--seconds`.

With `--trace 0` the metrics are wall_s (the op list's time, each op at its
fastest across rounds and CPUs), peak_rss_mb (median over rounds) and
setup_s (median over import samples).  With `--trace 1` untraced and traced
rounds alternate; the metrics are the per-layer ones of `spans.METRICS` from
the fastest traced round, and trace.overhead_s, traced minus untraced wall_s.

Prints one record line (machine, versions, seed, every sample) and, last, the
result line.  Exits 0 when every output checked out, 1 when one did not, and
2 without a result when the checkout has no `src/hexaflex` or a round fails
to run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYCACHE = ROOT / ".bench_build" / "pycache"
IMPORT_SAMPLES = 7
# On a shared 2-vCPU virtual machine (Xeon, 2.0 GHz) each vCPU ran at a fast
# or a slow speed, about 1.8x apart, switching every few seconds and mostly
# one fast while the other was slow.  A replica per CPU, each op kept at its
# faster time, measures the program at the fast speed most of the time.
CPUS = sorted(os.sched_getaffinity(0))[:2]
BUDGET_S = 170.0  # a run must end within 180 s
IMPORT_PROBE = (
    "import json, time; start = time.perf_counter(); import hexaflex.cli; "
    "elapsed = time.perf_counter() - start; import numpy; "
    "print(json.dumps([elapsed, hexaflex.cli.__file__, numpy.__version__]))"
)


class RoundError(Exception):
    """A child interpreter failed or ran out of time: no result can be given."""


def python(arg_lists: list[list[str]], deadline: float) -> list[str]:
    """Run one interpreter per argument list, all at once, from the checkout root.

    Returns the last stdout line of each; every child has ended on return.
    """
    # .pyc files are written and read under the checkout, so that imports after
    # the first read compiled code even where the environment turns writing off
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(PYCACHE))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("HEXAFLEX_THREADS", None)  # the serial CLI, as a user runs it by default
    children = [
        subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for args in arg_lists
    ]
    try:
        outputs = [
            child.communicate(timeout=max(1.0, deadline - time.monotonic())) for child in children
        ]
    except subprocess.TimeoutExpired:
        raise RoundError("a child interpreter did not finish within the run's time budget")
    finally:
        for child in children:
            child.kill()
            child.wait()
    lines = []
    for child, (out, err) in zip(children, outputs):
        if child.returncode or not out.strip():
            raise RoundError(f"{child.args[1]} exited {child.returncode}: {err.strip()[-2000:]}")
        lines.append(out.splitlines()[-1])
    return lines


def set_up(deadline: float) -> tuple[list[float], str]:
    """Import times of `hexaflex.cli` in fresh interpreters, and numpy's version.

    Each sample is the faster of one import per CPU, made at the same time.
    """
    python([["-c", IMPORT_PROBE]], deadline)  # compiles the .pyc files
    samples, numpy_version = [], ""
    for _ in range(IMPORT_SAMPLES):
        pair = [json.loads(line) for line in python([["-c", IMPORT_PROBE]] * len(CPUS), deadline)]
        for _, path, numpy_version in pair:
            if not Path(path).resolve().is_relative_to(ROOT / "src"):
                raise RoundError(f"hexaflex imported from {path}, not from {ROOT / 'src'}")
        samples.append(min(elapsed for elapsed, _, _ in pair))
    return samples, numpy_version


def run_round(workload: str, seed: int, trace: bool, deadline: float) -> list[dict]:
    """One round: a worker per CPU, each pinned to its CPU, running the op list at once."""
    args = [[str(HERE / "worker.py"), workload, str(seed), str(int(trace)), str(cpu)] for cpu in CPUS]
    return [json.loads(line) for line in python(args, deadline)]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def src_sha256() -> str:
    """Digest of the benchmarked sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def fastest(rounds: list[dict]) -> float:
    """The op list's time, each op at its fastest across the rounds.

    Other tenants of a shared host can slow a CPU by up to half for tens of
    seconds at a time; that noise only ever adds time, so the fastest repeat
    of each op is the steadiest estimate of its cost.
    """
    return sum(min(times) for times in zip(*(r["op_s"] for r in rounds)))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(record, result) of one benchmark run."""
    deadline = time.monotonic() + BUDGET_S
    imports, numpy_version = set_up(deadline)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain += run_round(workload, seed, False, deadline)
        if trace:
            traced += run_round(workload, seed, True, deadline)
        elapsed = time.monotonic() - start
        next_end = elapsed * (1 + len(CPUS) / len(plain))  # when one more round would end
        if next_end > seconds or start + next_end > deadline:
            break
    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wall_s = fastest(plain)
    if trace:
        fastest_traced = min(traced, key=lambda r: r["wall_s"])
        metrics = spans.layer_metrics(fastest_traced["layers"], fastest(traced) - wall_s)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MiB"
            },
            "setup_s": {"value": statistics.median(imports), "unit": "s"},
        }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "ops": worker.op_list(workload, seed)[:3],
        "fail_ratio": failed / attempted,
        "problems": [p for r in rounds for p in r["problems"]][:10],
        "import_s": imports,
        "rounds": [{k: v for k, v in r.items() if k not in ("problems", "op_s")} for r in rounds],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=worker.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/hexaflex/cli.py", "tests/reference_table.py") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: the checkout at {ROOT} lacks {', '.join(missing)}\n")
        return 2
    try:
        record, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
