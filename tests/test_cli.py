import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hexaflex import cli, counting, geometry, labeling, sequences, verify
from hexaflex.cli import run
from hexaflex.counting import hexaflexagon_count
from hexaflex.sequences import enumerate_classes

from support import grown_to, shuffled, to_mask

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"


def test_count(capsys):
    assert run(["count", "--n", "7"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert run(["count", "--n", "12"]) == 0
    assert capsys.readouterr().out == "47\n"


def test_count_past_the_int_digit_limit(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    big = (10**5000 - 1) // 9  # 5000 ones
    monkeypatch.setattr(counting, "hexaflexagon_count", lambda n: big)
    assert run(["count", "--n", "14500"]) == 0
    assert capsys.readouterr().out == "1" * 5000 + "\n"
    assert sys.get_int_max_str_digits() == limit


def test_count_domain_error(capsys):
    assert run(["count", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_table(capsys):
    assert run(["table", "--max", "8"]) == 0
    assert capsys.readouterr().out == "n,H\n3,1\n4,1\n5,1\n6,3\n7,3\n8,7\n"


def test_table_printable(capsys):
    assert run(["table", "--max", "8", "--printable"]) == 0
    assert capsys.readouterr().out == "n,H,Hp\n3,1,1\n4,1,1\n5,1,1\n6,3,3\n7,3,2\n8,7,5\n"


def test_table_range_errors(capsys):
    assert run(["table", "--min", "9", "--max", "8"]) == 2
    capsys.readouterr()
    assert run(["table", "--min", "2", "--max", "8"]) == 2
    capsys.readouterr()
    assert run(["table", "--max", "27", "--printable"]) == 2
    assert "exceeds the counting limit 26" in capsys.readouterr().err


def test_table_limit_above_ceiling_fails_fast(capsys):
    start = time.perf_counter()
    assert run(["table", "--max", "70", "--printable", "--limit", "70"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "limit 70" in captured.err
    assert captured.out == ""


def test_class_count_mismatch_is_arithmetic_failure(capsys, monkeypatch):
    # the ladder checks each level as it grows it, so start it again under the patch
    monkeypatch.setattr(sequences, "_LADDER", {3: sequences.canonical_masks(3)})
    monkeypatch.setattr(sequences, "hexaflexagon_count", lambda n: hexaflexagon_count(n) + 1)
    assert run(["table", "--max", "6", "--printable"]) == 1
    captured = capsys.readouterr()
    assert "internal arithmetic failure" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["enumerate", "--n", "7"], ["net", "--n", "7"]])
def test_class_count_mismatch_fails_every_ladder_command(capsys, monkeypatch, argv):
    monkeypatch.setattr(sequences, "_LADDER", {3: sequences.canonical_masks(3)})
    monkeypatch.setattr(sequences, "hexaflexagon_count", lambda n: hexaflexagon_count(n) + 1)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "internal arithmetic failure" in captured.err
    assert captured.out == ""


def test_enumerate(capsys):
    assert run(["enumerate", "--n", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 3
    for record in records:
        assert set(record) == {"n", "signs", "sum", "printable"}
        assert record["n"] == 7
        assert len(record["signs"]) == 7
        assert set(record["signs"]) <= {"+", "-"}
        assert record["sum"] >= 0
    assert sum(not r["printable"] for r in records) == 1


def test_enumerate_with_labels(capsys):
    assert run(["enumerate", "--n", "6", "--with-labels"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 3
    for record in records:
        assert sorted(record["labels"]) == list(range(1, 7))


def _json_dumps_lines(n: int, with_labels: bool) -> str:
    """enumerate's output as one ClassRecord and one json.dumps per class: the oracle."""
    masks = sequences.canonical_masks(n)
    lines = []
    for m, flag in zip(masks.tolist(), geometry.bulk_printable(masks, n).tolist()):
        signs = sequences.signs_from_mask(m, n)
        labels = None
        if with_labels:
            labels = labeling.build_pattern(sequences.reduction_history(signs)).labels
        record = sequences.ClassRecord(n, signs, sum(signs), flag, labels)
        payload = {
            "n": record.n,
            "signs": "".join("+" if a > 0 else "-" for a in record.signs),
            "sum": record.sum,
            "printable": record.printable,
        }
        if with_labels:
            payload["labels"] = list(record.labels)
        lines.append(json.dumps(payload) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("with_labels", [False, True])
def test_enumerate_matches_json_dumps(capsys, with_labels):
    for n in range(3, 17):
        assert run(["enumerate", "--n", str(n)] + ["--with-labels"] * with_labels) == 0
        assert capsys.readouterr().out == _json_dumps_lines(n, with_labels)


DIGESTS = json.loads((Path(__file__).parent / "stdout_digests.json").read_text())


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_matches_recorded_digest(command):
    # every stdout that must stay byte-identical.  Some entries reach past the
    # other tests: levels 27 and 28 grow from uint32 candidate words,
    # enumerate --n 26 flags every row of the level with the most printability
    # blocks, enumerate --n 24 --with-labels replays every history at the cap,
    # and verify --max-n 18 runs every verify suite to its own cap.  Each exits 0
    # with an empty stderr: -W error turns any warning into an error, as tier-1's
    # filterwarnings does, also a DeprecationWarning that a plain run would not print
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hexaflex"] + command.split(),
        capture_output=True,
        env=env,
        timeout=120,  # a hung command fails here, named, not at CI's job limit
    )
    failures = [line for line in proc.stdout.decode().splitlines() if line.startswith("FAIL ")]
    assert proc.returncode == 0, "\n".join([*failures, proc.stderr.decode()])
    assert proc.stderr == b""
    assert proc.stdout.count(b"\n") == DIGESTS[command]["lines"]
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[command]["sha256"]


def test_benchmark_expected_matches_the_registry():
    # benchmarks/expected.json keeps its own copy of one recorded digest
    expected = json.loads((ROOT / "benchmarks" / "expected.json").read_text())
    assert expected["enumerate_labels"] == DIGESTS["enumerate --n 21 --with-labels"]


def _orbit_members(n: int, seed: int) -> list[tuple[int, ...]]:
    """Valid length-n sequences: random extensions of (1, 1, 1), each maybe reversed
    and inverted, then shifted, plus the largest valid sum and its negative."""
    rng = random.Random(seed)
    members = [shuffled(grown_to(n, rng), rng, "ris") for _ in range(40)]
    minus = next(k for k in range(n) if (n - 2 * k) % 3 == 0)
    top = (-1,) * minus + (1,) * (n - minus)
    return members + [top, sequences.invert(top)]


@pytest.mark.parametrize("with_labels", [False, True])
@pytest.mark.parametrize("n", [25, 40, 63, 64])
def test_class_jsonl_matches_json_dumps_at_the_field_widths(monkeypatch, n, with_labels):
    # two-digit labels up to 64 and sums from -63 to 63, past the enumeration limit
    members = _orbit_members(n, seed=n)
    masks = np.array([to_mask(signs) for signs in members], dtype=np.uint64)
    expected = []
    for signs in members:
        payload = {
            "n": n,
            "signs": "".join("+" if a > 0 else "-" for a in signs),
            "sum": sum(signs),
            "printable": geometry.is_printable(signs),
        }
        if with_labels:
            pattern = labeling.build_pattern(sequences.reduction_history(signs))
            payload["labels"] = list(pattern.labels)
        expected.append(json.dumps(payload) + "\n")
    monkeypatch.setitem(sequences._LADDER, n, masks)  # class_jsonl reads level n from the ladder
    assert "".join(sequences.class_jsonl(n, labels=with_labels)) == "".join(expected)


def test_enumerate_one_row_per_block(capsys, monkeypatch):
    expected = {}
    for n in range(3, 13):
        for flag in ([], ["--with-labels"]):
            assert run(["enumerate", "--n", str(n)] + flag) == 0
            expected[n, bool(flag)] = capsys.readouterr().out
    monkeypatch.setattr(sequences, "_BLOCK_BYTES", 1)
    for (n, with_labels), out in expected.items():
        assert run(["enumerate", "--n", str(n)] + ["--with-labels"] * with_labels) == 0
        assert capsys.readouterr().out == out


def test_enumerate_first_class(capsys):
    assert run(["enumerate", "--n", "3"]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[0])
    assert record == {"n": 3, "signs": "+++", "sum": 3, "printable": True}


def test_enumerate_limit(capsys):
    assert run(["enumerate", "--n", "30"]) == 2
    assert "limit" in capsys.readouterr().err
    assert run(["enumerate", "--n", "5", "--limit", "65"]) == 2
    assert "limit 65" in capsys.readouterr().err


def test_net_stdout_matches_golden(capsys):
    assert run(["net", "--signs", "+++", "--no-glue"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "trihexaflexagon_front.svg").read_text()


def test_net_back_matches_golden(capsys):
    assert run(["net", "--signs", "+++", "--no-glue", "--side", "back"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "trihexaflexagon_back.svg").read_text()


def test_net_comma_form(capsys):
    assert run(["net", "--signs", "1,1,1", "--no-glue"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "trihexaflexagon_front.svg").read_text()


def test_net_by_index(capsys):
    assert run(["net", "--n", "3", "--index", "0", "--no-glue"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "trihexaflexagon_front.svg").read_text()


@pytest.mark.parametrize("n, index", [(6, 2), (11, 9), (16, 300), (20, 4642)])
def test_net_by_index_matches_net_by_signs(capsys, n, index):
    # --index picks the class's canonical signs, as the ClassRecord list orders them
    signs = "".join("+" if a > 0 else "-" for a in enumerate_classes(n)[index].signs)
    assert run(["net", f"--signs={signs}", "--side", "back"]) == 0
    expected = capsys.readouterr().out
    assert run(["net", "--n", str(n), "--index", str(index), "--side", "back"]) == 0
    assert capsys.readouterr().out == expected


def test_net_writes_file(tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert run(["net", "--signs", "++--", "--out", str(first)]) == 0
    assert run(["net", "--signs", "++--", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().count("<polygon") == 13  # 12 triangles plus glue


@pytest.mark.parametrize("name", ["", "missing/net.svg"], ids=["directory", "missing-parent"])
def test_net_unwritable_out(tmp_path, capsys, name):
    path = tmp_path / name
    assert run(["net", "--signs", "+++", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.out == ""


def test_enumerate_into_closed_pipe():
    # as `hexaflex enumerate --n 20 | head -1`: far more output than a pipe buffers
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hexaflex", "enumerate", "--n", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b'{"n": 20, ')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err
    assert err == b""


def test_table_into_closed_pipe():
    # as `hexaflex table --max 3000 | head -1`: one write of about 1.4 MB, which a
    # closing pipe can take in part without an error
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hexaflex", "table", "--max", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"n,H\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_net_no_glue_polygon_count(capsys):
    assert run(["net", "--signs", "++--", "--no-glue"]) == 0
    assert capsys.readouterr().out.count("<polygon") == 12


def test_net_invalid_sequences(capsys):
    assert run(["net", "--signs", "+-+-"]) == 3
    assert capsys.readouterr().err == (
        "invalid sign sequence: signs alternate, so no two adjacent triangles fold together;"
        " a foldable sequence needs at least one equal adjacent pair\n"
    )
    assert run(["net", "--signs", "+++-"]) == 3
    assert capsys.readouterr().err == (
        "invalid sign sequence: entry sum 2 is not a multiple of 3,"
        " so extension moves cannot reach it\n"
    )


def test_net_parse_errors(capsys):
    assert run(["net", "--signs", "abc"]) == 2
    capsys.readouterr()
    assert run(["net", "--signs", "++"]) == 2
    capsys.readouterr()
    assert run(["net", "--signs", "1,2,1"]) == 2
    capsys.readouterr()
    assert run(["net", "--signs", "1,x,1"]) == 2
    assert "cannot parse '1,x,1' as comma-separated signs" in capsys.readouterr().err


def test_net_rejects_non_finite_scale(capsys):
    for scale in (["--scale", "nan"], ["--scale", "inf"], ["--scale=-inf"]):
        assert run(["net", "--signs", "+++", *scale]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scale must be finite" in captured.err


def test_net_rejects_oversized_scale(capsys):
    for scale in ("1e308", "1e300", "2e8"):
        assert run(["net", "--signs", "+++", "--scale", scale]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must not exceed" in captured.err
    assert run(["net", "--signs", "+++", "--scale", "1e8"]) == 0
    assert 'width="600000000"' in capsys.readouterr().out


def test_net_rejects_a_scale_that_collapses_corners(capsys):
    # at 1e-9 every corner prints as 0,0; at 5e-4 the 12 corners print as 8 points
    for scale, message in (("1e-9", "12 distinct corners at 1 points"), ("5e-4", "at 8 points")):
        assert run(["net", "--signs=+++", "--scale", scale]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    assert run(["net", "--signs=+++", "--scale", "1e-3"]) == 0
    assert 'width="0.006"' in capsys.readouterr().out


def test_net_index_out_of_range(capsys):
    assert run(["net", "--n", "3", "--index", "5"]) == 2
    assert "out of range" in capsys.readouterr().err
    for index in ("3", "-1"):
        assert run(["net", "--n", "6", "--index", index]) == 2
        assert f"--index {index} out of range: n=6 has 3 classes" in capsys.readouterr().err


def test_net_limit(capsys):
    assert run(["net", "--n", "30"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("max_n", ["2", "-1"])
def test_verify_rejects_max_n_below_3(capsys, max_n):
    assert run(["verify", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"verify needs --max-n >= 3, got {max_n}" in captured.err


def test_verify_paper_bracelet_fails(capsys):
    assert run(["verify", "--max-n", "6", "--paper-bracelet"]) == 1
    out = capsys.readouterr().out
    assert "FAIL bracelet" in out
    assert "B(4,2)" in out
    assert "3/2" in out


def test_verify_names_a_failing_suite_once(capsys, monkeypatch):
    monkeypatch.setattr(verify, "naive_render_strip", lambda strip, labels, side: "<svg/>")
    assert run(["verify", "--max-n", "3"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and fails[0].startswith("FAIL labeling: ")
    assert "labeling" not in fails[0][len("FAIL labeling: ") :]


def test_verify_fails_a_level_that_repeats_a_class(capsys, monkeypatch):
    # still exactly H(13) masks, so only the class-count suite's order check can see it;
    # every other suite stops at n = 12
    level = sequences.canonical_masks(13).copy()
    level[1] = level[0]
    level.flags.writeable = False
    monkeypatch.setitem(sequences._LADDER, 13, level)
    assert run(["verify", "--max-n", "13"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("PASS ")] == [
        f"PASS {name}" for name in verify._SUITES if name != "class-count"
    ]
    assert len(lines) == 8 and lines[4].startswith("FAIL class-count: H(13): ")


def test_verify_reports_a_crashing_suite_and_runs_the_rest(capsys, monkeypatch):
    bulk = geometry.bulk_printable

    def faulty(masks, n):
        if n == 7:
            raise ValueError("simulated kernel fault")
        return bulk(masks, n)

    monkeypatch.setattr(geometry, "bulk_printable", faulty)
    assert run(["verify", "--max-n", "8"]) == 1
    captured = capsys.readouterr()
    fault = "ValueError: simulated kernel fault"
    assert captured.out.splitlines() == [
        "PASS necklace",
        "PASS bracelet",
        "PASS lyndon",
        "PASS self-conjugate",
        f"FAIL class-count: {fault}",
        f"FAIL printable: {fault}",
        "PASS lemma",
        f"FAIL labeling: {fault}",
    ]
    assert captured.err == ""


def test_verify_reports_any_exception_type(capsys, monkeypatch):
    def faulty(masks, n):
        raise IndexError("simulated label fault")

    monkeypatch.setattr(sequences, "_labels", faulty)
    assert run(["verify", "--max-n", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAIL labeling: IndexError: simulated label fault"
    assert lines[:-1] == [f"PASS {name}" for name in list(verify._SUITES)[:-1]]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["net"])  # needs --signs or --n
    assert exc.value.code == 2


def test_run_back_to_back_keeps_no_state(capsys):
    # the parser is built once per process; every call still starts from the defaults
    assert run(["net", "--signs", "+++", "--no-glue"]) == 0
    assert capsys.readouterr().out.count("<polygon") == 9
    assert run(["net", "--signs", "+++"]) == 0
    assert capsys.readouterr().out.count("<polygon") == 10  # 9 triangles plus glue
    with pytest.raises(SystemExit):
        run(["net", "--signs", "+++", "--side", "top"])
    assert run(["net", "--signs", "+++"]) == 0
    assert capsys.readouterr().out.count("<polygon") == 10
    assert run(["enumerate", "--n", "6", "--with-labels"]) == 0
    assert all("labels" in json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert run(["enumerate", "--n", "6"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 3 and not any("labels" in record for record in records)
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max", "8", "--printable"],
        ["enumerate", "--n", "9", "--with-labels"],
        ["net", "--signs", "++--"],
    ],
)
def test_text_stdout_matches_the_byte_path(capsys, argv):
    # benchmarks/worker.py gives cli.run an io.StringIO, which has no buffer, so
    # every benchmark op takes _write's text branch; capsys takes the byte branch
    assert hasattr(sys.stdout, "buffer")
    assert run(argv) == 0
    expected = capsys.readouterr().out
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert run(argv) == 0
    assert not hasattr(text, "buffer")
    assert text.getvalue() == expected
    assert capsys.readouterr().out == ""


def test_benchmark_span_call_routes(capsys, monkeypatch):
    # benchmarks/spans.py wraps these module attributes; a call that stops going
    # through them reads 0 there without failing, so pin the routes here
    masks, bulk = sequences.canonical_masks, geometry.bulk_printable
    levels, rows = [], []

    def counted_masks(n):
        levels.append(n)
        return masks(n)

    def counted_bulk(block, n):
        rows.append(len(block))
        return bulk(block, n)

    monkeypatch.setattr(sequences, "canonical_masks", counted_masks)
    monkeypatch.setattr(geometry, "bulk_printable", counted_bulk)
    assert run(["table", "--min", "3", "--max", "12", "--printable"]) == 0
    assert levels == list(range(3, 13))
    assert sum(rows) == sum(hexaflexagon_count(n) for n in range(3, 13))
    levels.clear()
    assert run(["enumerate", "--n", "10", "--with-labels"]) == 0
    assert levels == [10]
    capsys.readouterr()


def test_console_script():
    exe = shutil.which("hexaflex")
    if exe is None:
        pytest.skip("console script not on PATH (package not installed)")
    proc = subprocess.run([exe, "count", "--n", "6"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


@pytest.mark.parametrize("module", ["hexaflex", "hexaflex.cli"])
def test_python_m(module):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", module, "count", "--n", "6"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_net_index_only_with_n(capsys):
    assert run(["net", "--signs", "+++", "--index", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --index applies only with --n\n"
    assert captured.out == ""
    assert run(["net", "--n", "6", "--side", "back"]) == 0
    default = capsys.readouterr().out
    assert run(["net", "--n", "6", "--index", "0", "--side", "back"]) == 0
    assert capsys.readouterr().out == default


def test_readme_examples_match_the_cli(capsys):
    # each "$ hexaflex ..." block of README.md; a block ending in "..." is a prefix
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n\$ hexaflex (.*?)```", readme, re.S)
    assert [block.split()[0] for block in blocks] == ["count", "table", "enumerate", "verify"]
    for block in blocks:
        command, _, expected = block.partition("\n")
        assert run(command.split()) == 0
        out = capsys.readouterr().out
        if expected.endswith("...\n"):
            assert out.startswith(expected[: -len("...\n")]), command
        else:
            assert out == expected, command
