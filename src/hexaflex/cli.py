"""Command-line interface: count, table, enumerate, net, verify.

Exit codes: 0 success, 1 verification mismatch, 2 usage or domain error,
3 invalid sign sequence.  Sign sequences are accepted as "+/-" strings
("++--") or comma-separated entries ("1,1,-1,-1").
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import counting, geometry, labeling, render, sequences

__all__ = ["main"]

USAGE_ERROR = 2
INVALID_SIGNS = 3


def _parse_signs(text: str) -> tuple[int, ...]:
    if "," in text:
        try:
            return tuple(int(part.strip()) for part in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse {text!r} as comma-separated signs")
    table = {"+": 1, "-": -1}
    if not text or any(ch not in table for ch in text):
        raise ValueError(f"cannot parse {text!r}: expected '+'/'-' characters")
    return tuple(table[ch] for ch in text)


def _write(text: str) -> None:
    """Write text to stdout in full, or raise.

    A large write into a pipe that closes can come back short without an
    error, and a text stream drops the count, so the encoded bytes go to the
    binary buffer until every byte is taken or a write raises
    BrokenPipeError.  A stdout with no buffer, such as io.StringIO, takes
    the text.
    """
    stream = sys.stdout
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    stream.flush()  # whatever the text layer holds goes first
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        data = data[buffer.write(data) :]


def cmd_count(args: argparse.Namespace) -> int:
    _write(render.digits(counting.hexaflexagon_count(args.n)) + "\n")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.min < 3 or args.max < args.min:
        raise ValueError(f"need 3 <= min <= max, got min={args.min} max={args.max}")
    ns = range(args.min, args.max + 1)
    if args.printable:
        sequences.check_size(args.max, args.limit, "counting")
        rows = [
            (n, counting.hexaflexagon_count(n), geometry.printable_class_count(n, limit=args.limit))
            for n in ns
        ]
    else:
        rows = [(n, counting.hexaflexagon_count(n), None) for n in ns]
    _write(render.render_table(rows))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    sequences.check_size(n, args.limit, "enumeration")
    for block in sequences.class_jsonl(n, labels=args.with_labels):
        _write(block)
        del block  # before the next block is built
    return 0


def cmd_net(args: argparse.Namespace) -> int:
    if args.signs is not None:
        if args.index is not None:
            raise ValueError("--index applies only with --n")
        signs = _parse_signs(args.signs)
    else:
        index = 0 if args.index is None else args.index
        sequences.check_size(args.n, args.limit, "enumeration")
        masks = sequences.canonical_masks(args.n)
        if not 0 <= index < len(masks):
            raise ValueError(f"--index {index} out of range: n={args.n} has {len(masks)} classes")
        signs = sequences.signs_from_mask(int(masks[index]), args.n)
    reason = sequences.invalid_reason(signs)
    if reason is not None:
        sys.stderr.write(f"invalid sign sequence: {reason}\n")
        return INVALID_SIGNS
    pattern = labeling.build_pattern(sequences.reduction_history(signs))
    strip = geometry.lay_strip(pattern.signs, glue=args.glue)
    labels = labeling.strip_labels(pattern, glue=args.glue)
    document = render.render_strip(strip, labels, side=args.side, scale=args.scale)
    if args.out == "-":
        _write(document)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(document)
        except OSError as error:
            raise ValueError(f"cannot write {args.out}: {error.strerror}") from None
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    ok = verify.run_suites(args.max_n, paper_bracelet=args.paper_bracelet)
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexaflex",
        description="Count, enumerate, and print hexaflexagon strips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="closed-form class count H(n)")
    count.add_argument("--n", type=int, required=True, help="number of top faces, n >= 3")
    count.set_defaults(func=cmd_count)

    table = sub.add_parser("table", help="CSV table of counts over a range of n")
    table.add_argument("--min", type=int, default=3)
    table.add_argument("--max", type=int, required=True)
    table.add_argument(
        "--printable", action="store_true", help="add the printable-class column Hp"
    )
    table.add_argument(
        "--limit",
        type=int,
        default=geometry.DEFAULT_COUNTING_LIMIT,
        help="largest n allowed for the printable column",
    )
    table.set_defaults(func=cmd_table)

    enumerate_ = sub.add_parser("enumerate", help="JSONL records of every class at n")
    enumerate_.add_argument("--n", type=int, required=True)
    enumerate_.add_argument(
        "--with-labels", action="store_true", help="include the face label sequence"
    )
    enumerate_.add_argument(
        "--limit",
        type=int,
        default=sequences.DEFAULT_ENUMERATION_LIMIT,
        help="largest n allowed",
    )
    enumerate_.set_defaults(func=cmd_enumerate)

    net = sub.add_parser("net", help="SVG net for one class")
    which = net.add_mutually_exclusive_group(required=True)
    which.add_argument("--signs", help="sign sequence, '++--' or '1,1,-1,-1'")
    which.add_argument("--n", type=int, help="enumerate length n and pick --index")
    net.add_argument(
        "--index", type=int, help="class index in canonical order with --n (default 0)"
    )
    net.add_argument("--side", choices=["front", "back"], default="front")
    net.add_argument(
        "--glue",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="append the glue triangle (default on)",
    )
    net.add_argument("--scale", type=float, default=40.0, help="pixels per lattice unit")
    net.add_argument("--out", default="-", help="output path, '-' for stdout")
    net.add_argument(
        "--limit",
        type=int,
        default=sequences.DEFAULT_ENUMERATION_LIMIT,
        help="largest n allowed with --n",
    )
    net.set_defaults(func=cmd_net)

    verify_ = sub.add_parser("verify", help="formula-vs-brute-force suites")
    verify_.add_argument("--max-n", type=int, default=10, dest="max_n")
    verify_.add_argument(
        "--paper-bracelet",
        action="store_true",
        help=argparse.SUPPRESS,  # swaps in the non-integral even/even branch
    )
    verify_.set_defaults(func=cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        sys.stderr.write(f"error: {error}\n")
        return USAGE_ERROR
    except ArithmeticError as error:
        sys.stderr.write(f"internal arithmetic failure: {error}\n")
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # as the signal module's docs advise: the exit-time flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
