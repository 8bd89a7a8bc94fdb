"""Command-line front end.

Subcommands: stable, fires, seq, verify, schizo.  Every numeric argument is
parsed, and every integer printed, by `numerics.parse_int` and
`numerics.format_int`, so no integer is too long.  `stable` and `fires`
pass their answer through `numerics.certify` before printing it, and
`fires` prints the `SimResult` that the certificate returns.  Exit
codes: 0 success, 1 routes, or the engine and a formula, disagreed, or an
answer failed its certificate, in any subcommand (one `FAIL:` line, no
traceback), 2 usage error, 141 standard output closed early.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import engine, formulas, numerics, schizo, sequences
from .numerics import format_int

FORMATS = ("table", "csv", "json")
SEQ_FORMATS = FORMATS + ("bfile",)


def _decimal(text: str) -> int:
    """argparse type for an integer argument of any length."""
    try:
        return numerics.parse_int(text)
    except ValueError:
        # the message argparse prints when int() rejects a value
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_k_range(text: str) -> range:
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo = numerics.parse_int(lo_s)
        hi = numerics.parse_int(hi_s) if dots else lo
        ok = 2 <= lo <= hi
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"bad k range {text!r}; need 2 <= lo <= hi")
    return range(lo, hi + 1)


def cmd_stable(args) -> int:
    chips = numerics.stable_config(args.N, args.k)
    numerics.certify(args.N, args.k, chips)
    # layer i+1 holds digit i of N - repunit(n, k), plus one
    digits = numerics.DigitString(radix=args.k,
                                  digits=tuple(c - 1 for c in reversed(chips)))
    if args.format == "json":
        print(sequences.json_text({"N": args.N, "k": args.k, "n": len(chips),
                                   "digits": str(digits),
                                   "chips_per_vertex": chips}))
    elif args.format == "csv":
        print("layer,chips_per_vertex")
        for i, c in enumerate(chips, 1):
            print(f"{format_int(i)},{format_int(c)}")
    else:
        print(f"N = {format_int(args.N)}  k = {format_int(args.k)}  "
              f"n = {format_int(len(chips))}  digits = {digits}")
        for i, c in enumerate(chips, 1):
            print(f"layer {format_int(i)}: {format_int(c)} chips per vertex")
    return 0


def cmd_fires(args) -> int:
    result = numerics.certify(args.N, args.k, numerics.stable_config(args.N, args.k),
                              formulas.fire_profile(args.N, args.k))
    if args.format == "json":
        print(sequences.json_text({"N": args.N, "k": args.k, "n": result.n,
                                   "fires_per_vertex": result.fires_by_layer,
                                   "root_fires": result.root_fires,
                                   "total_fires": result.total_fires}))
    elif args.format == "csv":
        print("layer,fires_per_vertex")
        for i, f in enumerate(result.fires_by_layer, 1):
            print(f"{format_int(i)},{format_int(f)}")
        print(f"total,{format_int(result.total_fires)}")
    else:
        print(f"N = {format_int(args.N)}  k = {format_int(args.k)}  "
              f"n = {format_int(result.n)}")
        for i, f in enumerate(result.fires_by_layer, 1):
            print(f"layer {format_int(i)}: {format_int(f)} fires per vertex")
        print(f"root fires = {format_int(result.root_fires)}")
        print(f"total fires = {format_int(result.total_fires)}")
    return 0


def cmd_seq(args) -> int:
    if args.header and args.format != "csv":
        raise ValueError("--header needs --format csv")
    window = sequences.generate(sequences.SequenceId(name=args.id, k=args.k),
                                start=args.start, count=args.count)
    if args.diff:
        window = sequences.difference(window)
    if args.format == "bfile":
        sequences.emit_bfile(window, sys.stdout)
    elif args.format == "csv":
        sequences.emit_csv(window, sys.stdout, header=args.header)
    elif args.format == "json":
        sequences.emit_json(window, sys.stdout)
    else:
        label = f"{window.id.name} (k = {format_int(window.id.k)})"
        print(f"{label}: " + ", ".join(map(format_int, window.values)))
    return 0


def _verify_cell(N: int, k: int, results: list) -> None:
    """Hold every (label, SimResult) of `results` and every formula to one result."""
    # equal stable_chips mean equal n, and every run has the k it was given
    for quantity in ("stable_chips", "fires_by_layer", "root_fires", "total_fires"):
        formulas._agree(quantity, (N, k),
                        [(label, getattr(r, quantity)) for label, r in results]
                        + [(r.__name__, r(N, k)) for r in formulas.ROUTES[quantity]])


def cmd_verify(args) -> int:
    ks = _parse_k_range(args.k)
    numerics._require_at_least("N", args.N, 1)
    numerics._require_at_least("--seeds", args.seeds, 1)
    if args.strategies == "all":
        strategies = list(engine.STRATEGIES)
    elif args.strategies:
        strategies = list(dict.fromkeys(s.strip() for s in args.strategies.split(",")))
    else:
        strategies = []
    node_max = args.node_N if args.node_N is not None else min(args.N, 300)
    numerics._require_at_least("--node-N", node_max, 1)
    top = max(args.N, node_max) if strategies else args.N
    # only random reads the seed; an unknown strategy raises at the first pile
    runs = [(f"{s} seed {format_int(seed)}",
             functools.partial(engine.simulate, strategy=s, seed=seed))
            for s in strategies for seed in range(args.seeds if s == "random" else 1)]

    for k in ks:
        # pile N of the stream is pile N-1 plus one chip; node-level runs start from zero
        for N, result in zip(range(1, top + 1), engine.avalanche(k, top)):
            results = [("avalanche", result)]
            if N <= node_max:
                results += [(label, run(N, k)) for label, run in runs]
            _verify_cell(N, k, results)
        for i in range(numerics.height_index(top, k)):  # the deepest pile's layers
            formulas.crosscheck("vertex_fires", top, k, i)
        print(f"k={format_int(k)}: formulas match engine for "
              f"N=1..{format_int(top)}")
        if strategies:
            print(f"k={format_int(k)}: confluent over {format_int(len(runs))} "
                  f"node-level runs for N=1..{format_int(node_max)}")
    print("verify: all checks passed")
    return 0


def _blocks_payload(report: schizo.BlockReport) -> list[dict]:
    return [{"digit": b.digit, "start": b.start, "length": b.length}
            for b in report.blocks]


def cmd_schizo(args) -> int:
    value = formulas.a_seq(args.n, args.k)
    if args.inverse:
        dump = schizo.inv_sqrt_digits(value, args.precision)
    else:
        dump = schizo.sqrt_digits(value, args.precision)
    report = schizo.block_report(dump, min_run=args.min_run)
    if args.format == "json":
        print(sequences.json_text({"subject": dump.subject, "value": value,
                                   "digits": str(dump), "precision": dump.precision,
                                   "blocks": _blocks_payload(report)}))
    else:
        print(f"a({format_int(args.n)}, {format_int(args.k)}) = {format_int(value)}")
        print(f"{dump.subject} = {dump}")
        min_run = format_int(args.min_run)
        if report.blocks:
            print(f"repeated-digit blocks (run >= {min_run}):")
            for b in report.blocks:
                print(f"  digit {format_int(b.digit)} at offset {format_int(b.start)}, "
                      f"length {format_int(b.length)}")
        else:
            print(f"no repeated-digit blocks with run >= {min_run}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, with one wording of a bad choice on every Python release.

    Python 3.12.8 and 3.13.1 stopped quoting the choices; the subparsers
    inherit this class, so every choice error reads as it does here.
    """

    def _check_value(self, action, text):
        if action.choices is not None and text not in action.choices:
            choices = ", ".join(f"{choice!r}" for choice in action.choices)
            raise argparse.ArgumentError(
                action, f"invalid choice: {text!r} (choose from {choices})")


@functools.cache  # argparse makes a HelpFormatter per add_argument
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chipfire",
        description="Exact chip-firing on the infinite k-ary tree with a "
                    "self-loop at the root.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stable", help="stable configuration for N chips")
    p.add_argument("-N", type=_decimal, required=True, help="chip count (>= 1)")
    p.add_argument("-k", type=_decimal, required=True, help="branching factor (>= 2)")
    p.add_argument("--format", "-f", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("fires", help="per-layer, root, and total fire counts")
    p.add_argument("-N", type=_decimal, required=True, help="chip count (>= 1)")
    p.add_argument("-k", type=_decimal, required=True, help="branching factor (>= 2)")
    p.add_argument("--format", "-f", choices=FORMATS, default="table")
    p.set_defaults(func=cmd_fires)

    p = sub.add_parser("seq", help="generate a named sequence window")
    p.add_argument("id", help="sequence id: " + ", ".join(sequences.SEQUENCE_NAMES))
    p.add_argument("-k", type=_decimal, required=True, help="branching factor (>= 2)")
    p.add_argument("-n", "--count", dest="count", type=_decimal, default=10,
                   help="number of terms (default 10)")
    p.add_argument("--start", type=_decimal, default=1, help="first index (default 1)")
    p.add_argument("--diff", action="store_true",
                   help="emit first differences of the window")
    p.add_argument("--header", action="store_true",
                   help="include a header row (csv only)")
    p.add_argument("--format", "-f", choices=SEQ_FORMATS, default="table")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify",
                       help="check formulas against the simulation engine")
    p.add_argument("-k", required=True,
                   help="branching factor or range, e.g. 3 or 2..6")
    p.add_argument("-N", type=_decimal, required=True,
                   help="check every pile size 1..N")
    p.add_argument("--strategies", default="",
                   help="comma-separated node-level strategies, or 'all'")
    p.add_argument("--seeds", type=_decimal, default=1,
                   help="run random once per seed 0..SEEDS-1; bfs and max-chips "
                        "run once (default 1)")
    p.add_argument("--node-N", type=_decimal, default=None,
                   help="cap pile size for node-level runs (default min(N, 300))")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schizo",
                       help="decimal digits of sqrt(a(n,k)) or its reciprocal")
    p.add_argument("-k", type=_decimal, required=True, help="sequence base (>= 2)")
    p.add_argument("-n", type=_decimal, required=True, help="sequence index (>= 1)")
    p.add_argument("-p", "--precision", dest="precision", type=_decimal, required=True,
                   help="fractional digits to extract")
    p.add_argument("--min-run", type=_decimal, default=schizo.DEFAULT_MIN_RUN,
                   help="minimum repeated-digit run to report (default 4)")
    p.add_argument("--inverse", action="store_true",
                   help="dump 1/sqrt(a(n,k)) instead")
    p.add_argument("--format", "-f", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_schizo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = args.func(args)
        except (AssertionError, engine.EngineError) as exc:
            print(f"FAIL: {exc}")
            code = 1
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`); send what is still buffered to
        # devnull so that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process it killed


if __name__ == "__main__":
    raise SystemExit(main())
