"""Command-line front door.

Exit codes are the contract: 0 success/witness, 1 legitimate negative
(not-member, failed check, unsupported shape, grid discrepancy), 2 usage
error, 3 internal invariant violation or any other internal error, reported
in one stderr line.  stdout carries the result (human text by default, one
JSON object per line under --json); stderr carries diagnostics only.  A
reader that closes stdout early (`sumprod ... | head`) ends the run quietly
with 141, the shell's status for a SIGPIPE death.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from .iterated import IteratedSpec, solve_iterated
from .oracle import grid_verify_theorem, strictness_demo
from .progressions import exceptional_set, solve_progression, threshold_N0
from .witness import (
    Instance,
    InternalInvariantError,
    Witness,
    WitnessTrace,
    _solve,
    subgroup_witness,
    verify_witness,
)

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_BROKEN_PIPE = 128 + 13


def _trace_dict(t: WitnessTrace) -> dict:
    # Keys follow the dataclass, so --trace --json cannot drift from it; the
    # instance is flattened to its values.
    obj = asdict(t)
    obj["instance"] = list(obj["instance"].values())
    return obj


def _emit(args, obj: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(obj))
    else:
        print(human)


def _witness_line(w: Witness) -> str:
    return f"a'={w.a_prime} b'={w.b_prime} c'={w.c_prime} d'={w.d_prime}"


def _cmd_witness(args) -> int:
    inst = Instance(args.a, args.b, args.c, args.d, args.m, args.N)
    got = _solve(inst, args.trace)
    if got is None:
        _emit(args, {"status": "not-member"}, "not-member")
        return EXIT_NEGATIVE
    w, delta, trace = got
    obj = {"status": "witness", "delta": delta, "witness": asdict(w)}
    lines = [f"delta={delta}", _witness_line(w)]
    if args.trace:
        obj["trace"] = _trace_dict(trace)
        # The human lines come from the same dict, one name=value per key.
        lines.extend(f"{name}={value}" for name, value in obj["trace"].items())
    _emit(args, obj, "\n".join(lines))
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = Instance(args.a, args.b, args.c, args.d, args.m, args.N)
    w = Witness(args.ap, args.bp, args.cp, args.dp)
    ok = verify_witness(inst, w)
    _emit(
        args,
        {"status": "valid" if ok else "invalid"},
        "valid" if ok else "invalid",
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_threshold(args) -> int:
    rep = threshold_N0(args.a, args.b, args.c, args.d, args.m)
    _emit(args, asdict(rep), f"N0={rep.N0} a_hi={rep.a_hi} c_hi={rep.c_hi}")
    return EXIT_OK


def _cmd_progression(args) -> int:
    inst = Instance(args.a, args.b, args.c, args.d, args.m, args.N)
    res = solve_progression(inst)
    obj: dict = {"status": res.status, "N0": res.threshold.N0}
    if res.witness is not None:
        obj["witness"] = asdict(res.witness)
        human = f"{res.status} {_witness_line(res.witness)} (N0={res.threshold.N0})"
    else:
        human = f"{res.status} (N0={res.threshold.N0})"
    _emit(args, obj, human)
    return EXIT_OK if res.witness is not None else EXIT_NEGATIVE


def _cmd_subgroup(args) -> int:
    sw = subgroup_witness(args.a, args.b, args.c, args.d, args.m, args.t)
    if sw is None:
        _emit(args, {"status": "not-member"}, "not-member")
        return EXIT_NEGATIVE
    fields = asdict(sw)
    human = " ".join(f"{name}={value}" for name, value in fields.items())
    _emit(args, {"status": "witness", **fields}, human)
    return EXIT_OK


def _parse_term(token: str) -> tuple[int, ...]:
    head, sep, rest = token.partition(":")
    if not sep:
        raise ValueError(f"term must look like k:c1,c2,...  got {token!r}")
    try:
        k = _int(head)
        coeffs = tuple(_int(x) for x in rest.split(","))
    except argparse.ArgumentTypeError as e:
        raise ValueError(f"term {token!r}: {e}") from None
    if k != len(coeffs):
        raise ValueError(f"term {token!r}: declared length {k} != {len(coeffs)}")
    return coeffs


def _cmd_iterate(args) -> int:
    terms = sorted((_parse_term(tok) for tok in args.terms), key=len)
    spec = IteratedSpec(args.m, tuple(terms))
    res = solve_iterated(spec, args.N)
    if res.witness is not None:
        vals = [list(t) for t in res.witness.values]
        human = "witness " + " ".join(",".join(map(str, t)) for t in vals)
        _emit(args, {"status": res.status, "values": vals}, human)
        return EXIT_OK
    _emit(args, {"status": res.status}, res.status)
    return EXIT_NEGATIVE


def _cmd_exceptions(args) -> int:
    exc = exceptional_set(args.a, args.b, args.c, args.d, args.m, args.cap)
    if getattr(args, "json", False):
        print(json.dumps({"cap": args.cap, "exceptions": exc}))
    else:
        for n in exc:
            print(n)
    return EXIT_OK


def _cmd_grid(args) -> int:
    rep = grid_verify_theorem(m_max=args.m_max, k_window=args.window)
    human = (
        f"instances={rep.instances} values={rep.values} "
        f"discrepancies={len(rep.discrepancies)}"
    )
    if not getattr(args, "json", False):
        for d in rep.discrepancies:
            print(f"DISCREPANCY {d}", file=sys.stderr)
    _emit(args, asdict(rep), human)
    return EXIT_OK if rep.ok else EXIT_NEGATIVE


def _cmd_demo(args) -> int:
    rep = strictness_demo(scan_bound=args.bound)
    lines = [
        f"53 in R_19(15): {rep.in_class}",
        f"53 in R_19(3)*R_19(5): {rep.in_product}",
        f"P_19(15) members <= {rep.scan_bound} outside P_19(3)*P_19(5): "
        + (",".join(map(str, rep.non_representable)) or "(none)"),
        f"primes among them: " + (",".join(map(str, rep.primes_found)) or "(none)"),
    ]
    _emit(args, asdict(rep), "\n".join(lines))
    return EXIT_OK


def _int(s: str) -> int:
    # Arbitrary-precision decimal, optional sign; no hex, no underscores.
    s = s.strip()
    body = s[1:] if s[:1] in "+-" else s
    if not (body.isascii() and body.isdigit()):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {s!r}")
    return int(s)


def _operands(p: argparse.ArgumentParser, names: str) -> None:
    # One positional integer per space-separated name, in order.
    for name in names.split():
        p.add_argument(name, type=_int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumprod",
        description="Witness decompositions for sums of products of "
        "congruence classes and arithmetic progressions.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("witness", parents=[shared], help="solve N = a'b' + c'd'")
    _operands(p, "a b c d m N")
    p.add_argument("--trace", action="store_true", help="print the full pipeline trace")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("check", parents=[shared], help="verify a witness certificate")
    _operands(p, "a b c d m N")
    for name in ("ap", "bp", "cp", "dp"):
        p.add_argument(name, type=_int, metavar=name[0] + "'")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("threshold", parents=[shared], help="explicit threshold N0")
    _operands(p, "a b c d m")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser(
        "progression", parents=[shared], help="one-sided (progression) witness"
    )
    _operands(p, "a b c d m N")
    p.set_defaults(func=_cmd_progression)

    p = sub.add_parser(
        "subgroup", parents=[shared], help="witness t = aw+bx+cy+dz+m(wx+yz)"
    )
    _operands(p, "a b c d m t")
    p.set_defaults(func=_cmd_subgroup)

    p = sub.add_parser(
        "iterate",
        parents=[shared],
        help="iterated sums of products; terms as k:c1,c2,...",
    )
    _operands(p, "m N")
    p.add_argument("terms", nargs="+", help="one k:c1,...,ck token per term")
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser(
        "exceptions", parents=[shared], help="unrepresentable progression members"
    )
    _operands(p, "a b c d m")
    p.add_argument("--cap", type=_int, required=True, help="inclusive scan bound")
    p.set_defaults(func=_cmd_exceptions)

    p = sub.add_parser(
        "grid", parents=[shared], help="differential sweep against the oracle"
    )
    p.add_argument("--m-max", type=_int, default=4)
    p.add_argument("--window", type=_int, default=20)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser(
        "demo", parents=[shared], help="reproduce the strictness counterexamples"
    )
    p.add_argument("--bound", type=_int, default=1000)
    p.set_defaults(func=_cmd_demo)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    # A certificate can have more digits than the interpreter's default
    # int-to-str limit (4300) allows; lift the limit for this call only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _dispatch(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on bad usage, 0 on --help
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except BrokenPipeError:
        raise  # main() ends the run quietly
    except Exception as e:  # any other bug: one line, never a traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
