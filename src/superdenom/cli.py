"""Command-line front end: verification suites and table generation.

Exit status: 0 when all requested checks pass, 1 on a verification failure,
2 on configuration errors, 3 on an internal error (a failed internal bound or
consistency check, or any other exception that escapes a command), so that 1
always means an identity failed.  JSON output is deterministic (sorted terms,
decimal-string coefficients).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .rootdata import (
    build_root_datum,
    positive_system,
    all_basis_orders,
    distinguished_orders,
    BasisOrder,
)
from .diagrams import ArcDiagram, enumerate_diagrams, reduce_to_simple
from .denominators import verify, verify_glkk, lhs, window4, IDENTITY_KINDS
from .theta import PAIRS, make_pair
from .kw import verify_chv, verify_kwfor


def _systems(args):
    """The positive systems, built one at a time, of the orders that --orders
    names ("all", "distinguished" or one order as JSON) on --family, --m, --n."""
    family, m, n = args.family.upper(), args.m, args.n
    datum = build_root_datum(family, m, n)
    if args.orders == "all":
        orders = all_basis_orders(family, m, n)
    elif args.orders == "distinguished":
        orders = distinguished_orders(family, m, n)
    else:
        orders = [BasisOrder.from_json(family, m, n, json.loads(args.orders))]
    return (positive_system(datum, order) for order in orders)


def _write(lines) -> None:
    """Write each line and a newline to stdout.  A reader that closes the pipe
    early (``| head``) is no error: the rest goes to /dev/null and the exit
    status stands."""
    try:
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(doc, passed: bool = True) -> int:
    """Write doc as JSON; the exit status of a check that passed or not."""
    _write([json.dumps(doc, indent=2, sort_keys=True)])
    return 0 if passed else 1


def cmd_verify(args) -> int:
    kind = args.identity
    if kind == "glkk":
        if args.k is None:
            raise ValueError("the gl(k,k) lemma needs --k")
        rep = verify_glkk(args.k, args.depth)
        return _emit(rep.to_json(), rep.passed)
    if args.family is None or args.m is None or args.n is None:
        raise ValueError("this identity needs --family, --m and --n")
    reports = [
        verify(kind, system, X=X, depth=args.depth)
        for system in _systems(args)
        for X in enumerate_diagrams(system)
        if not kind.startswith("kwg") or X.is_simple()
    ]
    ok = all(rep.passed for rep in reports)
    doc = {"identity": kind, "checks": [rep.to_json() for rep in reports], "verdict": "pass" if ok else "fail"}
    return _emit(doc, ok)


def cmd_list_arc_diagrams(args) -> int:
    diagrams = [X for system in _systems(args) for X in enumerate_diagrams(system)]
    if args.format == "json":
        return _emit([X.to_json() for X in diagrams])
    _write(line for X in diagrams for line in (X.ascii(), ""))
    return 0


def cmd_reduce_diagram(args) -> int:
    family, m, n = args.family.upper(), args.m, args.n
    order = BasisOrder.from_json(family, m, n, json.loads(args.order))
    arcs = json.loads(args.arcs)
    if not isinstance(arcs, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(type(k) is int for k in a) for a in arcs
    ):
        raise ValueError(f"--arcs must be a list of [i, j] pairs of integers, got {args.arcs}")
    X = ArcDiagram(order, [tuple(a) for a in arcs])
    moves, final = reduce_to_simple(X)
    if args.format == "json":
        return _emit({"moves": [list(mv) for mv in moves], "result": final.to_json()})
    _write([X.ascii(), *(f"-- {mv[0]} at position {mv[1]} -->" for mv in moves), final.ascii()])
    return 0


def _pair_from_args(args):
    """The pair of --pair on the ranks given; --n is required by the parser,
    the pair's other ranks are checked here."""
    cls = PAIRS[args.pair]
    needs = [r for r in cls.ranks if r != "n"]
    if any(getattr(args, r) is None for r in needs):
        raise ValueError(f"the {cls.tag} pair needs {' and '.join(f'--{r}' for r in needs)}")
    return make_pair(cls.tag, m=args.m, n=args.n, p=args.p, q=args.q)


def _nonnegative(text: str) -> int:
    """--depth and --bound: a nonnegative integer.  A negative depth gives an
    empty window, on which every identity would pass without comparing a
    coefficient; a negative bound gives an empty table."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def cmd_theta_table(args) -> int:
    entries = _pair_from_args(args).sigma_set(args.bound)
    if args.format == "json":
        return _emit([e.to_json() for e in entries])
    _write(
        f"{e.pair}  a={e.partition}  sign={e.sign}  compact={e.compact_weight}  L2-lowest={e.l2_lowest}"
        for e in entries
    )
    return 0


def cmd_theta_verify(args) -> int:
    rep = _pair_from_args(args).verify_duality(args.depth)
    return _emit(rep.to_json(), rep.passed)


def cmd_kw_check(args) -> int:
    r1 = verify_chv(args.family.upper(), args.m, args.n, args.depth)
    r2 = verify_kwfor(args.family.upper(), args.m, args.n, depth=args.depth)
    return _emit({"chv": r1.to_json(), "kwfor": r2.to_json()}, r1.passed and r2.passed)


def cmd_dump_series(args) -> int:
    system = next(_systems(args))
    flavor = "sd" if args.what == "lhs-sd" else "d"
    return _emit(lhs(system, flavor, window4(system, args.depth)).to_json())


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superdenom",
        description="denominator identities and Theta tables for classical Lie superalgebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, required=True):
        sp.add_argument("--family", required=required, choices=["gl", "b", "c", "d", "GL", "B", "C", "D"])
        sp.add_argument("--m", type=int, required=required)
        sp.add_argument("--n", type=int, required=required)

    def pair(sp):
        sp.add_argument("--pair", required=True, choices=list(PAIRS))
        sp.add_argument("--m", type=int)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--p", type=int)
        sp.add_argument("--q", type=int)

    def depth(sp):
        sp.add_argument("--depth", type=_nonnegative, default=8)

    def text_or_json(sp):
        sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = sub.add_parser("verify", help="check a denominator identity")
    sp.add_argument("--identity", required=True, choices=list(IDENTITY_KINDS))
    common(sp, required=False)
    sp.add_argument("--k", type=int, help="rank for the gl(k,k) lemma")
    sp.add_argument("--orders", default="all", help='"all", "distinguished", or explicit JSON')
    depth(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("list-arc-diagrams", help="enumerate arc diagrams")
    common(sp)
    sp.add_argument("--orders", default="all")
    text_or_json(sp)
    sp.set_defaults(fn=cmd_list_arc_diagrams)

    sp = sub.add_parser("reduce-diagram", help="reduce a diagram to a simple one")
    common(sp)
    sp.add_argument("--order", required=True, help="basis order as JSON")
    sp.add_argument("--arcs", required=True, help="arc list as JSON")
    text_or_json(sp)
    sp.set_defaults(fn=cmd_reduce_diagram)

    sp = sub.add_parser("theta-table", help="emit a Theta correspondence table")
    pair(sp)
    sp.add_argument("--bound", type=_nonnegative, default=6)
    text_or_json(sp)
    sp.set_defaults(fn=cmd_theta_table)

    sp = sub.add_parser("theta-verify", help="verify the branching identity of a pair")
    pair(sp)
    depth(sp)
    sp.set_defaults(fn=cmd_theta_verify)

    sp = sub.add_parser("kw-check", help="natural-representation character identities")
    common(sp)
    depth(sp)
    sp.set_defaults(fn=cmd_kw_check)

    sp = sub.add_parser("dump-series", help="dump a truncated denominator series")
    common(sp)
    depth(sp)
    sp.add_argument("--what", choices=["lhs-d", "lhs-sd"], default="lhs-sd")
    sp.add_argument("--orders", default="distinguished")
    sp.set_defaults(fn=cmd_dump_series)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # any other escape is a defect, never a failed identity (exit 1)
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
