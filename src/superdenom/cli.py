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
import sys
import traceback

from .rootdata import (
    build_root_datum,
    positive_system,
    all_basis_orders,
    distinguished_order,
    BasisOrder,
)
from .diagrams import ArcDiagram, enumerate_diagrams, reduce_to_simple
from .denominators import verify, verify_glkk, lhs, window4, IDENTITY_KINDS
from .theta import make_pair
from .kw import verify_chv, verify_kwfor


def _resolve_orders(args, family, m, n):
    if args.orders == "all":
        return all_basis_orders(family, m, n)
    if args.orders == "distinguished":
        fam = family.upper()
        if fam == "GL":
            return [distinguished_order("GL", m, n, f"p{p}") for p in range(m + 1)]
        if fam == "B":
            return [distinguished_order("B", m, n)]
        if fam == "D":
            return [distinguished_order("D", m, n, v) for v in ("D1", "D2", "D2'")]
        return [distinguished_order("C", m, 1, v) for v in ("C1", "C2")]
    doc = json.loads(args.orders)
    return [BasisOrder.from_json(family, m, n, doc)]


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_verify(args) -> int:
    kind = args.identity
    if kind == "glkk":
        if args.k is None:
            raise ValueError("the gl(k,k) lemma needs --k")
        rep = verify_glkk(args.k, args.depth)
        _emit(rep.to_json())
        return 0 if rep.passed else 1
    if args.family is None or args.m is None or args.n is None:
        raise ValueError("this identity needs --family, --m and --n")
    family, m, n = args.family.upper(), args.m, args.n
    datum = build_root_datum(family, m, n)
    reports = []
    ok = True
    for order in _resolve_orders(args, family, m, n):
        system = positive_system(datum, order)
        diagrams = enumerate_diagrams(system)
        for X in diagrams:
            if kind.startswith("kwg") and not X.is_simple():
                continue
            rep = verify(kind, system, X=X, depth=args.depth)
            reports.append(rep.to_json())
            ok = ok and rep.passed
    _emit({"identity": kind, "checks": reports, "verdict": "pass" if ok else "fail"})
    return 0 if ok else 1


def cmd_list_arc_diagrams(args) -> int:
    family, m, n = args.family.upper(), args.m, args.n
    datum = build_root_datum(family, m, n)
    orders = _resolve_orders(args, family, m, n)
    out = []
    for order in orders:
        system = positive_system(datum, order)
        for X in enumerate_diagrams(system):
            out.append(X)
    if args.format == "json":
        _emit([X.to_json() for X in out])
    else:
        for X in out:
            print(X.ascii())
            print()
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
    doc = {"moves": [list(mv) for mv in moves], "result": final.to_json()}
    if args.format == "json":
        _emit(doc)
    else:
        print(X.ascii())
        for mv in moves:
            print(f"-- {mv[0]} at position {mv[1]} -->")
        print(final.ascii())
    return 0


def _pair_from_args(args):
    tag = args.pair.upper()
    if tag == "GL":
        if args.p is None or args.q is None:
            raise ValueError("the GL pair needs --p and --q")
        return make_pair("GL", n=args.n, p=args.p, q=args.q)
    if args.m is None:
        raise ValueError(f"the {tag} pair needs --m")
    return make_pair(tag, m=args.m, n=args.n)


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
    pair = _pair_from_args(args)
    entries = pair.sigma_set(args.bound)
    doc = [e.to_json() for e in entries]
    if args.format == "json":
        _emit(doc)
    else:
        for e in entries:
            print(f"{e.pair}  a={e.partition}  sign={e.sign}  compact={e.compact_weight}  L2-lowest={e.l2_lowest}")
    return 0


def cmd_theta_verify(args) -> int:
    pair = _pair_from_args(args)
    rep = pair.verify_duality(args.depth)
    _emit(rep.to_json())
    return 0 if rep.passed else 1


def cmd_kw_check(args) -> int:
    r1 = verify_chv(args.family.upper(), args.m, args.n, args.depth)
    r2 = verify_kwfor(args.family.upper(), args.m, args.n, depth=args.depth)
    doc = {"chv": r1.to_json(), "kwfor": r2.to_json()}
    _emit(doc)
    return 0 if r1.passed and r2.passed else 1


def cmd_dump_series(args) -> int:
    family, m, n = args.family.upper(), args.m, args.n
    datum = build_root_datum(family, m, n)
    orders = _resolve_orders(args, family, m, n)
    system = positive_system(datum, orders[0])
    flavor = "sd" if args.what == "lhs-sd" else "d"
    series = lhs(system, flavor, window4(system, args.depth))
    _emit(series.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="superdenom",
        description="denominator identities and Theta tables for classical Lie superalgebras",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, depth=True):
        sp.add_argument("--family", required=True, choices=["gl", "b", "c", "d", "GL", "B", "C", "D"])
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        if depth:
            sp.add_argument("--depth", type=_nonnegative, default=8)

    sp = sub.add_parser("verify", help="check a denominator identity")
    sp.add_argument("--identity", required=True, choices=list(IDENTITY_KINDS))
    sp.add_argument("--family", choices=["gl", "b", "c", "d", "GL", "B", "C", "D"])
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int, help="rank for the gl(k,k) lemma")
    sp.add_argument("--orders", default="all", help='"all", "distinguished", or explicit JSON')
    sp.add_argument("--depth", type=_nonnegative, default=8)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("list-arc-diagrams", help="enumerate arc diagrams")
    common(sp, depth=False)
    sp.add_argument("--orders", default="all")
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.set_defaults(fn=cmd_list_arc_diagrams)

    sp = sub.add_parser("reduce-diagram", help="reduce a diagram to a simple one")
    common(sp, depth=False)
    sp.add_argument("--order", required=True, help="basis order as JSON")
    sp.add_argument("--arcs", required=True, help="arc list as JSON")
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.set_defaults(fn=cmd_reduce_diagram)

    sp = sub.add_parser("theta-table", help="emit a Theta correspondence table")
    sp.add_argument("--pair", required=True, choices=["B", "D1", "D2", "D2'", "GL"])
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--bound", type=_nonnegative, default=6)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.set_defaults(fn=cmd_theta_table)

    sp = sub.add_parser("theta-verify", help="verify the branching identity of a pair")
    sp.add_argument("--pair", required=True, choices=["B", "D1", "D2", "D2'", "GL"])
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--depth", type=_nonnegative, default=8)
    sp.set_defaults(fn=cmd_theta_verify)

    sp = sub.add_parser("kw-check", help="natural-representation character identities")
    common(sp)
    sp.set_defaults(fn=cmd_kw_check)

    sp = sub.add_parser("dump-series", help="dump a truncated denominator series")
    common(sp)
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
    except (ValueError, KeyError) as exc:
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
