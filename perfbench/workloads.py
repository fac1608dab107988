"""The benchmark's workloads: each universe of checks, the seeded sample one
pass runs, and how each check is computed.

A check is either an identity check, whose known verdict is "pass", or a
negative control built from public functions with one deliberately wrong
input, whose known verdict is "fail".  Controls are chosen by a property of
their inputs that is stated next to each one, never by their outcome.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from superdenom.denominators import (
    choose_expansion_system,
    lhs,
    princ_constant,
    verify,
    window4,
    with_safe_expansion,
)
from superdenom.diagrams import enumerate_diagrams
from superdenom.rootdata import (
    DELTA_BLOCK,
    all_basis_orders,
    build_root_datum,
    distinguished_order,
    positive_system,
)
from superdenom.series import CharSeries, f_sum_quotient
from superdenom.theta import make_pair
from superdenom.weights import weight_sum
from superdenom.weyl import full_weyl, sharp_subgroup, weyl_order

WORKLOADS = ("grid", "frontier", "theta")

# The depth-8 acceptance grid (criteria 1-4 of tests/test_acceptance.py).
GRID_DEPTH = 8
GRID_RANKS = [("GL", m, n) for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]] + [
    (f, m, n) for f in ("B", "D") for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]
]
GRID_KINDS = ("princ-d", "princ-sd", "mm-d", "mm-sd", "kwg-d", "kwg-sd")
# One grid pass samples this share of each (family, rank, identity kind)
# stratum, and runs whole every stratum of fewer than GRID_WHOLE_BELOW
# checks; it also samples one control of each variant per (family, rank).
GRID_CHECK_SHARE = 0.5
GRID_WHOLE_BELOW = 10

# princ-sd on the first diagram of each system.  The depth is lower than the
# grid's because D(3,3) alone takes about ten seconds at depth 3.
FRONTIER_DEPTH = 3
FRONTIER_SYSTEMS = [("GL", 4, 3, "p2"), ("B", 3, 2, ""), ("D", 3, 2, "D2"), ("D", 3, 3, "D2")]
# Controls on the frontier run only on systems whose full Weyl group has at
# most this many elements (GL(4,3) with 144 and D(3,2) with 192), so that a
# pass stays short enough to repeat within one run.
FRONTIER_CONTROL_MAX_GROUP = 200

# The ten pairs of acceptance criteria 8 and 9, plus three of rank 4.
# D1(3,2) is left out: at depth 12 it alone takes about 25 s, seven times
# the rest of the workload together.
THETA_DEPTH = 12
THETA_PAIRS = [
    ("B", dict(m=1, n=1)),
    ("B", dict(m=1, n=2)),
    ("B", dict(m=2, n=1)),
    ("D2", dict(m=1, n=1)),
    ("D2", dict(m=2, n=1)),
    ("D1", dict(m=2, n=1)),
    ("D1", dict(m=2, n=2)),
    ("GL", dict(n=1, p=1, q=1)),
    ("GL", dict(n=2, p=1, q=1)),
    ("GL", dict(n=1, p=2, q=1)),
    ("B", dict(m=2, n=2)),
    ("D2", dict(m=2, n=2)),
    ("GL", dict(n=2, p=2, q=1)),
]
# Share of each pair's table entries one theta pass samples for the
# l2/Enright comparison, and for its control.
THETA_ENTRY_SHARE = 0.5
THETA_ENTRY_CONTROL_SHARE = 0.25


@dataclass
class Check:
    """One verdict.  ``run`` is the timed part; ``report`` turns its result
    into the JSON document compared byte for byte with the golden file."""

    id: str
    expect: str
    run: Callable[[], object]
    report: Callable[[object], dict]


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _mismatch_doc(bad) -> dict:
    return {
        "verdict": "fail" if bad else "pass",
        "mismatches": len(bad),
        "first_mismatch": list(bad[0].coords2) if bad else None,
    }


# ---------------------------------------------------------------------------
# denominator identities and their controls


def _rhs_terms(kind: str, system, X):
    """Summation group, sign, leading exponent, geometric factors, coefficient
    and constant of the right side, as rhs_kwg, rhs_princ and rhs_mm build
    them."""
    S = X.isotropic_set()
    sd = kind.endswith("sd")
    sign = "sgn_prime" if sd else "sgn"
    if kind.startswith("princ"):
        geom = [(X.bracket(g), 1 if sd else -X.root_sign(g)) for g in S]
        return full_weyl(system.datum), sign, system.rho, geom, 1, princ_constant(system, X)
    group = sharp_subgroup(system.datum)
    s = 1 if sd else -1
    if kind.startswith("kwg"):
        return group, sign, system.rho, [(b, s) for b in S], 1, Fraction(1)
    shift = weight_sum((X.open_bracket(g) for g in S), system.shape)
    coeff = -1 if not sd and X.nesting_count() % 2 else 1
    return group, sign, system.rho + shift, [(g, s) for g in S], coeff, Fraction(1)


def signs_differ(kind: str, system) -> bool:
    """Whether the summation group of an sd identity holds an element on
    which sgn and sgn' differ.

    sgn' drops the delta flips in family B and the eps flips in family D.
    W(D(m,n)) flips eps signs only in pairs, so the two signs agree on it;
    in family B they differ on the full group, and on W# exactly when W# is
    the delta block.
    """
    if not kind.endswith("sd") or system.datum.family != "B":
        return False
    return kind.startswith("princ") or system.datum.dual_coxeter_sign == DELTA_BLOCK


def _control(kind: str, system, X, depth: int, variant: str) -> dict:
    """The identity check with one wrong input.

    const2: the constant doubled.  Fails on every check, since e^rho has
    coefficient 1 in the left side.
    dropid: the identity element dropped from the Weyl sum.  Fails on every
    check: its term leads at the top of the window.
    sgn: sgn in place of sgn'.  Used where ``signs_differ`` holds.
    """
    flavor = "sd" if kind.endswith("sd") else "d"
    if kind.startswith("princ"):
        images = [w.act(X.bracket(g)) for w in full_weyl(system.datum) for g in X.isotropic_set()]
        system = choose_expansion_system(system, images)

    def compute(sys_):
        T = window4(sys_, depth)
        group, sign, leading, geom, coeff, ratio = _rhs_terms(kind, sys_, X)
        if variant == "dropid":
            group = [w for w in group if not w.is_identity()]
        elif variant == "sgn":
            sign = "sgn"
        elif variant == "const2":
            ratio *= 2
        R = f_sum_quotient(sys_, group, sign, T, leading, geom=geom, coeff=coeff)
        bad = lhs(sys_, flavor, T).mismatches(R, ratio)
        doc = {"identity": kind, "control": variant, "system": repr(sys_), "depth": depth, "constant": str(ratio)}
        doc.update(_mismatch_doc(bad))
        return doc

    return with_safe_expansion(system, compute)


def _identity_check(cid: str, kind: str, system, X, depth: int) -> Check:
    return Check(cid, "pass", lambda: verify(kind, system, X=X, depth=depth), lambda rep: rep.to_json())


def _control_check(cid: str, kind: str, system, X, depth: int, variant: str) -> Check:
    return Check(f"{cid}/{variant}", "fail", lambda: _control(kind, system, X, depth, variant), lambda doc: doc)


def _control_variants(kind: str, system) -> list[str]:
    return ["const2", "dropid"] + (["sgn"] if signs_differ(kind, system) else [])


def _grid_universe():
    """Every (stratum, check id, kind, system, diagram) of the grid."""
    out = []
    for fam, m, n in GRID_RANKS:
        datum = build_root_datum(fam, m, n)
        for oi, order in enumerate(all_basis_orders(fam, m, n)):
            system = positive_system(datum, order)
            for xi, X in enumerate(enumerate_diagrams(system)):
                for kind in GRID_KINDS:
                    if kind.startswith("kwg") and not X.is_simple():
                        continue
                    out.append(((fam, m, n, kind), f"{fam}({m},{n})/o{oi}/x{xi}/{kind}", kind, system, X))
    return out


def _sample(rng: random.Random | None, items: list, share: float) -> list:
    if share >= 1:
        return list(items)
    return rng.sample(items, math.ceil(share * len(items)))


def _strata(items, key):
    groups: dict = {}
    for it in items:
        groups.setdefault(key(it), []).append(it)
    return [groups[k] for k in sorted(groups)]


def grid_checks(rng: random.Random | None) -> list[Check]:
    """A stratified sample of the grid and of its controls.  With no
    generator, the whole universe with every control."""
    universe = _grid_universe()
    out = []
    for stratum in _strata(universe, key=lambda it: it[0]):
        share = 1 if rng is None or len(stratum) < GRID_WHOLE_BELOW else GRID_CHECK_SHARE
        for _, cid, kind, system, X in _sample(rng, stratum, share):
            out.append(_identity_check(cid, kind, system, X, GRID_DEPTH))
    for rank in _strata(universe, key=lambda it: it[0][:3]):
        for variant in ("const2", "dropid", "sgn"):
            eligible = [it for it in rank if variant in _control_variants(it[2], it[3])]
            if eligible and rng is not None:
                eligible = [rng.choice(eligible)]
            for _, cid, kind, system, X in eligible:
                out.append(_control_check(cid, kind, system, X, GRID_DEPTH, variant))
    return out


def frontier_checks(rng: random.Random | None) -> list[Check]:
    """Every frontier check, with every control the size property allows."""
    out = []
    for fam, m, n, variant in FRONTIER_SYSTEMS:
        datum = build_root_datum(fam, m, n)
        system = positive_system(datum, distinguished_order(fam, m, n, variant))
        X = enumerate_diagrams(system)[0]
        cid = f"{fam}({m},{n}){variant}/x0/princ-sd"
        out.append(_identity_check(cid, "princ-sd", system, X, FRONTIER_DEPTH))
        if weyl_order(datum) <= FRONTIER_CONTROL_MAX_GROUP:
            for v in _control_variants("princ-sd", system):
                out.append(_control_check(cid, "princ-sd", system, X, FRONTIER_DEPTH, v))
    return out


# ---------------------------------------------------------------------------
# Theta correspondence


def _pair_label(tag: str, kw: dict) -> str:
    return f"{tag}({','.join(str(v) for v in kw.values())})"


def _duality_check(label: str, pair, depth: int) -> Check:
    def report(rep) -> dict:
        doc = rep.to_json()
        doc["table"] = [e.to_json() for e in pair.sigma_set(depth)]
        return doc

    return Check(f"{label}/duality", "pass", lambda: pair.verify_duality(depth), report)


def _drop_first_entry(pair, depth: int):
    """assembled_character without the first table entry, the trivial
    partition, whose term carries the oscillator's leading e^{-rho_1}: the
    duality check must fail."""
    sys_ = pair.system
    T = window4(sys_, depth, top=-sys_.rho1)
    acc = CharSeries.zero(sys_, T)
    for entry in pair.sigma_set(depth)[1:]:
        fin = pair.compact_character(entry)
        l2 = pair.l2_character(entry, T - fin.ceiling4, depth=False)
        acc = acc + (fin * l2).truncate(T)
    return pair.oscillator_character(depth).mismatches(acc)


def _entry_check(label: str, k: int, pair, entry, depth: int, ratio: int) -> Check:
    """l2_character against enright_character on one table entry; with
    ratio 2 a control whose constant is doubled."""

    def run():
        l2 = pair.l2_character(entry, depth)
        return l2, l2.mismatches(pair.enright_character(entry, depth), Fraction(ratio))

    def report(res) -> dict:
        l2, bad = res
        digest = hashlib.sha256(canonical(l2.to_json()).encode()).hexdigest()
        doc = {"entry": entry.to_json(), "depth": depth, "constant": str(ratio), "l2_terms": len(l2.terms), "l2_sha256": digest}
        doc.update(_mismatch_doc(bad))
        return doc

    suffix = "" if ratio == 1 else "/const2"
    return Check(f"{label}/entry{k}{suffix}", "pass" if ratio == 1 else "fail", run, report)


def theta_checks(rng: random.Random | None) -> list[Check]:
    """Every pair's duality check and its dropped-entry control, and a
    stratified sample of the table entries whose L^2 lowest weight lies in
    the window (outside it both characters vanish and the comparison is
    vacuous).  With no generator, every such entry and every control."""
    entry_share = THETA_ENTRY_SHARE if rng else 1
    control_share = THETA_ENTRY_CONTROL_SHARE if rng else 1
    out = []
    for tag, kw in THETA_PAIRS:
        pair = make_pair(tag, **kw)
        label = _pair_label(tag, kw)
        out.append(_duality_check(label, pair, THETA_DEPTH))
        out.append(Check(f"{label}/drop-first", "fail", lambda p=pair: _drop_first_entry(p, THETA_DEPTH), _mismatch_doc))
        sys_ = pair.system
        T = window4(sys_, THETA_DEPTH, top=-sys_.rho1)
        inside = [(k, e) for k, e in enumerate(pair.sigma_set(THETA_DEPTH)) if sys_.ht4(e.l2_lowest) >= T]
        for k, e in _sample(rng, inside, entry_share):
            out.append(_entry_check(label, k, pair, e, THETA_DEPTH, 1))
        for k, e in _sample(rng, inside, control_share):
            out.append(_entry_check(label, k, pair, e, THETA_DEPTH, 2))
    return out


BUILDERS = {"grid": grid_checks, "frontier": frontier_checks, "theta": theta_checks}


def build(workload: str, seed: int | None) -> list[Check]:
    """The checks of one pass, in run order.  The seed picks the sample and
    the order; seed None gives the whole universe in a fixed order."""
    if seed is None:
        return BUILDERS[workload](None)
    rng = random.Random(f"{workload}:{seed}")
    checks = BUILDERS[workload](rng)
    rng.shuffle(checks)
    return checks
