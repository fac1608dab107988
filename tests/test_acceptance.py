"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is coefficient-exact on a truncation window (tolerance is
zero throughout); the depths are fixed here and nothing is calibrated later.
"""

import itertools
import time

import pytest

from superdenom.weights import Weight, inner, is_isotropic
from superdenom.rootdata import (
    build_root_datum,
    positive_system,
    all_basis_orders,
    standard_order,
    distinguished_order,
)
from superdenom.diagrams import enumerate_diagrams, reduce_to_simple, build_nice
from superdenom.denominators import (
    compare,
    verify,
    verify_glkk,
    verify_odd_reflection,
    lhs,
    window4,
)
from superdenom import series
from superdenom.series import product_expansion
from superdenom.weyl import full_weyl, sgn, sgn_prime
from superdenom.theta import make_pair
from superdenom.kw import verify_chv, verify_kwfor, kw_systems

from _oracles import apply_moves, definition_isotropic_sets, uses_interior_fork


def _report(name: str, ok: bool, extra: str = ""):
    tag = "pass" if ok else "FAIL"
    print(f"[acceptance] {name}: {tag}{'  ' + extra if extra else ''}")
    assert ok, name


def _run_identity_grid(family, ranks, kinds, depth):
    failures = []
    checks = 0
    for m, n in ranks:
        datum = build_root_datum(family, m, n)
        for order in all_basis_orders(family, m, n):
            system = positive_system(datum, order)
            for X in enumerate_diagrams(system):
                for kind in kinds:
                    rep = verify(kind, system, X=X, depth=depth)
                    checks += 1
                    if not rep.passed:
                        failures.append((kind, str(order), list(X.arcs)))
    return checks, failures


def test_criterion_1_princ_gl():
    t0 = time.time()
    checks, failures = _run_identity_grid(
        "GL", [(1, 1), (2, 1), (2, 2), (3, 2)], ("princ-d", "princ-sd"), 8
    )
    dt = time.time() - t0
    _report("1 princ identities, gl grid", not failures, f"{checks} checks in {dt:.1f}s")
    assert dt < 120


def test_criterion_2_princ_b_d():
    t0 = time.time()
    total = 0
    failures = []
    for fam in ("B", "D"):
        checks, fails = _run_identity_grid(
            fam, [(1, 1), (1, 2), (2, 1), (2, 2)], ("princ-d", "princ-sd"), 8
        )
        total += checks
        failures += fails
    dt = time.time() - t0
    _report("2 princ identities, B/D grid (both eps_m signs)", not failures, f"{total} checks in {dt:.1f}s")
    assert dt < 300


def test_criterion_3_kwg():
    failures = []
    checks = 0
    grid = [("GL", m, n) for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]]
    grid += [(f, m, n) for f in ("B", "D") for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]]
    for fam, m, n in grid:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            for X in enumerate_diagrams(system):
                if not X.is_simple():
                    continue
                for kind in ("kwg-d", "kwg-sd"):
                    rep = verify(kind, system, X=X, depth=8)
                    checks += 1
                    if not rep.passed:
                        failures.append((fam, m, n, str(order)))
    # C(n+1) distinguished systems, defect 1, n <= 3
    for m in (1, 2, 3):
        for variant in ("C1", "C2"):
            system = positive_system(build_root_datum("C", m, 1), distinguished_order("C", m, 1, variant))
            X = next(D for D in enumerate_diagrams(system) if D.is_simple())
            for kind in ("kwg-d", "kwg-sd"):
                rep = verify(kind, system, X=X, depth=8)
                checks += 1
                if not rep.passed:
                    failures.append(("C", m, 1, variant))
    _report("3 KWG on simple diagrams + C distinguished", not failures, f"{checks} checks")


def test_criterion_4_mm():
    failures = []
    checks = 0
    grid = [("GL", m, n) for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]]
    grid += [(f, m, n) for f in ("B", "D") for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]]
    for fam, m, n in grid:
        checks_i, fails = _run_identity_grid(fam, [(m, n)], ("mm-d", "mm-sd"), 8)
        checks += checks_i
        failures += fails
    _report("4 mm identities incl. h_vee = 0 cases under the eps-block choice", not failures, f"{checks} checks")


def test_criterion_5_migliore_specializations():
    checks = [("seconda-sd", "B", 1, 2, ""), ("seconda-sd", "B", 2, 1, "")]
    checks += [("seconda-d2-sd", "D", m, n, "D2") for m, n in [(1, 2), (2, 1), (2, 2)]]
    checks += [("seconda-w1-sd", "D", 2, 1, "D2")]
    ok = True
    for kind, fam, m, n, variant in checks:
        system = positive_system(build_root_datum(fam, m, n), distinguished_order(fam, m, n, variant))
        ok = ok and all(verify(kind, system, X=X, depth=8).passed for X in enumerate_diagrams(system))
    _report("5 master-identity specializations (B, D2, W = W_1)", ok, f"{len(checks)} checks")


def test_criterion_6_glkk():
    ok = all(verify_glkk(k, depth=6).passed for k in (2, 3))
    _report("6 gl(k,k) lemma, k = 2, 3", ok)


def _property_a():
    grid = []
    for fam in ("GL", "B", "D", "C"):
        for m in range(0, 6):
            for n in range(0, 6):
                if not (1 <= m + n <= 5):
                    continue
                try:
                    build_root_datum(fam, m, n)
                except ValueError:
                    continue
                grid.append((fam, m, n))
    for fam, m, n in grid:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            for alpha in system.simple_roots:
                if not is_isotropic(alpha):
                    continue
                if not verify_odd_reflection(system, alpha, 6).passed:
                    return False
    return True


PROPERTY_B_RANKS = [("GL", m, n) for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]]
PROPERTY_B_RANKS += [(f, m, n) for f in ("B", "D") for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]]


def _property_b(ranks=PROPERTY_B_RANKS):
    for fam, m, n in ranks:
        datum = build_root_datum(fam, m, n)
        W = full_weyl(datum)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            T = window4(system, 5)
            F = lhs(system, "sd", T)
            for wl in W:
                twisted = product_expansion(
                    system, T, wl.act(system.rho),
                    geom=[(wl.act(a), 1) for a in system.positive_odd],
                    poly=[(wl.act(a), 1) for a in system.positive_even],
                )
                if not compare("sgn' twist", repr(system), repr(wl), 5, F, twisted, sgn_prime(wl, fam)).passed:
                    return False
    return True


def _property_c():
    grid = [("GL", m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5]
    grid += [(f, m, n) for f in ("B", "D") for m in range(1, 4) for n in range(1, 4) if m + n <= 5]
    for fam, m, n in grid:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            sets = {frozenset(X.isotropic_set()) for X in enumerate_diagrams(system)}
            recursive = definition_isotropic_sets(system)
            if fam in ("GL", "B"):
                if sets != recursive:
                    return False
            else:
                # documented D-type gap: interior-fork sets have no diagram
                if not sets <= recursive:
                    return False
                if not all(uses_interior_fork(s, m) for s in recursive - sets):
                    return False
    return True


def _property_d():
    grid = [("GL", m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5]
    grid += [(f, m, n) for f in ("B", "D") for m in range(1, 4) for n in range(1, 4) if m + n <= 5]
    for fam, m, n in grid:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            X = build_nice(system)
            if not X.is_nice():
                return False
            for gamma in X.isotropic_set():
                if not system.in_positive_root_cone(X.bracket(gamma)):
                    return False
    return True


def _property_e():
    grid = [("GL", m, n) for m in range(1, 6) for n in range(1, 6) if m + n <= 6]
    grid += [(f, m, n) for f in ("B", "D") for m in range(1, 5) for n in range(1, 5) if m + n <= 6]
    for fam, m, n in grid:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            for X in enumerate_diagrams(system):
                moves, final = reduce_to_simple(X)
                if not final.is_simple() or apply_moves(X, moves) != final:
                    return False
                nonsimple = sum(1 for i, j in X.arcs if j > i + 1)
                if len(moves) > max(1, nonsimple) * (m + n):
                    return False
    return True


def test_criterion_7_property_suite():
    results = {
        "a erho sign flip": _property_a(),
        "b sgn' invariance": _property_b(),
        "c diagram/recursive bijection": _property_c(),
        "d nice brackets in Q+": _property_d(),
        "e reduction to simple": _property_e(),
    }
    for name, ok in results.items():
        print(f"[acceptance]   7{name}: {'pass' if ok else 'FAIL'}")
    _report("7 property suite", all(results.values()))


def _without_even_poly(system, T, leading, geom, poly):
    return series.product_expansion(system, T, leading, geom=geom)


def _leading_rho(system, T, leading, geom, poly):
    return series.product_expansion(system, T, system.rho, geom=geom, poly=poly)


@pytest.mark.parametrize("name,fault", [
    ("sgn_prime", lambda w, family: sgn(w)),
    ("product_expansion", _without_even_poly),
    ("product_expansion", _leading_rho),
], ids=["sgn", "no_even_poly", "leading_rho"])
def test_property_b_fails_under_each_fault(monkeypatch, name, fault):
    # 7b as written passes on B(1,1) at depth 5, and each fault makes it fail
    # there: sgn in place of sgn', the even roots' poly dropped from the
    # twisted side, or the leading weight left at rho instead of w(rho)
    assert _property_b([("B", 1, 1)])
    monkeypatch.setitem(globals(), name, fault)
    assert not _property_b([("B", 1, 1)])


@pytest.mark.parametrize("rank", [("D", 2, 1), ("GL", 2, 1)])
def test_property_b_cannot_tell_sgn_from_sgn_prime_where_they_agree(monkeypatch, rank):
    # on W(D(2,1)) and W(gl(2,1)) the two signs agree, so the sgn fault is no
    # fault there
    monkeypatch.setitem(globals(), "sgn_prime", lambda w, family: sgn(w))
    assert _property_b([rank])


THETA_CASES = [
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
]


def test_criterion_8_theta_duality():
    t0 = time.time()
    failures = []
    for tag, kw in THETA_CASES:
        rep = make_pair(tag, **kw).verify_duality(8)
        if not rep.passed:
            failures.append((tag, kw, rep.identity_kind))
    dt = time.time() - t0
    _report("8 theta branching incl. D1 x-twist", not failures, f"{len(THETA_CASES)} pairs in {dt:.1f}s")
    assert dt < 600


def test_criterion_9_enright():
    # each entry is compared as a whole character: the two finite Levi sums
    # in front of the common nilradical tail, with no window
    failures = []
    entries = 0
    for tag, kw in THETA_CASES:
        pair = make_pair(tag, **kw)
        for entry in pair.sigma_set(8):
            entries += 1
            if not pair.verify_enright(entry).passed:
                failures.append((tag, kw, entry.partition, entry.sign))
    _report(
        "9 Enright character formula on every table entry",
        not failures,
        f"{entries} entries compared as whole characters",
    )


KW_INSTANCES = [("GL", 2, 1), ("GL", 2, 2), ("GL", 3, 2), ("B", 2, 1), ("D", 2, 1), ("D", 2, 2)]


def _kw_fits():
    fitted = {}
    failures = []
    for fam, m, n in KW_INSTANCES:
        r1 = verify_chv(fam, m, n, 8)
        r2 = verify_kwfor(fam, m, n, depth=8)
        if not (r1.passed and r2.passed):
            failures.append((fam, m, n))
        fitted[(fam, m, n)] = (r1.atp, r2.fitted)
    return fitted, failures


def test_criterion_10_kw_identities():
    fitted, failures = _kw_fits()
    extra = "; ".join(f"{fam}({m},{n}) atp={a} b={b}" for (fam, m, n), (a, b) in sorted(fitted.items()))
    _report("10 natural-module identities (ChV, KWfor) at depth 8", not failures, extra)


@pytest.mark.xfail(
    strict=True,
    reason="exact computation refutes the constancy of b at fixed atypicality: "
    "b(B(2,1)) = b(D(2,2)) = 1/2 while b(gl(2,1)) = b(gl(2,2)) = b(D(2,1)) = 1, "
    "all with atp = 1, under either reading of j_V (see the decisions ledger)",
)
def test_criterion_10_b_agreement_across_instances():
    fitted, _ = _kw_fits()
    by_atp = {}
    for (fam, m, n), (atp, b) in fitted.items():
        by_atp.setdefault(atp, set()).add(b)
    consistent = all(len(v) == 1 for v in by_atp.values())
    _report(
        "10 fitted b agrees across instances with equal atp",
        consistent,
        "documented failure: the constant is family-dependent (and halves at D(m,m))",
    )
