import itertools

import pytest

from superdenom.weights import Weight, inner, is_isotropic
from superdenom.rootdata import (
    build_root_datum,
    standard_order,
    all_basis_orders,
    positive_system,
    odd_reflect,
    distinguished_order,
    BasisOrder,
    Symbol,
)

from _oracles import reflect_simple_roots

SMALL_GRID = [
    ("GL", m, n) for m in range(1, 4) for n in range(1, 4) if m + n <= 5
] + [
    ("B", m, n) for m in range(0, 3) for n in range(1, 4) if m + n <= 5 and m + n > 0
] + [
    ("D", m, n) for m in range(1, 4) for n in range(1, 4) if m + n <= 5
] + [
    ("C", m, 1) for m in range(1, 5)
]


def w(sh, **kw):
    acc = Weight.zero(sh)
    for key, c in kw.items():
        kind, idx = key[0], int(key[1:])
        base = Weight.eps(idx, sh) if kind == "e" else Weight.delta(idx, sh)
        acc = acc + c * base
    return acc


def test_gl21_roots():
    d = build_root_datum("GL", 2, 1)
    sh = (2, 1)
    assert set(d.even_roots) == {w(sh, e1=1, e2=-1), w(sh, e1=-1, e2=1)}
    assert set(d.odd_roots) == {
        w(sh, e1=1, d1=-1), w(sh, e1=-1, d1=1), w(sh, e2=1, d1=-1), w(sh, e2=-1, d1=1)
    }


def test_b11_roots():
    d = build_root_datum("B", 1, 1)
    sh = (1, 1)
    assert set(d.even_roots) == {w(sh, e1=1), w(sh, e1=-1), w(sh, d1=2), w(sh, d1=-2)}
    assert set(d.odd_roots) == {
        w(sh, d1=1, e1=1), w(sh, d1=1, e1=-1), w(sh, d1=-1, e1=1), w(sh, d1=-1, e1=-1),
        w(sh, d1=1), w(sh, d1=-1),
    }


def test_gl10_torus():
    d = build_root_datum("GL", 1, 0)
    assert d.even_roots == () and d.odd_roots == ()


@pytest.mark.parametrize("family,m,n", SMALL_GRID)
def test_root_list_invariants(family, m, n):
    d = build_root_datum(family, m, n)
    ev, od = set(d.even_roots), set(d.odd_roots)
    assert not (ev & od)
    assert ev == {-a for a in ev} and od == {-a for a in od}
    for a in ev:
        assert sum(a.delta_coords2()) % 4 == 0  # even sum of delta coordinates
    for a in od:
        assert sum(a.delta_coords2()) % 4 == 2


@pytest.mark.parametrize("family,m,n", SMALL_GRID)
def test_defect_is_min_by_brute_force(family, m, n):
    d = build_root_datum(family, m, n)
    system = positive_system(d, all_basis_orders(family, m, n)[0])
    iso = [a for a in system.positive_roots if is_isotropic(a)]
    best = 0
    for r in range(1, min(m, n) + 2):
        for combo in itertools.combinations(iso, r):
            if all(inner(a, b) == 0 for a, b in itertools.combinations(combo, 2)):
                best = max(best, r)
                break
    assert best == d.defect


def test_simple_roots_gl21():
    d = build_root_datum("GL", 2, 1)
    system = positive_system(d, standard_order("GL", 2, 1, "ede"))
    sh = (2, 1)
    assert set(system.simple_roots) == {w(sh, e1=1, d1=-1), w(sh, d1=1, e2=-1)}
    assert system.rho == Weight.zero(sh)


def test_b_distinguished_rho1():
    for m, n in [(1, 1), (2, 2), (1, 3)]:
        system = positive_system(build_root_datum("B", m, n), distinguished_order("B", m, n))
        expected = Weight.zero((m, n))
        for j in range(1, n + 1):
            expected = expected + (2 * m + 1) * Weight.delta(j, (m, n))
        assert 2 * system.rho1 == expected


def test_d2_distinguished_rho1():
    for m, n in [(1, 1), (2, 2), (2, 1)]:
        system = positive_system(build_root_datum("D", m, n), distinguished_order("D", m, n, "D2"))
        expected = Weight.zero((m, n))
        for i in range(1, m + 1):
            expected = expected + 2 * n * Weight.eps(i, (m, n))
        assert 2 * system.rho1 == expected


@pytest.mark.parametrize("family,m,n", SMALL_GRID)
def test_rho_doubles_to_integral(family, m, n):
    d = build_root_datum(family, m, n)
    for order in all_basis_orders(family, m, n):
        system = positive_system(d, order)
        assert all(c % 1 == 0 for c in (2 * system.rho).coords2)
        assert system.rho == system.rho0 - system.rho1
        assert 2 * system.rho0 == sum(system.positive_even, Weight.zero((m, n)))


@pytest.mark.parametrize("family,m,n", [("GL", 2, 2), ("B", 1, 2), ("D", 2, 1), ("C", 2, 1)])
def test_positive_roots_in_simple_cone(family, m, n):
    d = build_root_datum(family, m, n)
    for order in all_basis_orders(family, m, n):
        system = positive_system(d, order)
        for a in system.positive_roots:
            assert system.in_positive_root_cone(a), (order, a)


def test_odd_reflection_gl21_example():
    d = build_root_datum("GL", 2, 1)
    system = positive_system(d, standard_order("GL", 2, 1, "ede"))
    sh = (2, 1)
    alpha = w(sh, e1=1, d1=-1)
    new = odd_reflect(system, alpha)
    assert set(new.simple_roots) == {w(sh, d1=1, e1=-1), w(sh, e1=1, e2=-1)}
    assert new.rho == system.rho + alpha
    # Serganova's rule gives the same set
    assert reflect_simple_roots(system.simple_roots, alpha) == set(new.simple_roots)


@pytest.mark.parametrize("family,m,n", [("GL", 2, 1), ("B", 1, 1), ("D", 2, 1), ("C", 2, 1)])
def test_odd_reflection_is_involution(family, m, n):
    d = build_root_datum(family, m, n)
    for order in all_basis_orders(family, m, n):
        system = positive_system(d, order)
        for alpha in system.simple_roots:
            if not is_isotropic(alpha):
                continue
            try:
                once = odd_reflect(system, alpha)
            except ValueError:
                # C-type fork reflections leave the order-encoded family
                assert family == "C"
                continue
            back = odd_reflect(once, -alpha)
            # the same positive system, possibly through the D sign twin
            assert set(back.positive_odd) == set(system.positive_odd)
            assert set(back.positive_even) == set(system.positive_even)
            assert back.rho == system.rho


def test_odd_reflect_rejects_bad_roots():
    d = build_root_datum("B", 1, 1)
    system = positive_system(d, distinguished_order("B", 1, 1))
    with pytest.raises(ValueError):
        odd_reflect(system, Weight.eps(1, (1, 1)))  # simple but not isotropic
    with pytest.raises(ValueError):
        odd_reflect(system, Weight.delta(1, (1, 1)) + Weight.eps(1, (1, 1)))  # not simple


def test_basis_order_validation():
    with pytest.raises(ValueError):
        BasisOrder("GL", 1, 1, [Symbol("e", 1, -1), Symbol("d", 1, 1)])
    with pytest.raises(ValueError):
        BasisOrder("B", 1, 1, [Symbol("e", 1, -1), Symbol("d", 1, 1)])
    # the -eps_m twin with eps_m last encodes the same system; it is legal
    twin = BasisOrder("D", 1, 1, [Symbol("d", 1, 1), Symbol("e", 1, -1)])
    assert twin.sign_twin().sequence == (Symbol("d", 1, 1), Symbol("e", 1, 1))


def test_twin_order_same_system():
    d = build_root_datum("D", 2, 1)
    plain = positive_system(d, standard_order("D", 2, 1, "ede"))
    twin = positive_system(d, standard_order("D", 2, 1, "ede").sign_twin())
    assert set(plain.positive_roots) == set(twin.positive_roots)
    assert plain.rho == twin.rho
    assert set(plain.simple_roots) == set(twin.simple_roots)


def test_all_basis_orders_counts():
    assert len(all_basis_orders("GL", 2, 2)) == 6
    assert len(all_basis_orders("B", 2, 2)) == 6
    # D adds the -eps_m twin except when the pattern ends with eps
    assert len(all_basis_orders("D", 2, 2)) == 6 + 3
    assert len(all_basis_orders("C", 3, 1)) == 4


def test_c_family_convention():
    d = build_root_datum("C", 2, 1)
    sh = (2, 1)
    assert w(sh, e1=2) in d.even_roots  # symplectic eps block
    assert w(sh, d1=1, e1=-1) in d.odd_roots
    sys1 = positive_system(d, distinguished_order("C", 2, 1, "C1"))
    assert w(sh, e2=1, d1=1) in sys1.simple_roots and w(sh, e2=1, d1=-1) in sys1.simple_roots
    sys2 = positive_system(d, distinguished_order("C", 2, 1, "C2"))
    assert w(sh, e2=2) in sys2.simple_roots


def test_unsupported_ranks():
    with pytest.raises(ValueError):
        build_root_datum("C", 2, 2)
    with pytest.raises(ValueError):
        build_root_datum("B", 2, 0)
    with pytest.raises(ValueError):
        build_root_datum("GL", 0, 0)
