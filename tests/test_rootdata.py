import functools
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from superdenom.denominators import c_g
from superdenom.diagrams import enumerate_diagrams
from superdenom.weights import Weight, inner, is_isotropic
from superdenom.weyl import enumerate_closure, full_weyl, sharp_subgroup, weyl_order
from superdenom.rootdata import (
    build_root_datum,
    standard_order,
    all_basis_orders,
    positive_system,
    odd_reflect,
    distinguished_order,
    distinguished_orders,
    BasisOrder,
    Symbol,
)

from _oracles import (
    reference_c_g,
    reference_root_datum,
    reference_sharp_generators,
    reference_weyl_order,
    reference_height_values,
    reference_in_cone,
    reference_odd_reflect_order,
    reflect_simple_roots,
)

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


# every family and rank with m + n <= 6, blocks of size 0 and the rejected
# ranks included, and two spellings the family check must handle
FAMILY_GRID = [
    (family, m, n) for family in ("GL", "B", "C", "D") for m in range(-1, 7) for n in range(-1, 7) if m + n <= 6
] + [("gl", 2, 1), ("E", 1, 1)]


@pytest.mark.parametrize("family,m,n", FAMILY_GRID)
def test_family_table_matches_the_per_family_oracles(family, m, n):
    # the roots, the h_vee sign, |W_g|, C_g and W# against the family-by-family
    # definitions; a rank the oracle rejects must be rejected with its message
    try:
        ref = reference_root_datum(family, m, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_root_datum(family, m, n)
        assert str(got.value) == str(exc)
        return
    datum = build_root_datum(family, m, n)
    assert (datum.family, datum.m, datum.n) == (ref.family, ref.m, ref.n)
    for mine, theirs in ((datum.even_roots, ref.even_roots), (datum.odd_roots, ref.odd_roots)):
        assert len(mine) == len(set(mine)) and set(mine) == set(theirs)
    assert datum.dual_coxeter_sign == ref.dual_coxeter_sign
    sharp = sharp_subgroup(datum)
    assert weyl_order(datum) == reference_weyl_order(ref)
    assert c_g(datum) == reference_c_g(ref) == weyl_order(datum) // len(sharp)
    if weyl_order(datum) <= 10_000:  # all but B(0,6), whose 46,080 elements take seconds
        # the closure of the filtered reflections is a route independent of
        # sharp_subgroup, and is itself checked against reference_closure
        gens = [g.element() for g in reference_sharp_generators(ref)]
        assert sharp == enumerate_closure(gens, datum.shape)
        assert len(full_weyl(datum)) == weyl_order(datum)


def test_distinguished_orders_list_every_variant():
    assert [repr(o) for o in distinguished_orders("gl", 2, 1)] == ["d1>e1>e2", "e1>d1>e2", "e1>e2>d1"]
    assert distinguished_orders("B", 2, 1) == [distinguished_order("B", 2, 1)]
    assert distinguished_orders("D", 2, 1) == [distinguished_order("D", 2, 1, v) for v in ("D1", "D2", "D2'")]
    assert distinguished_orders("C", 2, 1) == [distinguished_order("C", 2, 1, v) for v in ("C1", "C2")]
    with pytest.raises(ValueError, match="unknown family 'E'"):
        distinguished_orders("E", 2, 1)


@pytest.mark.parametrize(
    "family,m,n,variant,message",
    [
        # B has only the empty variant, and C only n = 1 (the message is
        # build_root_datum's); the other rows keep their old messages
        ("B", 2, 1, "nonsense", "B has one distinguished order, with variant '', got 'nonsense'"),
        ("B", 2, 1, "D2", "B has one distinguished order, with variant '', got 'D2'"),
        ("C", 2, 5, "C1", "family C carries exactly one delta symbol (n = 1)"),
        ("C", 2, 0, "C2", "family C carries exactly one delta symbol (n = 1)"),
        ("C", 2, 1, "C3", "C variants: C1, C2"),
        ("D", 2, 1, "", "D variants: D1, D2, D2'"),
        ("GL", 2, 1, "", "GL distinguished orders need variant 'p<int>'"),
        ("GL", 2, 1, "p3", "p out of range"),
        ("E", 2, 1, "", "unknown family 'E'"),
    ],
)
def test_distinguished_order_rejects_what_it_does_not_name(family, m, n, variant, message):
    with pytest.raises(ValueError) as err:
        distinguished_order(family, m, n, variant)
    assert str(err.value) == message
    if family == "C" and n != 1:
        with pytest.raises(ValueError, match=re.escape(message)):
            build_root_datum(family, m, n)


# every rank with m + n <= 5 of GL, B and D, and C(1..4,1)
ORACLE_GRID = (
    [("GL", m, n) for m in range(6) for n in range(6) if 1 <= m + n <= 5]
    + [("B", m, n) for m in range(5) for n in range(1, 6) if m + n <= 5]
    + [("D", m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5]
    + [("C", m, 1) for m in range(1, 5)]
)


@functools.cache
def systems(family, m, n):
    """A system for every canonical order and, in D, every sign twin."""
    orders = all_basis_orders(family, m, n)
    if family == "D":
        orders += [o.sign_twin() for o in orders if o.sign_twin() not in orders]
    datum = build_root_datum(family, m, n)
    return [positive_system(datum, order) for order in orders]


def _odd_reflect_outcome(reflect, system, alpha):
    try:
        return reflect(system, alpha)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("family,m,n", ORACLE_GRID)
def test_heights_and_cone_match_the_oracles(family, m, n):
    for system in systems(family, m, n):
        assert system._base_hvals2 == reference_height_values(system), system
        assert all(system.height(a) == 1 for a in system.simple_roots), system
        brackets = [X.bracket(g) for X in enumerate_diagrams(system) for g in X.isotropic_set()]
        for w in system.datum.roots + tuple(brackets):
            assert system.in_positive_root_cone(w) == reference_in_cone(system, w), (system, w)


@pytest.mark.parametrize("family,m,n", ORACLE_GRID)
def test_odd_reflect_matches_the_swap_search(family, m, n):
    for system in systems(family, m, n):
        for alpha in system.datum.roots:
            got = _odd_reflect_outcome(lambda s, a: odd_reflect(s, a).order, system, alpha)
            assert got == _odd_reflect_outcome(reference_odd_reflect_order, system, alpha), (system, alpha)


@settings(max_examples=300, deadline=None)
@given(
    rank=st.sampled_from(ORACLE_GRID),
    pick=st.integers(0, 63),
    coeffs=st.lists(st.integers(-1, 3), min_size=5, max_size=5),
    noise=st.one_of(st.just([0] * 5), st.lists(st.integers(-2, 2), min_size=5, max_size=5)),
)
def test_cone_matches_the_oracle_on_drawn_weights(rank, pick, coeffs, noise):
    # a combination of simple roots, kept or moved by a half-integral offset,
    # so that both members and near misses of the cone are drawn
    options = systems(*rank)
    system = options[pick % len(options)]
    N = sum(system.shape)
    coords2 = [e + sum(c * a.coords2[i] for c, a in zip(coeffs, system.simple_roots)) for i, e in enumerate(noise[:N])]
    w = Weight(coords2, system.shape)
    assert system.in_positive_root_cone(w) == reference_in_cone(system, w), (system, w)
