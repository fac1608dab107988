import hashlib
import json

import pytest

from superdenom.weights import Weight, weight_sum
from superdenom.rootdata import (
    build_root_datum,
    standard_order,
    positive_system,
    all_basis_orders,
    distinguished_order,
)
from superdenom.diagrams import (
    ArcDiagram,
    enumerate_diagrams,
    odd_reflect_diagram,
    interval_reflect,
    reduce_to_simple,
    build_nice,
)

from _oracles import (
    apply_moves,
    definition_isotropic_sets,
    reference_bracket,
    reference_is_nice,
    reference_nesting_count,
    uses_interior_fork,
)

BIJECTION_GRID = (
    [("GL", m, n) for m in range(1, 5) for n in range(1, 5) if m + n <= 5]
    + [("B", m, n) for m in range(1, 4) for n in range(1, 4) if m + n <= 5]
    + [("D", m, n) for m in range(1, 4) for n in range(1, 4) if m + n <= 5]
)
# every GL/B/D rank with m + n <= 5, and C(m,1) for m <= 4
TABLE_RANKS = [
    (fam, m, n) for fam in ("GL", "B", "D") for m in range(1, 5) for n in range(1, 5) if m + n <= 5
] + [("C", m, 1) for m in range(1, 5)]


def gl54_system():
    return positive_system(
        build_root_datum("GL", 5, 4), standard_order("GL", 5, 4, "ededdeede")
    )


def gl54_diagram():
    return ArcDiagram(gl54_system().order, [(0, 3), (1, 2), (4, 5), (7, 8)])


def w(sh, **kw):
    acc = Weight.zero(sh)
    for key, c in kw.items():
        kind, idx = key[0], int(key[1:])
        base = Weight.eps(idx, sh) if kind == "e" else Weight.delta(idx, sh)
        acc = acc + c * base
    return acc


def test_gl54_isotropic_set():
    X = gl54_diagram()
    sh = (5, 4)
    assert set(X.isotropic_set()) == {
        w(sh, d1=1, e2=-1), w(sh, e1=1, d2=-1), w(sh, d3=1, e3=-1), w(sh, d4=1, e5=-1)
    }


def test_gl54_brackets():
    X = gl54_diagram()
    sh = (5, 4)
    gamma = w(sh, e1=1, d2=-1)
    assert X.bracket(gamma) == w(sh, e1=1, e2=1, d1=-1, d2=-1)
    inner_gamma = w(sh, d1=1, e2=-1)
    assert X.bracket(inner_gamma) == inner_gamma
    # simple arcs have vanishing open bracket
    assert X.open_bracket(inner_gamma) == Weight.zero(sh)
    assert X.open_bracket(gamma) == X.bracket(gamma) - gamma


def test_d43_sets_with_both_last_signs():
    sh = (4, 3)
    datum = build_root_datum("D", 4, 3)
    sys2 = positive_system(datum, standard_order("D", 4, 3, "edededе".replace("е", "e")))
    X2 = ArcDiagram(sys2.order, [(0, 1), (3, 4), (5, 6)])
    assert set(X2.isotropic_set()) == {
        w(sh, e1=1, d1=-1), w(sh, d2=1, e3=-1), w(sh, d3=1, e4=-1)
    }
    order3 = standard_order("D", 4, 3, "ededeed", eps_last_sign=-1)
    X3 = ArcDiagram(order3, [(0, 1), (3, 4), (5, 6)])
    assert set(X3.isotropic_set()) == {
        w(sh, e1=1, d1=-1), w(sh, d2=1, e3=-1), w(sh, e4=-1, d3=-1)
    }


def test_bracket_interval_route_on_positive_vertices():
    X = gl54_diagram()
    for gamma in X.isotropic_set():
        assert X.bracket(gamma) == reference_bracket(X, gamma)


def test_root_tables_equal_a_fresh_recomputation():
    # every diagram of every order, D sign twins included
    count = 0
    for fam, m, n in TABLE_RANKS:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            for X in enumerate_diagrams(positive_system(datum, order)):
                count += 1
                seq = X.order.sequence
                fs = [s.functional(X.shape) for s in seq]
                assert X.order.functionals() == fs, X
                roots = {a: fs[a[0]] - fs[a[1]] for a in sorted(X.arcs)}
                assert X.isotropic_set() == list(roots.values()), X
                sn = {a: 1 if seq[a[0]].kind == "e" else -1 for a in X.arcs}
                for arc, gamma in roots.items():
                    nested = [b for b in X.arcs if arc[0] <= b[0] and b[1] <= arc[1]]
                    definition = weight_sum((sn[arc] * sn[b] * roots[b] for b in nested), X.shape)
                    assert X.bracket(gamma) == definition == reference_bracket(X, gamma), (X, gamma)
                    assert X.open_bracket(gamma) == definition - gamma, (X, gamma)
                    assert X.gamma_le_size(gamma) == len(nested), (X, gamma)
                    assert X.root_sign(gamma) == (-1) ** (len(nested) + 1), (X, gamma)
    assert count == 344


def test_root_table_lists_are_fresh():
    X = gl54_diagram()
    S = X.isotropic_set()
    expected = list(S)
    S.append(S[0])
    S.reverse()
    assert X.isotropic_set() == expected
    fs = X.order.functionals()
    fs.clear()
    assert len(X.order.functionals()) == 9


def test_weights_outside_s_of_x_are_refused():
    X = gl54_diagram()
    sh = (5, 4)
    gamma = w(sh, d1=1, e2=-1)
    outside = [
        -gamma,
        gamma + gamma,
        w(sh, e1=1, d1=-1),
        Weight.zero(sh),
        Weight(gamma.coords2 + (0,), (6, 4)),
    ]
    for bad in outside:
        for query in (X.bracket, X.open_bracket, X.root_sign, X.gamma_le_size):
            with pytest.raises(ValueError, match=r"is not in S\(X\)"):
                query(bad)


def test_bracket_is_interval_group_invariant():
    # [[v - w]] is invariant under permutations of the same-type symbols
    # strictly inside the arc interval
    X = gl54_diagram()
    sh = (5, 4)
    gamma = w(sh, e1=1, d2=-1)  # spans e1 d1 e2 d2
    from superdenom.weyl import signed_permutations

    bracket = X.bracket(gamma)
    for _w in signed_permutations(sh, "d", [1, 2]):
        assert _w.act(bracket) == bracket


def test_b_distinguished_unique_diagram():
    for m, n in [(1, 1), (2, 2), (1, 3), (3, 1)]:
        system = positive_system(build_root_datum("B", m, n), distinguished_order("B", m, n))
        diagrams = enumerate_diagrams(system)
        assert len(diagrams) == 1
        d = min(m, n)
        expected = {(n - 1 - i, n + i) for i in range(d)}
        assert set(diagrams[0].arcs) == expected


def test_b_distinguished_heights_are_odd_chain():
    # ht(gamma_i) = 2i - 1, so the princ constant collapses to C_g / d!
    system = positive_system(build_root_datum("B", 2, 2), distinguished_order("B", 2, 2))
    X = enumerate_diagrams(system)[0]
    hts = sorted(system.height(g) for g in X.isotropic_set())
    assert hts == [1, 3]


def test_gl54_diagram_is_enumerated():
    system = gl54_system()
    assert gl54_diagram() in enumerate_diagrams(system)


@pytest.mark.parametrize("family,m,n", BIJECTION_GRID)
def test_cad_bijection_diagrams_vs_recursive_sets(family, m, n):
    datum = build_root_datum(family, m, n)
    for order in all_basis_orders(family, m, n):
        system = positive_system(datum, order)
        diagrams = enumerate_diagrams(system)
        from_diagrams = {frozenset(X.isotropic_set()) for X in diagrams}
        assert len(from_diagrams) == len(diagrams)  # encoding is injective
        recursive = definition_isotropic_sets(system)
        if family in ("GL", "B"):
            assert from_diagrams == recursive, (family, m, n, order)
        else:
            # D type: the recursion can also produce sets through the fork
            # roots of interior reduced subsystems, which no basis order can
            # realize as arcs; apart from exactly those, the families agree
            assert from_diagrams <= recursive, (family, m, n, order)
            gap = recursive - from_diagrams
            assert all(uses_interior_fork(s, m) for s in gap), (family, m, n, order)
            assert not any(uses_interior_fork(s, m) for s in from_diagrams)


@pytest.mark.parametrize("family,m,n", BIJECTION_GRID)
def test_every_diagram_has_a_simple_arc(family, m, n):
    datum = build_root_datum(family, m, n)
    for order in all_basis_orders(family, m, n):
        system = positive_system(datum, order)
        for X in enumerate_diagrams(system):
            if X.arcs:
                assert any(j == i + 1 for i, j in X.arcs)


def test_odd_reflection_moves_vertices():
    X = gl54_diagram()
    Y = odd_reflect_diagram(X, (1, 2))
    # d1 and e2 exchange; the arcs keep their positions
    kinds = [s.kind for s in Y.order.sequence]
    assert kinds == list("eedddeede")
    assert Y.arcs == X.arcs
    sh = (5, 4)
    assert w(sh, e2=1, d1=-1) in Y.isotropic_set()


def test_odd_reflection_preserves_other_brackets():
    X = gl54_diagram()
    sh = (5, 4)
    outer = w(sh, e1=1, d2=-1)
    before = X.bracket(outer)
    Y = odd_reflect_diagram(X, (1, 2))
    assert Y.bracket(outer) == before


def test_interval_reflection_shortens_arcs():
    X = gl54_diagram()
    Y = interval_reflect(X, 0)
    assert set(Y.arcs) == {(0, 1), (2, 3), (4, 5), (7, 8)}
    assert Y.order == X.order  # simple roots unchanged


def test_nested_pair_reduction_paths():
    # left display: nested arcs on e d e d; the odd reflection gives the nice
    # middle display, the interval reflection gives the simple right display
    order = standard_order("GL", 2, 2, "eded")
    left = ArcDiagram(order, [(0, 3), (1, 2)])
    assert not left.is_nice()
    mid = odd_reflect_diagram(left, (1, 2))
    assert mid.is_nice() and not mid.is_simple()
    right = interval_reflect(left, 0)
    assert right.is_simple() and right.is_nice()
    assert set(right.arcs) == {(0, 1), (2, 3)}
    # the middle diagram needs the odd step back before it can be simplified
    moves_mid, final_mid = reduce_to_simple(mid)
    assert len(moves_mid) == 2 and final_mid.is_simple()
    # the left diagram is already alternating, so one interval move suffices
    moves, final = reduce_to_simple(left)
    assert final.is_simple()
    assert apply_moves(left, moves) == final
    assert len(moves) <= 1 * (2 + 2)


def test_reduce_already_simple_is_empty():
    system = positive_system(build_root_datum("B", 1, 2), distinguished_order("B", 1, 2))
    X = enumerate_diagrams(system)[0]
    if X.is_simple():
        moves, final = reduce_to_simple(X)
        assert moves == [] and final == X


@pytest.mark.parametrize("family,m,n", BIJECTION_GRID)
def test_reduce_to_simple_everywhere(family, m, n):
    datum = build_root_datum(family, m, n)
    bound = (m + n) * max(1, min(m, n))
    for order in all_basis_orders(family, m, n):
        system = positive_system(datum, order)
        for X in enumerate_diagrams(system):
            moves, final = reduce_to_simple(X)
            assert final.is_simple()
            assert apply_moves(X, moves) == final
            nonsimple = sum(1 for i, j in X.arcs if j > i + 1)
            assert len(moves) <= nonsimple * (m + n)


@pytest.mark.parametrize("family,m,n", BIJECTION_GRID)
def test_build_nice_brackets_in_positive_cone(family, m, n):
    datum = build_root_datum(family, m, n)
    for order in all_basis_orders(family, m, n):
        system = positive_system(datum, order)
        X = build_nice(system)
        assert X.is_nice()
        for gamma in X.isotropic_set():
            assert system.in_positive_root_cone(X.bracket(gamma)), (family, m, n, order)


def _grid_systems():
    """Every canonical order's positive system over BIJECTION_GRID."""
    for family, m, n in BIJECTION_GRID:
        datum = build_root_datum(family, m, n)
        for order in all_basis_orders(family, m, n):
            yield positive_system(datum, order)


def test_diagram_layer_is_pinned():
    # arcs, nesting, niceness, brackets, root signs and reduction moves of
    # every diagram on the grid, and the nice diagram of every order
    doc, count = [], 0
    for system in _grid_systems():
        rows = []
        for X in enumerate_diagrams(system):
            count += 1
            S = X.isotropic_set()
            rows.append({
                "order": X.order.to_json(),
                "arcs": X.arcs,
                "nesting": X.nesting_count(),
                "nice": X.is_nice(),
                "brackets": [X.bracket(g).coords2 for g in S],
                "signs": [X.root_sign(g) for g in S],
                "moves": reduce_to_simple(X)[0],
            })
        doc.append({"order": system.order.to_json(), "nice": build_nice(system).arcs, "diagrams": rows})
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert count == 282
    assert hashlib.sha256(text.encode()).hexdigest() == "bd666c46e9e0cae093b7e580a00a426b9d2c5be597757a1191da66655755ccd1"


def test_nesting_reads_match_the_pairwise_references():
    for system in _grid_systems():
        for X in enumerate_diagrams(system) + [build_nice(system)]:
            assert X.is_nice() == reference_is_nice(X), X
            assert X.nesting_count() == reference_nesting_count(X), X


def test_validation_rejects_bad_diagrams():
    order = standard_order("GL", 2, 2, "eded")
    with pytest.raises(ValueError):
        ArcDiagram(order, [(0, 2), (1, 3)])  # same-type ends
    with pytest.raises(ValueError):
        ArcDiagram(order, [(0, 1), (1, 2)])  # shared endpoint
    with pytest.raises(ValueError):
        ArcDiagram(order, [(0, 1)])  # wrong arc count
    order2 = standard_order("GL", 3, 3, "ededed")
    with pytest.raises(ValueError):
        ArcDiagram(order2, [(0, 3), (2, 5), (1, 4)])  # crossing arcs
    with pytest.raises(ValueError):
        ArcDiagram(standard_order("GL", 2, 1, "eed"), [(0, 2)])  # unbalanced interval


def test_ascii_render_shapes():
    art = gl54_diagram().ascii()
    lines = art.splitlines()
    assert lines[-2].count("•") == 5 and lines[-2].count("×") == 4
    assert "e1" in lines[-1] and "d4" in lines[-1]
