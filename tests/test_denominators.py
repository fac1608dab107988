from dataclasses import replace
from fractions import Fraction

import pytest

from superdenom.weights import Weight, is_isotropic
from superdenom.rootdata import (
    PositiveSystem,
    Symbol,
    build_root_datum,
    standard_order,
    positive_system,
    all_basis_orders,
    distinguished_order,
)
from superdenom.diagrams import ArcDiagram, enumerate_diagrams
from superdenom.weyl import WeylElement, full_weyl, sgn, sgn_prime
from superdenom.series import CharSeries, HeightZeroExponent, f_sum_quotient, product_expansion
from superdenom.cli import main
from superdenom.denominators import (
    IDENTITY_KINDS,
    choose_expansion_system,
    compare,
    with_safe_expansion,
    lhs,
    right_side,
    verify,
    verify_glkk,
    verify_odd_reflection,
    WeylSum,
    window4,
    c_g,
    princ_constant,
    migliore_groups,
)

from _oracles import monomial, reference_lhs


def _lhs_reversed(system, kind, threshold4):
    """Independent route: multiply the factors in the opposite order."""
    s = 1 if kind == "sd" else -1
    return product_expansion(
        system,
        threshold4,
        system.rho,
        geom=[(a, s) for a in reversed(system.positive_odd)],
        poly=[(a, 1) for a in reversed(system.positive_even)],
    )


def test_lhs_gl11_closed_forms():
    system = positive_system(build_root_datum("GL", 1, 1), standard_order("GL", 1, 1, "ed"))
    sh = (1, 1)
    alpha = Weight.eps(1, sh) - Weight.delta(1, sh)
    T = window4(system, 4)
    sd = lhs(system, "sd", T)
    # e^rho R-check = e^{-alpha/2} (1 + e^{-alpha} + ...) with rho = -alpha/2
    rho = system.rho
    assert rho == (-1) * alpha.half()
    assert sd.terms == {rho - k * alpha: 1 for k in range(5)}
    d = lhs(system, "d", T)
    assert d.terms == {rho - k * alpha: (-1) ** k for k in range(5)}


def test_lhs_matches_reversed_factor_order():
    for fam, m, n, depth in [("B", 1, 1, 6), ("GL", 2, 1, 6), ("D", 2, 1, 5), ("C", 2, 1, 5)]:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            T = window4(system, depth)
            a = lhs(system, "sd", T)
            b = _lhs_reversed(system, "sd", T)
            assert a.terms == b.terms


def test_lhs_b11_term_count_frozen():
    # value computed by the independent reversed-order expansion and frozen;
    # the support is two geometric rays through e^rho at this rank
    system = positive_system(build_root_datum("B", 1, 1), distinguished_order("B", 1, 1))
    T = window4(system, 6)
    ser = lhs(system, "sd", T)
    assert ser.terms == _lhs_reversed(system, "sd", T).terms
    assert len(ser.terms) == 9


def test_cg_table():
    expected = {
        ("GL", 3, 2): 2,
        ("B", 2, 2): 8,
        ("B", 1, 2): 2,
        ("D", 3, 2): 8,
        ("D", 2, 2): 4,
        ("D", 2, 3): 4,
        ("C", 3, 1): 1,
    }
    for (fam, m, n), val in expected.items():
        assert c_g(build_root_datum(fam, m, n)) == val


def test_princ_constant_examples():
    system = positive_system(build_root_datum("B", 1, 1), distinguished_order("B", 1, 1))
    X = enumerate_diagrams(system)[0]
    assert princ_constant(system, X) == 2  # C_g = 2, single simple arc
    system = positive_system(build_root_datum("B", 2, 2), distinguished_order("B", 2, 2))
    X = enumerate_diagrams(system)[0]
    assert princ_constant(system, X) == Fraction(8, 2)  # heights 1, 3


@pytest.mark.parametrize(
    "fam,m,n",
    [("GL", 1, 1), ("GL", 2, 1), ("GL", 2, 2), ("B", 1, 1), ("C", 2, 1), ("D", 2, 1)],
)
def test_identities_small_grid(fam, m, n):
    datum = build_root_datum(fam, m, n)
    for order in all_basis_orders(fam, m, n):
        system = positive_system(datum, order)
        for X in enumerate_diagrams(system):
            for kind in ("princ-sd", "princ-d", "mm-sd", "mm-d"):
                assert verify(kind, system, X=X, depth=6).passed, (kind, order, X.arcs)
            if X.is_simple():
                for kind in ("kwg-sd", "kwg-d"):
                    assert verify(kind, system, X=X, depth=6).passed, (kind, order, X.arcs)


def test_kwg_rejects_bad_isotropic_sets():
    system = positive_system(build_root_datum("GL", 2, 1), standard_order("GL", 2, 1, "ede"))
    sh = (2, 1)
    with pytest.raises(ValueError):
        right_side("kwg-sd", system, S=[Weight.eps(1, sh) - Weight.eps(2, sh)])
    with pytest.raises(ValueError):
        right_side("kwg-sd", system, S=[])  # not maximal


def test_kwg_rejects_an_s_whose_roots_are_not_distinct_and_orthogonal():
    # e1-d1 and d1-e2 are isotropic simple roots of e1>d1>e2>d2, as many as
    # the defect, but they pair to -1, so they span no maximal isotropic set;
    # this used to be reported as a failed identity
    system = positive_system(build_root_datum("GL", 2, 2), standard_order("GL", 2, 2, "eded"))
    sh = system.shape
    e1d1, d1e2, e2d2 = (Weight.eps(1, sh) - Weight.delta(1, sh), Weight.delta(1, sh) - Weight.eps(2, sh),
                        Weight.eps(2, sh) - Weight.delta(2, sh))
    assert {e1d1, d1e2, e2d2} == set(system.simple_roots) and system.datum.defect == 2
    for S in ([e1d1, d1e2], [e1d1, e1d1]):
        with pytest.raises(ValueError, match="not distinct and mutually orthogonal"):
            verify("kwg-sd", system, S=S, depth=4)
    assert verify("kwg-sd", system, S=[e1d1, e2d2], depth=4).passed


@pytest.mark.parametrize("kind", ["kwg-sd", "kwg-d"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_kwg_on_the_c_fork_root_that_no_diagram_draws(m, kind):
    # on C(m) with e1 > ... > em > d1 the fork root eps_m + delta_1 is an
    # isotropic simple root that no simple diagram's set holds; only S names it
    system = positive_system(build_root_datum("C", m, 1), standard_order("C", m, 1, "e" * m + "d"))
    sh = system.shape
    fork = Weight.eps(m, sh) + Weight.delta(1, sh)
    assert fork in system.simple_roots and is_isotropic(fork)
    drawn = [X.isotropic_set() for X in enumerate_diagrams(system) if X.is_simple()]
    assert drawn and all(fork not in S for S in drawn)
    assert verify(kind, system, S=[fork], depth=6).passed


def test_both_functional_searches_try_the_same_systems_and_give_up_alike():
    # the system, then the tiebreak seeds 1..79, then RuntimeError: an
    # exponent of height zero under every functional exhausts both searches
    system = positive_system(build_root_datum("GL", 2, 1), standard_order("GL", 2, 1, "ede"))
    zero = Weight.zero(system.shape)
    with pytest.raises(RuntimeError, match="no perturbation separated"):
        choose_expansion_system(system, [zero])
    tried = []

    def flat(sys_):
        tried.append(sys_.tiebreak)
        product_expansion(sys_, window4(sys_, 2), sys_.rho, geom=[(zero, 1)])

    with pytest.raises(RuntimeError, match="no perturbation separated"):
        with_safe_expansion(system, flat)
    assert tried == list(range(80))


def test_wrong_constant_fails_with_mismatch_below_rho():
    system = positive_system(build_root_datum("B", 1, 1), distinguished_order("B", 1, 1))
    X = enumerate_diagrams(system)[0]
    T = window4(system, 6)
    L = lhs(system, "sd", T)
    spec = right_side("princ-sd", system, X)
    R, C = spec.expand(system, T), spec.constant
    assert not L.mismatches(R, C)
    bad = L.mismatches(R, C + 1)
    assert bad
    worst = min(bad, key=lambda w_: w_.coords2)
    assert system.ht4(worst) <= system.ht4(system.rho)


def test_negative_depth_is_rejected_not_a_vacuous_pass():
    # a negative depth makes an empty window, on which every comparison
    # would pass without comparing a single coefficient
    system = positive_system(build_root_datum("C", 2, 1), all_basis_orders("C", 2, 1)[0])
    X = enumerate_diagrams(system)[0]
    assert verify("princ-sd", system, X=X, depth=0).passed
    with pytest.raises(ValueError):
        verify("princ-sd", system, X=X, depth=-3)
    with pytest.raises(ValueError):
        window4(system, -1)
    with pytest.raises(ValueError):
        verify_glkk(2, depth=-1)


def test_compare_of_two_empty_series_does_not_pass():
    # zero against zero agrees everywhere but compares no coefficient; one
    # in-window term on either side makes the same comparison count
    system = positive_system(build_root_datum("B", 1, 1), distinguished_order("B", 1, 1))
    T = window4(system, 4)
    zero = CharSeries.zero(system, T)
    rep = compare("x", "s", "t", 0, zero, zero)
    assert rep.passed is False and rep.first_mismatch is None
    assert rep.to_json()["verdict"] == "fail"
    one = monomial(system, system.rho).truncate(T)
    assert compare("x", "s", "t", 0, one, one).passed
    assert not compare("x", "s", "t", 0, zero, one).passed


def test_identity_report_shape():
    system = positive_system(build_root_datum("GL", 1, 1), standard_order("GL", 1, 1, "ed"))
    X = enumerate_diagrams(system)[0]
    rep = verify("princ-sd", system, X=X, depth=5)
    doc = rep.to_json()
    assert doc["verdict"] == "pass" and doc["identity"] == "princ-sd"
    assert doc["depth"] == 5


def test_erho_sign_flip_all_small_systems():
    grid = (
        [("GL", m, n) for m in range(1, 4) for n in range(1, 4) if m + n <= 4]
        + [("B", 1, 1), ("B", 1, 2), ("B", 2, 1)]
        + [("D", 2, 1), ("D", 1, 2)]
        + [("C", 2, 1), ("C", 3, 1)]
    )
    for fam, m, n in grid:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            for alpha in system.simple_roots:
                if not is_isotropic(alpha):
                    continue
                rep = verify_odd_reflection(system, alpha, 5)
                assert rep.passed, (fam, m, n, order, alpha)


def test_interval_reflection_invariance_of_p_sum():
    # F-check_W(P(X)) is unchanged by an interval reflection (full Weyl group)
    from superdenom.series import f_sum_quotient
    from superdenom.diagrams import interval_reflect

    for pattern, arcs in [("eded", [(0, 3), (1, 2)]), ("dede", [(0, 3), (1, 2)])]:
        datum = build_root_datum("GL", 2, 2)
        base = positive_system(datum, standard_order("GL", 2, 2, pattern))
        X = ArcDiagram(base.order, arcs)
        Y = interval_reflect(X, 0)
        W = full_weyl(datum)
        exps = [w.act(X.bracket(g)) for w in W for g in X.isotropic_set()]
        exps += [w.act(Y.bracket(g)) for w in W for g in Y.isotropic_set()]
        system = choose_expansion_system(base, exps)
        T = window4(system, 7)

        def p_sum(D):
            scale = 1
            for g in D.isotropic_set():
                scale *= int(system.height(g) + 1) // 2
            return f_sum_quotient(
                system, W, "sgn_prime", T, system.rho,
                geom=[(D.bracket(g), 1) for g in D.isotropic_set()],
            ).scale(scale)

        assert compare("interval reflection", repr(system), pattern, 7, p_sum(X), p_sum(Y)).passed, pattern


@pytest.mark.parametrize("k", [2, 3])
def test_glkk_lemma(k):
    rep = verify_glkk(k, depth=6)
    assert rep.passed
    assert rep.constant == str(Fraction(1, k))


@pytest.mark.parametrize("broken", ["side", "ratio"])
def test_glkk_failure_report(monkeypatch, broken):
    # doubling one side, or the stated ratio, must turn the verdict red and
    # name the first weight where the two sides differ
    from superdenom import denominators

    true_sides = denominators.glkk_sides

    def doubled(k, depth):
        left, rhs, ratio = true_sides(k, depth)
        return (left.scale(2), rhs, ratio) if broken == "side" else (left, rhs, 2 * ratio)

    monkeypatch.setattr(denominators, "glkk_sides", doubled)
    rep = verify_glkk(2, depth=4)
    assert rep.passed is False
    assert rep.identity_kind == "glkk"
    assert rep.subset == "k=2"
    assert rep.constant == ("1/2" if broken == "side" else "1")
    assert rep.first_mismatch is not None
    assert rep.to_json()["verdict"] == "fail"


# The compact dual pair specializations, each on the systems it is checked
# on: the distinguished order of B(m,n), and the D2 order of D(m,n).
SECONDA_SYSTEMS = {
    "seconda-sd": [("B", 1, 2), ("B", 2, 1), ("B", 2, 2)],
    "seconda-d2-sd": [("D", 1, 2), ("D", 2, 1), ("D", 2, 2)],
    "seconda-w1-sd": [("D", 2, 1), ("D", 3, 1), ("D", 3, 2)],
}
SECONDA_CASES = [(kind, *rank) for kind, ranks in SECONDA_SYSTEMS.items() for rank in ranks]


def _seconda_system(fam, m, n):
    variant = "" if fam == "B" else "D2"
    return positive_system(build_root_datum(fam, m, n), distinguished_order(fam, m, n, variant))


def _verify_with(monkeypatch, mutate, kind, system, depth, X=None):
    # verify, with its right side passed through ``mutate``, on X (default
    # the system's first diagram)
    from superdenom import denominators

    true_right_side = denominators.right_side
    monkeypatch.setattr(denominators, "right_side", lambda *a, **k: mutate(true_right_side(*a, **k)))
    return verify(kind, system, X=enumerate_diagrams(system)[0] if X is None else X, depth=depth)


def test_seconda_specializations():
    for kind, fam, m, n in SECONDA_CASES:
        system = _seconda_system(fam, m, n)
        (X,) = enumerate_diagrams(system)
        rep = verify(kind, system, X=X, depth=7)
        assert rep.passed and rep.constant == "1", (kind, fam, m, n)


@pytest.mark.parametrize("kind,fam,m,n", SECONDA_CASES)
@pytest.mark.parametrize("mutation", ["constant", "last"])
def test_seconda_fails_under_each_deliberate_mutation(monkeypatch, kind, fam, m, n, mutation):
    # a doubled constant, or the last group element dropped
    if mutation == "constant":
        mutate = lambda spec: replace(spec, constant=2 * spec.constant)
    else:
        mutate = lambda spec: replace(spec, group=spec.group[:-1])
    assert not _verify_with(monkeypatch, mutate, kind, _seconda_system(fam, m, n), 5).passed


def test_seconda_fails_with_sgn_in_place_of_sgn_prime(monkeypatch):
    rep = _verify_with(monkeypatch, lambda spec: replace(spec, sign="sgn"), "seconda-sd", _seconda_system("B", 1, 2), 5)
    assert not rep.passed and rep.first_mismatch is not None


def test_seconda_rejects_every_other_order():
    rejected = 0
    for kind, ranks in SECONDA_SYSTEMS.items():
        for fam, m, n in ranks:
            home = _seconda_system(fam, m, n).order
            datum = build_root_datum(fam, m, n)
            for order in all_basis_orders(fam, m, n):
                if order == home:
                    continue
                system = positive_system(datum, order)
                with pytest.raises(ValueError, match="holds only on the distinguished"):
                    right_side(kind, system, enumerate_diagrams(system)[0])
                rejected += 1
    assert rejected == 44
    # and on the other family
    system = _seconda_system("D", 2, 1)
    with pytest.raises(ValueError):
        right_side("seconda-sd", system, enumerate_diagrams(system)[0])


def test_w_equal_w1():
    # the sums over W and over W_1 of the D2 identity agree term for term
    from superdenom.denominators import _separating_system

    for m, n in [(2, 1), (3, 1)]:
        base = _seconda_system("D", m, n)
        X = enumerate_diagrams(base)[0]
        sums = [right_side(kind, base, X) for kind in ("seconda-d2-sd", "seconda-w1-sd")]
        system = _separating_system(base, sums)
        T = window4(system, 7)
        W, W1 = (ws.expand(system, T) for ws in sums)
        assert compare("W = W_1", repr(system), "", 7, W, W1).passed, (m, n)
    # and the W_1 sum needs m > n
    system = _seconda_system("D", 2, 2)
    with pytest.raises(ValueError, match="m > n"):
        right_side("seconda-w1-sd", system, enumerate_diagrams(system)[0])


def test_w_equal_w1_with_height_zero_bracket_images(monkeypatch):
    # some W_1-image of a bracket exponent of D(3,2) in the D2 order has
    # principal height zero, so verify compares on a perturbed functional
    from superdenom import denominators

    compared = []
    true_compare = denominators.compare
    monkeypatch.setattr(denominators, "compare", lambda *a: compared.append(a[4].system) or true_compare(*a))
    system = _seconda_system("D", 3, 2)
    assert verify("seconda-w1-sd", system, X=enumerate_diagrams(system)[0], depth=4).passed
    assert [s.tiebreak != 0 for s in compared] == [True]


def test_safe_expansion_retries_only_on_height_zero_exponents():
    system = positive_system(build_root_datum("GL", 2, 1), standard_order("GL", 2, 1, "ede"))
    seen = []

    def flat_once(sys_):
        seen.append(sys_.tiebreak)
        if sys_.tiebreak == 0:
            # a geometric factor whose exponent has height zero
            product_expansion(sys_, window4(sys_, 2), sys_.rho, geom=[(Weight.zero(sys_.shape), 1)])
        return sys_.tiebreak

    assert with_safe_expansion(system, flat_once) == 1 and seen == [0, 1]

    calls = []

    def plain_value_error(sys_):
        calls.append(sys_.tiebreak)
        raise ValueError("a height-zero message on an unrelated error")

    with pytest.raises(ValueError, match="unrelated"):
        with_safe_expansion(system, plain_value_error)
    assert calls == [0]


def test_height_zero_exponent_is_a_typed_value_error():
    system = positive_system(build_root_datum("GL", 2, 1), standard_order("GL", 2, 1, "ede"))
    flat = Weight.eps(1, system.shape) - Weight.eps(1, system.shape)
    with pytest.raises(HeightZeroExponent, match="height-zero exponent 0") as info:
        product_expansion(system, window4(system, 2), system.rho, geom=[(flat, 1)])
    assert isinstance(info.value, ValueError)


# -- every identity side is stable under widening the window -------------------

CROSS_DEPTH_SYSTEMS = [
    ("GL", 2, 1, None),
    ("GL", 2, 2, None),
    ("B", 1, 1, None),
    ("B", 1, 2, None),
    ("B", 2, 1, None),
    ("C", 2, 1, None),
    ("D", 2, 1, "D2"),
    ("D", 2, 2, "D2"),
]


def _restricts(narrow, wide):
    """narrow equals wide cut down to narrow's window."""
    assert narrow.threshold4 is not None
    assert narrow.terms == wide.truncate(narrow.threshold4).terms


@pytest.mark.parametrize("fam,m,n,variant", CROSS_DEPTH_SYSTEMS)
def test_sides_at_depth_d_restrict_the_sides_at_depth_d_plus_3(fam, m, n, variant):
    datum = build_root_datum(fam, m, n)
    orders = [distinguished_order(fam, m, n, variant)] if variant else all_basis_orders(fam, m, n)
    compared = 0
    for order in orders:
        base = positive_system(datum, order)
        for X in enumerate_diagrams(base):
            kinds = ["princ-d", "princ-sd", "mm-d", "mm-sd", "migliore"]
            kinds += ["kwg-d", "kwg-sd"] if X.is_simple() else []
            specs = [right_side(kind, base, X) for kind in kinds]
            images = [w.act(b) for spec in specs for w in spec.group for b, _ in spec.geom]
            system = choose_expansion_system(base, images)
            for depth in (0, 3):
                T, T3 = window4(system, depth), window4(system, depth + 3)
                for flavor in ("d", "sd"):
                    _restricts(lhs(system, flavor, T), lhs(system, flavor, T3))
                for spec in specs:
                    _restricts(spec.expand(system, T), spec.expand(system, T3))
                    compared += 1
    assert compared


def test_migliore_with_support_bprime():
    for fam, m, n, var in [("B", 1, 2, ""), ("B", 2, 1, ""), ("D", 2, 2, "D2")]:
        system = positive_system(build_root_datum(fam, m, n), distinguished_order(fam, m, n, var))
        X = enumerate_diagrams(system)[0]
        rep = verify("migliore", system, X=X, depth=7)
        assert rep.passed, (fam, m, n)


def test_migliore_t_size_by_enumeration():
    # B' = Supp(X) inside B(1,2): the reduced system is B(1,1), whose Weyl
    # group has order 4 while the permutation-sharp product has order 2
    system = positive_system(build_root_datum("B", 1, 2), distinguished_order("B", 1, 2))
    X = enumerate_diagrams(system)[0]
    _, t = migliore_groups(system, X)
    assert t == 2


MIGLIORE_RANKS = [
    ("GL", 2, 2), ("GL", 3, 2), ("GL", 2, 3),
    ("B", 1, 1), ("B", 1, 2), ("B", 2, 1), ("B", 2, 2),
    ("D", 2, 1), ("D", 2, 2), ("D", 3, 2),
    ("C", 2, 1), ("C", 3, 1),
]


def _migliore_failures(ranks, depth, whole_basis):
    """(checks, failures) of migliore over every order and diagram; with
    whole_basis, B' is the whole basis and only diagrams whose support is
    smaller are checked."""
    checks, failures = 0, []
    for fam, m, n in ranks:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            for X in enumerate_diagrams(system):
                bprime = list(order.sequence) if whole_basis else None
                if whole_basis and len(X.support_symbols()) == len(bprime):
                    continue
                checks += 1
                if not verify("migliore", system, X=X, depth=depth, bprime=bprime).passed:
                    failures.append((fam, m, n, str(order), X.arcs))
    return checks, failures


def test_migliore_holds_on_every_order_and_diagram():
    # W#(B') lives in the block of the ambient dual Coxeter number; the eps
    # block for every family-B input fails B(1,2) with arcs [(0, 1)] in the
    # orders e1>d1>d2 and d1>e1>d2
    assert _migliore_failures(MIGLIORE_RANKS, 3, whole_basis=False) == (130, [])


def test_migliore_holds_with_bprime_larger_than_the_support():
    # the eps block for every family-B input fails four of these: B(1,2)
    # with arcs [(0, 1)] and [(1, 2)], two orders each
    ranks = [(f, m, n) for f, m, n in MIGLIORE_RANKS if m + n <= 4]
    assert _migliore_failures(ranks, 4, whole_basis=True) == (24, [])


def test_migliore_groups_take_the_sharp_block_from_the_dual_coxeter_sign():
    # B(1,2) has h_vee < 0: W#(B') is a delta-block group, so every element
    # of W_0 carries the same eps sign.  D(2,1) has h_vee = 0 and takes the
    # eps block: the delta flip of W_B' lies outside H, so |T| = 2
    system = positive_system(build_root_datum("B", 1, 2), distinguished_order("B", 1, 2))
    X = enumerate_diagrams(system)[0]
    W0, _ = migliore_groups(system, X)
    assert len(W0) == 8
    assert len({tuple(x > 0 for x in w.img[: w.m]) for w in W0}) == 1
    system = positive_system(build_root_datum("D", 2, 1), all_basis_orders("D", 2, 1)[0])
    X = enumerate_diagrams(system)[0]
    assert migliore_groups(system, X)[1] == 2


def _d21_e1d1e2_arc_12():
    """D(2,1) in the order e1>d1>e2 and a diagram with arcs [(1, 2)], whose
    support is {d1, e2}."""
    datum = build_root_datum("D", 2, 1)
    (order,) = [o for o in all_basis_orders("D", 2, 1) if str(o) == "e1>d1>e2"]
    system = positive_system(datum, order)
    X = next(X for X in enumerate_diagrams(system) if list(X.arcs) == [(1, 2)])
    return system, X


E1, E2, E3, D1 = Symbol("e", 1, 1), Symbol("e", 2, 1), Symbol("e", 3, 1), Symbol("d", 1, 1)


def test_migliore_bprime_covering_the_support_passes():
    system, X = _d21_e1d1e2_arc_12()
    assert {(s.kind, s.idx) for s in X.support_symbols()} == {("d", 1), ("e", 2)}
    for bprime in ([D1, E2], [E2, D1], [D1, Symbol("e", 2, -1)], [E1, D1, E2]):
        assert verify("migliore", system, X=X, depth=4, bprime=bprime).passed, bprime


@pytest.mark.parametrize("bprime", [[D1, E2, E2], [D1, Symbol("e", 2, -1), E2]])
def test_migliore_rejects_a_bprime_that_repeats_a_slot(bprime):
    system, X = _d21_e1d1e2_arc_12()
    with pytest.raises(ValueError, match="B' .* repeats a basis slot"):
        verify("migliore", system, X=X, depth=4, bprime=bprime)


@pytest.mark.parametrize("bprime", [[D1, E2, E3], [D1, E2, Symbol("d", 2, 1)], [D1, E2, Symbol("d", 0, 1)]])
def test_migliore_rejects_a_bprime_outside_the_shape(bprime):
    system, X = _d21_e1d1e2_arc_12()
    with pytest.raises(ValueError, match="B' .* outside the basis"):
        migliore_groups(system, X, bprime)


@pytest.mark.parametrize("bprime", [[D1], [E1], [E1, E2]])
def test_migliore_rejects_a_bprime_missing_a_support_slot(bprime):
    # [d1] and [e1] used to pass with constants 1 and 2
    system, X = _d21_e1d1e2_arc_12()
    with pytest.raises(ValueError, match="B' .* does not contain Supp"):
        verify("migliore", system, X=X, depth=4, bprime=bprime)


SENSITIVITY_RANKS = [("GL", 2, 2), ("B", 1, 2), ("B", 2, 1), ("D", 2, 2)]


def test_princ_sd_fails_under_each_deliberate_mutation():
    # a doubled constant, a dropped identity element, sgn in place of sgn'
    # and gamma in place of [[gamma]] must each turn the check red wherever
    # they change the sum; the functional keeps the images of both [[gamma]]
    # and gamma off height zero, so every mutated sum can be expanded
    red = {"constant": [], "identity": [], "sgn": [], "gamma": []}
    checks, family_b, nested = 0, [], []
    for fam, m, n in SENSITIVITY_RANKS:
        datum = build_root_datum(fam, m, n)
        W = full_weyl(datum)
        for order in all_basis_orders(fam, m, n):
            base = positive_system(datum, order)
            for X in enumerate_diagrams(base):
                S = X.isotropic_set()
                brackets = [X.bracket(g) for g in S]
                spec = right_side("princ-sd", base, X)
                mutants = {
                    "constant": replace(spec, constant=2 * spec.constant),
                    "identity": replace(spec, group=[w for w in spec.group if not w.is_identity()]),
                    "sgn": replace(spec, sign="sgn"),
                    "gamma": replace(spec, geom=[(g, 1) for g in S]),
                }
                assert len(mutants["identity"].group) == len(spec.group) - 1
                assert spec.constant == princ_constant(base, X)
                system = choose_expansion_system(base, [w.act(b) for w in W for b in brackets + S])
                T = window4(system, 4)
                L = lhs(system, "sd", T)
                R = spec.expand(system, T)
                geom = [(b, 1) for b in brackets]
                assert R.terms == f_sum_quotient(system, W, "sgn_prime", T, system.rho, geom=geom).terms
                label = f"{fam}({m},{n}) {order} {X.arcs}"
                assert compare("princ-sd", label, "", 4, L, R, spec.constant).passed, label
                key = (fam, m, n, str(order), X.arcs)
                checks += 1
                if fam == "B":
                    family_b.append(key)
                if brackets != S:
                    nested.append(key)
                for name, bad in mutants.items():
                    if not compare(name, label, "", 4, L, bad.expand(system, T), bad.constant).passed:
                        red[name].append(key)
    assert checks == 32 and len(family_b) == 8 and len(nested) == 12
    assert len(red["constant"]) == len(red["identity"]) == checks
    assert red["sgn"] == family_b
    assert red["gamma"] == nested


RECORD_MUTATION_RANKS = [("GL", 2, 1), ("GL", 2, 2), ("B", 1, 1), ("B", 1, 2), ("B", 2, 1), ("D", 2, 1), ("D", 2, 2)]
RECORD_MUTATION_KINDS = ("kwg-d", "kwg-sd", "princ-d", "mm-d", "mm-sd")
OTHER_SIGN = {"sgn": "sgn_prime", "sgn_prime": "sgn"}


def test_verify_fails_under_each_record_mutation(monkeypatch):
    # verify, with its right side passed through dataclasses.replace: a
    # doubled constant or a dropped identity element turns every check red,
    # and sgn and sgn' swapped turns red exactly the checks whose group
    # holds an element on which the two signs differ
    from superdenom import denominators

    mutants = {
        "constant": lambda spec: replace(spec, constant=2 * spec.constant),
        "identity": lambda spec: replace(spec, group=[w for w in spec.group if not w.is_identity()]),
        "sign": lambda spec: replace(spec, sign=OTHER_SIGN[spec.sign]),
    }
    red = {name: [] for name in mutants}
    checks, signs_differ = [], []
    for fam, m, n in RECORD_MUTATION_RANKS:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            for X in enumerate_diagrams(system):
                for kind in RECORD_MUTATION_KINDS:
                    if kind.startswith("kwg") and not X.is_simple():
                        continue
                    key = (fam, m, n, repr(order), X.arcs, kind)
                    assert verify(kind, system, X=X, depth=4).passed, key
                    checks.append(key)
                    group = denominators.right_side(kind, system, X).group
                    if any(sgn(w) != sgn_prime(w, fam) for w in group):
                        signs_differ.append(key)
                    for name, mutate in mutants.items():
                        if not _verify_with(monkeypatch, mutate, kind, system, 4, X).passed:
                            red[name].append(key)
                        monkeypatch.undo()
    assert len(checks) == 196 and len(signs_differ) == 34
    assert red["constant"] == red["identity"] == checks
    assert red["sign"] == signs_differ


MIGLIORE_MUTATION_RANKS = [
    ("GL", 2, 1), ("GL", 2, 2), ("B", 1, 1), ("B", 2, 1), ("B", 1, 2), ("D", 2, 1), ("D", 2, 2), ("C", 2, 1),
]


def test_migliore_fails_under_each_deliberate_mutation(monkeypatch):
    # a doubled constant, and W_0 without its element w of highest ht(w(rho)),
    # each turn every check red.  Dropping the identity is no fault here:
    # the key-least coset representatives need not include it
    def without_highest(system):
        def mutate(spec):
            top = max(spec.group, key=lambda w: (system.principal_ht4(w.act(spec.leading)), w.sort_key()))
            return replace(spec, group=[w for w in spec.group if w != top])

        return mutate

    checks, red = 0, {"constant": 0, "highest": 0}
    for fam, m, n in MIGLIORE_MUTATION_RANKS:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            mutants = {
                "constant": lambda spec: replace(spec, constant=2 * spec.constant),
                "highest": without_highest(system),
            }
            for X in enumerate_diagrams(system):
                assert verify("migliore", system, X=X, depth=4).passed, (fam, m, n, repr(order), X.arcs)
                checks += 1
                for name, mutate in mutants.items():
                    red[name] += not _verify_with(monkeypatch, mutate, "migliore", system, 4, X).passed
                    monkeypatch.undo()
    assert checks == 48 and red == {"constant": 48, "highest": 48}


@pytest.mark.parametrize("k", [2, 3])
def test_glkk_fails_without_its_finite_factor(monkeypatch, k):
    from superdenom import denominators

    no_poly = lambda *a, **kw: replace(WeylSum(*a, **kw), poly=())
    monkeypatch.setattr(denominators, "WeylSum", no_poly)
    rep = verify_glkk(k, depth=6)
    assert not rep.passed and rep.first_mismatch is not None


def test_odd_reflection_fails_with_alpha_kept():
    # the reflected side with alpha in place of -alpha among its odd roots
    from superdenom import denominators

    def alpha_kept(alpha):
        def build(*args, **kwargs):
            side = WeylSum(*args, **kwargs)
            return replace(side, geom=[(-b if b == -alpha else b, s) for b, s in side.geom])

        return build

    checks = red = 0
    for fam, m, n in [("GL", 2, 2), ("B", 1, 2), ("D", 2, 2)]:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            for alpha in positive_system(datum, order).simple_roots:
                if not is_isotropic(alpha):
                    continue
                assert verify_odd_reflection(positive_system(datum, order), alpha, 4).passed
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(denominators, "WeylSum", alpha_kept(alpha))
                    red += not verify_odd_reflection(positive_system(datum, order), alpha, 4).passed
                checks += 1
    assert checks == red == 36


def test_one_element_record_is_the_product_expansion():
    # a one-element Weyl sum keeps the kernel's exact ceiling, negative ones
    # included, and an empty group gives the zero series on the window
    orders = 0
    for fam, m, n in [("GL", 1, 2), ("GL", 2, 3), ("B", 1, 2), ("D", 2, 3), ("GL", 1, 3)]:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            orders += 1
            system = positive_system(datum, order)
            T = window4(system, 4)
            for s in (1, -1):
                geom = [(a, s) for a in system.positive_odd]
                poly = [(a, 1) for a in system.positive_even]
                side = WeylSum([WeylElement.identity(system.shape)], "sgn", system.rho, geom, poly=poly)
                want = product_expansion(system, T, system.rho, geom=geom, poly=poly)
                assert _same_series(side.expand(system, T), want), (order, s)
                empty = replace(side, group=[]).expand(system, T)
                assert _same_series(empty, CharSeries.zero(system, T))
    assert orders == 36


@pytest.mark.parametrize("sign", ["sgn'", "sgnprime", "SGN", "", "sgn_prime "])
def test_weyl_sum_rejects_an_unknown_sign(sign):
    # a misspelt sign is not read as sgn'
    system = positive_system(build_root_datum("GL", 2, 1), distinguished_order("GL", 2, 1, "p0"))
    side = WeylSum(full_weyl(system.datum), sign, system.rho, [])
    with pytest.raises(ValueError, match="'sgn' or 'sgn_prime'"):
        side.expand(system, window4(system, 3))


# ---------------------------------------------------------------------------
# the left side is expanded once per (system, flavor, window)


def _same_series(got, want):
    return (got.terms, got.threshold4, got.ceiling4) == (want.terms, want.threshold4, want.ceiling4)


@pytest.mark.parametrize("fam,m,n", [("GL", 2, 2), ("B", 1, 2), ("B", 2, 2), ("D", 2, 2), ("C", 2, 1)])
def test_lhs_equals_the_reference_on_every_order(fam, m, n):
    datum = build_root_datum(fam, m, n)
    for order in all_basis_orders(fam, m, n):
        base = positive_system(datum, order)
        for system in (base, base.with_tiebreak(13)):
            # both flavors at both depths on one system, each asked twice, so
            # that a memo keyed on less than (flavor, threshold) hands back a
            # series of another key
            for _ in range(2):
                for depth in (3, 6):
                    T = window4(system, depth)
                    for flavor in ("sd", "d"):
                        got = lhs(system, flavor, T)
                        assert _same_series(got, reference_lhs(system, flavor, T)), (order, system.tiebreak, depth, flavor)


def test_lhs_returns_one_series_per_flavor_and_window():
    system = positive_system(build_root_datum("B", 1, 2), distinguished_order("B", 1, 2))
    T, T2 = window4(system, 4), window4(system, 5)
    sd = lhs(system, "sd", T)
    assert lhs(system, "sd", T) is sd
    assert lhs(system, "d", T) is not sd
    assert lhs(system, "sd", T2) is not sd
    assert lhs(system, "d", T) is lhs(system, "d", T)
    # another system of the same order keeps its own left sides
    twin = positive_system(system.datum, system.order)
    assert lhs(twin, "sd", T) is not sd and _same_series(lhs(twin, "sd", T), sd)


def test_lhs_rejects_any_other_kind_before_the_memo():
    # a misspelt kind such as "sdd" is not read as "d", nor memoized
    system = positive_system(build_root_datum("GL", 2, 1), distinguished_order("GL", 2, 1, "p0"))
    T = window4(system, 3)
    for kind in ("sdd", "princ-sd", "D", ""):
        with pytest.raises(ValueError, match="'d' or 'sd'"):
            lhs(system, kind, T)
    assert system._lhs == {}


def test_with_tiebreak_returns_one_system_per_seed():
    datum = build_root_datum("D", 2, 2)
    for order in all_basis_orders("D", 2, 2):
        base = positive_system(datum, order)
        for seed in (1, 13):
            perturbed = base.with_tiebreak(seed)
            assert base.with_tiebreak(seed) is perturbed
            assert perturbed.tiebreak == seed
            assert perturbed._hvals2 == PositiveSystem(datum, order, tiebreak=seed)._hvals2
        assert base.with_tiebreak(1) is not base.with_tiebreak(13)


@pytest.mark.parametrize("fam,m,n,pattern", [("D", 2, 2, "dede"), ("GL", 3, 2, "edede")])
def test_shared_left_sides_survive_every_check(monkeypatch, capsys, fam, m, n, pattern):
    # verify of every kind on every diagram (the seconda kinds hold only on
    # their distinguished orders), the odd reflections and kw-check on one
    # system share its memoized left sides and those of its perturbed
    # systems; afterwards each one still equals a fresh expansion, so no
    # check changed a shared series in place
    import superdenom.kw as kw

    systems = []

    def recording_lhs(system, kind, threshold4):
        systems.append(system)
        return lhs(system, kind, threshold4)

    monkeypatch.setattr(kw, "lhs", recording_lhs)
    system = positive_system(build_root_datum(fam, m, n), standard_order(fam, m, n, pattern))
    for X in enumerate_diagrams(system):
        for kind in IDENTITY_KINDS:
            if kind == "glkk" or kind.startswith("seconda") or (kind.startswith("kwg") and not X.is_simple()):
                continue
            assert verify(kind, system, X=X, depth=4).passed, (kind, X.arcs)
    for alpha in system.simple_roots:
        if is_isotropic(alpha):
            verify_odd_reflection(system, alpha, 4)
    assert main(["kw-check", "--family", fam, "--m", str(m), "--n", str(n), "--depth", "4"]) == 0
    capsys.readouterr()
    assert system._tiebreaks, "no check on this system chose a perturbed functional"
    owners = {id(s): s for s in [system, *system._tiebreaks.values(), *systems]}.values()
    memo = [(s, key, series) for s in owners for key, series in s._lhs.items()]
    assert len(memo) >= 4
    for s, (kind, T), series in memo:
        assert _same_series(series, reference_lhs(s, kind, T)), (s, s.tiebreak, kind, T)


def test_no_series_operation_changes_its_operands():
    # a memoized left side is shared between checks, so every operation on
    # a series must leave both operands as they were
    system = positive_system(build_root_datum("B", 2, 2), distinguished_order("B", 2, 2))
    T = window4(system, 5)
    a, b = lhs(system, "sd", T), lhs(system, "d", window4(system, 3))
    a_other_window = lhs(system, "sd", window4(system, 4))
    operands = (a, b, a_other_window)
    before = [(dict(s.terms), s.threshold4, s.ceiling4) for s in operands]
    for x in operands:
        for y in operands:
            x + y, x - y, x * y, x.mismatches(y, Fraction(-1, 2))
        x.scale(3), x.scale(0), x.tightened(), x.truncate(T + 8), x.to_json(), repr(x)
    assert [(s.terms, s.threshold4, s.ceiling4) for s in operands] == before


FOREIGN_RANKS = [("GL", 2, 1), ("B", 1, 1), ("D", 2, 1), ("GL", 2, 2), ("D", 2, 2), ("C", 2, 1)]


@pytest.mark.parametrize("family,m,n", FOREIGN_RANKS)
def test_a_diagram_drawn_on_another_order_is_rejected(family, m, n):
    # a diagram of another order once gave a fail verdict or a
    # ZeroDivisionError in princ_constant; the own diagrams, the sign twins
    # that enumerate_diagrams adds to a D order ending in eps_m among them,
    # still pass
    datum = build_root_datum(family, m, n)
    systems = [positive_system(datum, o) for o in all_basis_orders(family, m, n)]
    diagrams = [enumerate_diagrams(s) for s in systems]
    for kind in ("princ-sd", "mm-sd", "kwg-sd", "migliore"):
        for s, own in zip(systems, diagrams):
            for X in own:
                if X.is_simple() or not kind.startswith("kwg"):
                    assert verify(kind, s, X=X, depth=4).passed, (kind, s, X.arcs)
            for X in (X for t, other in zip(systems, diagrams) if t is not s for X in other):
                with pytest.raises(ValueError, match="drawn on"):
                    right_side(kind, s, X=X)
