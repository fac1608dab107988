import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from superdenom import weyl
from superdenom.diagrams import enumerate_diagrams
from superdenom.weights import Weight
from superdenom.rootdata import EPS_BLOCK, build_root_datum, positive_system, all_basis_orders, distinguished_order
from superdenom.weyl import (
    WeylElement,
    sgn,
    sgn_prime,
    reflection,
    full_weyl,
    weyl_order,
    sharp_subgroup,
    coset_reps,
    product_set,
    signed_permutations,
    enumerate_closure,
)
from superdenom.series import CharSeries
from superdenom.denominators import compare, lhs, window4, c_g, migliore_groups

from _oracles import (
    ReferenceElement,
    monomial,
    reference_closure,
    reference_migliore_groups,
    reference_reflection,
    reference_sharp_generators,
    reference_signed_permutations,
    signed_sum,
)


def test_full_weyl_sizes_match_closed_form():
    for fam, m, n in [
        ("GL", 2, 1), ("GL", 2, 2), ("GL", 4, 3), ("B", 1, 1), ("B", 2, 1), ("B", 3, 3),
        ("C", 2, 1), ("C", 3, 1), ("D", 2, 1), ("D", 2, 2), ("D", 3, 3),
    ]:
        datum = build_root_datum(fam, m, n)
        assert len(full_weyl(datum)) == weyl_order(datum)


def _ranks_up_to(order):
    """Every GL, B and D rank whose W_g has at most `order` elements, and C(m,1)
    for m <= 3."""
    ranks = [("C", m, 1) for m in (1, 2, 3)]
    for fam in ("GL", "B", "D"):
        for m, n in itertools.product(range(7), repeat=2):
            try:
                datum = build_root_datum(fam, m, n)
            except ValueError:
                continue
            if weyl_order(datum) <= order:
                ranks.append((fam, m, n))
    return ranks


def _check_closures(monkeypatch, module):
    """Make every `enumerate_closure` call through `module` assert that its
    list equals the reference closure, element for element and in order;
    returns the list of the group orders seen."""
    orders = []

    def checked(generators, shape):
        got = enumerate_closure(generators, shape)
        # a repeated generator adds no product, so the reference skips repeats
        assert got == reference_closure(list(dict.fromkeys(generators)), shape)
        orders.append(len(got))
        return got

    monkeypatch.setattr(module, "enumerate_closure", checked)
    return orders


@pytest.mark.parametrize("fam,m,n", _ranks_up_to(3072))
def test_named_groups_equal_the_reference_closure(monkeypatch, fam, m, n):
    # full_weyl is the one closure; sharp_subgroup lists its block directly
    orders = _check_closures(monkeypatch, weyl)
    datum = build_root_datum(fam, m, n)
    full_weyl(datum)
    assert sharp_subgroup(datum) == reference_closure(reference_sharp_generators(datum), datum.shape)
    assert len(orders) == 1


MIGLIORE_ORACLE_RANKS = [
    ("GL", 2, 1), ("GL", 2, 2), ("GL", 3, 1), ("GL", 3, 2), ("GL", 2, 3),
    ("B", 1, 1), ("B", 1, 2), ("B", 2, 1), ("B", 2, 2), ("B", 1, 3),
    ("C", 2, 1), ("C", 3, 1), ("D", 2, 1), ("D", 2, 2), ("D", 3, 1),
]


def test_migliore_groups_equal_the_reference_closure():
    # W_B' and H are products of block groups; the oracle searches their
    # closures, for every order, diagram and B' between Supp(X) and the basis
    cases, nontrivial_t = 0, 0
    for fam, m, n in MIGLIORE_ORACLE_RANKS:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            for X in enumerate_diagrams(system):
                support = X.support_symbols()
                rest = [s for s in order.sequence if (s.kind, s.idx) not in {(b.kind, b.idx) for b in support}]
                for k in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, k):
                        bprime = list(support) + list(extra)
                        W0, t = migliore_groups(system, X, bprime)
                        ref_W0, ref_t = reference_migliore_groups(system, X, bprime)
                        assert (W0, t) == (ref_W0, ref_t), (fam, m, n, str(order), X.arcs, bprime)
                        assert len(set(W0)) == len(W0)
                        cases += 1
                        nontrivial_t += t > 1
    assert cases == 262 and nontrivial_t > 0


@st.composite
def _generator_lists(draw):
    fam, m, n = draw(st.sampled_from([("GL", 3, 2), ("B", 2, 1), ("B", 1, 2), ("C", 2, 1), ("D", 2, 2)]))
    datum = build_root_datum(fam, m, n)
    return draw(st.lists(st.sampled_from(datum.even_roots).map(reflection), max_size=8)), datum.shape


@settings(deadline=None, max_examples=150)
@given(case=_generator_lists())
@example(case=([], (2, 1)))
def test_closure_of_drawn_generators_equals_the_reference(case):
    generators, shape = case
    assert enumerate_closure(generators, shape) == reference_closure(generators, shape)


def test_closure_rejects_a_generator_of_another_shape():
    sh = (2, 1)
    s12 = reflection(Weight.eps(1, sh) - Weight.eps(2, sh))
    other = reflection(2 * Weight.delta(1, (1, 1)))
    for generators in ([other], [s12, s12, other]):
        with pytest.raises(ValueError, match="shape mismatch"):
            enumerate_closure(generators, sh)


@pytest.mark.parametrize("bound", [1, 5, 15])
def test_closure_raises_past_the_group_bound(monkeypatch, bound):
    datum = build_root_datum("B", 2, 1)  # |W_g| = 16
    monkeypatch.setattr(weyl, "MAX_GROUP", bound)
    with pytest.raises(RuntimeError) as exc:
        full_weyl(datum)
    assert str(exc.value) == f"group enumeration exceeded bound {bound}"
    monkeypatch.setattr(weyl, "MAX_GROUP", 16)
    assert len(full_weyl(datum)) == 16


def test_gl21_group_is_two_elements():
    assert len(full_weyl(build_root_datum("GL", 2, 1))) == 2


def test_b11_brute_force_closure():
    datum = build_root_datum("B", 1, 1)
    sh = (1, 1)
    gens = [reflection(Weight.eps(1, sh)), reflection(2 * Weight.delta(1, sh))]
    assert len(enumerate_closure(gens, sh)) == 4
    assert len(full_weyl(datum)) == 4


def test_flip_subgroup_b_type():
    # generated by the long delta reflections on the first two coordinates
    sh = (1, 2)
    flips = signed_permutations(sh, "d", [1, 2], permute=False, flips="all")
    assert len(flips) == 4
    gens = [reflection(2 * Weight.delta(j, sh)) for j in (1, 2)]
    assert set(flips) == set(enumerate_closure(gens, sh))


@pytest.mark.parametrize("kind", ["e", "d"])
def test_signed_permutations_are_the_groups_their_generators_generate(kind):
    # indices 1, 3, 4 of a block of size 4, so one coordinate stays fixed
    sh = (4, 4)
    unit = Weight.eps if kind == "e" else Weight.delta
    i, j, k = (unit(r, sh) for r in (1, 3, 4))
    s = reflection
    perms = [s(i - j), s(j - k)]
    gens = {
        (True, "none"): perms,  # W(A_2)
        (True, "all"): perms + [s(2 * k)],  # W(B_3) = W(C_3)
        (True, "even"): perms + [s(j + k)],  # W(D_3)
        (False, "all"): [s(2 * i), s(2 * j), s(2 * k)],
        (False, "even"): [s(2 * i).compose(s(2 * j)), s(2 * j).compose(s(2 * k))],
        (False, "none"): [],
    }
    for (permute, flips), g in gens.items():
        got = signed_permutations(sh, kind, [1, 3, 4], permute=permute, flips=flips)
        assert got == enumerate_closure(g, sh), (permute, flips)
    assert [len(signed_permutations(sh, kind, [1, 3, 4], p, f)) for p, f in gens] == [6, 48, 24, 8, 4, 1]
    with pytest.raises(ValueError):
        signed_permutations(sh, kind, [1, 3, 4], flips="odd")


@st.composite
def _reference_elements(draw, shape):
    m, n = shape
    return ReferenceElement(
        tuple(draw(st.permutations(range(m)))),
        tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))),
        tuple(draw(st.permutations(range(n)))),
        tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))),
    )


@st.composite
def _element_cases(draw):
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    refs = draw(st.lists(_reference_elements(shape), min_size=2, max_size=6))
    coords = draw(st.lists(st.integers(-9, 9), min_size=sum(shape), max_size=sum(shape)))
    return refs, Weight(coords, shape)


@settings(deadline=None, max_examples=150)
@given(case=_element_cases())
def test_elements_agree_with_the_four_tuple_reference(case):
    refs, x = case
    elements = [r.element() for r in refs]
    assert [ReferenceElement.of(w) for w in elements] == refs
    for r, w in zip(refs, elements):
        assert w.shape == r.shape and w.is_identity() == (r == ReferenceElement.identity(r.shape))
        assert w.act(x) == r.act(x)
        assert sgn(w) == r.sgn()
        for family in ("GL", "B", "C", "D"):
            assert sgn_prime(w, family) == r.sgn_prime(family)
    for (r, w), (r2, w2) in itertools.product(zip(refs, elements), repeat=2):
        assert w.compose(w2) == r.compose(r2).element()
        assert (w.sort_key() < w2.sort_key()) == (r.sort_key() < r2.sort_key())
    order = sorted(range(len(refs)), key=lambda i: refs[i].sort_key())
    assert sorted(elements, key=WeylElement.sort_key) == [elements[i] for i in order]


@pytest.mark.parametrize("fam,m,n", [
    ("GL", 2, 2), ("GL", 3, 2), ("B", 1, 2), ("B", 2, 1), ("B", 2, 2), ("C", 2, 1), ("D", 2, 1), ("D", 2, 2),
])
def test_named_groups_equal_the_reference_element_for_element(fam, m, n):
    # the generators are reflections computed from the form, and the closure
    # composes and sorts four-tuple elements
    datum = build_root_datum(fam, m, n)
    gens = [reference_reflection(a) for a in datum.even_roots]
    assert full_weyl(datum) == reference_closure(gens, datum.shape)
    eps_sharp = datum.dual_coxeter_sign == EPS_BLOCK
    sharp = [g for a, g in zip(datum.even_roots, gens) if any(a.eps_coords2()) == eps_sharp]
    assert sharp_subgroup(datum) == reference_closure(sharp, datum.shape)
    for kind, size in (("e", m), ("d", n)):
        for indices in (range(1, size + 1), range(2, size + 1)):
            for permute, flips in itertools.product((True, False), ("none", "all", "even")):
                got = signed_permutations(datum.shape, kind, indices, permute, flips)
                assert got == reference_signed_permutations(datum.shape, kind, indices, permute, flips)


def test_sgn_examples():
    sh = (2, 2)
    ident = WeylElement.identity(sh)
    assert sgn(ident) == 1
    s12 = reflection(Weight.eps(1, sh) - Weight.eps(2, sh))
    assert sgn(s12) == -1
    f1 = reflection(2 * Weight.delta(1, sh))
    f2 = reflection(2 * Weight.delta(2, sh))
    assert sgn(f1.compose(f2)) == 1  # determinant of a double sign flip


def test_sgn_prime_examples():
    sh = (2, 2)
    f1 = reflection(2 * Weight.delta(1, sh))
    assert sgn_prime(f1, "B") == 1  # 2 delta_1 has an odd half in type B
    assert sgn_prime(f1, "D") == -1
    t = reflection(Weight.delta(1, sh) - Weight.delta(2, sh))
    assert sgn_prime(t, "B") == -1
    assert sgn_prime(t, "GL") == sgn(t) == -1


@pytest.mark.parametrize("family", ["B", "D", "GL"])
def test_sgn_prime_is_homomorphism(family):
    datum = build_root_datum(family, 2, 1) if family != "GL" else build_root_datum("GL", 2, 2)
    W = full_weyl(datum)
    rng = random.Random(7)
    for _ in range(60):
        a, b = rng.choice(W), rng.choice(W)
        assert sgn_prime(a.compose(b), family) == sgn_prime(a, family) * sgn_prime(b, family)
        assert sgn(a.compose(b)) == sgn(a) * sgn(b)


def test_action_preserves_inner_product():
    from superdenom.weights import inner

    datum = build_root_datum("D", 2, 2)
    W = full_weyl(datum)
    sh = (2, 2)
    xs = [Weight.eps(1, sh) + 2 * Weight.delta(2, sh), Weight.eps(2, sh) - Weight.delta(1, sh)]
    for wl in W[:10]:
        assert inner(wl.act(xs[0]), wl.act(xs[1])) == inner(xs[0], xs[1])


def test_coset_reps_trivial_and_nested():
    datum = build_root_datum("GL", 3, 1)
    W = full_weyl(datum)
    assert coset_reps(W, W) == [WeylElement.identity((3, 1))]
    sh = (3, 1)
    a3 = signed_permutations(sh, "e", [1, 2, 3])
    a2 = signed_permutations(sh, "e", [1, 2])
    reps = coset_reps(a3, a2)
    assert len(reps) == 3  # 3!/2!


def test_coset_reps_rejects_a_set_that_is_not_a_union_of_cosets():
    sh = (3, 1)
    a3 = signed_permutations(sh, "e", [1, 2, 3])
    a2 = signed_permutations(sh, "e", [1, 2])
    with pytest.raises(ValueError):
        coset_reps(a3[:-1], a2)


def test_coset_reps_left_cosets_by_length():
    # W(A_2)/W(A_1): the sort_key-least element of each left coset W(A_1) w
    # (and of each right coset) is here its unique shortest element, and the
    # result comes in sort_key order, which here is the order by length
    sh = (3, 1)
    a3 = signed_permutations(sh, "e", [1, 2, 3])
    a2 = signed_permutations(sh, "e", [1, 2])

    def length(w):
        p = [abs(x) for x in w.img[: w.m]]
        return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])

    reps = coset_reps(a3, a2, left=True)
    assert reps == sorted(reps, key=WeylElement.sort_key)
    assert [length(r) for r in reps] == [0, 1, 2]
    cosets = [{u.compose(r) for u in a2} for r in reps]
    assert set().union(*cosets) == set(a3)
    for r, coset in zip(reps, cosets):
        assert r == min(coset, key=WeylElement.sort_key)
        assert all(length(x) > length(r) for x in coset - {r})
    # right cosets are different sets: the same rule picks different elements
    right = coset_reps(a3, a2)
    assert [length(r) for r in right] == [0, 1, 2]
    assert set().union(*({r.compose(u) for u in a2} for r in right)) == set(a3)
    assert {u.compose(reps[1]) for u in a2} != {right[1].compose(u) for u in a2}
    assert reps[2] != right[2]


def test_product_factorization_no_duplicates():
    # W = W(A_{n-1}) x delta flips x W(B_m) at (m, n) = (1, 2)
    sh = (1, 2)
    prod = product_set(
        signed_permutations(sh, "d", [1, 2]),
        signed_permutations(sh, "d", [1], permute=False, flips="all"),
        signed_permutations(sh, "e", [1], flips="all"),
    )
    assert len(prod) == 2 * 2 * 2
    assert len({p.sort_key() for p in prod}) == len(prod)


def test_sharp_subgroup_index_matches_cg():
    for fam, m, n in [("GL", 2, 1), ("GL", 2, 2), ("B", 1, 2), ("B", 2, 1), ("D", 2, 2), ("D", 2, 1), ("C", 3, 1)]:
        datum = build_root_datum(fam, m, n)
        assert len(full_weyl(datum)) == c_g(datum) * len(sharp_subgroup(datum))


def test_w_sharp_generators_b12():
    # h_vee < 0 for B(1,2): the sharp side is the delta block W(C_2)
    datum = build_root_datum("B", 1, 2)
    sharp = sharp_subgroup(datum)
    assert len(sharp) == 8
    assert all(s.img[:1] == (1,) for s in sharp)


def test_sgn_prime_invariance_of_super_denominator():
    # w(e^rho R-check) = sgn'(w) e^rho R-check as rational functions; both
    # sides are expanded in the original system's completion (the termwise
    # image of a fixed expansion lives in a different cone, so the honest
    # check re-expands the w-transformed product)
    from superdenom.series import product_expansion

    for fam, m, n, depth in [("B", 1, 1, 6), ("D", 2, 1, 5), ("GL", 2, 1, 6)]:
        datum = build_root_datum(fam, m, n)
        for order in all_basis_orders(fam, m, n):
            system = positive_system(datum, order)
            T = window4(system, depth)
            series = lhs(system, "sd", T)
            for wl in full_weyl(datum):
                twisted = product_expansion(
                    system,
                    T,
                    wl.act(system.rho),
                    geom=[(wl.act(a), 1) for a in system.positive_odd],
                    poly=[(wl.act(a), 1) for a in system.positive_even],
                )
                rep = compare("sgn' twist", repr(system), repr(wl), depth, series, twisted, sgn_prime(wl, fam))
                assert rep.passed, (fam, m, n, order, wl)


def test_nested_f_sum_independent_of_representatives():
    # F_W(Y) = F_{W/U}(F_U(Y)) for any representative choice
    datum = build_root_datum("GL", 3, 1)
    system = positive_system(datum, all_basis_orders("GL", 3, 1)[1])
    W = full_weyl(datum)
    sh = (3, 1)
    U = signed_permutations(sh, "e", [1, 2])
    # regular: the eps coordinates 3/2, -1/2, -3/2 are distinct, so the
    # alternating sums are not zero (rho + eps_1 has two equal ones)
    lam = system.rho + Weight.eps(1, sh) - Weight.eps(3, sh)
    body = lambda w: monomial(system, w.act(lam))
    direct = signed_sum(W, body)
    assert len(direct.terms) == 6
    rng = random.Random(3)
    for _ in range(3):
        reps = [rep.compose(rng.choice(U)) for rep in coset_reps(W, U)]
        inner_sums = {}
        nested = None
        for rep in reps:
            part = signed_sum(U, lambda u, rep=rep: body(rep.compose(u))).scale(sgn(rep))
            nested = part if nested is None else nested + part
        assert compare("nested sum", repr(system), "", None, nested, direct).passed
