import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from superdenom.weights import Weight
from superdenom.rootdata import all_basis_orders, build_root_datum, standard_order, positive_system
from superdenom.denominators import compare
from superdenom.series import CharSeries, HeightZeroExponent, product_expansion, weyl_character
from superdenom.theta import make_pair
from superdenom.weyl import full_weyl, sgn, signed_permutations

from _oracles import one_minus_exp, reference_product_expansion, reference_weyl_character, signed_sum


def gl21_system():
    return positive_system(build_root_datum("GL", 2, 1), standard_order("GL", 2, 1, "ede"))


def sl2_block(system):
    sh = system.shape
    alpha = Weight.eps(1, sh) - Weight.eps(2, sh)
    return alpha


def geometric(system, beta, s, threshold4):
    """1/(1 - s e^{-beta}) alone, expanded on the window {ht >= threshold4}."""
    return product_expansion(system, threshold4, Weight.zero(system.shape), geom=[(beta, s)])


def test_expand_factor_simple_depth3():
    system = gl21_system()
    alpha = system.simple_roots[0]
    ser = geometric(system, alpha, 1, -3 * system.unit4)
    expected = {(-k) * alpha: 1 for k in range(4)}
    assert ser.terms == expected


def test_expand_factor_alternating():
    system = gl21_system()
    alpha = system.simple_roots[0]
    ser = geometric(system, alpha, -1, -3 * system.unit4)
    assert ser.terms == {(-k) * alpha: (-1) ** k for k in range(4)}


def test_expand_factor_height_filter():
    system = gl21_system()
    beta = system.simple_roots[0] + system.simple_roots[1]  # height 2
    ser = geometric(system, beta, 1, -3 * system.unit4)
    assert ser.terms == {Weight.zero(system.shape): 1, -beta: 1}  # only k = 0, 1 survive


def test_multiply_telescopes():
    system = gl21_system()
    alpha = system.simple_roots[0]
    T = -5 * system.unit4
    geo = geometric(system, alpha, 1, T)
    poly = one_minus_exp(system, alpha)
    prod = poly * geo
    assert prod.terms == {Weight.zero(system.shape): 1}


def test_multiply_monomials():
    system = gl21_system()
    sh = system.shape
    a, b = Weight.eps(1, sh), Weight.delta(1, sh)
    assert (CharSeries.monomial(system, a) * CharSeries.monomial(system, b)).terms == {a + b: 1}


def test_rank1_weyl_denominator():
    # e^{rho_0} (1 - e^{-alpha}) = e^{rho_0} - e^{-rho_0} for the sl2 eps block
    system = gl21_system()
    alpha = sl2_block(system)
    rho0 = alpha.half()
    prod = CharSeries.monomial(system, rho0) * one_minus_exp(system, alpha)
    assert prod.terms == {rho0: 1, -rho0: -1}


def test_f_sum_single_element_and_pairing():
    system = gl21_system()
    sh = system.shape
    ident_only = signed_sum(
        [full_weyl(system.datum)[0].identity(sh)],
        lambda w: CharSeries.monomial(system, w.act(system.rho)),
    )
    assert ident_only.terms == {system.rho: 1}
    # F_W(e^lambda) = 0 when lambda is fixed by a reflection in W
    alpha = sl2_block(system)
    W = full_weyl(system.datum)
    lam = Weight.delta(1, sh)  # fixed by s_alpha
    total = signed_sum(W, lambda w: CharSeries.monomial(system, w.act(lam)))
    assert total.is_zero_on_window()


def test_f_sum_rank1():
    system = gl21_system()
    alpha = sl2_block(system)
    rho0 = alpha.half()
    W = full_weyl(system.datum)
    res = signed_sum(W, lambda w: CharSeries.monomial(system, w.act(rho0)))
    assert res.terms == {rho0: 1, -rho0: -1}


def _random_series(system, rng, nterms=4):
    sh = system.shape
    basis = [Weight.eps(1, sh), Weight.eps(2, sh), Weight.delta(1, sh)]
    terms = {}
    for _ in range(nterms):
        w = Weight.zero(sh)
        for b in basis:
            w = w + rng.randint(-2, 2) * b
        terms[w] = rng.randint(-3, 3)
    ceiling = max((system.ht4(w) for w in terms), default=0)
    return CharSeries(system, terms, None, ceiling)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10 ** 6))
def test_multiply_associative_commutative(seed):
    system = gl21_system()
    rng = random.Random(seed)
    a, b, c = (_random_series(system, rng) for _ in range(3))
    assert (a * b).terms == (b * a).terms
    assert ((a * b) * c).terms == (a * (b * c)).terms


def test_window_soundness_two_evaluation_orders():
    # expanding (1 - e^{-a}) / (1 - e^{-a}) / (1 - e^{-b}) in different factor
    # orders gives identical windows and coefficients
    system = gl21_system()
    a_, b_ = system.simple_roots[0], system.simple_roots[1]
    T = -6 * system.unit4
    lead = system.rho
    one = product_expansion(system, T, lead, geom=[(a_, 1), (b_, 1)], poly=[(a_, 1)])
    two = product_expansion(system, T, lead, geom=[(b_, 1), (a_, 1)], poly=[(a_, 1)])
    direct = product_expansion(system, T, lead, geom=[(b_, 1)])
    assert one.terms == two.terms
    assert compare("factor order", repr(system), "", 6, one, direct).passed


def test_weyl_character_sl2():
    # so(3)-style block inside B(1,1): ch F(eps_1) = e^{eps_1} + 1 + e^{-eps_1}
    datum = build_root_datum("B", 1, 1)
    system = positive_system(datum, standard_order("B", 1, 1, "de"))
    sh = (1, 1)
    block_elems = signed_permutations(sh, "e", [1], flips="all")
    rho_b = Weight.eps(1, sh).half()
    ch = weyl_character(system, block_elems, rho_b, Weight.eps(1, sh))
    assert ch.terms == {Weight.eps(1, sh): 1, Weight.zero(sh): 1, -Weight.eps(1, sh): 1}


def test_weyl_character_singular_is_zero():
    # A_1 block: lambda + rho singular means the character vanishes
    system = gl21_system()
    alpha = sl2_block(system)
    block = signed_permutations(system.shape, "e", [1, 2])
    rho_b = alpha.half()
    ch = weyl_character(system, block, rho_b, -rho_b)  # lambda + rho = 0
    assert ch.is_zero_on_window()


def test_weyl_character_sorting_sign():
    # anti-dominant regular weights come back with the sorting sign
    system = gl21_system()
    alpha = sl2_block(system)
    block = signed_permutations(system.shape, "e", [1, 2])
    rho_b = alpha.half()
    ch = weyl_character(system, block, rho_b, -alpha)  # s_alpha-image of 0
    assert ch.terms == {Weight.zero(system.shape): -1}


def test_weyl_character_error_paths():
    # an A_1 group {1, s_alpha} with a rho it cannot divide by
    system = gl21_system()
    alpha = sl2_block(system)
    block = signed_permutations(system.shape, "e", [1, 2])
    with pytest.raises(ValueError):
        weyl_character(system, block, Weight.zero(system.shape), alpha)  # singular rho
    with pytest.raises(AssertionError):
        weyl_character(system, block, -alpha.half(), alpha)  # leading term -e^{alpha/2}
    with pytest.raises(RuntimeError):
        # e^{alpha/2} - e^{-alpha/2} is not divisible by e^alpha - e^{-alpha}
        weyl_character(system, block, alpha, -alpha.half())


def test_series_json_sorted_and_stable():
    system = gl21_system()
    T = -3 * system.unit4
    ser = geometric(system, system.simple_roots[0], 1, T)
    doc1, doc2 = ser.to_json(), ser.to_json()
    assert doc1 == doc2
    coords = [tuple(t["coords2"]) for t in doc1["terms"]]
    assert coords == sorted(coords)


# -- sums and scalings skip the filters of __init__; check them against it -----

_COORDS = st.tuples(*(st.integers(-3, 3) for _ in range(3)))


@st.composite
def _series_pair(draw):
    """Two GL(2,1) series with thresholds that are None, equal or a few units
    apart, and with shared keys whose coefficients may cancel."""
    system = gl21_system()
    sh = system.shape
    keys = draw(st.lists(_COORDS, min_size=0, max_size=12, unique=True))
    weights = [Weight(c, sh) for c in keys]
    coeff = st.integers(-2, 2)
    terms_a = {w: draw(coeff) for w in weights if draw(st.booleans())}
    terms_b = {}
    for w in weights:
        pick = draw(st.sampled_from(["skip", "cancel", "free"]))
        if pick == "cancel" and w in terms_a:
            terms_b[w] = -terms_a[w]
        elif pick != "skip":
            terms_b[w] = draw(coeff)
    base = draw(st.integers(-12, 12))
    t_a = draw(st.one_of(st.none(), st.integers(base - 3, base + 3)))
    t_b = draw(st.one_of(st.none(), st.just(t_a), st.integers(base - 3, base + 3)))
    c_a, c_b = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return system, CharSeries(system, terms_a, t_a, c_a), CharSeries(system, terms_b, t_b, c_b)


def _assert_same_series(got, want):
    assert got.terms == want.terms
    assert list(got.terms) == list(want.terms)  # iteration order too
    assert got.threshold4 == want.threshold4
    assert got.ceiling4 == want.ceiling4
    assert all(c != 0 for c in got.terms.values())
    if got.threshold4 is not None:
        assert all(got.system.ht4(w) >= got.threshold4 for w in got.terms)


@settings(deadline=None, max_examples=200)
@given(case=_series_pair())
def test_add_matches_filtering_constructor(case):
    system, a, b = case
    for x, y in ((a, b), (b, a), (a, a)):
        merged = dict(x.terms)
        for w, c in y.terms.items():
            merged[w] = merged.get(w, 0) + c
        t = x.threshold4
        if y.threshold4 is not None:
            t = y.threshold4 if t is None else max(t, y.threshold4)
        want = CharSeries(system, merged, t, max(x.ceiling4, y.ceiling4))
        _assert_same_series(x + y, want)
    _assert_same_series(a - a, CharSeries(system, {}, a.threshold4, a.ceiling4))


@settings(deadline=None, max_examples=100)
@given(case=_series_pair(), k=st.integers(-3, 3))
def test_scale_matches_filtering_constructor(case, k):
    system, a, _ = case
    want = CharSeries(system, {w: k * c for w, c in a.terms.items()}, a.threshold4, a.ceiling4)
    _assert_same_series(a.scale(k), want)


_RATIOS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)


@settings(deadline=None, max_examples=200)
@given(case=_series_pair(), ratio=_RATIOS)
def test_mismatches_match_the_fraction_comparison(case, ratio):
    # integer cross-multiplication flags the same weights, in the same order,
    # as comparing other.coeff(w) with ratio * self.coeff(w) as Fractions
    system, a, b = case
    for x, y in ((a, b), (b, a), (a, a)):
        t = x.window_threshold(y)
        want = sorted(
            (w for w in set(x.terms) | set(y.terms)
             if (t is None or system.ht4(w) >= t) and Fraction(y.coeff(w)) != ratio * x.coeff(w)),
            key=lambda w: w.coords2,
        )
        assert x.mismatches(y, ratio) == want
    r = Fraction(ratio)
    assert not a.scale(r.denominator).mismatches(a.scale(r.numerator), ratio)


@settings(deadline=None, max_examples=200)
@given(case=_series_pair())
def test_mul_matches_the_whole_convolution_cut_to_the_window(case):
    # each row of the product stops at the first pair below the window; the
    # result must still be the whole convolution cut to the window
    system, a, b = case
    for x, y in ((a, b), (b, a), (a, a)):
        full = {}
        for wx, cx in x.terms.items():
            for wy, cy in y.terms.items():
                full[wx + wy] = full.get(wx + wy, 0) + cx * cy
        edges = [t + c for t, c in ((x.threshold4, y.ceiling4), (y.threshold4, x.ceiling4)) if t is not None]
        want = CharSeries(system, full, max(edges, default=None), x.ceiling4 + y.ceiling4)
        got = x * y
        assert got.terms == want.terms
        assert (got.threshold4, got.ceiling4) == (want.threshold4, want.ceiling4)
        assert all(c != 0 for c in got.terms.values())


# -- the packed kernel against the Weight-keyed reference loop -----------------

_KERNEL_SYSTEMS = [("GL", 2, 1), ("GL", 1, 2), ("B", 1, 1), ("C", 2, 1)]


@st.composite
def _kernel_case(draw):
    """A system (perturbed or not), a leading weight whose coordinates may
    reach 2^19 or beyond, and geometric and finite factors whose exponents
    are signed sums of roots, so of either height sign or of height zero."""
    fam, m, n = draw(st.sampled_from(_KERNEL_SYSTEMS))
    order = draw(st.sampled_from(all_basis_orders(fam, m, n)))
    system = positive_system(build_root_datum(fam, m, n), order)
    tiebreak = draw(st.sampled_from([0, 0, 1, 7]))
    if tiebreak:
        system = system.with_tiebreak(tiebreak)
    sh = system.shape
    roots = list(system.positive_roots)
    big = draw(st.sampled_from([0, 0, 2 ** 19, 2 ** 21 + 5]))
    lead = Weight(
        [draw(st.integers(-4, 4)) + big * draw(st.sampled_from([-1, 1])) for _ in range(sum(sh))], sh
    )

    def exponent():
        w = Weight.zero(sh)
        for _ in range(draw(st.integers(1, 2))):
            w = w + draw(st.sampled_from([-1, 1])) * draw(st.sampled_from(roots))
        return w

    geom = [(exponent(), draw(st.sampled_from([-1, 1]))) for _ in range(draw(st.integers(0, 3)))]
    poly = [(exponent(), draw(st.sampled_from([-1, 1, 2]))) for _ in range(draw(st.integers(0, 3)))]
    depth = draw(st.integers(0, 5))
    # keep each geometric factor to a few dozen terms
    unit = system.unit4
    for b, _ in geom:
        h = abs(system.ht4(b))
        assume(h == 0 or depth * unit // h <= 24)
    T = system.ht4(lead) - depth * unit + draw(st.integers(-2, 2))
    coeff = draw(st.sampled_from([1, -1, 3]))
    return system, T, lead, coeff, geom, poly


@settings(deadline=None, max_examples=300)
@given(case=_kernel_case())
def test_product_expansion_matches_reference(case):
    system, T, lead, coeff, geom, poly = case
    try:
        want = reference_product_expansion(system, T, lead, coeff, geom, poly)
    except ValueError as exc:
        with pytest.raises(HeightZeroExponent) as info:
            product_expansion(system, T, lead, coeff, geom, poly)
        assert str(info.value) == str(exc)
        return
    got = product_expansion(system, T, lead, coeff, geom, poly)
    assert got.terms == want.terms
    assert got.threshold4 == want.threshold4
    assert got.ceiling4 == want.ceiling4
    assert all(c != 0 for c in got.terms.values())
    assert all(T <= system.ht4(w) <= got.ceiling4 for w in got.terms)


# -- packed character division against the Weight-keyed reference loop --------

_PAIRS = (
    [("B", dict(m=m, n=n)) for m, n in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]]
    + [("D1", dict(m=m, n=n)) for m, n in [(2, 1), (2, 2), (3, 1)]]
    + [(tag, dict(m=m, n=n)) for tag in ("D2", "D2'") for m, n in [(1, 2), (2, 1), (2, 2), (3, 1)]]
    + [("GL", dict(n=n, p=p, q=q)) for n, p, q in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]]
)


@functools.cache
def _pair_blocks(i):
    """The s2, Levi and compact blocks of pair i of _PAIRS, and the x-block of
    a D1 pair."""
    tag, kw = _PAIRS[i]
    pair = make_pair(tag, **kw)
    return [pair.s2_block, pair.levi_block, pair.compact_block] + ([pair.x_block] if tag == "D1" else [])


def _invariant_directions(block):
    """Weights fixed by every element of the block group: for each
    coordinate, the sum of its images, scaled to entries 0 and +-1."""
    sh = block.system.shape
    out = []
    for i in range(sum(sh)):
        unit = Weight([2 if j == i else 0 for j in range(sum(sh))], sh)
        total = [sum(c) for c in zip(*(w.act(unit).coords2 for w in block.elements))]
        top = max(map(abs, total))
        if top:
            d = Weight([2 * c // top for c in total], sh)
            if d not in out and -d not in out:
                out.append(d)
    return out


@st.composite
def _character_case(draw):
    """A block of some pair, and lam + rho dominant, irregular (a Weyl image
    of a dominant weight), or singular (fixed by a reflection of the group);
    for "edge", a dominant or irregular lam plus a large weight fixed by the
    group, with coordinates +-(2^k - 1), so that the digit width changes."""
    blocks = _pair_blocks(draw(st.integers(0, len(_PAIRS) - 1)))
    block = draw(st.sampled_from(blocks))
    system, rho, elements = block.system, block.rho, block.elements
    sh = system.shape
    kind = draw(st.sampled_from(["dominant", "irregular", "singular", "edge"]))
    x = Weight([2 * draw(st.integers(-2, 2)) for _ in range(sum(sh))], sh)
    dominant = max((w.act(x) for w in elements), key=system.ht4)
    if kind == "singular":
        generic = Weight(range(1, sum(sh) + 1), sh)
        reflections = [w for w in elements if sgn(w) == -1 and w.act(w.act(generic)) == generic]
        assume(reflections)
        s = draw(st.sampled_from(reflections))
        return block, kind, x + s.act(x) - rho
    if kind == "dominant":
        lam = dominant
    else:
        lam = draw(st.sampled_from(elements)).act(dominant + rho) - rho
    if kind == "edge":
        for d in _invariant_directions(block):
            lam = lam + draw(st.sampled_from([-1, 1])) * (2 ** draw(st.integers(1, 20)) - 1) * d
    return block, kind, lam


@settings(deadline=None, max_examples=300)
@given(case=_character_case())
def test_weyl_character_matches_reference(case):
    block, kind, lam = case
    want = reference_weyl_character(block.system, block.elements, block.rho, lam)
    got = weyl_character(block.system, block.elements, block.rho, lam)
    assert got.terms == want.terms
    assert kind != "singular" or not got.terms
    assert got.threshold4 == want.threshold4
    assert got.ceiling4 == want.ceiling4
