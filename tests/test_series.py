import functools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from superdenom import series
from superdenom.weights import Weight
from superdenom.rootdata import (
    all_basis_orders,
    build_root_datum,
    distinguished_orders,
    positive_system,
    standard_order,
)
from superdenom.denominators import choose_expansion_system, compare, right_side, verify, window4
from superdenom.diagrams import enumerate_diagrams
from superdenom.series import CharSeries, HeightZeroExponent, f_sum_quotient, product_expansion, weyl_character
from superdenom.theta import Block, make_pair
from superdenom.weyl import full_weyl, sgn, signed_permutations

from _oracles import (
    ReferenceSeries,
    monomial,
    one_minus_exp,
    reference_product_expansion,
    reference_weyl_character,
    reference_weyl_sum,
    signed_sum,
)


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
    assert (monomial(system, a) * monomial(system, b)).terms == {a + b: 1}


def test_rank1_weyl_denominator():
    # e^{rho_0} (1 - e^{-alpha}) = e^{rho_0} - e^{-rho_0} for the sl2 eps block
    system = gl21_system()
    alpha = sl2_block(system)
    rho0 = alpha.half()
    prod = monomial(system, rho0) * one_minus_exp(system, alpha)
    assert prod.terms == {rho0: 1, -rho0: -1}


def test_f_sum_single_element_and_pairing():
    system = gl21_system()
    sh = system.shape
    ident_only = signed_sum(
        [full_weyl(system.datum)[0].identity(sh)],
        lambda w: monomial(system, w.act(system.rho)),
    )
    assert ident_only.terms == {system.rho: 1}
    # F_W(e^lambda) = 0 when lambda is fixed by a reflection in W
    alpha = sl2_block(system)
    W = full_weyl(system.datum)
    lam = Weight.delta(1, sh)  # fixed by s_alpha
    total = signed_sum(W, lambda w: monomial(system, w.act(lam)))
    assert total.is_zero_on_window()


def test_f_sum_rank1():
    system = gl21_system()
    alpha = sl2_block(system)
    rho0 = alpha.half()
    W = full_weyl(system.datum)
    res = signed_sum(W, lambda w: monomial(system, w.act(rho0)))
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
    block = Block(system, [Weight.eps(1, sh)], signed_permutations(sh, "e", [1], flips="all"))
    assert block.rho == Weight.eps(1, sh).half()
    ch = weyl_character(block, [(1, Weight.eps(1, sh))])
    assert ch.terms == {Weight.eps(1, sh): 1, Weight.zero(sh): 1, -Weight.eps(1, sh): 1}


def test_weyl_character_singular_is_zero():
    # A_1 block: lambda + rho singular means the character vanishes
    system = gl21_system()
    alpha = sl2_block(system)
    block = Block(system, [alpha], signed_permutations(system.shape, "e", [1, 2]))
    ch = weyl_character(block, [(1, -block.rho)])  # lambda + rho = 0
    assert ch.is_zero_on_window()


def test_weyl_character_sorting_sign():
    # anti-dominant regular weights come back with the sorting sign
    system = gl21_system()
    alpha = sl2_block(system)
    block = Block(system, [alpha], signed_permutations(system.shape, "e", [1, 2]))
    ch = weyl_character(block, [(1, -alpha)])  # s_alpha-image of 0
    assert ch.terms == {Weight.zero(system.shape): -1}


# no cut, and cuts below, at and above every term of the divisions below
ERROR_CUTS = [None, -10**6, 0, 10**6]


def test_weyl_character_error_paths():
    # an A_1 group {1, s_alpha} with a rho it cannot divide by, whole and
    # cut: the roots [] give rho = 0, [-alpha] give -alpha/2, and [2 alpha]
    # give alpha
    system = gl21_system()
    alpha = sl2_block(system)
    elements = signed_permutations(system.shape, "e", [1, 2])
    for cut4 in ERROR_CUTS:
        with pytest.raises(ValueError):
            weyl_character(Block(system, [], elements), [(1, alpha)], cut4)  # singular rho
        with pytest.raises(AssertionError):
            weyl_character(Block(system, [-alpha], elements), [(1, alpha)], cut4)  # leading term -e^{alpha/2}
        with pytest.raises(ValueError, match="not integral for the block"):
            # e^{alpha/2} - e^{-alpha/2} is not divisible by e^alpha - e^{-alpha}
            weyl_character(Block(system, [2 * alpha], elements), [(1, -alpha.half())], cut4)


def test_a_weight_not_integral_for_its_block_is_refused_at_once():
    # delta_1/2 on B(1,2)'s Levi block (A_1 on the deltas): the division
    # stops at the exact quotient's lowest key instead of running on, and a
    # cut division, which may stop before that key, tests the coroot pairing
    levi = make_pair("B", m=1, n=2).levi_block
    for cut4 in ERROR_CUTS:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"1/2\*d1 is not integral for the block"):
            levi.character([(1, Weight([0, 1, 0], (1, 2)))], cut4)
        assert time.perf_counter() - start < 0.1, cut4


def test_a_product_wholly_below_the_window_keeps_its_own_ceiling():
    # e^a for the first simple root a of GL(2,1) e1>d1>e2 has height 4 < 8:
    # no term survives, and the ceiling is the product's own, not 0
    system = gl21_system()
    assert repr(system.order) == "e1>d1>e2"
    a = system.simple_roots[0]
    for ser in (product_expansion(system, 8, a), reference_product_expansion(system, 8, a)):
        assert not ser.terms and (ser.threshold4, ser.ceiling4) == (8, 4)


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


# -- packed series against the Weight-keyed reference series ------------------

# offsets that keep a term's coordinates within 16-bit digits, push them just
# past (so a sum or product of two needs 32 bits), or far past
_OFFSETS = st.sampled_from([2 ** 10, 2 ** 15 - 3, 2 ** 15, 2 ** 20, 2 ** 40])


@st.composite
def _reference_case(draw):
    """A GL(2,1) system (perturbed or not) and two series built from the same
    ``{Weight: c}`` dicts as a ``CharSeries`` and as a ``ReferenceSeries``.
    Each term is a small weight, or a small weight plus one large offset of
    the case, so the two series share keys while their digit widths may
    differ; thresholds fall near the small heights or near the offset's."""
    system = draw(st.sampled_from([gl21_system(), gl21_system().with_tiebreak(7)]))
    sh = system.shape
    offset = Weight([draw(_OFFSETS) * draw(st.sampled_from([-1, 0, 1])) for _ in range(3)], sh)
    small = [Weight(c, sh) for c in draw(st.lists(_COORDS, min_size=1, max_size=8, unique=True))]
    pool = small + [w + offset for w in small]
    out = []
    for _ in range(2):
        terms = {w: draw(st.integers(-3, 3)) for w in draw(st.lists(st.sampled_from(pool), max_size=10, unique=True))}
        near = draw(st.sampled_from([0, system.ht4(offset)]))
        t = draw(st.one_of(st.none(), st.integers(near - 12, near + 12)))
        c = max(map(system.ht4, terms), default=0) + draw(st.integers(0, 4))
        out.append((CharSeries(system, terms, t, c), ReferenceSeries(system, terms, t, c)))
    return system, pool + [offset * 3, Weight([2 ** 60, 0, -1], sh)], out


def _agrees(got, want, ordered=True):
    """got, a CharSeries, equals the ReferenceSeries want: the same terms,
    read through ``terms``, ``coeff`` and ``to_json``, the same window, and
    with ``ordered`` the same term order."""
    assert dict(got.terms) == want.terms
    assert len(got.terms) == len(want.terms)
    if ordered:
        assert list(got.terms) == list(want.terms)
    assert (got.threshold4, got.ceiling4) == (want.threshold4, want.ceiling4)
    assert got.to_json() == want.to_json()
    assert got.support_sorted() == want.support_sorted()
    assert all(got.terms[w] == got.coeff(w) == c for w, c in want.terms.items())


@settings(deadline=None, max_examples=200)
@given(case=_reference_case(), k=st.integers(-3, 3), ratio=_RATIOS, lift=st.integers(0, 16))
def test_series_operations_match_the_reference_series(case, k, ratio, lift):
    system, probes, [(a, ra), (b, rb)] = case
    _agrees(a, ra)
    assert [a.coeff(w) for w in probes] == [ra.coeff(w) for w in probes]
    assert a.is_zero_on_window() == ra.is_zero_on_window()
    _agrees(a.scale(k), ra.scale(k))
    _agrees(a.tightened(), ra.tightened())
    for t in ([lift - 8] if a.threshold4 is None else [a.threshold4, a.threshold4 + lift]):
        _agrees(a.truncate(t), ra.truncate(t))
    if a.threshold4 is not None:
        for s in (a, ra):
            with pytest.raises(ValueError):
                s.truncate(a.threshold4 - 1)
    for (x, rx), (y, ry) in (((a, ra), (b, rb)), ((b, rb), (a, ra)), ((a, ra), (a, ra))):
        _agrees(x + y, rx + ry)
        _agrees(x - y, rx - ry)
        _agrees(x * y, rx * ry, ordered=False)
        assert x.mismatches(y, ratio) == rx.mismatches(ry, ratio)


def test_a_product_widens_the_digits_it_needs():
    # 2^15 - 1 fits a 16-bit balanced digit and twice it does not: the
    # product of two such monomials moves to 32-bit digits, and a sum with a
    # 16-bit series is taken at 32 bits
    system = gl21_system()
    w = Weight([2 ** 15 - 1, 0, -(2 ** 15 - 1)], system.shape)
    x = monomial(system, w)
    square = x * x
    assert (x.bits, square.bits) == (16, 32)
    assert dict(square.terms) == {w + w: 1}
    one = monomial(system, Weight.zero(system.shape))
    total = square + one
    assert total.bits == 32 and dict(total.terms) == {w + w: 1, Weight.zero(system.shape): 1}
    assert not total.mismatches(one + square)


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
    roots = list(system.positive_even + system.positive_odd)
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
def _character_case(draw, block=None):
    """A block of some pair (``block`` when given), and lam + rho dominant,
    irregular (a Weyl image of a dominant weight), or singular (fixed by a
    reflection of the group); for "edge", a dominant or irregular lam plus a
    large weight fixed by the group, with coordinates +-(2^k - 1), so that
    the digit width changes."""
    if block is None:
        block = draw(st.sampled_from(_pair_blocks(draw(st.integers(0, len(_PAIRS) - 1)))))
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
    got = weyl_character(block, [(1, lam)])
    assert got.terms == want.terms
    assert kind != "singular" or not got.terms
    assert got.threshold4 == want.threshold4
    assert got.ceiling4 == want.ceiling4


@st.composite
def _signed_sum(draw):
    """A block and a signed list of its weights, each drawn as in
    _character_case, with one summand repeated or cancelled."""
    block = draw(_character_case())[0]
    summands = [(draw(st.integers(-3, 3)), draw(_character_case(block))[2]) for _ in range(draw(st.integers(0, 4)))]
    if summands:
        c, lam = draw(st.sampled_from(summands))
        summands.append((draw(st.sampled_from([c, -c])), lam))
    return block, draw(st.permutations(summands))


@settings(deadline=None, max_examples=150)
@given(case=_signed_sum())
def test_block_character_is_the_signed_sum_of_reference_characters(case):
    block, summands = case
    want = {}
    for c, lam in summands:
        for x, k in reference_weyl_character(block.system, block.elements, block.rho, lam).terms.items():
            want[x] = want.get(x, 0) + c * k
    want = {x: k for x, k in want.items() if k}
    got = block.character(summands)
    assert got.terms == want
    assert got.threshold4 is None
    assert got.ceiling4 == max(map(block.system.ht4, want), default=0)


@settings(deadline=None, max_examples=150)
@given(case=_signed_sum(), data=st.data())
def test_a_cut_character_is_the_whole_one_on_its_window(case, data):
    # the cut is drawn from a little below the lowest to a little above the
    # highest term of the whole sum, so that it keeps all, some or none
    block, summands = case
    ht4 = block.system.ht4
    full = block.character(summands)
    heights = [ht4(x) for x in full.terms] or [0]
    cut4 = data.draw(st.integers(min(heights) - 8, max(heights) + 8))
    got = block.character(summands, cut4)
    assert got.terms == {x: c for x, c in full.terms.items() if ht4(x) >= cut4}
    assert got.threshold4 == cut4
    if full.terms:
        assert got.ceiling4 >= max(heights)
    if got.terms:
        assert got.ceiling4 == max(heights)


def _princ_sum(family, m, n, kind):
    """The right side of ``kind`` on the first diagram of the first
    distinguished order, on a system whose functional separates its
    exponents, and the depth-4 window."""
    datum = build_root_datum(family, m, n)
    base = positive_system(datum, distinguished_orders(family, m, n)[0])
    spec = right_side(kind, base, enumerate_diagrams(base)[0])
    system = choose_expansion_system(base, [w.act(b) for w in spec.group for b, _ in spec.geom])
    return system, spec, window4(system, 4)


@pytest.mark.parametrize("kind,sign", [("princ-d", "sgn"), ("princ-sd", "sgn_prime")])
@pytest.mark.parametrize("family,m,n", [("GL", 2, 2), ("B", 2, 1), ("D", 3, 2)])
def test_weyl_sum_matches_the_left_fold_of_its_pieces(monkeypatch, family, m, n, kind, sign):
    system, spec, T = _princ_sum(family, m, n, kind)
    assert spec.sign == sign
    args = (sign, T, spec.leading, spec.geom, spec.poly, spec.coeff)
    W = list(spec.group)
    for U in ([], W[:1], W):
        got, want = f_sum_quotient(system, U, *args), reference_weyl_sum(system, U, *args)
        assert got.terms == want.terms
        assert (got.threshold4, got.ceiling4, got.bound) == (want.threshold4, want.ceiling4, want.bound)
    shuffled = random.Random(29).sample(W, len(W))
    assert f_sum_quotient(system, shuffled, *args).terms == f_sum_quotient(system, W, *args).terms
    # the merges take as many additions as the fold, one per element but the
    # first, and each puts the larger operand on the left, the one ``+`` copies
    adds, add = [], CharSeries.__add__

    def recording_add(a, b):
        adds.append((len(a.packed), len(b.packed)))
        return add(a, b)

    monkeypatch.setattr(CharSeries, "__add__", recording_add)
    f_sum_quotient(system, W, *args)
    assert len(adds) == len(W) - 1
    assert all(left >= right for left, right in adds)


@pytest.mark.parametrize("family,m,n", [("D", 3, 3), ("B", 3, 2)])
def test_weyl_sums_copy_a_few_times_the_terms_of_their_pieces(monkeypatch, family, m, n):
    """``+`` copies its left operand.  Added into one growing accumulator,
    the depth-3 princ-sd checks copy 44 (D(3,3)) and 30 (B(3,2)) times the
    pieces' total terms; merged by size, about 4 to 5 times."""
    copied, pieces = [0], [0]
    add, expand = CharSeries.__add__, series.product_expansion

    def counting_add(a, b):
        copied[0] += len(a.packed)
        return add(a, b)

    def counting_expand(*args, **kwargs):
        out = expand(*args, **kwargs)
        pieces[0] += len(out.packed)
        return out

    monkeypatch.setattr(CharSeries, "__add__", counting_add)
    monkeypatch.setattr(series, "product_expansion", counting_expand)
    datum = build_root_datum(family, m, n)
    for order in distinguished_orders(family, m, n):
        system = positive_system(datum, order)
        for X in enumerate_diagrams(system):
            assert verify("princ-sd", system, X=X, depth=3).passed
    assert 0 < copied[0] <= 8 * pieces[0]
