import dataclasses
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from superdenom.weights import Weight, inner
from superdenom import series, theta
from superdenom.theta import make_pair, Block, BPair, D1Pair, D2Pair, GLPair, partitions_at_most, exact_parts
from superdenom.denominators import window4
from superdenom.series import CharSeries, weyl_character
from superdenom.weyl import enumerate_closure, reflection

from _oracles import (
    monomial,
    reference_assembled,
    reference_enright_character,
    reference_l2_character,
    reference_pair_blocks,
    reference_sorted_in_block,
    reference_verify_enright,
)

DUALITY_CASES = [
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


def w(sh, **kw):
    acc = Weight.zero(sh)
    for key, c in kw.items():
        kind, idx = key[0], int(key[1:])
        base = Weight.eps(idx, sh) if kind == "e" else Weight.delta(idx, sh)
        acc = acc + c * base
    return acc


# every pair rank whose blocks are compared with the pair-by-pair construction:
# B(0..4, 1..4), D1(2..4, 1..4), D2 and D2'(1..4, 1..4), GL(n; p, q) with
# n <= 3 and p, q <= 3 (GL(0; ...) with p = q = 0 has no eps run)
BLOCK_RANKS = (
    [("B", dict(m=m, n=n)) for m in range(5) for n in range(1, 5)]
    + [("D1", dict(m=m, n=n)) for m in range(2, 5) for n in range(1, 5)]
    + [(tag, dict(m=m, n=n)) for tag in ("D2", "D2'") for m in range(1, 5) for n in range(1, 5)]
    + [("GL", dict(n=n, p=p, q=q)) for n in range(1, 4) for p in range(4) for q in range(4)]
)


def _same_block(block, ref):
    return (set(block.positive), block.elements, block.rho) == (set(ref.positive), ref.elements, ref.rho)


def _enright_rule(pair, ref, entry) -> set:
    """The reflections generating the entry's Enright group, by the rule on
    the pair-by-pair roots: the two-coordinate nilradical roots, and the long
    roots 2 delta_k unless one of them is singular for lam0, each kept when it
    pairs positively and integrally with lam0 and is orthogonal to every s2
    root singular for lam0."""
    lam0 = entry.l2_lowest + pair.s2_block.rho
    s2 = pair.s2_block.positive + [-a for a in pair.s2_block.positive]
    long_singular = any(inner(lam0, a) == 0 for a in ref["long"])
    out = set()
    for a in ref["candidates"] + ([] if long_singular else ref["long"]):
        pairing = 2 * inner(lam0, a) / inner(a, a)
        if pairing.denominator == 1 and pairing > 0 and all(inner(lam0, b) != 0 or inner(a, b) == 0 for b in s2):
            out.add(reflection(a))
    return out


def test_pairs_read_off_their_orders_match_the_pair_by_pair_construction(monkeypatch):
    # blocks, shifts, Enright generators and flips read off the order agree
    # with the construction written out pair by pair, on 112 ranks
    generators = []
    monkeypatch.setattr(theta, "enumerate_closure", lambda gens, shape: generators.append(set(gens)) or [])
    for tag, kw in BLOCK_RANKS:
        pair = make_pair(tag, **kw)
        ref = reference_pair_blocks(pair)
        sys_ = pair.system
        assert pair.twist == ref["twist"], (tag, kw)
        for name, twist in (("s2", None), ("levi", ref["twist"]), ("compact", None)):
            assert _same_block(getattr(pair, f"{name}_block"), Block.of(sys_, ref[name], twist)), (tag, kw, name)
        assert pair._l2_shift() == ref["l2_shift"] and pair._compact_shift() == ref["compact_shift"], (tag, kw)
        assert set(pair.nilradical) == set(ref["candidates"] + ref["long"]), (tag, kw)
        for entry in pair.sigma_set(3):
            pair.enright(entry)
            assert generators.pop() == _enright_rule(pair, ref, entry), (tag, kw, entry.partition, entry.sign)
        # the Levi character straightens what the pair-by-pair run sort
        # sorted: on Levi-integral probes x = rho2 + 2 lam it is zero where the
        # sort finds x singular, nonzero where x is already sorted, and else the
        # sorted character times the sort's sign
        rng = random.Random(f"{tag}{sorted(kw.items())}")
        rho2, levi = pair.s2_block.rho, pair.levi_block
        for _ in range(20):
            x = rho2 + 2 * Weight([rng.randint(-2, 2) for _ in range(sum(sys_.shape))], sys_.shape)
            got, res = weyl_character(levi, [(1, x - rho2)]), reference_sorted_in_block(pair, x)
            if res is None or res[0] == x:
                assert got.is_zero_on_window() == (res is None), (tag, kw, x)
            else:
                assert dict(got.terms) == dict(weyl_character(levi, [(res[1], res[0] - rho2)]).terms), (tag, kw, x)
        for key in (k for size in range(4) for k in pair.table_keys(size)):
            assert pair.flip_set(key) == ref["flips"](key), (tag, kw, key)


@pytest.mark.parametrize(
    "tag,kw,missing",
    [("GL", dict(n=1), "p, q"), ("GL", dict(p=1, q=1), "n"), ("B", dict(n=2), "m"), ("D1", dict(m=2), "n")],
)
def test_make_pair_names_a_missing_rank(tag, kw, missing):
    with pytest.raises(ValueError, match=f"^the {tag} pair is missing rank {missing}$"):
        make_pair(tag, **kw)


@pytest.mark.parametrize(
    "tag,kw,extra",
    [("B", dict(m=1, n=1, p=9), "p"), ("GL", dict(n=1, p=1, q=0, m=7), "m"), ("D2'", dict(m=2, n=1, p=1, q=2), "p, q")],
)
def test_make_pair_rejects_a_rank_the_pair_does_not_take(tag, kw, extra):
    with pytest.raises(ValueError, match=f"^the {tag} pair takes no rank {extra}$"):
        make_pair(tag, **kw)


def test_make_pair_treats_a_rank_given_as_none_as_not_given():
    pair = make_pair("B", m=1, n=2, p=None, q=None)
    assert (type(pair), pair.m, pair.n) == (BPair, 1, 2)
    pair = make_pair("gl", m=None, n=1, p=2, q=1)
    assert (type(pair), pair.n, pair.p, pair.q) == (GLPair, 1, 2, 1)
    with pytest.raises(ValueError, match="^the D1 pair is missing rank m$"):
        make_pair("D1", m=None, n=2)


def test_partition_helpers():
    assert partitions_at_most(2, 3) == [(3, 0), (2, 1)]
    assert partitions_at_most(0, 0) == [()]
    assert partitions_at_most(0, 1) == []
    assert exact_parts((3, 1, 0)) == 2
    # every non-increasing tuple of the size, in descending order
    for parts in range(5):
        for size in range(-1, 9):
            tuples = itertools.product(range(size + 1), repeat=parts)
            want = sorted((t for t in tuples if sum(t) == size and list(t) == sorted(t, reverse=True)), reverse=True)
            assert partitions_at_most(parts, size) == want, (parts, size)


def test_oscillator_character_b11():
    pair = make_pair("B", m=1, n=1)
    sh = (1, 1)
    assert set(pair.system.positive_odd) == {
        w(sh, d1=1, e1=1), w(sh, d1=1, e1=-1), w(sh, d1=1)
    }
    assert 2 * pair.system.rho1 == w(sh, d1=3)
    osc = pair.oscillator_character(4)
    top = -pair.system.rho1
    assert osc.coeff(top) == 1
    assert osc.coeff(top - w(sh, d1=1)) == 1  # the lone delta_1 direction


def test_oscillator_character_d2_11():
    pair = make_pair("D2", m=1, n=1)
    sh = (1, 1)
    assert pair.system.rho1 == w(sh, e1=1)
    osc = pair.oscillator_character(4)
    assert osc.coeff(-pair.system.rho1) == 1


def test_sigma_set_b_pair_basics():
    pair = make_pair("B", m=1, n=1)
    entries = pair.sigma_set(3)
    zero = [e for e in entries if e.partition == (0,)]
    assert len(zero) == 1 and zero[0].sign == "+"
    assert zero[0].l2_lowest == -pair.system.rho1
    assert all(e.sign == "+" for e in entries)  # P is empty when n = d


def test_sigma_set_b12_extra_family():
    pair = make_pair("B", m=1, n=2)
    entries = pair.sigma_set(4)
    minus = [e for e in entries if e.sign == "-"]
    assert minus, "P should be nonempty for m < n"
    sh = (1, 2)
    for e in minus:
        a = e.partition
        assert exact_parts(a) >= max(0, pair.m + 1 - (pair.n - pair.d))
        # nu(a) = -delta_1 - a_1 delta_2 at this rank
        assert e.l2_lowest == -pair.system.rho1 + w(sh, d1=-1, d2=-a[0])


def test_sigma_set_d2_has_no_signs():
    pair = make_pair("D2", m=2, n=1)
    assert all(e.sign == "none" for e in pair.sigma_set(4))


def test_finite_character_so3():
    # F_B(eps_1) for so(3): e + 1 + e^{-1}
    pair = make_pair("B", m=1, n=1)
    sh = (1, 1)
    entry = [e for e in pair.sigma_set(2) if e.partition == (1,)][0]
    ch = pair.compact_character(entry)
    assert ch.terms == {w(sh, e1=1): 1, Weight.zero(sh): 1, w(sh, e1=-1): 1}


def test_finite_character_singular_vanishes():
    # the u(n)-side character with a singular shifted weight is zero
    pair = make_pair("GL", n=2, p=1, q=1)
    sh = pair.system.shape
    lam = pair._compact_shift() + w(sh, d2=1)  # (0, 1) on the deltas: singular
    assert weyl_character(pair.compact_block, [(1, lam)]).is_zero_on_window()


def test_dominance_of_tau_image():
    # among the l2 summands the designated lowest weight maximizes the H-degree
    pair = make_pair("B", m=1, n=2)
    for entry in pair.sigma_set(4):
        lead = entry.l2_lowest
        hdeg = lambda x: sum(x.delta_coords2())
        for coeff, lam in pair.l2_summands(entry):
            assert hdeg(lam) <= hdeg(lead)


def test_leading_weights_distinct():
    # distinct flip-group elements produce distinct Verma leads
    pair = make_pair("B", m=1, n=2)
    for entry in pair.sigma_set(4):
        leads = [lam for _, lam in pair.l2_summands(entry)]
        assert len(leads) == len(set(leads))


def test_h_grading_parity():
    # every weight of L^2 for a "+" entry has (lambda + rho_1)(H) of the same
    # parity as |a|; "-" entries flip the parity (the two sign characters)
    pair = make_pair("B", m=1, n=2)
    T = window4(pair.system, 6, top=-pair.system.rho1)
    rho1 = pair.system.rho1
    for entry in pair.sigma_set(3):
        size = sum(entry.partition)
        want = size % 2 if entry.sign == "+" else (size + 1) % 2
        l2 = pair.l2_character(entry, T, depth=False)
        for wt in l2.terms:
            hdeg2 = sum((wt + rho1).delta_coords2())  # doubled H-pairing
            assert hdeg2 % 4 == (2 * want) % 4, (entry.partition, entry.sign, wt)


def test_l2_character_matches_isotypic_extraction_d2():
    # brute-force oracle for the smallest D2 case: on each compact-weight
    # slice the oscillator character equals sum over entries of
    # (multiplicity of the slice weight in F) x (eps-part of L2); solve by
    # elimination from the largest |a| downward and compare
    pair = make_pair("D2", m=1, n=1)
    sys_ = pair.system
    sh = sys_.shape
    depth = 8
    T = window4(sys_, depth, top=-sys_.rho1)
    osc = pair.oscillator_character(depth)
    entries = sorted(pair.sigma_set(depth), key=lambda e: -sum(e.partition))
    # for Sp(1) = C_1 on one delta coordinate, F(a delta_1) has weights
    # a, a-2, ..., -a; L2 lives on the eps coordinate only
    assembled: dict = {}
    l2_top = None
    for e in entries:
        fin = pair.compact_character(e)
        l2 = pair.l2_character(e, T - fin.ceiling4, depth=False)
        if e is entries[0]:
            l2_top = l2
        prod = fin * l2
        for wt, c in prod.terms.items():
            if sys_.ht4(wt) >= T:
                assembled[wt] = assembled.get(wt, 0) + c
    for wt, c in osc.terms.items():
        assert assembled.get(wt, 0) == c, wt
    for wt, c in assembled.items():
        assert osc.coeff(wt) == c, wt
    # the extracted L2 of the largest entry starts at its lowest weight
    assert l2_top.coeff(entries[0].l2_lowest) == 1


@pytest.mark.parametrize("tag,kw", DUALITY_CASES)
def test_duality(tag, kw):
    pair = make_pair(tag, **kw)
    rep = pair.verify_duality(6)
    assert rep.passed, (tag, kw, rep.first_mismatch)


def test_d1_3_2_duality_at_depth_12():
    # the largest D1 duality check: its finite characters dominate the time
    rep = make_pair("D1", m=3, n=2).verify_duality(12)
    assert rep.passed, rep.first_mismatch


def test_d1_2_3_det_twisted_entries():
    # O(4) with Sp(6,R): by Kashiwara-Vergne the det-twisted partner of a
    # with j = 1 nonzero part has first column 2m - j = 3 <= n, so a = (a_1, 0)
    # has a "-" entry, with -1 on 2m - 2j = 2 deltas below -a_1 delta_3
    pair = make_pair("D1", m=2, n=3)
    sh = pair.system.shape
    minus = [e for e in pair.sigma_set(3) if e.sign == "-"]
    assert [e.partition for e in minus] == [(1, 0), (2, 0), (3, 0)]
    for e in minus:
        assert e.l2_lowest == -pair.system.rho1 + w(sh, d1=-1, d2=-1, d3=-e.partition[0])


@pytest.mark.parametrize("n,depth", [(3, 8), (4, 14)])
def test_d1_duality_with_n_above_m(n, depth):
    # the first term of a det-twisted entry lies in the window from depth 8
    # on D1(2,3) and from depth 14 on D1(2,4)
    rep = make_pair("D1", m=2, n=n).verify_duality(depth)
    assert rep.passed, rep.first_mismatch


@pytest.mark.parametrize("tag,kw", [("B", dict(m=1, n=1)), ("D1", dict(m=2, n=1))])
def test_duality_rejects_negative_depth(tag, kw):
    with pytest.raises(ValueError):
        make_pair(tag, **kw).verify_duality(-1)


def _d1_side(pair, method):
    """The series named ``method`` that the D1 duality check compares, as a
    function of the depth; the x part of the assembled table is
    ``_assembled`` over ``x_character``."""
    if method == "assembled_x_character":
        return lambda depth: pair._assembled(depth, pair.x_character)[0]
    return getattr(pair, method)


@pytest.mark.parametrize("method,kind,subset", [
    ("assembled_character", "theta-D1", "full table"),
    ("assembled_x_character", "theta-D1-x", "x-component"),
    ("d2_twin_sum", "theta-D1-xtwin", "x-component vs D(n,m-1) superdenominator"),
])
def test_d1_duality_reports_the_broken_check(monkeypatch, method, kind, subset):
    # doubling the series one check compares against makes that check fail,
    # and its report is the one returned; its first mismatch is a weight
    # where the true series is nonzero.  The duality check assembles both
    # sums in one walk of the table, so they are doubled through their
    # finite characters.
    pair = D1Pair(2, 1)
    true = _d1_side(pair, method)(5)
    doubled = {"assembled_character": "compact_character", "assembled_x_character": "x_character"}.get(method, method)
    honest = getattr(pair, doubled)
    monkeypatch.setattr(pair, doubled, lambda *args: honest(*args).scale(2))
    assert _d1_side(pair, method)(5).terms == true.scale(2).terms
    rep = pair.verify_duality(5)
    assert rep.passed is False
    assert rep.identity_kind == kind
    assert rep.subset == subset
    assert rep.constant == "1"
    assert rep.first_mismatch is not None
    assert true.coeff(Weight(rep.first_mismatch, pair.system.shape)) != 0
    assert rep.to_json()["verdict"] == "fail"


def _doubled(method):
    """``method`` with its result doubled; every argument, a cut included, is
    passed on."""
    return lambda *args: method(*args).scale(2)


def _duality_mutants(pair):
    """Two deliberate faults, each a (method name, replacement) pair: every
    compact character doubled, and the first flip-sum summand of every entry
    negated."""
    summands = pair.l2_summands

    def negated(entry):
        out = summands(entry)
        return [(-c, lam) for c, lam in out[:1]] + out[1:]

    return [("compact_character", _doubled(pair.compact_character)), ("l2_summands", negated)]


def _division_mutants():
    """Two deliberate faults in the division by A(rho), each a replacement
    for ``series._denominator``: the first positive root of every block left
    out, and the first root's key negated."""
    honest = series._denominator

    def dropped(block, bits):
        rho, roots = honest(block, bits)
        return rho, roots[1:]

    def negated(block, bits):
        rho, roots = honest(block, bits)
        return rho, [-k for k in roots[:1]] + roots[1:]

    return [dropped, negated]


@pytest.mark.parametrize("tag,kw", [("B", dict(m=1, n=2)), ("D2", dict(m=2, n=1)), ("GL", dict(n=2, p=1, q=1))])
def test_duality_fails_under_each_division_mutant(monkeypatch, tag, kw):
    # a root left out leaves an exact but wrong quotient, which the check
    # reports; a negated key would walk its strings upward, and is refused
    dropped, negated = _division_mutants()
    monkeypatch.setattr(series, "_denominator", dropped)
    rep = make_pair(tag, **kw).verify_duality(8)
    assert not rep.passed and rep.first_mismatch is not None, (tag, kw)
    monkeypatch.setattr(series, "_denominator", negated)
    with pytest.raises(ValueError, match="non-positive height"):
        make_pair(tag, **kw).verify_duality(8)


# D1 with n < m, n = m and n > m
D1_MUTATION_RANKS = [("D1", dict(m=2, n=1)), ("D1", dict(m=2, n=2)), ("D1", dict(m=2, n=3))]


@pytest.mark.parametrize("tag,kw", [
    ("B", dict(m=1, n=2)),
    ("B", dict(m=2, n=1)),
    ("D2", dict(m=2, n=1)),
    ("D2'", dict(m=2, n=1)),
    ("GL", dict(n=2, p=1, q=1)),
    ("GL", dict(n=1, p=2, q=1)),
] + D1_MUTATION_RANKS)
@pytest.mark.parametrize("mutant", range(2))
def test_duality_fails_under_each_deliberate_mutation(monkeypatch, tag, kw, mutant):
    # on D1 both faults reach the torus check, which runs first
    pair = make_pair(tag, **kw)
    assert pair.verify_duality(8).passed
    name, fault = _duality_mutants(pair)[mutant]
    monkeypatch.setattr(pair, name, fault)
    rep = pair.verify_duality(8)
    assert not rep.passed and rep.first_mismatch is not None, (tag, kw, name)
    assert rep.identity_kind == f"theta-{tag}", (tag, kw, name)


@pytest.mark.parametrize("tag,kw", D1_MUTATION_RANKS)
@pytest.mark.parametrize("name,kind", [("x_character", "theta-D1-x"), ("d2_twin_sum", "theta-D1-xtwin")])
def test_d1_x_checks_fail_under_each_deliberate_mutation(monkeypatch, tag, kw, name, kind):
    # a doubled x-character passes the torus check and fails the x check; a
    # doubled twin sum passes both and fails the x-twin check
    pair = make_pair(tag, **kw)
    monkeypatch.setattr(pair, name, _doubled(getattr(pair, name)))
    rep = pair.verify_duality(8)
    assert not rep.passed and rep.first_mismatch is not None, (kw, name)
    assert rep.identity_kind == kind, (kw, name)


def _narrowed(pair, name):
    """The method ``name`` of the pair with its window raised by one unit:
    the tail of the assembled side (``_with_tail``) expanded from one unit
    above the threshold it is given, or a series of the x checks (called
    with the depth) truncated one unit above the window."""
    honest, unit4 = getattr(pair, name), pair.system.unit4
    if name == "_with_tail":
        return lambda finite, threshold4: honest(finite, threshold4 + unit4)
    return lambda depth: honest(depth).truncate(pair._window(depth) + unit4)


@pytest.mark.parametrize("tag,kw,name,kind", [
    ("B", dict(m=1, n=2), "_with_tail", "theta-B"),
    ("D2", dict(m=2, n=1), "_with_tail", "theta-D2"),
    ("GL", dict(n=2, p=1, q=1), "_with_tail", "theta-GL"),
] + [(tag, kw, name, kind) for tag, kw in D1_MUTATION_RANKS for name, kind in [
    ("_with_tail", "theta-D1"), ("oscillator_x_character", "theta-D1-x"), ("d2_twin_sum", "theta-D1-xtwin"),
]])
def test_duality_refuses_a_window_narrowed_by_one_unit(monkeypatch, tag, kw, name, kind):
    # on the narrowed common window the two sides still agree, so compare
    # alone would pass; each duality check first asserts the whole window
    pair = make_pair(tag, **kw)
    monkeypatch.setattr(pair, name, _narrowed(pair, name))
    with pytest.raises(AssertionError, match=f"^{kind}: thresholds .* are not the window"):
        pair.verify_duality(8)


@pytest.mark.parametrize("tag,kw", [("B", dict(m=1, n=2)), ("GL", dict(n=2, p=1, q=1))] + D1_MUTATION_RANKS)
def test_duality_refuses_finite_characters_cut_one_unit_high(monkeypatch, tag, kw):
    # every finite character cut one unit above the cut it is asked for
    # lacks terms that the assembly needs: its product cannot be cut to the
    # window, and the check raises instead of passing on a narrower one
    pair = make_pair(tag, **kw)
    honest, unit4 = theta.weyl_character, pair.system.unit4
    monkeypatch.setattr(theta, "weyl_character", lambda block, summands, cut4=None: honest(
        block, summands, None if cut4 is None else cut4 + unit4))
    with pytest.raises(ValueError, match="cannot widen the window"):
        pair.verify_duality(8)


def test_duality_d2_primed():
    rep = make_pair("D2'", m=2, n=1).verify_duality(6)
    assert rep.passed


@pytest.mark.parametrize("tag,kw", DUALITY_CASES)
def test_enright_equals_l2(tag, kw):
    # whole characters: the two finite Levi sums are equal and nonzero
    pair = make_pair(tag, **kw)
    for entry in pair.sigma_set(6):
        rep = pair.verify_enright(entry)
        assert rep.passed, (tag, kw, entry.partition, entry.sign)
        doc = rep.to_json()
        assert doc["identity"] == f"theta-{pair.tag}-enright" and doc["depth"] is None
        assert doc["subset"] == f"a={entry.partition} sign={entry.sign}"


@pytest.mark.parametrize(
    "m,n,count", [(2, 3, 17), (2, 4, 18), (3, 4, 22), (2, 5, 18), (3, 5, 27), (2, 6, 18), (3, 6, 28)]
)
def test_d1_enright_equals_l2_with_n_above_m(m, n, count):
    # every entry up to size 5; the long roots 2 delta_k are integral on D1
    pair = make_pair("D1", m=m, n=n)
    entries = pair.sigma_set(5)
    assert len(entries) == count
    assert [(e.partition, e.sign) for e in entries if not pair.verify_enright(e).passed] == []


# the ranks on which the basis comparison meets the expanded one
ORACLE_ENRIGHT_RANKS = (
    [("B", dict(m=m, n=n)) for m in (1, 2) for n in (1, 2, 3)]
    + [("D1", dict(m=2, n=n)) for n in (1, 2, 3, 4)]
    + [(tag, dict(m=m, n=n)) for tag in ("D2", "D2'") for m in (1, 2) for n in (1, 2)]
    + [("GL", dict(n=n, p=p, q=q)) for n, p, q in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]]
)


def test_verify_enright_gives_the_verdict_of_the_expanded_comparison(monkeypatch):
    # in the basis of irreducibles and by two full divisions: the same
    # verdict on every entry of size <= 5, honest and under each of
    # _enright_mutants' faults
    verdicts = []
    for tag, kw in ORACLE_ENRIGHT_RANKS:
        for mutant in (None, 0, 1, 2):
            pair = make_pair(tag, **kw)
            if mutant is not None:
                monkeypatch.setattr(pair, *_enright_mutants(pair)[mutant])
            for entry in pair.sigma_set(5):
                verdict = pair.verify_enright(entry).passed
                assert verdict == reference_verify_enright(pair, entry).passed, (tag, kw, mutant, entry.partition)
                verdicts.append((mutant is None, verdict))
    # every honest entry passes, and every mutated one fails
    assert verdicts.count((True, True)) == 221 and verdicts.count((False, False)) == 3 * 221


def test_d1_enright_on_plus_entries_with_a_m_positive():
    # on these entries lam + rho_2 pairs positively and integrally with the
    # long roots 2 delta_k of the flipped coordinates: the Enright group must
    # admit them, or it is trivial while the flip sum has 2 or 4 summands
    failing, checked = [], 0
    for n in (3, 4):
        pair = make_pair("D1", m=2, n=n)
        plus = [e for e in pair.sigma_set(5) if e.sign == "+" and pair.a_m(e.partition) > 0]
        checked += len(plus)
        failing += [(n, e.partition) for e in plus if not pair.verify_enright(e).passed]
    assert checked and failing == []


def _enright_generator_mutants(pair):
    """Two faults in the choice of the Enright generators, each a (method
    name, replacement) pair: the candidates cut to the two-coordinate
    nilradical roots, which leaves out the integral long roots 2 delta_k,
    and every root read as two-coordinate (``_support``), so the long roots
    are never dropped, not even where one of them is singular."""
    two = [a for a in pair.nilradical if theta._support(a) == 2]
    return [(pair, "nilradical", two), (theta, "_support", lambda w: 2)]


@pytest.mark.parametrize("mutant,partition", [(0, (2, 2)), (1, (1, 0))])
def test_d1_enright_fails_under_each_generator_mutation(monkeypatch, mutant, partition):
    # D1(2,3) (2,2)+ needs a long root; (1,0)+ has lam0 = (1, 0, -2) on the
    # deltas, where 2 delta_1 is orthogonal to the singular 2 delta_2 and
    # must still be left out
    pair = make_pair("D1", m=2, n=3)
    entry = next(e for e in pair.sigma_set(4) if e.partition == partition and e.sign == "+")
    assert pair.verify_enright(entry).passed
    monkeypatch.setattr(*_enright_generator_mutants(pair)[mutant])
    rep = pair.verify_enright(entry)
    assert not rep.passed and rep.first_mismatch is not None


def _enright_mutants(pair):
    """Three deliberate faults, each a (method name, replacement) pair: one
    extra Levi character on the flip-sum side, the last minimal
    representative dropped, and the sign of the last one flipped."""
    l2, enright = pair.l2_summands, pair.enright

    def extra(entry):
        return l2(entry) + [(1, entry.l2_lowest)]

    def dropped(entry):
        data = enright(entry)
        return dataclasses.replace(data, min_reps=data.min_reps[:-1])

    def flipped(entry):
        data = enright(entry)
        last = data.min_reps[-1]
        return dataclasses.replace(data, lengths={**data.lengths, last: data.lengths[last] + 1})

    return [("l2_summands", extra), ("enright", dropped), ("enright", flipped)]


@pytest.mark.parametrize("tag,kw", DUALITY_CASES + [("B", dict(m=1, n=3)), ("GL", dict(n=1, p=3, q=1))])
@pytest.mark.parametrize("mutant", range(3))
def test_verify_enright_fails_under_each_deliberate_mutation(monkeypatch, tag, kw, mutant):
    pair = make_pair(tag, **kw)
    name, fault = _enright_mutants(pair)[mutant]
    monkeypatch.setattr(pair, name, fault)
    for entry in pair.sigma_set(6):
        rep = pair.verify_enright(entry)
        assert not rep.passed and rep.first_mismatch is not None, (name, entry.partition, entry.sign)


@pytest.mark.parametrize("tag,kw", [("B", dict(m=1, n=2)), ("D2'", dict(m=2, n=1)), ("GL", dict(n=1, p=2, q=1))])
def test_enright_summands_rejects_a_singular_minimal_representative(monkeypatch, tag, kw):
    # a minimal representative never lands on a Levi-singular weight; the
    # weight 0 is singular for every Levi block with a root, so it must raise
    pair = make_pair(tag, **kw)
    entry = pair.sigma_set(2)[-1]
    honest = pair.enright
    zero = Weight.zero(pair.system.shape)
    monkeypatch.setattr(pair, "enright", lambda e: dataclasses.replace(honest(e), lam=zero))
    with pytest.raises(AssertionError):
        pair.enright_summands(entry)


@pytest.mark.parametrize("tag,kw", DUALITY_CASES)
def test_factored_characters_match_the_per_summand_route_byte_for_byte(tag, kw):
    # one Levi sum times one tail gives the very bytes of the route that
    # expands the tail for every summand, in both forms of l2_character, for
    # the Enright characters and for the assembled characters
    pair = make_pair(tag, **kw)
    sys_ = pair.system
    dump = lambda s: json.dumps(s.to_json(), sort_keys=True)
    for depth in (5, 8):
        T = window4(sys_, depth, top=-sys_.rho1)
        for entry in pair.sigma_set(depth):
            want = dump(reference_l2_character(pair, entry, T))
            assert dump(pair.l2_character(entry, depth)) == want, (depth, entry)
            assert dump(pair.enright_character(entry, depth)) == dump(reference_enright_character(pair, entry, T))
            shifted = T - pair.compact_character(entry).ceiling4
            want = dump(reference_l2_character(pair, entry, shifted))
            assert dump(pair.l2_character(entry, shifted, depth=False)) == want, (depth, entry)
        sides = [("assembled_character", pair.compact_character)]
        if isinstance(pair, D1Pair):
            sides.append(("assembled_x_character", pair.x_character))
        for name, finite in sides:
            got = dump(_d1_side(pair, name)(depth))
            assert got == dump(reference_assembled(pair, depth, finite)), (name, depth)


def test_enright_group_shapes():
    # the group is closed; the minimal representatives are the unique
    # shortest elements of the left cosets of the compact subgroup, and
    # those cosets partition the group.  B(1,2) has only trivial groups;
    # B(1,3) has groups of order 2, and GL(1;3,1) one of order 6 over a
    # compact subgroup of order 2.
    for tag, kw, nontrivial in [
        ("B", dict(m=1, n=2), False),
        ("B", dict(m=1, n=3), True),
        ("GL", dict(n=1, p=3, q=1), True),
    ]:
        pair = make_pair(tag, **kw)
        sh = pair.system.shape
        compact_roots = set(pair.s2_block.positive) & set(pair.levi_block.positive)
        orders = []
        for e in pair.sigma_set(4):
            data = pair.enright(e)
            group = set(data.group)
            orders.append(len(group))
            assert all(u.compose(v) in group for u in group for v in group)
            compact = enumerate_closure([reflection(a) for a in data.roots if a in compact_roots], sh)
            cosets = [{u.compose(r) for u in compact} for r in data.min_reps]
            assert sum(map(len, cosets)) == len(group) and set().union(*cosets) == group
            for r, coset in zip(data.min_reps, cosets):
                assert all(data.lengths[r] < data.lengths[x] for x in coset - {r})
            assert data.min_reps[0].is_identity() and data.lengths[data.min_reps[0]] == 0
            assert all(data.lengths[reflection(a)] % 2 == 1 for a in data.roots)
        assert (max(orders) > 1) == nontrivial, tag


def test_d1_rejects_torus_side():
    with pytest.raises(ValueError):
        make_pair("D1", m=1, n=2)


def test_theta_entry_json():
    pair = make_pair("GL", n=1, p=1, q=1)
    entry = pair.sigma_set(2)[0]
    doc = entry.to_json()
    assert doc["pair"] == "GL" and "compact_weight" in doc and "l2_lowest" in doc


def test_prop_gl_decomposition_routes_2111():
    # the partition-indexed decomposition of e^rho R-check for the
    # (U(1), U(1,1)) pair agrees with the sharp-subgroup grouped route and
    # with the direct product expansion, at depth 8
    from superdenom.rootdata import build_root_datum, positive_system, distinguished_order
    from superdenom.denominators import compare, lhs, window4
    from superdenom.series import CharSeries, f_sum_quotient
    from superdenom.weyl import reflection, signed_permutations

    pair = make_pair("GL", n=1, p=1, q=1)
    sys_ = pair.system
    sh = sys_.shape
    T = window4(sys_, 8)
    left = lhs(sys_, "sd", T)

    # partition route: V(a, b) = rho + eps(a,b) + mu(a,b), summed directly
    total = CharSeries.zero(sys_, T)
    bound = 40  # far beyond the window depth
    for a1 in range(0, bound):
        wt = sys_.rho + pair.compact_hw(((a1,), ())) + pair.mu(((a1,), ()))
        if sys_.ht4(wt) >= T:
            total = total + monomial(sys_, wt)
    for b1 in range(1, bound):
        wt = sys_.rho + pair.compact_hw(((), (b1,))) + pair.mu(((), (b1,)))
        if sys_.ht4(wt) >= T:
            total = total + monomial(sys_, wt)
    assert compare("partition route", repr(sys_), "", 8, left, total.truncate(T)).passed

    # grouped route: F-check over the sharp group of the single-arc quotient
    beta = Weight.eps(1, sh) - Weight.delta(1, sh)
    W = signed_permutations(sh, "e", [1, 2])
    grouped = f_sum_quotient(sys_, W, "sgn_prime", T, sys_.rho, geom=[(beta, 1)])
    assert compare("grouped route", repr(sys_), "", 8, left, grouped).passed


def test_gl_sigma_set_index_family_smallest_rank():
    # for (U(1), U(1,1)) the table is indexed by ((), ()) and the one-part
    # pairs ((k,), ()) and ((), (k,)), k = 1..b, each exactly once
    pair = make_pair("GL", n=1, p=1, q=1)
    for b in range(0, 5):
        entries = pair.sigma_set(b)
        keys = [e.partition for e in entries]
        want = [((), ())] + [((k,), ()) for k in range(1, b + 1)] + [((), (k,)) for k in range(1, b + 1)]
        assert sorted(keys) == sorted(want)
        for e in entries:
            assert e.sign == "none"
            assert e.l2_lowest == pair._l2_shift() + pair.mu(e.partition)


@pytest.mark.parametrize("n,p,q", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 2), (2, 0, 3)])
def test_gl_table_keys_are_the_filtered_partitions_in_order(n, p, q):
    # the keys built from partitions of s - k raised by one are those of the
    # filter on exact part counts, in the same order: theta-table bytes and
    # the benchmark's entry ids read that order
    pair = make_pair("GL", n=n, p=p, q=q)
    for size in range(8):
        want = [
            (a, b)
            for k in range(min(p, pair.d) + 1)
            for h in range(min(q, pair.d - k) + 1)
            for sa in range(size + 1)
            for a in partitions_at_most(k, sa)
            if exact_parts(a) == k
            for b in partitions_at_most(h, size - sa)
            if exact_parts(b) == h
        ]
        assert pair.table_keys(size) == want, size


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_d2_primed_is_the_s_eps_m_image_of_d2(m, n):
    # the primed pair carries -eps_m in the basis: its table, its L^2 lowest
    # weights and its flip-sum summands are the s_{eps_m} images of the
    # unprimed pair's, term for term; D(3,1) has a flip group of order 2
    plain, primed = make_pair("D2", m=m, n=n), make_pair("D2'", m=m, n=n)
    s = reflection(2 * Weight.eps(m, plain.system.shape))
    assert primed.system.rho1 == s.act(plain.system.rho1)
    entries, entries_p = plain.sigma_set(5), primed.sigma_set(5)
    assert len(entries) == len(entries_p)
    for e, ep in zip(entries, entries_p):
        assert ep.partition == e.partition and ep.sign == e.sign
        assert ep.l2_lowest == s.act(e.l2_lowest)
        assert ep.compact_weight == s.act(e.compact_weight)
        summands = plain.l2_summands(e)
        assert summands, e.partition
        assert primed.l2_summands(ep) == [(c, s.act(lam)) for c, lam in summands]


CROSS_DEPTH_PAIRS = [
    ("B", dict(m=1, n=1)),
    ("B", dict(m=1, n=2)),
    ("B", dict(m=2, n=1)),
    ("D2", dict(m=2, n=1)),
    ("D2'", dict(m=2, n=1)),
    ("D1", dict(m=2, n=1)),
    ("GL", dict(n=1, p=1, q=1)),
    ("GL", dict(n=2, p=1, q=1)),
]


@pytest.mark.parametrize("tag,kw", CROSS_DEPTH_PAIRS)
def test_assembled_characters_at_depth_d_restrict_those_at_depth_d_plus_3(tag, kw):
    pair = make_pair(tag, **kw)
    sys_ = pair.system
    sides = [pair.assembled_character]
    if isinstance(pair, D1Pair):
        sides.append(_d1_side(pair, "assembled_x_character"))
    for depth in (0, 2, 4):
        T = window4(sys_, depth, top=-sys_.rho1)
        for side in sides:
            narrow, wide = side(depth), side(depth + 3).truncate(T)
            assert narrow.threshold4 == wide.threshold4 == T
            assert narrow.terms == wide.terms, (tag, kw, depth, sides.index(side))
            assert narrow.terms


# sha256 of the compact JSON of each table at bound 6, and its length
TABLE_DIGESTS = [
    ("B", dict(m=1, n=2), "f728c0cdc4de8840a07f505a0a500aef9848b5b355ab0c94db136594980bb8c6", 13),
    ("D1", dict(m=2, n=2), "35993273918b4dcfba3b03b83c8a94cdfdac32e34d9ae3b668878e83ba5b6153", 16),
    ("D2", dict(m=2, n=1), "3ef53749aa5094116b2143351b91f186deec4add181a462a541abf2536273298", 7),
    ("D2'", dict(m=2, n=1), "218066d81da9b479be00c33e1194df132d0be1b8efb6acb268972111e78e61f4", 7),
    ("GL", dict(n=2, p=1, q=1), "91f5df4d496d3e708503b4c0abb1e4476a6ff897190bb17b2a874854a27afbc7", 28),
]


@pytest.mark.parametrize("tag,kw,digest,count", TABLE_DIGESTS)
def test_theta_table_bytes_are_pinned(tag, kw, digest, count):
    entries = make_pair(tag, **kw).sigma_set(6)
    doc = json.dumps([e.to_json() for e in entries], sort_keys=True, separators=(",", ":"))
    assert len(entries) == count
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


BLOCK_PAIRS = [
    ("B", dict(m=1, n=1)),
    ("B", dict(m=1, n=3)),
    ("B", dict(m=2, n=2)),
    ("D1", dict(m=2, n=1)),
    ("D1", dict(m=3, n=2)),
    ("D2", dict(m=2, n=1)),
    ("D2", dict(m=3, n=1)),
    ("D2'", dict(m=3, n=1)),
    ("D2'", dict(m=3, n=2)),
    ("GL", dict(n=2, p=1, q=2)),
]


@pytest.mark.parametrize("tag,kw", [("B", dict(m=1, n=2)), ("GL", dict(n=2, p=1, q=1))])
def test_the_assembly_straightens_each_levi_sum_once(monkeypatch, tag, kw):
    # the table assembly reads each entry's Levi sum through one division,
    # which straightens it: no straighten call, and one _basis call on the
    # Levi block per table entry (after a first walk, so that the block's
    # denominator, which _basis also straightens, is built)
    pair = make_pair(tag, **kw)
    assert pair.verify_duality(8).passed
    honest, seen = series._basis, []

    def spy(block, tops, bits):
        if block is pair.levi_block:
            seen.append(len(tops))
        return honest(block, tops, bits)

    def refuse(*args, **kwargs):
        raise AssertionError("straighten called by the table assembly")

    monkeypatch.setattr(series, "_basis", spy)
    monkeypatch.setattr(theta, "straighten", refuse)
    assert pair.verify_duality(8).passed
    assert len(seen) == len(pair.sigma_set(8))


def test_a_finite_factor_above_the_entry_top_raises(monkeypatch):
    # a compact factor one compact root above the entry's compact weight
    # tops above the Levi sum's cut: the assembly refuses it
    pair = make_pair("B", m=1, n=2)
    ht4 = pair.system.ht4
    root = max(pair.compact_block.positive, key=ht4)

    def raised(entry, cut4=None):
        return weyl_character(pair.compact_block, [(1, entry.compact_weight + root)], cut4)

    monkeypatch.setattr(pair, "compact_character", raised)
    with pytest.raises(AssertionError, match="finite factor"):
        pair.verify_duality(8)


def test_a_pair_builds_its_s2_group_only_when_it_is_read(monkeypatch):
    # the duality and Enright checks read the s2 block's roots and rho, not
    # its elements: D1(2,4)'s 384 are not enumerated until asked for
    sizes, honest = [], theta.signed_permutations

    def counted(*args, **kwargs):
        out = honest(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(theta, "signed_permutations", counted)
    pair = make_pair("D1", m=2, n=4)
    assert pair.verify_duality(4).passed
    assert all(pair.verify_enright(entry).passed for entry in pair.sigma_set(3))
    assert 384 not in sizes
    assert len(pair.s2_block.elements) == 384 and sizes[-1] == 384


@pytest.mark.parametrize("tag,kw", BLOCK_PAIRS)
def test_each_block_is_the_group_its_roots_generate(tag, kw):
    # the element lists are built by construction; each must be the closure
    # of the reflections in the block's own positive roots, and the flips,
    # the Enright groups and the nilradical must live in the s2 block
    pair = make_pair(tag, **kw)
    sh = pair.system.shape
    for name in ("s2_block", "levi_block", "compact_block"):
        block = getattr(pair, name)
        assert block.elements == enumerate_closure([reflection(a) for a in block.positive], sh), name
    s2_group = set(pair.s2_block.elements)
    for entry in pair.sigma_set(4):
        assert set(pair.flip_set(entry.partition)) <= s2_group, entry.partition
        assert set(pair.enright(entry).group) <= s2_group, entry.partition
    levi = set(pair.levi_block.positive)
    assert pair.nilradical == [a for a in pair.s2_block.positive if a not in levi]


# every pair of the benchmark's theta workload, and D1(3,2)
MEMO_PAIRS = DUALITY_CASES + [
    ("B", dict(m=2, n=2)), ("D2", dict(m=2, n=2)), ("GL", dict(n=2, p=2, q=1)), ("D1", dict(m=3, n=2)),
]
SERIES_FIELDS = ("packed", "bound", "bits", "threshold4", "ceiling4")


def test_a_table_entry_is_frozen():
    # entries are shared between the pair's memo and every caller
    entry = make_pair("B", m=1, n=2).sigma_set(2)[-1]
    for name, value in [("sign", "-"), ("partition", (9,)), ("l2_lowest", entry.compact_weight)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(entry, name, value)


def _series_fields(s):
    return [getattr(s, name) for name in SERIES_FIELDS]


@pytest.mark.parametrize("tag,kw", MEMO_PAIRS)
def test_the_pair_memo_keeps_what_a_fresh_pair_computes(tag, kw):
    # after a duality check and the threshold form of every entry's L^2
    # character, the kept table, flip sums, tails and oscillator equal a
    # fresh pair's computation of each
    pair, fresh = make_pair(tag, **kw), make_pair(tag, **kw)
    assert pair.verify_duality(8).passed
    T = pair._window(8)
    for entry in pair.sigma_set(8):
        pair.l2_character(entry, T - pair.compact_character(entry).ceiling4, depth=False)
    sys_ = fresh.system
    assert pair.sigma_set(8) == fresh._table(8)
    kept = {}
    for (build, key), value in pair._kept.items():
        kept.setdefault(build.__name__, {})[key] = value
    assert set(kept) >= {"_table", "_flip_sum", "_tail", "_oscillator"}, sorted(kept)
    for (entry,), summands in kept["_flip_sum"].items():
        assert pair.l2_summands(entry) == summands == fresh._flip_sum(entry), entry.partition
    zero, nil = Weight.zero(sys_.shape), [(b, 1) for b in fresh.nilradical]
    for (cut4,), tail in kept["_tail"].items():
        assert _series_fields(tail) == _series_fields(series.product_expansion(sys_, cut4, zero, geom=nil)), cut4
    osc = series.product_expansion(sys_, T, -sys_.rho1, geom=[(a, 1) for a in sys_.positive_odd])
    assert _series_fields(pair.oscillator_character(8)) == _series_fields(osc)
    assert list(kept["_oscillator"]) == [(8,)]


@pytest.mark.parametrize("tag,kw", MEMO_PAIRS)
def test_a_caller_cannot_change_what_the_pair_keeps(tag, kw):
    # every list the memo hands out is a new list: changing one changes
    # neither the next call's result nor the duality verdict
    pair, fresh = make_pair(tag, **kw), make_pair(tag, **kw)
    table = pair.sigma_set(8)
    entry = table[-1]
    summands, flips = pair.l2_summands(entry), pair.flip_set(entry.partition)
    table.reverse()
    table.pop()
    summands[0] = (-summands[0][0], summands[0][1])
    summands.append((1, entry.l2_lowest))
    flips.clear()
    assert pair.sigma_set(8) == fresh.sigma_set(8)
    assert pair.l2_summands(entry) == fresh.l2_summands(entry)
    assert pair.flip_set(entry.partition) == fresh.flip_set(entry.partition)
    assert pair.verify_duality(8).passed


def test_a_second_duality_check_expands_nothing(monkeypatch):
    # the oscillator and every tail are kept from the first check: the
    # second divides its finite sums again and expands no product
    pair = make_pair("B", m=1, n=2)
    assert pair.verify_duality(8).passed

    def refuse(*args, **kwargs):
        raise AssertionError("a product was expanded again")

    monkeypatch.setattr(theta, "product_expansion", refuse)
    assert pair.verify_duality(8).passed
