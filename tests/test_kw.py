from fractions import Fraction

import pytest

import superdenom.kw as kw
from superdenom.weights import Weight, inner
from superdenom.kw import (
    atypicality,
    natural_supercharacter,
    base_system,
    gamma_chain,
    stated_constants,
    verify_chv,
    verify_xx,
    verify_kwfor,
    kw_systems,
    kw_condition_roots,
    highest_weight,
)

INSTANCES = [("GL", 2, 1), ("GL", 2, 2), ("GL", 3, 2), ("B", 2, 1), ("D", 2, 1), ("D", 2, 2)]


def w(sh, **kw):
    acc = Weight.zero(sh)
    for key, c in kw.items():
        kind, idx = key[0], int(key[1:])
        base = Weight.eps(idx, sh) if kind == "e" else Weight.delta(idx, sh)
        acc = acc + c * base
    return acc


def test_atypicality():
    assert atypicality("GL", 2, 1) == 1
    assert atypicality("GL", 3, 2) == 2
    assert atypicality("D", 2, 2) == 1
    assert atypicality("B", 2, 1) == 1


def test_supercharacter_gl21():
    system = base_system("GL", 2, 1)
    sch = natural_supercharacter("GL", 2, 1, system)
    sh = (2, 1)
    assert sch.terms == {w(sh, e1=1): 1, w(sh, e2=1): 1, w(sh, d1=1): -1}


def test_supercharacter_b21_brute_force():
    # weights of the osp(5,2) natural module: +-eps_i, 0 on the even side and
    # +-delta_1 with negative super-dimension on the odd side
    system = base_system("B", 2, 1)
    sch = natural_supercharacter("B", 2, 1, system)
    sh = (2, 1)
    expected = {Weight.zero(sh): 1}
    for i in (1, 2):
        expected[w(sh, **{f"e{i}": 1})] = 1
        expected[w(sh, **{f"e{i}": -1})] = 1
    expected[w(sh, d1=1)] = -1
    expected[w(sh, d1=-1)] = -1
    assert sch.terms == expected


def test_supercharacter_d21():
    system = base_system("D", 2, 1)
    sch = natural_supercharacter("D", 2, 1, system)
    sh = (2, 1)
    assert sch.terms == {
        w(sh, e1=1): 1, w(sh, e1=-1): 1, w(sh, e2=1): 1, w(sh, e2=-1): 1,
        w(sh, d1=1): -1, w(sh, d1=-1): -1,
    }


def test_b_with_equal_ranks_rejected():
    with pytest.raises(ValueError):
        natural_supercharacter("B", 2, 2, base_system("GL", 2, 2))


@pytest.mark.parametrize("fam,m,n,condition", [
    ("GL", 1, 2, "m >= n"),
    ("B", 2, 2, "m > n"),
    ("D", 1, 2, "m >= n"),
])
def test_uncovered_ranks_rejected_before_the_chain(fam, m, n, condition):
    for check in (verify_chv, verify_xx, verify_kwfor):
        with pytest.raises(ValueError, match=condition):
            check(fam, m, n, depth=4)


def test_gamma_chain():
    sh = (3, 2)
    assert gamma_chain("GL", 3, 2) == [
        w(sh, e3=1, d1=-1), w(sh, e2=1, d2=-1)
    ]
    sh22 = (2, 2)
    assert gamma_chain("GL", 2, 2) == [w(sh22, e2=1, d1=-1)]  # m = n drops one


def test_gamma_is_orthogonal_to_shifted_highest_weight():
    for fam, m, n in INSTANCES:
        system = base_system(fam, m, n)
        lam = Weight.eps(1, (m, n))
        for g in gamma_chain(fam, m, n):
            assert inner(system.rho + lam, g) == 0
            assert inner(g, g) == 0


def test_constants():
    c, jv = stated_constants("GL", 2, 1)
    assert (c, jv) == (1, 1)
    c, jv = stated_constants("B", 2, 1)
    assert (c, jv) == (Fraction(1, 2), Fraction(1, 2))
    c, jv = stated_constants("D", 2, 2)
    assert (c, jv) == (1, Fraction(1, 2))


@pytest.mark.parametrize("fam,m,n", INSTANCES)
def test_chv(fam, m, n):
    rep = verify_chv(fam, m, n, 6)
    assert rep.passed and rep.fitted == rep.stated


@pytest.mark.parametrize("fam,m,n", INSTANCES)
def test_xx(fam, m, n):
    rep = verify_xx(fam, m, n, 6)
    assert rep.passed


@pytest.mark.parametrize("fam,m,n", INSTANCES)
def test_kwfor(fam, m, n):
    rep = verify_kwfor(fam, m, n, depth=6)
    assert rep.passed
    assert rep.fitted == rep.stated  # the fitted constant is b = j_V / atp!


def test_kwfor_same_b_across_systems():
    systems = kw_systems("GL", 3, 2)
    assert len(systems) >= 2
    values = set()
    for system, betas in systems[:3]:
        rep = verify_kwfor("GL", 3, 2, system=system, depth=6)
        assert rep.passed
        values.add(rep.fitted)
    assert len(values) == 1


def test_kw_condition_search():
    system = base_system("GL", 3, 2)
    sch = natural_supercharacter("GL", 3, 2, system)
    lam = highest_weight(system, sch)
    assert lam == Weight.eps(1, (3, 2))
    # the base order itself has non-simple Gamma, so the condition fails there
    assert kw_condition_roots(system, lam, 2) is None
    found = kw_systems("GL", 3, 2)
    for sys_, betas in found:
        assert len(betas) == 2
        for b in betas:
            assert inner(sys_.rho + highest_weight(sys_, natural_supercharacter("GL", 3, 2, sys_)), b) == 0


def test_fitted_b_values_documented():
    # the per-family values behind the cross-instance comparison
    expect = {
        ("GL", 2, 1): Fraction(1),
        ("GL", 2, 2): Fraction(1),
        ("GL", 3, 2): Fraction(1, 2),
        ("B", 2, 1): Fraction(1, 2),
        ("D", 2, 1): Fraction(1),
        ("D", 2, 2): Fraction(1, 2),
    }
    for (fam, m, n), val in expect.items():
        rep = verify_kwfor(fam, m, n, depth=6)
        assert rep.fitted == val, (fam, m, n, rep.fitted)


def test_each_check_fails_without_the_identity_element(monkeypatch):
    full = kw.full_weyl
    monkeypatch.setattr(kw, "full_weyl", lambda datum: [w for w in full(datum) if not w.is_identity()])
    for fam, m, n in INSTANCES:
        assert not verify_chv(fam, m, n, 6).passed, (fam, m, n)
        assert not verify_kwfor(fam, m, n, depth=6).passed, (fam, m, n)
        # on GL(2,1) [[gamma_1]] = eps_2 - delta_1 is itself a positive odd
        # root, so each summand of xx collapses to e^{w(rho_0+eps_1)} -
        # e^{w(rho_0+delta_1)} and the identity holds element by element
        assert verify_xx(fam, m, n, 6).passed == ((fam, m, n) == ("GL", 2, 1)), (fam, m, n)


def test_each_check_fails_with_j_v_doubled(monkeypatch):
    stated = kw.stated_constants
    fitted = {
        (check.__name__, inst): check(*inst, depth=6).fitted
        for check in (verify_chv, verify_xx, verify_kwfor)
        for inst in INSTANCES
    }

    def doubled(family, m, n):
        c, jv = stated(family, m, n)
        return c, 2 * jv

    monkeypatch.setattr(kw, "stated_constants", doubled)
    for (name, inst), value in fitted.items():
        rep = getattr(kw, name)(*inst, depth=6)
        assert not rep.passed and rep.fitted == value, (name, inst)
