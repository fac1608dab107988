"""Character identities for the natural representation.

For gl(m,n) and D(m,n) with m >= n, and B(m,n) with m > n, the
supercharacter of the natural module V satisfies

    e^rho Ř sch V = j_V * F-check_W( e^{rho + eps_1} / prod_{gamma in Gamma} (1 - e^{-[[gamma]]}) )

over the order eps_1 > ... > eps_m > delta_1 > ... > delta_n, where Gamma is
the chain gamma_i = eps_{m+1-i} - delta_i (dropping gamma_n when m = n) and
[[gamma_j]] = gamma_1 + ... + gamma_j.  Transporting to any simple system
containing atp(V) mutually orthogonal isotropic roots beta_i orthogonal to
rho + Lambda gives the highest-weight form

    e^rho Ř sch V = b * F-check_W( e^{rho + Lambda} / prod (1 - e^{-beta_i}) )

with b = j_V / atp(V)!.  Every identity is checked by fitting the constant
from the series and verifying exact proportionality on the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .weights import Weight, inner, is_isotropic
from .rootdata import build_root_datum, standard_order, positive_system, PositiveSystem, all_basis_orders
from .weyl import full_weyl
from .series import CharSeries, f_sum_quotient
from .denominators import (
    lhs,
    window4,
    c_g,
    choose_expansion_system,
)


def atypicality(family: str, m: int, n: int) -> int:
    return min(m - 1, n)


def _check_rank(family: str, m: int, n: int) -> None:
    """Reject the families and ranks that the natural-module identities do not
    cover: gl and D need m >= n, B needs m > n."""
    family = family.upper()
    if family not in ("GL", "B", "D"):
        raise ValueError("natural-module identities cover GL, B, D")
    if m < n or (family == "B" and m == n):
        cond = "m > n" if family == "B" else "m >= n"
        raise ValueError(f"the {family}-type natural-module identities need {cond}")


def natural_supercharacter(family: str, m: int, n: int, system: PositiveSystem) -> CharSeries:
    """Finite supercharacter of the natural module (super-dimension signs)."""
    _check_rank(family, m, n)
    family = family.upper()
    sh = (m, n)
    signs = (1,) if family == "GL" else (1, -1)
    terms = {s * Weight.eps(i, sh): 1 for i in range(1, m + 1) for s in signs}
    if family == "B":
        terms[Weight.zero(sh)] = 1
    terms.update({s * Weight.delta(j, sh): -1 for j in range(1, n + 1) for s in signs})
    ceiling = max(system.ht4(w) for w in terms)
    return CharSeries(system, terms, None, ceiling)


def base_system(family: str, m: int, n: int) -> PositiveSystem:
    return positive_system(
        build_root_datum(family, m, n), standard_order(family, m, n, "e" * m + "d" * n)
    )


def gamma_chain(family: str, m: int, n: int) -> list[Weight]:
    _check_rank(family, m, n)
    sh = (m, n)
    count = n - 1 if m == n else n
    return [Weight.eps(m + 1 - i, sh) - Weight.delta(i, sh) for i in range(1, count + 1)]


def stated_constants(family: str, m: int, n: int) -> tuple[Fraction, Fraction]:
    """(c, j_V) with c = atp! / C_{g'}.

    j_V equals c itself (halved in the D(m,m) case where the doubled Weyl
    orbit of the top term folds in an extra copy); this value is pinned by
    the exact series fits at every rank checked, see the B(m,n) instances
    where c is not self-inverse.
    """
    family = family.upper()
    atp = atypicality(family, m, n)
    sub = build_root_datum(family, m - 1, n)
    c = Fraction(factorial(atp), c_g(sub))
    jv = c / 2 if (family == "D" and m == n) else c
    return c, jv


@dataclass
class KWReport:
    identity: str
    family: str
    m: int
    n: int
    depth: int
    passed: bool
    fitted: Fraction | None
    stated: Fraction
    atp: int

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "family": self.family,
            "m": self.m,
            "n": self.n,
            "depth": self.depth,
            "verdict": "pass" if self.passed else "fail",
            "fitted_constant": None if self.fitted is None else str(self.fitted),
            "stated_constant": str(self.stated),
        }


def _bracket_setup(family: str, m: int, n: int):
    """The Weyl group, the bracket chain [[gamma_j]] = gamma_1 + ... + gamma_j
    and a system whose expansion functional separates all their Weyl images."""
    system = base_system(family, m, n)
    brackets = []
    acc = Weight.zero((m, n))
    for g in gamma_chain(family, m, n):
        acc = acc + g
        brackets.append(acc)
    W = full_weyl(system.datum)
    images = [w.act(b) for w in W for b in brackets]
    return choose_expansion_system(system, images), W, brackets


def _fit_report(
    identity: str, family: str, m: int, n: int, depth: int, left: CharSeries, right: CharSeries, stated: Fraction
) -> KWReport:
    """Fit left = c * right on the common window (c is None when no constant
    fits) and compare c with the stated constant."""
    t = left.window_threshold(right)
    ht4 = left.system.ht4
    window = [w for w, c in right.terms.items() if c and (t is None or ht4(w) >= t)]
    fitted = None
    if window:
        probe = max(window, key=lambda w: (ht4(w), w.coords2))
        ratio = Fraction(left.coeff(probe), right.coeff(probe))
        fitted = ratio if not right.mismatches(left, ratio) else None
    return KWReport(identity, family, m, n, depth, fitted == stated, fitted, stated, atypicality(family, m, n))


def verify_chv(family: str, m: int, n: int, depth: int = 8) -> KWReport:
    """The bracket-denominator form of the supercharacter identity."""
    sys_, W, brackets = _bracket_setup(family, m, n)
    T = window4(sys_, depth)
    sch = natural_supercharacter(family, m, n, sys_)
    left = (lhs(sys_, "sd", T - sch.ceiling4) * sch).truncate(T)
    lam = Weight.eps(1, (m, n))
    right = f_sum_quotient(
        sys_, W, "sgn_prime", T, sys_.rho + lam, geom=[(b, 1) for b in brackets]
    )
    return _fit_report("chv", family, m, n, depth, left, right, stated_constants(family, m, n)[1])


def verify_xx(family: str, m: int, n: int, depth: int = 8) -> KWReport:
    """The even-Weyl-group intermediate identity behind the supercharacter
    formula: the alternating sum of e^{rho_0+eps_1} - e^{rho_0+delta_1}
    against the odd-denominator quotient."""
    sys_, W, brackets = _bracket_setup(family, m, n)
    lam = Weight.eps(1, (m, n))
    top = sys_.rho0 + lam
    T = window4(sys_, depth, top=top)
    left = f_sum_quotient(sys_, W, "sgn", T, top)
    left = left + f_sum_quotient(sys_, W, "sgn", T, sys_.rho0 + Weight.delta(1, (m, n)), coeff=-1)
    right = f_sum_quotient(
        sys_,
        W,
        "sgn",
        T,
        top,
        geom=[(b, 1) for b in brackets],
        poly=[(a, 1) for a in sys_.positive_odd],
    )
    return _fit_report("xx", family, m, n, depth, left, right, stated_constants(family, m, n)[1])


def kw_condition_roots(system: PositiveSystem, lam: Weight, atp: int) -> list[Weight] | None:
    """atp mutually orthogonal isotropic simple roots orthogonal to rho+lam."""
    cands = [
        b
        for b in system.simple_roots
        if is_isotropic(b) and inner(system.rho + lam, b) == 0
    ]
    chosen: list[Weight] = []

    def extend(start: int) -> bool:
        if len(chosen) == atp:
            return True
        for i in range(start, len(cands)):
            b = cands[i]
            if all(inner(b, c) == 0 for c in chosen):
                chosen.append(b)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    return chosen if extend(0) else None


def highest_weight(system: PositiveSystem, sch: CharSeries) -> Weight:
    return max(sch.terms, key=lambda w: (system.ht4(w), w.coords2))


def _condition_systems(family: str, m: int, n: int):
    """Yield (system, betas), order by order, for the systems satisfying the
    orthogonality condition; a caller that needs one stops at the first."""
    atp = atypicality(family, m, n)
    for order in all_basis_orders(family, m, n):
        system = positive_system(build_root_datum(family, m, n), order)
        sch = natural_supercharacter(family, m, n, system)
        lam = highest_weight(system, sch)
        if m == n and lam != Weight.eps(1, (m, n)):
            continue
        betas = kw_condition_roots(system, lam, atp)
        if betas is not None:
            yield system, betas


def kw_systems(family: str, m: int, n: int) -> list[tuple[PositiveSystem, list[Weight]]]:
    """Positive systems satisfying the highest-weight orthogonality condition
    for the natural module, with their isotropic root sets."""
    return list(_condition_systems(family, m, n))


def verify_kwfor(
    family: str,
    m: int,
    n: int,
    system: PositiveSystem | None = None,
    depth: int = 8,
) -> KWReport:
    """The highest-weight form over a system satisfying the orthogonality
    condition; checks the constant b = j_V / atp!."""
    atp = atypicality(family, m, n)
    betas = None
    if system is None:
        system, betas = next(_condition_systems(family, m, n), (None, None))
        if system is None:
            raise ValueError("no simple system satisfies the orthogonality condition")
    sch = natural_supercharacter(family, m, n, system)
    lam = highest_weight(system, sch)
    if betas is None:
        betas = kw_condition_roots(system, lam, atp)
        if betas is None:
            raise ValueError("the given system does not satisfy the orthogonality condition")
    T = window4(system, depth)
    left = (lhs(system, "sd", T - sch.ceiling4) * sch).truncate(T)
    W = full_weyl(system.datum)
    right = f_sum_quotient(
        system, W, "sgn_prime", T, system.rho + lam, geom=[(b, 1) for b in betas]
    )
    _, jv = stated_constants(family, m, n)
    return _fit_report("kwfor", family, m, n, depth, left, right, jv / factorial(atp))
