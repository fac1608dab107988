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

with b = j_V / atp(V)!.  Both are a ``WeylSum`` of the shape the
``denominators`` identities have, so ``_sch_check`` runs them on that path:
``_separating_system`` chooses the functional, ``lhs`` gives e^rho Ř, and
``compare`` judges the constant fitted from the series on the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import factorial

from .weights import Weight, inner, is_isotropic
from .rootdata import build_root_datum, standard_order, positive_system, PositiveSystem, all_basis_orders
from .weyl import full_weyl
from .series import CharSeries
from .denominators import WeylSum, _separating_system, c_g, compare, lhs, window4


def atypicality(family: str, m: int, n: int) -> int:
    return min(m - 1, n)


def _check_rank(family: str, m: int, n: int) -> None:
    """Reject the families and ranks that the natural-module identities do not
    cover: gl and D need m >= n, B needs m > n.  The stated constant is read
    off the algebra of rank (m - 1, n), so gl also needs m + n >= 2 and D
    needs m >= 2 (at D(1,1) the fit is 1 against a stated 1/2)."""
    family = family.upper()
    if family not in ("GL", "B", "D"):
        raise ValueError("natural-module identities cover GL, B, D")
    if m < n or (family == "B" and m == n):
        cond = "m > n" if family == "B" else "m >= n"
        raise ValueError(f"the {family}-type natural-module identities need {cond}")
    if (family == "GL" and m + n < 2) or (family == "D" and m < 2):
        cond = "m + n >= 2" if family == "GL" else "m >= 2"
        raise ValueError(f"the {family}-type natural-module identities need {cond}, got {family}({m},{n})")


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


def _fit_report(
    identity: str, family: str, m: int, n: int, depth: int, left: CharSeries, right: CharSeries, stated: Fraction
) -> KWReport:
    """Fit left = c * right on the common window (c is None when no constant
    fits, as judged by ``compare``) and compare c with the stated constant."""
    t = left.window_threshold(right)
    window = list((right if t is None else right.truncate(t)).terms)
    fitted = None
    if window:
        ht4 = left.system.ht4
        probe = max(window, key=lambda w: (ht4(w), w.coords2))
        ratio = Fraction(left.coeff(probe), right.coeff(probe))
        if compare(identity, f"{family}({m},{n})", "", depth, right, left, ratio).passed:
            fitted = ratio
    return KWReport(identity, family, m, n, depth, fitted == stated, fitted, stated, atypicality(family, m, n))


def _sch_check(
    identity: str, family: str, m: int, n: int, system: PositiveSystem, spec: WeylSum, depth: int, stated: Fraction
) -> KWReport:
    """Fit e^rho Ř sch V against the signed Weyl sum ``spec`` on a system
    whose functional separates its denominator exponents."""
    system = _separating_system(system, [spec])
    T = window4(system, depth)
    sch = natural_supercharacter(family, m, n, system)
    left = (lhs(system, "sd", T - sch.ceiling4) * sch).truncate(T)
    return _fit_report(identity, family, m, n, depth, left, spec.expand(system, T), stated)


def verify_chv(family: str, m: int, n: int, depth: int = 8) -> KWReport:
    """The bracket-denominator form of the supercharacter identity."""
    system = base_system(family, m, n)
    brackets = accumulate(gamma_chain(family, m, n))
    lam = Weight.eps(1, (m, n))
    spec = WeylSum(full_weyl(system.datum), "sgn_prime", system.rho + lam, [(b, 1) for b in brackets])
    return _sch_check("chv", family, m, n, system, spec, depth, stated_constants(family, m, n)[1])


def verify_xx(family: str, m: int, n: int, depth: int = 8) -> KWReport:
    """The even-Weyl-group intermediate identity behind the supercharacter
    formula: the alternating sum of e^{rho_0+eps_1} - e^{rho_0+delta_1} =
    e^{rho_0+eps_1}(1 - e^{-(eps_1-delta_1)}) against the odd-denominator quotient."""
    system = base_system(family, m, n)
    geom = [(b, 1) for b in accumulate(gamma_chain(family, m, n))]
    W = full_weyl(system.datum)
    top = system.rho0 + Weight.eps(1, (m, n))
    right = WeylSum(W, "sgn", top, geom, poly=[(a, 1) for a in system.positive_odd])
    system = _separating_system(system, [right])
    T = window4(system, depth, top=top)
    left = WeylSum(W, "sgn", top, [], poly=[(Weight.eps(1, (m, n)) - Weight.delta(1, (m, n)), 1)]).expand(system, T)
    return _fit_report("xx", family, m, n, depth, left, right.expand(system, T), stated_constants(family, m, n)[1])


def kw_condition_roots(system: PositiveSystem, lam: Weight, atp: int) -> list[Weight] | None:
    """atp mutually orthogonal isotropic simple roots orthogonal to rho+lam:
    the first such set, in the order of the simple roots, or None."""
    cands = [b for b in system.simple_roots if is_isotropic(b) and inner(system.rho + lam, b) == 0]
    sets = (list(c) for c in combinations(cands, atp) if all(inner(a, b) == 0 for a, b in combinations(c, 2)))
    return next(sets, None)


def highest_weight(system: PositiveSystem, sch: CharSeries) -> Weight:
    return max(sch.terms, key=lambda w: (system.ht4(w), w.coords2))


def _condition(family: str, m: int, n: int, system: PositiveSystem) -> tuple[Weight, list[Weight]] | None:
    """(lam, betas) when the system satisfies the orthogonality condition, else
    None: lam is the natural module's highest weight, which must be eps_1 when
    m = n, and betas are its ``kw_condition_roots``."""
    lam = highest_weight(system, natural_supercharacter(family, m, n, system))
    if m == n and lam != Weight.eps(1, (m, n)):
        return None
    betas = kw_condition_roots(system, lam, atypicality(family, m, n))
    return None if betas is None else (lam, betas)


def _condition_systems(family: str, m: int, n: int):
    """(system, lam, betas) for each basis order whose positive system
    satisfies the orthogonality condition, in the order of the basis orders,
    each built only when asked for."""
    datum = build_root_datum(family, m, n)
    for order in all_basis_orders(family, m, n):
        system = positive_system(datum, order)
        found = _condition(family, m, n, system)
        if found is not None:
            yield system, *found


def kw_systems(family: str, m: int, n: int) -> list[tuple[PositiveSystem, list[Weight]]]:
    """Positive systems satisfying the highest-weight orthogonality condition
    for the natural module, order by order, with their isotropic root sets."""
    return [(system, betas) for system, _, betas in _condition_systems(family, m, n)]


def verify_kwfor(
    family: str,
    m: int,
    n: int,
    system: PositiveSystem | None = None,
    depth: int = 8,
) -> KWReport:
    """The highest-weight form over a system satisfying the orthogonality
    condition (by default the first one, whose search stops there); checks
    the constant b = j_V / atp!."""
    if system is None:
        first = next(_condition_systems(family, m, n), None)
        if first is None:
            raise ValueError("no simple system satisfies the orthogonality condition")
        system, lam, betas = first
    else:
        found = _condition(family, m, n, system)
        if found is None:
            raise ValueError("the given system does not satisfy the orthogonality condition")
        lam, betas = found
    spec = WeylSum(full_weyl(system.datum), "sgn_prime", system.rho + lam, [(b, 1) for b in betas])
    stated = stated_constants(family, m, n)[1] / factorial(atypicality(family, m, n))
    return _sch_check("kwfor", family, m, n, system, spec, depth, stated)
