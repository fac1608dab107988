"""Both sides of the denominator / superdenominator identities.

Every identity but glkk has the form

    e^rho R (kind d) or e^rho Ř (kind sd) = C * sum over w in U of
        sign(w) w(e^lambda / prod (1 - s e^{-beta})),

and a ``WeylSum`` records what varies between identity sides: the group U,
the sign (sgn or sgn'), the leading exponent lambda (with an optional integer
coefficient), the exponents beta with their signs s, the finite factors
(1 - s e^{-b}) in ``poly``, and the constant C.  The left side is the record
over the trivial group with the even roots as ``poly``, and so are both
sides of the odd reflection; glkk puts its W-invariant factor in ``poly``.
``right_side`` builds the right side of each kind:

* kwg-d / kwg-sd     : U = W#, simple isotropic denominators S
* princ-d / princ-sd : U = W_g with bracket exponents and the constant
                       C = C_g / prod (ht(gamma)+1)/2
* mm-d / mm-sd       : U = W#, the open-bracket shift in lambda and simple
                       denominators over S
* migliore           : U = W_0 = Z W_B' W#(B') with bracket exponents and
                       C = C_g / (|T| prod (ht(gamma)+1)/2)
* seconda-sd         : B(m,n) distinguished order, U = W(A_{n-1}) x {delta
                       flips on the first n-d} x W(B_m), bracket exponents
* seconda-d2-sd      : D(m,n) D2 order, U = W(A_{m-1}) x {even eps flips on
                       the first m-d} x W(C_n), bracket exponents
* seconda-w1-sd      : D(m,n) D2 order with m > n, the same sum over the
                       product group W_1
* glkk               : the gl(k,k) lemma relating the two all-isotropic sums

The three seconda kinds are the compact dual pair specializations of the
master identity; they are claimed only on their distinguished order, and
``right_side`` rejects every other one.  Kinds ending in ``-d`` equate
e^rho R, every other kind e^rho Ř.

Every check, here and in ``theta``, reports through ``compare``, which
compares truncated series coefficient-exactly on the intersection window;
nothing is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .weights import Weight, inner, is_isotropic, weight_sum
from .rootdata import (
    EPS_BLOCK,
    FAMILY_BLOCKS,
    RootDatum,
    PositiveSystem,
    block_weyl,
    build_root_datum,
    distinguished_order,
    positive_system,
    standard_order,
)
from .weyl import (
    WeylElement,
    full_weyl,
    sharp_subgroup,
    reflection,
    coset_reps,
    product_set,
    signed_permutations,
)
from .series import CharSeries, HeightZeroExponent, f_sum_quotient
from .diagrams import ArcDiagram

IDENTITY_KINDS = (
    "kwg-d", "kwg-sd", "princ-d", "princ-sd", "mm-d", "mm-sd", "migliore",
    "seconda-sd", "seconda-d2-sd", "seconda-w1-sd", "glkk",
)


def _flavor(kind: str) -> str:
    """The left side of identity ``kind``: "d" for e^rho R, "sd" for e^rho Ř."""
    return "d" if kind.endswith("-d") else "sd"


def c_g(datum: RootDatum) -> int:
    """|W_g / W#|: the order of the Weyl group of the even block that W# does
    not act on."""
    eps_type, delta_type, _ = FAMILY_BLOCKS[datum.family]
    other, size = (delta_type, datum.n) if datum.dual_coxeter_sign == EPS_BLOCK else (eps_type, datum.m)
    return block_weyl(other, size)[1]


def princ_constant(system: PositiveSystem, X: ArcDiagram) -> Fraction:
    """C = C_g / prod over gamma in S(X) of (ht(gamma)+1)/2."""
    c = Fraction(c_g(system.datum))
    for gamma in X.isotropic_set():
        c /= Fraction(system.height(gamma) + 1, 2)
    return c


def window4(system: PositiveSystem, depth: int, top: Weight | None = None) -> int:
    """Threshold of the window reaching `depth` height units below the
    leading exponent (default e^rho), in the system's expansion scale.

    A negative depth would give an empty window, on which every comparison
    passes without comparing a coefficient, so it is rejected.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    lead = system.rho if top is None else top
    return system.ht4(lead) - depth * system.unit4


def _expansion_candidates(system: PositiveSystem):
    """The system, then its perturbations by the tiebreak seeds 1..79, in the
    order they are tried; past the last one, ``RuntimeError``."""
    yield system
    for seed in range(1, 80):
        yield system.with_tiebreak(seed)
    raise RuntimeError("no perturbation separated the denominator exponents")


def choose_expansion_system(system: PositiveSystem, exponents) -> PositiveSystem:
    """The first of the ``_expansion_candidates`` whose expansion functional
    keeps every listed exponent well away from zero (at least an eighth of a
    height unit in absolute value): the given system itself when plain
    principal height already does this."""
    exponents = list(exponents)
    for cand in _expansion_candidates(system):
        floor = max(1, cand.unit4 // 8)
        if all(abs(cand.ht4(b)) >= floor for b in exponents):
            return cand


def with_safe_expansion(system: PositiveSystem, compute):
    """compute(s) for the first of the ``_expansion_candidates`` on which it
    raises no height-zero exponent (``HeightZeroExponent``).  Every other
    error propagates."""
    for cand in _expansion_candidates(system):
        try:
            return compute(cand)
        except HeightZeroExponent:
            pass


# ---------------------------------------------------------------------------
# left-hand sides


def lhs(system: PositiveSystem, kind: str, threshold4: int) -> CharSeries:
    """e^rho R (kind 'd') or e^rho Ř (kind 'sd') as a truncated series, from
    its record over the trivial group (``_erho_side``).

    Every identity on a system has this same left side, so it is expanded
    once per (kind, threshold4) and kept in a dict owned by the system: a
    later call with the same key returns the same ``CharSeries`` object,
    which lives as long as the system does.  Series are never changed in
    place, so sharing one between checks is safe.  Any other kind raises
    ``ValueError`` before the dict is read.
    """
    if kind not in ("d", "sd"):
        raise ValueError(f"the left side is of kind 'd' or 'sd', got {kind!r}")
    series = system._lhs.get((kind, threshold4))
    if series is None:
        s = 1 if kind == "sd" else -1
        side = _erho_side(system, system.rho, [(a, s) for a in system.positive_odd])
        series = system._lhs[kind, threshold4] = side.expand(system, threshold4)
    return series


def _erho_side(system: PositiveSystem, leading: Weight, geom: list[tuple[Weight, int]]) -> WeylSum:
    """e^leading prod (1 - e^{-a}) over the positive even roots / prod over geom,
    as a record over the trivial group."""
    poly = [(a, 1) for a in system.positive_even]
    return WeylSum([WeylElement.identity(system.shape)], "sgn", leading, geom, poly=poly)


# ---------------------------------------------------------------------------
# right-hand sides


@dataclass(frozen=True)
class WeylSum:
    """One identity side: constant * sum over w in group of sign(w)
    w(coeff e^leading prod over (b, s) in poly of (1 - s e^{-b}) / prod over
    (beta, s) in geom of (1 - s e^{-beta}))."""

    group: list[WeylElement]
    sign: str  # "sgn" or "sgn_prime"
    leading: Weight
    geom: list[tuple[Weight, int]]
    coeff: int = 1
    constant: Fraction = Fraction(1)
    poly: list[tuple[Weight, int]] = ()

    def expand(self, system: PositiveSystem, threshold4: int) -> CharSeries:
        """The signed Weyl sum (without the constant) on the window."""
        return f_sum_quotient(system, self.group, self.sign, threshold4, self.leading, self.geom, self.poly, self.coeff)


def right_side(
    kind: str,
    system: PositiveSystem,
    X: ArcDiagram | None = None,
    S: list[Weight] | None = None,
    bprime=None,
) -> WeylSum:
    """The right side of identity ``kind`` on ``system``.

    kwg takes S (default the isotropic set of a simple diagram X): defect
    many distinct, mutually orthogonal, isotropic simple roots.  S names the
    sets no diagram draws: on C(m) with the order e1 > ... > em > d1, the
    fork root eps_m + delta_1 is simple and isotropic, and no arc reaches
    it.  Every other kind takes the diagram X, and migliore also B' (see
    ``migliore_groups``).  X must be drawn on the system's order or, for a
    D order ending in eps_m, on its sign twin.  The seconda kinds raise
    ``ValueError`` off their distinguished order.
    """
    if kind not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}")
    if kind == "glkk":
        raise ValueError("use verify_glkk for the gl(k,k) lemma")
    order = system.order
    twin = order.sign_twin() if order.family == "D" and order.sequence[-1].kind == "e" else order
    if X is not None and X.order not in (order, twin):
        raise ValueError(f"the diagram is drawn on {X.order}, not on the system's order {order}")
    sd = _flavor(kind) == "sd"
    sign = "sgn_prime" if sd else "sgn"
    s = 1 if sd else -1
    if kind.startswith("kwg"):
        if S is None:
            if X is None or not X.is_simple():
                raise ValueError("kwg needs a simple-diagram isotropic set")
            S = X.isotropic_set()
        simples = set(system.simple_roots)
        for beta in S:
            if beta not in simples:
                raise ValueError(f"{beta} is not simple")
            if not is_isotropic(beta):
                raise ValueError(f"{beta} is not isotropic")
        if len(S) != system.datum.defect:
            raise ValueError("S is not maximal isotropic")
        if len(set(S)) < len(S) or any(inner(a, b) for a, b in combinations(S, 2)):
            raise ValueError("the roots of S are not distinct and mutually orthogonal")
        return WeylSum(sharp_subgroup(system.datum), sign, system.rho, [(b, s) for b in S])
    if X is None:
        raise ValueError("this identity needs an arc diagram")
    iso = X.isotropic_set()
    if kind.startswith("mm"):
        shift = weight_sum((X.open_bracket(g) for g in iso), system.shape)
        coeff = -1 if not sd and X.nesting_count() % 2 else 1
        return WeylSum(sharp_subgroup(system.datum), sign, system.rho + shift, [(g, s) for g in iso], coeff)
    if kind.startswith("princ"):
        geom = [(X.bracket(g), 1 if sd else -X.root_sign(g)) for g in iso]
        return WeylSum(full_weyl(system.datum), sign, system.rho, geom, constant=princ_constant(system, X))
    geom = [(X.bracket(g), 1) for g in iso]
    if kind.startswith("seconda"):
        return WeylSum(_seconda_group(kind, system), sign, system.rho, geom)
    W0, t_size = migliore_groups(system, X, bprime)
    return WeylSum(W0, sign, system.rho, geom, constant=princ_constant(system, X) / t_size)


def migliore_groups(system: PositiveSystem, X: ArcDiagram, bprime=None):
    """The element sets of the master identity: W_0 = Z W_B' W#(B') and |T|.

    ``bprime`` is a set of basis symbols containing Supp(X) (default equal to
    it); symbols are compared by kind and index, so their signs are ignored.
    W_B' is the product of the Weyl groups of the family's two block types
    on the eps and on the delta indices of B'.  W#(B') is its factor on the
    block that the dual Coxeter number of the ambient algebra singles out,
    the block that W# itself lives in (``datum.dual_coxeter_sign``), and H is
    W#(B') times the permutations of the other block's indices in B'.
    """
    datum = system.datum
    shape = datum.shape
    if bprime is None:
        bprime = X.support_symbols()
    bprime = list(bprime)
    keys = [(b.kind, b.idx) for b in bprime]
    if len(set(keys)) != len(keys):
        raise ValueError(f"B' = {bprime} repeats a basis slot")
    size = {"e": datum.m, "d": datum.n}
    if any(not 1 <= i <= size.get(k, 0) for k, i in keys):
        raise ValueError(f"B' = {bprime} has a symbol outside the basis of shape {shape}")
    if not {(b.kind, b.idx) for b in X.support_symbols()} <= set(keys):
        raise ValueError(f"B' = {bprime} does not contain Supp(X) = {X.support_symbols()}")
    types = dict(zip("ed", FAMILY_BLOCKS[datum.family]))
    idx = {k: [i for kind, i in keys if kind == k] for k in "ed"}
    block = {k: signed_permutations(shape, k, idx[k], flips=block_weyl(types[k], len(idx[k]))[0]) for k in "ed"}
    sharp, other = "ed" if datum.dual_coxeter_sign == EPS_BLOCK else "de"
    w_bprime = product_set(block["e"], block["d"])
    H = sorted(product_set(block[sharp], signed_permutations(shape, other, idx[other])), key=WeylElement.sort_key)
    t_size = len(w_bprime) // len(H)
    Z = coset_reps(full_weyl(datum), w_bprime)
    W0 = product_set(Z, H)
    return W0, t_size


def _seconda_group(kind: str, system: PositiveSystem) -> list[WeylElement]:
    """The product group of a compact dual pair specialization, on the one
    order where the paper claims it: the distinguished order of B(m,n) for
    seconda-sd, and the D2 order of D(m,n) for the other two."""
    datum = system.datum
    m, n, d, shape = datum.m, datum.n, datum.defect, datum.shape
    family, variant = ("B", "") if kind == "seconda-sd" else ("D", "D2")
    if datum.family != family or system.order != distinguished_order(family, m, n, variant):
        raise ValueError(
            f"{kind} holds only on the distinguished {variant or family} order of {family}({m},{n}); "
            f"the input is {datum.family}({m},{n}) with the order {system.order!r}"
        )
    if kind == "seconda-sd":
        return product_set(
            signed_permutations(shape, "d", range(1, n + 1)),
            signed_permutations(shape, "d", range(1, n - d + 1), permute=False, flips="all"),
            signed_permutations(shape, "e", range(1, m + 1), flips="all"),
        )
    tail = signed_permutations(shape, "d", range(1, n + 1), flips="all")
    even_flips = signed_permutations(shape, "e", range(1, m - d + 1), permute=False, flips="even")
    if kind == "seconda-d2-sd":
        return product_set(signed_permutations(shape, "e", range(1, m + 1)), even_flips, tail)
    if m <= n:
        raise ValueError("seconda-w1-sd needs m > n")
    a_small = signed_permutations(shape, "e", range(m - d + 1, m + 1))
    z = coset_reps(signed_permutations(shape, "e", range(1, m + 1)), a_small)
    s = reflection(2 * Weight.eps(m - d, shape)).compose(reflection(2 * Weight.eps(m - d + 1, shape)))
    return product_set(z, even_flips, [s], a_small, tail)


def _separating_system(system: PositiveSystem, sums) -> PositiveSystem:
    """A system whose functional keeps every Weyl image of every denominator
    exponent of the given sums off height zero (bracket exponents may cross
    it; roots never do, so sums over roots keep the system as it is)."""
    return choose_expansion_system(system, [w.act(b) for ws in sums for w in ws.group for b, _ in ws.geom])


# ---------------------------------------------------------------------------
# the gl(k,k) lemma


def glkk_sides(k: int, depth: int) -> tuple[CharSeries, CharSeries, Fraction]:
    """Both sides of the all-isotropic gl(k,k) lemma at the given depth.

    Returns (lhs_sum, rhs_series, ratio) with the claim lhs = ratio * rhs.
    W(gl(k,k)) permutes the eps's and the delta's separately, so the factor
    1 - e^{-sum beta} of the right side is W-invariant and sits in its ``poly``.
    """
    datum = build_root_datum("GL", k, k)
    system = positive_system(datum, standard_order("GL", k, k, "ed" * k))
    betas = [Weight.eps(i, (k, k)) - Weight.delta(i, (k, k)) for i in range(1, k + 1)]
    W = full_weyl(datum)
    zero = Weight.zero((k, k))
    T = window4(system, depth, top=zero)
    left = WeylSum(W, "sgn_prime", zero, [(b, 1) for b in betas[1:]])
    right = WeylSum(W, "sgn_prime", zero, [(b, 1) for b in betas], poly=[(weight_sum(betas, (k, k)), 1)])
    return left.expand(system, T), right.expand(system, T), Fraction(1, k)


# ---------------------------------------------------------------------------
# reports


@dataclass
class IdentityReport:
    """The verdict on one identity; ``compare`` is the one routine that makes it."""

    identity_kind: str
    system: str
    subset: str
    depth: int | None
    passed: bool
    constant: str = "1"
    first_mismatch: list | None = None

    def to_json(self) -> dict:
        doc = {
            "identity": self.identity_kind,
            "system": self.system,
            "subset": self.subset,
            "depth": self.depth,
            "verdict": "pass" if self.passed else "fail",
            "constant": self.constant,
        }
        if self.first_mismatch is not None:
            doc["first_mismatch"] = self.first_mismatch
        return doc


def compare(
    kind: str,
    system: str,
    subset: str,
    depth: int | None,
    left: CharSeries,
    right: CharSeries,
    ratio: Fraction = Fraction(1),
) -> IdentityReport:
    """The one verdict routine: does right = ratio * left hold coefficient for
    coefficient on the common window of the two series?  ``system``,
    ``subset`` and ``depth`` are the labels the report carries; the depth is
    None when both series are exact and whole characters are compared.  A
    comparison with no term of either series inside the window compared
    nothing and does not pass."""
    bad = left.mismatches(right, ratio)
    t = left.window_threshold(right)
    compared = any((side if t is None else side.truncate(t)).packed for side in (left, right))
    return IdentityReport(
        identity_kind=kind,
        system=system,
        subset=subset,
        depth=depth,
        passed=compared and not bad,
        constant=str(ratio),
        first_mismatch=None if not bad else list(bad[0].coords2),
    )


def verify(
    kind: str,
    system: PositiveSystem,
    X: ArcDiagram | None = None,
    S: list[Weight] | None = None,
    depth: int = 8,
    bprime=None,
) -> IdentityReport:
    """Check one identity on the given system at the given window depth."""
    spec = right_side(kind, system, X, S, bprime)
    system = _separating_system(system, [spec])
    T = window4(system, depth)
    label = f"S={[repr(b) for b, _ in spec.geom]}" if kind.startswith("kwg") else f"arcs={list(X.arcs)}"
    left, right = lhs(system, _flavor(kind), T), spec.expand(system, T)
    return compare(kind, repr(system), label, depth, left, right, spec.constant)


def verify_glkk(k: int, depth: int = 6) -> IdentityReport:
    left, rhs, ratio = glkk_sides(k, depth)
    return compare("glkk", f"gl({k},{k}) all-isotropic", f"k={k}", depth, rhs, left, ratio)


def verify_odd_reflection(system: PositiveSystem, alpha: Weight, depth: int) -> IdentityReport:
    """e^rho Ř = -e^{rho'} Ř' for the odd reflection at alpha.

    The reflected side is built directly from the root lists (alpha replaced
    by -alpha, rho + alpha leading), expanded along the original system's
    functional, so it covers the fork reflections that leave the
    order-encoded family.
    """
    if alpha not in system.simple_roots or not is_isotropic(alpha):
        raise ValueError("need an isotropic simple root")
    T = window4(system, depth)
    odd = [a for a in system.positive_odd if a != alpha] + [-alpha]
    reflected = _erho_side(system, system.rho + alpha, [(a, 1) for a in odd])
    left, right = lhs(system, "sd", T), reflected.expand(system, T)
    return compare("odd reflection", repr(system), repr(alpha), depth, left, right, Fraction(-1))
