"""Sparse exact character series truncated by principal height.

A series is a finite integer-coefficient sum of exponentials e^lambda over
the weight lattice, together with a window guarantee: it agrees with the
(possibly infinite) series it represents on every weight of principal height
>= threshold, and the full series it represents has no terms of height
> ceiling.  Heights are measured by the positive system's principal grading
element and stored as exact integers at 4x scale.

Geometric factors 1/(1 - s e^{-beta}) expand toward decreasing height for
either sign of ht(beta); an exponent of height zero raises
``HeightZeroExponent``.

``product_expansion``, the kernel behind every identity side, and the
division in ``weyl_character`` work on packed keys (Kronecker substitution,
as in Monagan & Pearce's packed exponent vectors).  A weight's doubled
coordinates become balanced base-2^B digits of one Python int, with its
height as the most significant digit, so adding two weights, and their
heights, is one integer addition, and comparing two keys compares heights
first.  B is derived per call from the largest coordinate a result can
reach, so no digit overflows.  In the kernel each factor's terms are in
descending height, so the inner loop stops at the first term that falls
below the window.  Weights are unpacked once, for the terms that survive;
``Weight`` stays the type at the boundary and the key of ``CharSeries.terms``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .weights import Weight
from .rootdata import PositiveSystem
from .weyl import WeylElement, sgn, sgn_prime

NEG_INF = None  # threshold value meaning "exact everywhere"


class CharSeries:
    """A truncated series over a system: its nonzero terms inside the window
    {ht4 >= threshold4} (every term when the threshold is None) and the
    ceiling4 above which the full series has no term.

    A series is a value: no operation changes one in place, each returns a
    new series (which may share the terms dict of its operand).  So one
    series may be shared, as ``denominators.lhs`` shares each left side
    between the checks on its system.
    """

    __slots__ = ("system", "terms", "threshold4", "ceiling4")

    def __init__(self, system: PositiveSystem, terms: dict[Weight, int], threshold4: int | None, ceiling4: int):
        self.system = system
        self.terms = {w: c for w, c in terms.items() if c != 0}
        self.threshold4 = threshold4
        self.ceiling4 = ceiling4
        if threshold4 is not None:
            self.terms = {w: c for w, c in self.terms.items() if system.ht4(w) >= threshold4}

    @classmethod
    def _trusted(cls, system: PositiveSystem, terms: dict[Weight, int], threshold4: int | None, ceiling4: int) -> "CharSeries":
        """Wrap terms that are already nonzero and inside the window, skipping
        the filters of __init__.  The dict is taken over, not copied."""
        out = cls.__new__(cls)
        out.system = system
        out.terms = terms
        out.threshold4 = threshold4
        out.ceiling4 = ceiling4
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(system: PositiveSystem, threshold4: int | None = NEG_INF) -> "CharSeries":
        return CharSeries(system, {}, threshold4, 0)

    @staticmethod
    def monomial(system: PositiveSystem, w: Weight, coeff: int = 1) -> "CharSeries":
        return CharSeries(system, {w: coeff}, NEG_INF, system.ht4(w))

    # -- bookkeeping ---------------------------------------------------------

    def _same_space(self, other: "CharSeries") -> None:
        if self.system.shape != other.system.shape or self.system._hvals2 != other.system._hvals2:
            raise ValueError("series live over different reference systems")

    def coeff(self, w: Weight) -> int:
        return self.terms.get(w, 0)

    def is_zero_on_window(self) -> bool:
        return not self.terms

    def support_sorted(self) -> list[Weight]:
        return sorted(self.terms, key=lambda w: (-self.system.ht4(w), w.coords2))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "CharSeries") -> "CharSeries":
        """Sum on the common window.  Both operands already hold only nonzero
        terms at ht4 >= their own threshold, so only the operand with the
        lower threshold is filtered by height, and keys that cancel during the
        merge are dropped on the spot."""
        self._same_space(other)
        t = _max_threshold(self.threshold4, other.threshold4)
        ht4 = self.system.ht4
        if self.threshold4 == t:
            terms = dict(self.terms)
        else:
            terms = {w: c for w, c in self.terms.items() if ht4(w) >= t}
        filter_other = other.threshold4 != t
        for w, c in other.terms.items():
            if filter_other and ht4(w) < t:
                continue
            c += terms.get(w, 0)
            if c:
                terms[w] = c
            else:
                del terms[w]
        return CharSeries._trusted(self.system, terms, t, max(self.ceiling4, other.ceiling4))

    def __sub__(self, other: "CharSeries") -> "CharSeries":
        return self + other.scale(-1)

    def scale(self, k: int) -> "CharSeries":
        if k == 0:
            return CharSeries(self.system, {}, self.threshold4, self.ceiling4)
        return CharSeries._trusted(
            self.system, {w: k * c for w, c in self.terms.items()}, self.threshold4, self.ceiling4
        )

    def __mul__(self, other: "CharSeries") -> "CharSeries":
        """Exact convolution with the window-soundness rule: the product is
        complete above max(t_a + ceil_b, t_b + ceil_a).  Heights add, so the
        larger operand's terms are taken in descending height and each row
        stops at the first pair below the window."""
        self._same_space(other)
        a, b = self, other
        if len(b.terms) < len(a.terms):
            a, b = b, a
        ht4 = self.system.ht4
        t = _product_threshold(a.threshold4, a.ceiling4, b.threshold4, b.ceiling4)
        column = sorted(((ht4(w), w, c) for w, c in b.terms.items()), key=lambda x: -x[0])
        out: dict[Weight, int] = {}
        for wa, ca in a.terms.items():
            lim = -math.inf if t is None else t - ht4(wa)
            for hb, wb, cb in column:
                if hb < lim:
                    break
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
        terms = {w: c for w, c in out.items() if c}
        return CharSeries._trusted(self.system, terms, t, a.ceiling4 + b.ceiling4)

    def tightened(self) -> "CharSeries":
        """The same series with its ceiling lowered to its highest term."""
        if not self.terms:
            return self
        top = max(map(self.system.ht4, self.terms))
        return CharSeries._trusted(self.system, self.terms, self.threshold4, top)

    def truncate(self, threshold4: int) -> "CharSeries":
        if self.threshold4 is not None and threshold4 < self.threshold4:
            raise ValueError("cannot widen the window by truncation")
        return CharSeries(self.system, self.terms, threshold4, self.ceiling4)

    # -- comparison ------------------------------------------------------------

    def window_threshold(self, other: "CharSeries") -> int | None:
        return _max_threshold(self.threshold4, other.threshold4)

    def mismatches(self, other: "CharSeries", ratio: Fraction = Fraction(1)) -> list[Weight]:
        """Weights in the common window where other != ratio * self.

        With ratio = p/q in lowest terms (q > 0), the test is
        q * other != p * self, so integer coefficients stay integers.
        """
        self._same_space(other)
        t = self.window_threshold(other)
        ht4 = self.system.ht4
        p, q = ratio.numerator, ratio.denominator
        mine, theirs = self.terms, other.terms
        bad = []
        for w in mine.keys() | theirs.keys():
            if t is not None and ht4(w) < t:
                continue
            if q * theirs.get(w, 0) != p * mine.get(w, 0):
                bad.append(w)
        return sorted(bad, key=lambda w: w.coords2)

    def __repr__(self) -> str:
        items = self.support_sorted()[:8]
        body = " + ".join(f"{self.terms[w]}*e^({w})" for w in items)
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return f"CharSeries[{body}{more}; t4={self.threshold4}, c4={self.ceiling4}]"

    def to_json(self) -> dict:
        doc_terms = [
            {"coords2": list(w.coords2), "coeff": str(c)}
            for w, c in sorted(self.terms.items(), key=lambda it: it[0].coords2)
        ]
        t2 = None
        if self.threshold4 is not None:
            t2 = self.threshold4 / 2 if self.threshold4 % 2 else self.threshold4 // 2
        return {"threshold2": t2, "terms": doc_terms}


def _max_threshold(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _product_threshold(ta, ca, tb, cb) -> int | None:
    if ta is None and tb is None:
        return None
    cands = []
    if ta is not None:
        cands.append(ta + cb)
    if tb is not None:
        cands.append(tb + ca)
    return max(cands)


# ---------------------------------------------------------------------------
# geometric factors and the packed product kernel


class HeightZeroExponent(ValueError):
    """A geometric factor 1/(1 - s e^{-beta}) whose exponent has height zero
    under the expansion functional, so that it has no expansion direction."""


def _geometric_terms(beta: Weight, h: int, s: int, threshold4: int) -> list[tuple[int, int]]:
    """1/(1 - s e^{-beta}) expanded toward decreasing heights, complete on
    heights >= threshold4, as (k, coefficient) pairs for the terms
    e^{k beta} in descending height; ``h`` is the height of beta."""
    if h == 0:
        raise HeightZeroExponent(f"cannot expand a geometric factor with height-zero exponent {beta}")
    out = []
    if h > 0:
        k = 0
        while -k * h >= threshold4:
            out.append((-k, s ** k))
            k += 1
    else:
        # 1/(1-x) = -x^{-1} - x^{-2} - ... in the region |x| > 1
        k = 1
        while k * h >= threshold4:
            out.append((k, -(s ** k)))
            k += 1
    return out


def _pack(coords2: tuple[int, ...], height: int, bits: int) -> int:
    """The coordinates as balanced base-2^bits digits, least significant
    first, under the height as the most significant digit."""
    key = height
    for c in reversed(coords2):
        key = (key << bits) + c
    return key


def _unpacker(bits: int, dim: int):
    """The function taking a packed key to its coordinates (the height digit
    is dropped).  Adding 2^(bits-1) to every digit makes all digits
    nonnegative, so each one is read off with a shift and a mask."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    offset = sum(half << (bits * i) for i in range(dim))
    shifts = [bits * i for i in range(dim)]

    def unpack(key: int) -> tuple[int, ...]:
        key += offset
        return tuple([((key >> s) & mask) - half for s in shifts])

    return unpack


def product_expansion(
    system: PositiveSystem,
    threshold4: int,
    leading: Weight,
    coeff: int = 1,
    geom: Iterable[tuple[Weight, int]] = (),
    poly: Iterable[tuple[Weight, int]] = (),
) -> CharSeries:
    """coeff * e^leading * prod 1/(1-s e^{-beta}) * prod (1-s e^{-beta}),
    complete on the window {ht >= threshold4}.

    The product runs on packed integer keys (Kronecker substitution); see the
    module docstring.  Factors are multiplied in turn, and a partial product
    keeps only the terms that the remaining factors' ceilings can still lift
    into the window.
    """
    ht4 = system.ht4
    geom = [(b, s, ht4(b)) for b, s in geom]
    poly = [(b, s, ht4(b)) for b, s in poly]
    g_ceil = [min(0, h) for _, _, h in geom]
    p_ceil = [max(0, -h) for _, _, h in poly]
    h_lead = ht4(leading)
    total_ceiling = h_lead + sum(g_ceil) + sum(p_ceil)
    if total_ceiling < threshold4:
        return CharSeries.zero(system, threshold4)

    other = sum(g_ceil) + sum(p_ceil)
    multiples = [
        _geometric_terms(b, h, s, threshold4 - (h_lead + other - c))
        for (b, s, h), c in zip(geom, g_ceil)
    ]
    # digit width: no coordinate of a partial product exceeds this bound
    bound = max(map(abs, leading.coords2))
    for (b, _, _), terms in zip(geom, multiples):
        bound += max(abs(k) for k, _ in terms) * max(map(abs, b.coords2))
    for b, _, _ in poly:
        bound += max(map(abs, b.coords2))
    bits = bound.bit_length() + 1
    dim = len(leading.coords2)
    shift = bits * dim

    # each factor's (key, coefficient) terms in descending height
    factors: list[tuple[list[tuple[int, int]], int]] = []
    for (b, _, h), terms, c in zip(geom, multiples, g_ceil):
        kb = _pack(b.coords2, h, bits)
        factors.append(([(k * kb, ck) for k, ck in terms], c))
    for (b, s, h), c in zip(poly, p_ceil):
        kb = _pack(b.coords2, h, bits)
        terms = [(0, 1), (-kb, -s)] if h >= 0 else [(-kb, -s), (0, 1)]
        factors.append((terms, c))

    acc: dict[int, int] = {_pack(leading.coords2, h_lead, bits): coeff}
    remaining = sum(c for _, c in factors)
    for fterms, c in factors:
        remaining -= c
        # a key has height >= floor exactly when it is >= cut, because the
        # coordinate digits below the height digit sum to less than half of
        # 2^shift in absolute value
        cut = ((threshold4 - remaining) << shift) - (1 << (shift - 1))
        nxt: dict[int, int] = {}
        get = nxt.get
        for ka, ca in acc.items():
            lim = cut - ka
            for kb, cb in fterms:
                if kb < lim:
                    break
                k = ka + kb
                nxt[k] = get(k, 0) + ca * cb
        acc = nxt
    shape = system.shape
    unpack = _unpacker(bits, dim)
    terms = {Weight._trusted(unpack(k), shape): c for k, c in acc.items() if c}
    return CharSeries._trusted(system, terms, threshold4, total_ceiling)


# ---------------------------------------------------------------------------
# signed Weyl sums


def f_sum_quotient(
    system: PositiveSystem,
    U: Iterable[WeylElement],
    sign_kind: str,
    threshold4: int,
    leading: Weight,
    geom: Iterable[tuple[Weight, int]] = (),
    poly: Iterable[tuple[Weight, int]] = (),
    coeff: int = 1,
) -> CharSeries:
    """Signed sum over U of w(coeff e^leading / prod(1-s e^{-beta}) * prod(1-s e^{-b'})), with the
    largest piece ceiling as its ceiling (the zero series for an empty U); the sign is "sgn" or "sgn_prime"."""
    if sign_kind not in ("sgn", "sgn_prime"):
        raise ValueError(f"the sign is 'sgn' or 'sgn_prime', got {sign_kind!r}")
    geom = list(geom)
    poly = list(poly)
    fam = system.datum.family
    acc = None
    for w in U:
        s = sgn(w) if sign_kind == "sgn" else sgn_prime(w, fam)
        piece = product_expansion(
            system, threshold4, w.act(leading), coeff=s * coeff,
            geom=[(w.act(b), sg) for b, sg in geom], poly=[(w.act(b), sg) for b, sg in poly],
        )
        acc = piece if acc is None else acc + piece
    return CharSeries.zero(system, threshold4) if acc is None else acc


# ---------------------------------------------------------------------------
# finite Weyl characters by exact division


def weyl_character(
    system: PositiveSystem,
    elements: list[WeylElement],
    rho_block: Weight,
    lam: Weight,
) -> CharSeries:
    """Exact finite character by the Weyl formula for a block subsystem.

    Computes sum_w sgn(w) e^{w(lam+rho)} / sum_w sgn(w) e^{w(rho)} by sparse
    division; the result is 0 when lam+rho is singular and picks up the sign
    of the sorting element when lam+rho is irregularly ordered.

    The division runs on packed keys (see the module docstring), with digits
    wide enough for |lam+rho|_inf + 3 |rho|_inf, which bounds every residual,
    quotient and shift.  Keys break height ties on the last coordinate, not
    in ``coords2`` order; the quotient is the same, since the leading term
    e^rho of the denominator is unique by height (every block root is
    positive) and an exact quotient of Laurent polynomials is unique.
    """
    ht4 = system.ht4
    top = lam + rho_block
    bits = (max(map(abs, top.coords2)) + 3 * max(map(abs, rho_block.coords2))).bit_length() + 1
    numer: dict[int, int] = {}
    denom: dict[int, int] = {}
    for w in elements:
        s = sgn(w)
        for alt, x in ((numer, top), (denom, rho_block)):
            y = w.act(x)
            k = _pack(y.coords2, ht4(y), bits)
            alt[k] = alt.get(k, 0) + s
    numer, denom = ({k: c for k, c in alt.items() if c} for alt in (numer, denom))
    if not denom:
        raise ValueError("singular block rho: not a valid block system")
    dmax = max(denom)
    if denom[dmax] != 1:
        raise AssertionError("block rho is not regular dominant for the block")
    quot: dict[int, int] = {}
    steps = 0
    while numer:
        steps += 1
        if steps > 200000:
            raise RuntimeError("character division did not terminate")
        nmax = max(numer)
        c = numer[nmax]
        shift = nmax - dmax
        quot[shift] = c
        for k, ck in denom.items():
            x = shift + k
            v = numer.get(x, 0) - c * ck
            if v:
                numer[x] = v
            else:
                del numer[x]
    unpack = _unpacker(bits, len(top.coords2))
    terms = {Weight._trusted(unpack(k), system.shape): c for k, c in quot.items()}
    return CharSeries._trusted(system, terms, NEG_INF, max(map(ht4, terms), default=0))
