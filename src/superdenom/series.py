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

A series keys its terms by packed integers (Kronecker substitution, as in
Monagan & Pearce's packed exponent vectors): a weight's doubled coordinates
are balanced base-2^B digits of one int, under its height as the most
significant digit.  Adding keys adds weights and heights; since the lower
digits sum to less than half of 2^(B dim), comparing keys compares heights
first, so a height filter compares a key with one cut and the top key holds
the top height.  Each series keeps a bound on the absolute value of its
coordinates, set by the step that forms its keys (the constructor, the
kernel ``product_expansion``, the division in ``weyl_character`` (one per
summand of a signed sum of finite characters, into one dict), ``+`` and
``*``), and B is the narrowest width on the ladder 16, 32, 48, ... that
holds it, so no digit overflows; an operand of a narrower B is re-encoded.
The kernel takes each factor's terms in descending height, so its inner
loop stops at the first term below the window.  ``Weight`` stays at the boundary: the constructor takes
``{Weight: c}``, and ``terms``, ``coeff``, ``support_sorted``, ``to_json``,
``repr`` and the weights ``mismatches`` returns unpack keys as they go.

A key is linear in the doubled coordinates, height digit included, so the
key of a Weyl image w(x) is key(x) plus the dot product of x's moved
coordinates with a row of w (``image_rows``), which a block builds once per
digit width.  The finite characters (``weyl_character``) key every image
this way, and a division given a cut stops at its first quotient key below
it: the quotient comes top down, so its terms above the cut are final.

``+`` copies its left operand and loops over its right one.  So a signed Weyl
sum (``f_sum_quotient``) adds its |U| pieces in size-balanced merges, the
larger operand on the left, not into one growing accumulator: the copies then
come to a few times the pieces' total terms (4.2 and 4.8 times on the
depth-3 ``princ-sd`` checks of D(3,3) and B(3,2)), not about |U|/2 times the
size of the sum (44 and 30 times).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import mul
from typing import Iterable

from .weights import Weight
from .rootdata import PositiveSystem
from .weyl import WeylElement, sgn, sgn_prime

NEG_INF = None  # threshold value meaning "exact everywhere"


class CharSeries:
    """A truncated series over a system: its nonzero terms inside the window
    {ht4 >= threshold4} (every term when the threshold is None) and the
    ceiling4 above which the full series has no term.  ``packed`` maps each
    term's key, with digits ``bits`` wide, to its coefficient; no term has a
    coordinate of absolute value above ``bound``.  ``terms`` is a read-only
    view of the same map keyed by ``Weight``.

    A series is a value: no operation changes one in place, each returns a
    new series (which may share the packed dict of its operand).  So one
    series may be shared, as ``denominators.lhs`` shares each left side
    between the checks on its system.
    """

    __slots__ = ("system", "packed", "bound", "bits", "threshold4", "ceiling4")

    def __init__(self, system: PositiveSystem, terms: dict[Weight, int], threshold4: int | None, ceiling4: int):
        self._set(system, {}, max((abs(x) for w in terms for x in w.coords2), default=0), threshold4, ceiling4)
        ht4, bits = system.ht4, self.bits
        self.packed = {
            _pack(w.coords2, ht4(w), bits): c for w, c in terms.items()
            if c != 0 and (threshold4 is None or ht4(w) >= threshold4)
        }

    def _set(self, system, packed, bound, threshold4, ceiling4) -> "CharSeries":
        self.system, self.packed, self.bound, self.threshold4, self.ceiling4 = system, packed, bound, threshold4, ceiling4
        self.bits = _width(bound)
        return self

    @classmethod
    def _trusted(cls, system: PositiveSystem, packed: dict[int, int], bound: int, threshold4: int | None, ceiling4: int) -> "CharSeries":
        """Wrap packed terms that are nonzero, inside the window and within
        ``bound``, skipping the filters of __init__; the dict is taken over,
        not copied.  A step that forms keys wraps {} to learn B, then fills it."""
        return cls.__new__(cls)._set(system, packed, bound, threshold4, ceiling4)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(system: PositiveSystem, threshold4: int | None = NEG_INF) -> "CharSeries":
        return CharSeries(system, {}, threshold4, 0)

    # -- bookkeeping ---------------------------------------------------------

    def _same_space(self, other: "CharSeries") -> None:
        if self.system.shape != other.system.shape or self.system._hvals2 != other.system._hvals2:
            raise ValueError("series live over different reference systems")

    def _unpacked(self):
        """(weight, coefficient) for every term, in the order of ``packed``."""
        unpack, shape = _unpacker(self.bits, len(self.system._hvals2)), self.system.shape
        return ((Weight._trusted(unpack(k), shape), c) for k, c in self.packed.items())

    def _at(self, bits: int) -> dict[int, int]:
        """The packed terms re-encoded at a width no narrower than their own."""
        ht4 = self.system.ht4
        return self.packed if bits == self.bits else {_pack(w.coords2, ht4(w), bits): c for w, c in self._unpacked()}

    @property
    def terms(self) -> Mapping[Weight, int]:
        return _Terms(self)

    def coeff(self, w: Weight) -> int:
        if w.shape != self.system.shape or max(map(abs, w.coords2), default=0) > self.bound:
            return 0  # a coordinate beyond the bound: no term has it
        return self.packed.get(_pack(w.coords2, self.system.ht4(w), self.bits), 0)

    def is_zero_on_window(self) -> bool:
        return not self.packed

    def support_sorted(self) -> list[Weight]:
        return sorted(self.terms, key=lambda w: (-self.system.ht4(w), w.coords2))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "CharSeries") -> "CharSeries":
        """Sum on the common window, at the wider of the two widths.  Both
        operands already hold only nonzero terms at ht4 >= their own
        threshold, so only the operand with the lower threshold is filtered
        by height, and keys that cancel during the merge are dropped on the
        spot."""
        self._same_space(other)
        bits = max(self.bits, other.bits)
        t = _max_threshold(self.threshold4, other.threshold4)
        cut = _cut(t, bits * len(self.system._hvals2))
        if self.threshold4 == t:
            terms = dict(self._at(bits))
        else:
            terms = {k: c for k, c in self._at(bits).items() if k >= cut}
        filter_other = other.threshold4 != t
        for k, c in other._at(bits).items():
            if filter_other and k < cut:
                continue
            c += terms.get(k, 0)
            if c:
                terms[k] = c
            else:
                del terms[k]
        return CharSeries._trusted(self.system, terms, max(self.bound, other.bound), t, max(self.ceiling4, other.ceiling4))

    def __sub__(self, other: "CharSeries") -> "CharSeries":
        return self + other.scale(-1)

    def scale(self, k: int) -> "CharSeries":
        terms = {key: k * c for key, c in self.packed.items()} if k else {}
        return CharSeries._trusted(self.system, terms, self.bound, self.threshold4, self.ceiling4)

    def __mul__(self, other: "CharSeries") -> "CharSeries":
        """Exact convolution with the window-soundness rule: the product is
        complete above max(t_a + ceil_b, t_b + ceil_a).  The operands' bounds
        add, and the digits widen when their sum needs it.  The larger
        operand's terms are taken in descending key order (``_convolve``)."""
        self._same_space(other)
        a, b = self, other
        if len(b.packed) < len(a.packed):
            a, b = b, a
        t = _product_threshold(a.threshold4, a.ceiling4, b.threshold4, b.ceiling4)
        out = CharSeries._trusted(self.system, {}, a.bound + b.bound, t, a.ceiling4 + b.ceiling4)
        bits = out.bits
        column = sorted(b._at(bits).items(), reverse=True)
        full = _convolve(a._at(bits), column, _cut(t, bits * len(self.system._hvals2)))
        out.packed = {k: c for k, c in full.items() if c}
        return out

    def tightened(self) -> "CharSeries":
        """The same series with its ceiling lowered to its highest term, the
        height digit of its top key."""
        if not self.packed:
            return self
        top = _height(max(self.packed), self.bits * len(self.system._hvals2))
        return CharSeries._trusted(self.system, self.packed, self.bound, self.threshold4, top)

    def truncate(self, threshold4: int) -> "CharSeries":
        if self.threshold4 is not None and threshold4 < self.threshold4:
            raise ValueError("cannot widen the window by truncation")
        cut = _cut(threshold4, self.bits * len(self.system._hvals2))
        terms = {k: c for k, c in self.packed.items() if k >= cut}
        return CharSeries._trusted(self.system, terms, self.bound, threshold4, self.ceiling4)

    # -- comparison ------------------------------------------------------------

    def window_threshold(self, other: "CharSeries") -> int | None:
        return _max_threshold(self.threshold4, other.threshold4)

    def mismatches(self, other: "CharSeries", ratio: Fraction = Fraction(1)) -> list[Weight]:
        """Weights in the common window where other != ratio * self.

        With ratio = p/q in lowest terms (q > 0), the test is
        q * other != p * self, so integer coefficients stay integers.
        """
        self._same_space(other)
        bits = max(self.bits, other.bits)
        cut = _cut(self.window_threshold(other), bits * len(self.system._hvals2))
        p, q = ratio.numerator, ratio.denominator
        mine, theirs = self._at(bits), other._at(bits)
        unpack, shape = _unpacker(bits, len(self.system._hvals2)), self.system.shape
        bad = [
            Weight._trusted(unpack(k), shape)
            for k in mine.keys() | theirs.keys()
            if (cut is None or k >= cut) and q * theirs.get(k, 0) != p * mine.get(k, 0)
        ]
        return sorted(bad, key=lambda w: w.coords2)

    def __repr__(self) -> str:
        items = self.support_sorted()[:8]
        body = " + ".join(f"{self.coeff(w)}*e^({w})" for w in items)
        more = "" if len(self.packed) <= 8 else f" ... ({len(self.packed)} terms)"
        return f"CharSeries[{body}{more}; t4={self.threshold4}, c4={self.ceiling4}]"

    def to_json(self) -> dict:
        doc_terms = [
            {"coords2": list(w.coords2), "coeff": str(c)}
            for w, c in sorted(self._unpacked(), key=lambda it: it[0].coords2)
        ]
        t2 = None
        if self.threshold4 is not None:
            t2 = self.threshold4 / 2 if self.threshold4 % 2 else self.threshold4 // 2
        return {"threshold2": t2, "terms": doc_terms}


class _Terms(Mapping):
    """A series' terms keyed by ``Weight``, uncached: iterating unpacks each
    key, and a lookup packs the weight."""

    def __init__(self, series: CharSeries):
        self._series = series

    def __len__(self) -> int:
        return len(self._series.packed)

    def __iter__(self):
        return (w for w, _ in self._series._unpacked())

    def __getitem__(self, w: Weight) -> int:
        c = self._series.coeff(w)
        if not c:
            raise KeyError(w)
        return c


def _width(bound: int) -> int:
    """The narrowest digit width on the ladder 16, 32, ... whose balanced
    digits hold +-bound."""
    return 16 * max(1, -(-(bound.bit_length() + 1) // 16))


def _cut(threshold4: int | None, shift: int) -> int | None:
    """The least key of height >= threshold4 with the height digit at bit
    ``shift`` (None for no threshold)."""
    return None if threshold4 is None else (threshold4 << shift) - (1 << (shift - 1))


def _max_threshold(a: int | None, b: int | None) -> int | None:
    return max((t for t in (a, b) if t is not None), default=None)


def _product_threshold(ta, ca, tb, cb) -> int | None:
    return max((t + c for t, c in ((ta, cb), (tb, ca)) if t is not None), default=None)


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
        return CharSeries(system, {}, threshold4, total_ceiling)

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
    out = CharSeries._trusted(system, {}, bound, threshold4, total_ceiling)
    bits, shift = out.bits, out.bits * len(leading.coords2)

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
        acc = _convolve(acc, fterms, _cut(threshold4 - remaining, shift))
    out.packed = {k: c for k, c in acc.items() if c}
    return out


def _convolve(acc: dict[int, int], column: list[tuple[int, int]], cut: int | None) -> dict[int, int]:
    """The product of the terms ``acc`` and ``column`` on the keys >= cut
    (every key for None), zero coefficients kept.  Keys add and ``column``
    is in descending key order, so each row stops at its first key below
    the cut."""
    if cut is None:  # the least sum of two keys: no row stops
        cut = min(acc, default=0) + (column[-1][0] if column else 0)
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in acc.items():
        lim = cut - ka
        for kb, cb in column:
            if kb < lim:
                break
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


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
    largest piece ceiling as its ceiling (the zero series for an empty U); the sign is "sgn" or "sgn_prime".

    The pieces are summed by size-balanced merges, not into one accumulator:
    ``+`` copies its left operand, so a growing accumulator would be copied
    once per element.  Partial sums wait on a stack, each more than 4 times
    the size of the one above it; a new piece merges with the top while the
    top has at most 4 times its terms, and at the end the stack is folded
    from the top.  Each merge puts the larger operand on the left, so ``+``
    copies the larger and loops over the smaller.  A sum still takes |U| - 1
    additions, but copies a few times the pieces' total terms, where one
    accumulator copies about |U|/2 times the sum's size.  Addition is exact
    and every piece has the same window, so the order changes no term."""
    if sign_kind not in ("sgn", "sgn_prime"):
        raise ValueError(f"the sign is 'sgn' or 'sgn_prime', got {sign_kind!r}")
    geom = list(geom)
    poly = list(poly)
    fam = system.datum.family
    stack: list[CharSeries] = []
    for w in U:
        s = sgn(w) if sign_kind == "sgn" else sgn_prime(w, fam)
        piece = product_expansion(
            system, threshold4, w.act(leading), coeff=s * coeff,
            geom=[(w.act(b), sg) for b, sg in geom], poly=[(w.act(b), sg) for b, sg in poly],
        )
        n = len(piece.packed)
        while stack and len(stack[-1].packed) <= 4 * n:
            top = stack.pop()
            piece = top + piece if len(top.packed) >= n else piece + top
            n = len(piece.packed)
        stack.append(piece)
    if not stack:
        return CharSeries.zero(system, threshold4)
    acc = stack.pop()
    while stack:
        top = stack.pop()
        acc = top + acc if len(top.packed) >= len(acc.packed) else acc + top
    return acc


# ---------------------------------------------------------------------------
# finite Weyl characters by exact division


def image_rows(system: PositiveSystem, elements: list[WeylElement], bits: int):
    """The coordinates that some element moves and, per element w,
    (row, sgn(w)): row[j] = key(w b_i) - key(b_i) at digit width ``bits``
    for the j-th moved coordinate i, b_i the weight whose only doubled
    coordinate is a 1 at i.  A key is linear in the doubled coordinates, so
    key(w x) = key(x) + sum_j x_i row[j]."""
    dim = len(system._hvals2)
    unit = [_pack(tuple(int(i == j) for j in range(dim)), system._hvals2[i], bits) for i in range(dim)]
    moved = [i for i in range(dim) if any(w.img[i] != i + 1 for w in elements)]
    rows = [
        (tuple((unit[w.img[i] - 1] if w.img[i] > 0 else -unit[-w.img[i] - 1]) - unit[i] for i in moved), sgn(w))
        for w in elements
    ]
    return moved, rows


def _division_bound(block, tops: list[Weight]) -> int:
    """max |top|_inf + 3 |rho|_inf over the leading exponents ``tops`` of a
    division's numerators, which bounds every residual, quotient and shift."""
    return max((max(map(abs, top.coords2)) for top in tops), default=0) + 3 * max(map(abs, block.rho.coords2))


def _image_keys(block, bits: int):
    """The function taking a weight x to the (key(w x), sgn(w)) pairs over
    the block's elements, read off its rows at digit width ``bits``."""
    moved, rows = block.rows(bits)
    ht4 = block.system.ht4

    def images(x: Weight):
        k0, xs = _pack(x.coords2, ht4(x), bits), [x.coords2[i] for i in moved]
        return ((k0 + sum(map(mul, xs, row)), s) for row, s in rows)

    return images


def _height(key: int, shift: int) -> int:
    """The height digit of a key whose height digit sits at bit ``shift``."""
    return (key + (1 << (shift - 1))) >> shift


def character_top4(block, summands: Iterable[tuple[int, Weight]]) -> int | None:
    """The highest top of the characters ch(lam) over the (c, lam) pairs of
    ``summands``: the highest height of a Weyl image of some lam + rho, less
    the highest of rho.  It bounds the top of ``weyl_character(block,
    summands, cut4)`` for every cut; None for no pair."""
    tops = [lam + block.rho for _, lam in summands]
    if not tops:
        return None
    bits = _width(_division_bound(block, tops))
    images, shift = _image_keys(block, bits), bits * len(block.system._hvals2)
    best = max(k for x in tops for k, _ in images(x))
    return _height(best, shift) - _height(max(k for k, _ in images(block.rho)), shift)


def _not_integral(x: Weight, roots: list[Weight]) -> bool:
    """Whether 2 (x, a) / (a, a) is no integer for some root a; 4 (x, a) is
    the dot product of x's doubled coordinates, the deltas' negated, with a's."""
    m = x.shape[0]
    signed = lambda w: w.coords2[:m] + tuple([-c for c in w.coords2[m:]])
    xs = signed(x)
    return any((2 * sum(map(mul, xs, a.coords2))) % sum(map(mul, signed(a), a.coords2)) for a in roots)


def weyl_character(block, summands: Iterable[tuple[int, Weight]], cut4: int | None = None) -> CharSeries:
    """Exact sum c ch(lam) over the (c, lam) pairs of ``summands``, by the
    Weyl formula for a block subsystem: the denominator sum_w sgn(w) e^{w(rho)}
    is built once, each alternant sum_w sgn(w) e^{w(lam+rho)} is divided by it
    on its own (each step rescans the top key, so a summed numerator is
    slower), and c times the quotient goes into one dict.  A summand is 0 when
    lam+rho is singular and picks up the sign of the sorting element when
    lam+rho is irregularly ordered.  ``block`` gives the block's ``system``,
    its ``positive`` roots, their half sum ``rho``, and ``rows(bits)``, the
    ``image_rows`` of its elements, built once per width (``theta.Block``).

    The division runs on packed keys (see the module docstring), and the
    key of each Weyl image w(x) is key(x) plus the dot product of x's moved
    coordinates with w's row: no image is built as a ``Weight``.  Keys break
    height ties on the last coordinate, not in ``coords2`` order; the
    quotient is the same, since the leading term e^rho of the denominator is
    unique by height (every block root is positive) and an exact quotient of
    Laurent polynomials is unique.  Key order is additive, so an exact
    quotient has no key below min(numerator) - min(denominator): a division
    whose next shift drops below that floor is not exact, and its weight,
    not integral for the block, raises ValueError.

    With ``cut4`` the quotient keys come in descending order, so each
    division stops at its first key of height below cut4: the result is
    complete on {ht4 >= cut4}, has threshold cut4, and its ceiling is its top
    term when one survives, else the highest top of the summands.  A
    division that stops early may not reach the floor, so on this path each
    summand with a nonzero alternant is first tested for integrality:
    2 (lam+rho, a) / (a, a) must be an integer for every positive root a of
    the block.  With no cut every division runs to the end, the result has
    no threshold, and a zero sum has ceiling 0.
    """
    system = block.system
    tops = [(c, lam + block.rho) for c, lam in summands]
    out = CharSeries._trusted(system, {}, _division_bound(block, [top for _, top in tops]), cut4, 0)
    images, shift_bits = _image_keys(block, out.bits), out.bits * len(system._hvals2)
    cut, acc, summand_top = _cut(cut4, shift_bits), {}, None

    def alternant(x: Weight) -> dict[int, int]:
        alt: dict[int, int] = {}
        for k, s in images(x):
            alt[k] = alt.get(k, 0) + s
        return {k: c for k, c in alt.items() if c}

    denom = alternant(block.rho)
    if not denom:
        raise ValueError("singular block rho: not a valid block system")
    dmax, dmin = max(denom), min(denom)
    if denom[dmax] != 1:
        raise AssertionError("block rho is not regular dominant for the block")
    for coeff, top in tops:
        numer = alternant(top)
        if not numer:
            continue
        if cut is not None and _not_integral(top, block.positive):
            raise ValueError(f"{top - block.rho} is not integral for the block")
        floor = min(numer) - dmin
        limit = floor if cut is None else max(floor, cut)
        first = max(numer) - dmax
        summand_top = first if summand_top is None else max(summand_top, first)
        while numer:
            nmax = max(numer)
            c = numer[nmax]
            shift = nmax - dmax
            if shift < limit:
                if shift < floor:
                    raise ValueError(f"{top - block.rho} is not integral for the block")
                break
            acc[shift] = acc.get(shift, 0) + coeff * c
            for k, ck in denom.items():
                x = shift + k
                v = numer.get(x, 0) - c * ck
                if v:
                    numer[x] = v
                else:
                    del numer[x]
    out.packed = {k: c for k, c in acc.items() if c}
    if out.packed or cut is None or summand_top is None:
        return out.tightened()
    out.ceiling4 = _height(summand_top, shift_bits)
    return out
