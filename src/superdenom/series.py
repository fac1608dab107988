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
significant digit.  There is one rule, key(x) = x . units: the unit key of
coordinate i (``_unit_keys``, built once per system and width) is a 1 in
digit i under h_i in the height digit.  Adding keys adds weights and
heights; since the lower digits sum to less than half of 2^(B dim),
comparing keys compares heights first, so every window test compares a key
with one cut (``_cut``) and the top key holds the top height.  Each series
keeps a bound on the absolute value of its coordinates, and B is the
narrowest width on the ladder 16, 32, 48, ... that holds it, so no digit
overflows.  A step that forms keys (the constructor, the kernel
``product_expansion``, the division in ``weyl_character``, ``+`` and ``*``)
sets the bound, takes B from it, and builds its series in one step; an
operand of a narrower B is re-encoded from its digits, dotted with the wider
unit keys.  The kernel multiplies the finite factors (1 - s e^{-b}) first,
each in a two-term step that drops a key the moment it cancels, so that a
left side's even binomials collapse to the few terms of the W_0 alternant
(Weyl's denominator formula) before any geometric factor multiplies them.
Each geometric column is then built in one step from its term count, in
descending height, so the inner loop stops at the first term below the
window; a key that cancels there is kept at 0 until the end and costs
the next column no work.  ``Weight`` stays
at the boundary: the constructor and ``coeff`` take weights, and ``terms``,
``support_sorted``, ``to_json``, ``repr`` and the weights ``mismatches``
returns unpack keys as they go.

Every element w is a signed permutation, so the height and the key of a Weyl
image w(x) are the dot products of x with the heights and the unit keys read
off w's signed image (``_signed_row``), and no image is built as a
``Weight``.  The kernel keys each piece w(...) of a signed Weyl sum this
way, and its digit bound is the un-acted weights' own, since w only permutes
and signs coordinates; a block keys the images of the finite characters from
rows it builds once per width (``_image_keys``), next to its integrality
test.  Each of these per-width tables, the unit keys on the system and the
image and root keys (``_denominator``) on the block, is kept in its owner's
memo by ``rootdata.once``.  A finite sum is straightened in one place,
``_basis`` (singular summands dropped, the rest tested for integrality,
keyed by their dominant images and merged); ``straighten`` reads off its
coefficients on irreducible characters, and ``weyl_character`` sums its
alternants into one numerator and divides that by
A(rho) = e^rho prod_{a > 0} (1 - e^{-a}), one positive root at a time:
dividing by 1 - e^{-a} walks each a-string of keys top down with a running
sum, so the division costs about |positive roots| times the size of the
partial quotients.  The quotient at a key reads only keys at or above it, so
with a cut every partial quotient stops at the cut (shifted by key(rho)).

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
from .rootdata import PositiveSystem, once
from .weyl import WeylElement, sgn, sgn_prime

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
        if any(w.shape != system.shape for w in terms):
            raise ValueError("a term's weight is not of the system's shape")
        bound = max((abs(x) for w in terms for x in w.coords2), default=0)
        bits = _width(bound)
        units = once(system, _unit_keys, bits)
        cut = _cut(threshold4, bits * len(units))
        keyed = ((sum(map(mul, w.coords2, units)), c) for w, c in terms.items() if c)
        self.system, self.bound, self.bits, self.threshold4, self.ceiling4 = system, bound, bits, threshold4, ceiling4
        self.packed = {k: c for k, c in keyed if cut is None or k >= cut}

    @classmethod
    def _trusted(cls, system: PositiveSystem, packed: dict[int, int], bound: int, threshold4: int | None, ceiling4: int) -> "CharSeries":
        """The one fast constructor: the series of packed terms, nonzero, inside
        the window and within ``bound``, at width ``_width(bound)``, skipping
        __init__'s filters; the dict is taken over, not copied."""
        out = cls.__new__(cls)
        out.system, out.packed, out.bound, out.bits, out.threshold4, out.ceiling4 = system, packed, bound, _width(bound), threshold4, ceiling4
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(system: PositiveSystem, threshold4: int | None) -> "CharSeries":
        return CharSeries._trusted(system, {}, 0, threshold4, 0)

    # -- bookkeeping ---------------------------------------------------------

    def _same_space(self, other: "CharSeries") -> None:
        if self.system.shape != other.system.shape or self.system._hvals2 != other.system._hvals2:
            raise ValueError("series live over different reference systems")

    def _unpacked(self):
        """(weight, coefficient) for every term, in the order of ``packed``."""
        unpack, shape = _unpacker(self.bits, len(self.system._hvals2)), self.system.shape
        return ((Weight._trusted(unpack(k), shape), c) for k, c in self.packed.items())

    def _at(self, bits: int) -> dict[int, int]:
        """The packed terms re-encoded at a width no narrower than their own:
        each key's digits are read off and dotted with the wider unit keys."""
        if bits == self.bits:
            return self.packed
        unpack, units = _unpacker(self.bits, len(self.system._hvals2)), once(self.system, _unit_keys, bits)
        return {sum(map(mul, unpack(k), units)): c for k, c in self.packed.items()}

    @property
    def terms(self) -> Mapping[Weight, int]:
        return _Terms(self)

    def coeff(self, w: Weight) -> int:
        if w.shape != self.system.shape or max(map(abs, w.coords2), default=0) > self.bound:
            return 0  # a coordinate beyond the bound: no term has it
        return self.packed.get(sum(map(mul, w.coords2, once(self.system, _unit_keys, self.bits))), 0)

    def is_zero_on_window(self) -> bool:
        return not self.packed

    def reaches(self, threshold4: int | None) -> bool:
        """Whether some term has height >= threshold4 (whether any term does,
        for None): the top key against the cut."""
        if not self.packed:
            return False
        return threshold4 is None or max(self.packed) >= _cut(threshold4, self.bits * len(self.system._hvals2))

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
        bound = a.bound + b.bound
        bits = _width(bound)
        column = sorted(b._at(bits).items(), reverse=True)
        full = _convolve(a._at(bits), column, _cut(t, bits * len(self.system._hvals2)))
        return CharSeries._trusted(self.system, {k: c for k, c in full.items() if c}, bound, t, a.ceiling4 + b.ceiling4)

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


def _unit_keys(system: PositiveSystem, bits: int) -> tuple[int, ...]:
    """key(b_i) at digit width ``bits`` for each coordinate i, b_i the weight
    whose only doubled coordinate is a 1 at i: a 1 in digit i and h_i, b_i's
    height, in the height digit.  Built once per (system, width) and kept on
    the system (``once``).  Every key is formed from these by the one rule
    key(x) = sum_i x_i key(b_i)."""
    hv = system._hvals2
    shift = bits * len(hv)
    return tuple((h << shift) + (1 << (bits * i)) for i, h in enumerate(hv))


def _signed_row(row, img: tuple[int, ...]) -> list[int]:
    """The values ``row`` takes on the basis vectors, read off through the
    signed image ``img`` of a Weyl element w: entry i is row's value on
    w(b_i), +-row[slot of w(b_i)].  For a linear row (heights, keys), the
    value on w(x) is the dot product of x's doubled coordinates with it."""
    return [row[x - 1] if x > 0 else -row[-x - 1] for x in img]


def product_expansion(
    system: PositiveSystem,
    threshold4: int,
    leading: Weight,
    coeff: int = 1,
    geom: Iterable[tuple[Weight, int]] = (),
    poly: Iterable[tuple[Weight, int]] = (),
    *,
    w: WeylElement | None = None,
) -> CharSeries:
    """w(coeff * e^leading * prod 1/(1-s e^{-beta}) * prod (1-s e^{-beta})),
    complete on the window {ht >= threshold4}; w is a Weyl element, the
    identity when omitted.

    The product runs on packed integer keys (Kronecker substitution); see the
    module docstring.  No image under w is built as a ``Weight``: the height
    and the key of w(x) are the dot products of x's doubled coordinates with
    the rows ``_signed_row`` reads off w's signed image, of the heights and
    of the unit keys (``_unit_keys``).  w permutes the coordinates and their
    signs, so the digit bound is read off the given weights themselves.

    The finite factors are multiplied first, one two-term step each
    (``_times_binomial``) that drops every key the moment it cancels; on a
    left side they collapse to the W_0 alternant, much smaller than the
    partial products of the geometric columns, which the even binomials
    would otherwise cancel down only at the end.  Then each geometric
    column, built from its term count (the largest multiple of its exponent
    the window still needs), is multiplied in (``_convolve``).  A partial
    product keeps only the terms that the remaining factors' ceilings can
    still lift into the window; that cut does not depend on the order of
    the factors, so neither does any term, the threshold, the ceiling or
    the digit bound.
    """
    hv = system._hvals2
    if w is not None:
        if w.shape != system.shape:
            raise ValueError("shape mismatch")
        hv = _signed_row(hv, w.img)
    geom = [(b, s, sum(map(mul, b.coords2, hv))) for b, s in geom]
    poly = [(b, s, sum(map(mul, b.coords2, hv))) for b, s in poly]
    g_ceil = [min(0, h) for _, _, h in geom]
    p_ceil = [max(0, -h) for _, _, h in poly]
    h_lead = sum(map(mul, leading.coords2, hv))
    other = sum(g_ceil) + sum(p_ceil)
    total_ceiling = h_lead + other
    if total_ceiling < threshold4:
        return CharSeries._trusted(system, {}, 0, threshold4, total_ceiling)

    # each column's term count: its terms e^{-k beta} (h > 0, k from 0) or
    # e^{k beta} (h < 0, k from 1) reach down to threshold4 - (h_lead + other
    # - c), at or below the column's top c, so k runs to |that| // |h|
    tops = []
    for (b, _, h), c in zip(geom, g_ceil):
        if h == 0:
            beta = b if w is None else w.act(b)
            raise HeightZeroExponent(f"cannot expand a geometric factor with height-zero exponent {beta}")
        tops.append(abs(threshold4 - (h_lead + other - c)) // abs(h))
    # digit width: no coordinate of a partial product exceeds this bound
    bound = max(map(abs, leading.coords2))
    for (b, _, _), top in zip(geom, tops):
        bound += top * max(map(abs, b.coords2))
    for b, _, _ in poly:
        bound += max(map(abs, b.coords2))
    bits = _width(bound)
    shift = bits * len(hv)
    units = once(system, _unit_keys, bits)
    if w is not None:
        units = _signed_row(units, w.img)

    acc: dict[int, int] = {sum(map(mul, leading.coords2, units)): coeff}
    remaining = other
    for (b, s, _), c in zip(poly, p_ceil):
        remaining -= c
        acc = _times_binomial(acc, sum(map(mul, b.coords2, units)), s, _cut(threshold4 - remaining, shift))
    for (b, s, h), c, top in zip(geom, g_ceil, tops):
        remaining -= c
        kb = sum(map(mul, b.coords2, units))
        if h > 0:  # e^{-k beta} for k = 0 .. top
            column = [(-k * kb, s ** k) for k in range(top + 1)]
        else:  # 1/(1-x) = -x^{-1} - x^{-2} - ... in the region |x| > 1: e^{k beta} for k = 1 .. top
            column = [(k * kb, -(s ** k)) for k in range(1, top + 1)]
        acc = _convolve(acc, column, _cut(threshold4 - remaining, shift))
    return CharSeries._trusted(system, {k: c for k, c in acc.items() if c}, bound, threshold4, total_ceiling)


def _times_binomial(acc: dict[int, int], kb: int, s: int, cut: int) -> dict[int, int]:
    """The product of the terms ``acc`` and 1 - s e^{-b}, b of key ``kb``, on
    the keys >= cut: acc's own terms, then -s times each one moved down by
    kb.  A key whose sum is 0 is dropped on the spot, or passed over when it
    was never stored (a term moved with coefficient 0, or s = 0)."""
    out = {k: c for k, c in acc.items() if k >= cut}
    get = out.get
    for k, c in acc.items():
        k -= kb
        if k >= cut:
            c = get(k, 0) - s * c
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    return out


def _convolve(acc: dict[int, int], column: list[tuple[int, int]], cut: int | None) -> dict[int, int]:
    """The product of the terms ``acc`` and ``column`` on the keys >= cut
    (every key for None), zero coefficients kept; a zero row of ``acc`` is
    passed over.  Keys add and ``column`` is in descending key order, so
    each row stops at its first key below the cut."""
    if cut is None:  # the least sum of two keys: no row stops
        cut = min(acc, default=0) + (column[-1][0] if column else 0)
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in acc.items():
        if not ca:
            continue
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
    Each piece is one ``product_expansion`` given its element w, which keys
    the piece off w's signed image: no Weyl image is built as a ``Weight``.

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
        piece = product_expansion(system, threshold4, leading, s * coeff, geom, poly, w=w)
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


def _image_keys(block, bits: int):
    """The block's two per-width tables, built once per width and kept on
    the block (``once``).

    The first is the function taking a weight x to the (key(w x), sgn(w))
    pairs over the block's elements at digit width ``bits``.  It reads, per
    element w, (row, sgn(w)): row[j] = key(w b_i) - key(b_i) for the j-th
    coordinate i that some element moves, key(w b_i) read off w's signed
    image and the unit keys (``_signed_row``, ``_unit_keys``), as the kernel
    reads them.  A key is linear in the doubled coordinates, so key(w x) =
    key(x) + sum_j x_i row[j].

    The second is the integrality test: whether 2 (x, a) / (a, a) is no
    integer for some positive root a.  A block root lies on the eps or on
    the delta coordinates, where the form is the dot product or its
    negative, so the ratio is 2 x.a / a.a on doubled coordinates; each
    root's a.a is computed here, not per test."""
    system, elements = block.system, block.elements
    dim = len(system._hvals2)
    unit = once(system, _unit_keys, bits)
    moved = [i for i in range(dim) if any(w.img[i] != i + 1 for w in elements)]
    rows = []
    for w in elements:
        row = _signed_row(unit, w.img)
        rows.append((tuple([row[i] - unit[i] for i in moved]), sgn(w)))
    norms = [(a.coords2, sum(map(mul, a.coords2, a.coords2))) for a in block.positive]

    def images(x: Weight):
        k0, xs = sum(map(mul, x.coords2, unit)), [x.coords2[i] for i in moved]
        return ((k0 + sum(map(mul, xs, row)), s) for row, s in rows)

    def not_integral(x: Weight) -> bool:
        return any(2 * sum(map(mul, x.coords2, a)) % norm for a, norm in norms)

    return images, not_integral


def _height(key: int, shift: int) -> int:
    """The height digit of a key whose height digit sits at bit ``shift``."""
    return (key + (1 << (shift - 1))) >> shift


def _basis(block, tops: list[tuple[int, Weight]], bits: int) -> dict[int, dict[int, int]]:
    """The straightening rule, written only here: sum c A(x) over the (c, x)
    pairs of ``tops`` (x = lam + rho, A(x) = sum_w sgn(w) e^{w x} read as
    ``dict(images(x))`` at width ``bits``) as c_mu A(mu + rho) per dominant
    mu, c_mu != 0 (its value at its key), keyed by its lead key(mu + rho).
    An x with two images on one key is singular, A(x) = 0, and dropped; any
    other is tested for integrality, the one test (ValueError), and led by its
    highest image, the dominant one, with that image's sign; leads merge."""
    (images, not_integral), size = once(block, _image_keys, bits), len(block.elements)
    leads: dict[int, list] = {}
    for c, x in tops:
        alt = dict(images(x))
        if len(alt) < size:
            continue
        if not_integral(x):
            raise ValueError(f"{x - block.rho} is not integral for the block")
        lead = max(alt)
        merged = leads.setdefault(lead, [0, alt])
        merged[0] += c * alt[lead] * merged[1][lead]  # c A(x) in units of the first alternant kept
    return {lead: {k: d * s for k, s in alt.items()} for lead, (d, alt) in leads.items() if d}


def _denominator(block, bits: int) -> tuple[int, list[int]]:
    """The Weyl denominator A(rho) = e^rho prod_{a > 0} (1 - e^{-a}) in
    product form at digit width ``bits``: key(rho) and the keys of the
    block's positive roots, read only (a block shares them).  rho must
    straighten to itself: its alternant is built for that test, and
    dropped."""
    basis = _basis(block, [(1, block.rho)], bits)
    if not basis:
        raise ValueError("singular block rho: not a valid block system")
    [(rho, alt)] = basis.items()
    if alt[rho] != 1:
        raise AssertionError("block rho is not regular dominant for the block")
    units = once(block.system, _unit_keys, bits)
    return rho, [sum(map(mul, a.coords2, units)) for a in block.positive]


def _straightened(block, summands: Iterable[tuple[int, Weight]]):
    """The digit bound max |x|_inf + 3 |rho|_inf over the x = lam + rho of
    the (c, lam) pairs ``summands`` and its width; the block's
    ``_denominator`` and the pairs' ``_basis`` at that width.  The bound
    holds every key of their division: each partial quotient lies on root
    strings between weights of the straightened alternants (within max
    |x|), a key one root above one of its weights within 2 |rho| more, and
    the quotient, shifted by -rho, within |rho| more."""
    tops = [(c, lam + block.rho) for c, lam in summands]
    bound = max((max(map(abs, x.coords2)) for _, x in tops), default=0) + 3 * max(map(abs, block.rho.coords2))
    bits = _width(bound)
    return (bound, bits, *once(block, _denominator, bits), _basis(block, tops, bits))


def straighten(block, summands: Iterable[tuple[int, Weight]]) -> CharSeries:
    """sum c ch(lam) over the (c, lam) pairs of ``summands`` in the basis of
    irreducible characters: the exact series of c_mu e^mu over the dominant
    mu (``_basis``; keys are linear, so key(mu) is the lead less key(rho)).
    Irreducible characters are linearly independent, so two finite sums are
    equal exactly when these series are.  Its ceiling is its top term, the
    character's top, or 0."""
    bound, bits, rho, _, basis = _straightened(block, summands)
    packed = {lead - rho: numer[lead] for lead, numer in basis.items()}
    ceiling4 = _height(max(packed), bits * len(block.system._hvals2)) if packed else 0
    return CharSeries._trusted(block.system, packed, bound, None, ceiling4)


def _string_quotient(numer: dict[int, int], root: int, stop: int | None) -> dict[int, int]:
    """numer / (1 - e^{-a}) on the keys >= stop (every key for None), for
    terms ``numer`` at keys >= stop and a root a of key ``root``.  The
    quotient at k is numer's sum over the keys k, k + root, k + 2 root, ...,
    so it reads only keys >= k: taken in descending order, q(k) = numer(k) +
    q(k + root), and each step from a key of numer down to the next one on
    its a-string, or down to the stop, holds the running sum.  A root key
    <= 0 would walk its strings up or not at all (ValueError).  With no stop
    the division must be exact: a running sum still nonzero below numer's
    lowest key is an internal fault (AssertionError)."""
    if root <= 0:
        raise ValueError("a block root of non-positive key (non-positive height): not a valid block system")
    keys = sorted(numer, reverse=True)
    lo = keys[-1] if stop is None and keys else stop
    out: dict[int, int] = {}
    for k in keys:
        s = numer[k] + out.get(k + root, 0)
        while s:
            out[k] = s
            k -= root
            if k in numer:
                break
            if k < lo:
                if stop is None:
                    raise AssertionError("the division of an integral regular alternant is not exact")
                break
    return out


def weyl_character(block, summands: Iterable[tuple[int, Weight]], cut4: int | None = None) -> CharSeries:
    """Exact sum c ch(lam) over the (c, lam) pairs of ``summands`` by the
    Weyl formula for a block subsystem: the pairs are straightened once,
    here (``_basis``, which tests integrality), their alternants c_mu
    A(mu + rho) are summed into one numerator, and that is divided by
    A(rho) = e^rho prod_{a > 0} (1 - e^{-a}) one positive root at a time
    (``_string_quotient``), then shifted by -rho.  Each root costs one pass
    over the partial quotient, so the division costs about |positive roots|
    times its size.  ``block`` gives its ``system``, its ``positive`` roots,
    their half sum ``rho``, its group's ``elements``, and a ``_kept`` dict,
    in which ``once`` keeps its image keys and root keys per width
    (``theta.Block``).

    The division runs on packed keys (see the module docstring): no image
    is built as a ``Weight``.  Keys break height ties on the last
    coordinate, not in ``coords2`` order; the quotient is the same, since
    every block root has a positive key (one that has not is refused,
    ValueError, before its strings are walked) and an exact quotient of
    Laurent polynomials is unique.

    Each root's quotient reads only keys at or above the one it sets, so
    with ``cut4`` every partial quotient stops at the key of height cut4
    plus key(rho) (the result is complete on {ht4 >= cut4}, threshold
    cut4); with none it runs to the end (no threshold).  The numerator is
    integral and regular, so its division is exact; a remainder is an
    internal fault (AssertionError).  Both paths take one ceiling: the top
    straightened weight's height, the character's top, or 0.
    """
    bound, bits, rho, roots, basis = _straightened(block, summands)
    shift_bits = bits * len(block.system._hvals2)
    cut = _cut(cut4, shift_bits)
    stop = None if cut is None else cut + rho
    numer: dict[int, int] = {}
    for alt in basis.values():
        for k, c in alt.items():
            if stop is None or k >= stop:
                c += numer.pop(k, 0)
                if c:
                    numer[k] = c
    for root in roots:
        numer = _string_quotient(numer, root, stop)
    ceiling4 = _height(max(basis) - rho, shift_bits) if basis else 0
    return CharSeries._trusted(block.system, {k - rho: c for k, c in numer.items()}, bound, cut4, ceiling4)
