"""Theta correspondence tables and branching checks for compact dual pairs.

Four pairs are covered, each attached to a distinguished positive system:

* B-pair  (O(2m+1), Sp(2n,R))   from B(m,n), order d_1 > ... > e_m
* D1-pair (O(2m),   Sp(2n,R))   from D(m,n), order d_1 > ... > e_m
* D2-pair (Sp(n),   SO*(2m))    from D(m,n), order e_1 > ... > d_n
* GL-pair (U(n),    U(p,q))     from gl(m,n), order e..e d..d e..e

Each pair enumerates its Theta table (compact highest weight, sign label,
lowest weight of the irreducible highest-weight module on the noncompact
side), produces exact finite characters for the compact side and truncated
characters for the noncompact side, and checks the branching identity

    ch M = sum over entries of (compact character) x (L^2 character)

coefficient-exactly on a window.  Every L^2 character is a finite sum of
Levi characters times one tail prod 1/(1 - e^{-beta}) over the nilradical.
Every finite sum (L^2, Enright, compact, D1's x) is one ``weyl_character``
call on its block and its signed weights, which straightens the summands
once, inside the division.  The L^2 summands, Weyl images of one integral
weight, go to it unsorted: it straightens each, with its sign, and drops a
singular one (rho_2 - rho_Levi, half the nilradical's roots, is
Levi-invariant).  The sum comes by two routes, each a list of (c, lam)
summands per entry: the signed flip sum (``l2_summands``) and Enright's
minimal coset representatives, read off the Enright group's length table
(``enright_summands``).  The tail is invertible and irreducible characters
are linearly independent, so ``verify_enright`` compares the two finite
sums in the basis of irreducible Levi characters (``straighten``), with no
division and no window.

Elsewhere in this module a finite sum is read only on a window, and its
division stops there (``weyl_character(block, summands, cut4)``).  The
table assembly (``_assembled``) goes entry by entry.  The entry's compact
weight tops every finite factor (the compact character, D1's s_{eps_m}
twin, whose eps_m has principal height 0, and D1's x character), so the
Levi sum is divided down to the window's threshold T less that top, and
the entry is skipped when nothing is left there.  Each finite factor is
divided down to T less the Levi sum's ceiling and skipped when empty, and
a factor that tops above the compact weight raises AssertionError, since
the Levi sum's cut would then be too high.  Each duality check asserts that
both series it compares hold the whole window, so a cut set too high
raises rather than passing on fewer coefficients.

A pair keeps what is the same on every call: it builds each such thing on
first use and keeps it in its one memo (``rootdata.once``), as a block keeps
its per-width key tables and a system its left sides.  These are the table
per bound (``sigma_set``), each entry's flip sum (``l2_summands``), the
nilradical tail per cut (``_with_tail``), the oscillator character per
depth and the flips (per (k, h) on GL).  The lists it hands out are copies
and the entries are frozen, so no caller can change what it keeps; a
series is a value and is shared as it is.  No finite character is kept:
each ``weyl_character`` call divides again.

Both routes, the table assembly, the duality check and the construction of
every pair are written once on ``DualPair``.  A pair declares its ``tag``
(its key in ``PAIRS``) and ``ranks``, its ``family``, order ``variant`` and
noncompact ``block`` ("e" or "d"); the rest is read
off its distinguished order: the s2 and the compact block (the family's
block types on the two kinds of coordinate), the Levi block (one A-type
part per run of noncompact symbols: the p and the q run for GL, one run
otherwise), the twist s_{eps_m} of D2' (its order's -1 sign), the
nilradical (the s2 roots outside the Levi block), from which ``enright``
picks each entry's generating reflections by one rule, and the L^2 and
compact shifts (-rho_1 on the noncompact and the compact coordinates).  Each
pair supplies only its hooks:

* ``mu(key)``, ``compact_hw(key)``: the unshifted L^2 lowest weight and the
  compact highest weight of a table key;
* ``table_keys(size)``: the table keys of one size (partitions with at most d
  parts by default; pairs of partitions for GL);
* ``labels(key)``: (sign, unshifted L^2 lowest weight) per entry of one key
  (one "none" entry at mu by default; "+" at mu and "-" at nu for Sp(2n,R));
* ``flip_set(key)`` and ``_flip_sign(entry, w)``: the flips of one key, and
  the coefficient of one flip in the entry's flip sum (0: not in it).

B, D1 and D2 act on one coordinate block and share one body, ``OneBlockPair``.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from .weights import Weight, inner, weight_sum
from .rootdata import (
    FAMILY_BLOCKS,
    block_roots,
    block_weyl,
    build_root_datum,
    distinguished_order,
    once,
    positive_system,
    PositiveSystem,
)
from .weyl import (
    WeylElement,
    reflection,
    enumerate_closure,
    signed_permutations,
    coset_reps,
    product_set,
    sgn,
)
from .series import CharSeries, straighten, weyl_character, product_expansion
from .denominators import IdentityReport, WeylSum, compare, window4


# ---------------------------------------------------------------------------
# partitions


def partitions_at_most(parts: int, size: int) -> list[tuple[int, ...]]:
    """All partitions with at most `parts` parts and |a| = size, padded."""
    if parts == 0:
        return [()] if size == 0 else []
    out = []

    def rec(prefix, remaining, maxpart):
        if len(prefix) == parts:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        # no part below remaining / (parts left): the parts after it could not hold the rest
        least = max(0, -(-remaining // (parts - len(prefix))))
        for p in range(min(maxpart, remaining), least - 1, -1):
            rec(prefix + [p], remaining - p, p)

    rec([], size, size)
    return out


def exact_parts(a: tuple[int, ...]) -> int:
    return sum(1 for x in a if x > 0)


# ---------------------------------------------------------------------------
# block data


@dataclass
class Block:
    """A sub-root-system with its Weyl group, used for finite characters;
    rho is the half sum of its positive roots.  The group's ``elements``
    may be given as a function that returns them: it is called on their
    first read, so a block whose group is never read never builds it.  What
    ``series`` builds per digit width for the block (its image keys and
    root keys) is kept in ``_kept`` by ``rootdata.once``."""

    system: PositiveSystem
    positive: list[Weight]
    _elements: list[WeylElement] | Callable[[], list[WeylElement]] = field(repr=False)

    def __post_init__(self):
        self.rho = weight_sum(self.positive, self.system.shape).half()
        self._kept = {}  # (build, key) -> build(self, *key), see ``rootdata.once``

    @property
    def elements(self) -> list[WeylElement]:
        if callable(self._elements):
            self._elements = self._elements()
        return self._elements

    @classmethod
    def of(cls, system: PositiveSystem, parts, twist: WeylElement | None = None) -> "Block":
        """The block of ``parts``, each (kind, indices, type): an even block of
        type ``type`` on the listed eps ("e") or delta ("d") coordinates, moved
        by ``twist`` when given.  Its positive roots are the parts' roots of
        positive height; its elements, built on first read, the product of
        the parts' Weyl groups conjugated by the twist, sorted by key."""
        sh, tw = system.shape, (twist.act if twist is not None else lambda x: x)
        positive = []
        for kind, idx, typ in parts:
            roots = block_roots(typ, [tw(_line(sh, kind, {i: 1})) for i in idx])
            positive += [a for a in roots if system.principal_ht4(a) > 0]

        def elements() -> list[WeylElement]:
            groups = [signed_permutations(sh, kind, idx, flips=block_weyl(typ, len(idx))[0]) for kind, idx, typ in parts]
            out = product_set(*groups)
            if twist is not None:
                out = [twist.compose(w).compose(twist) for w in out]
            return sorted(out, key=WeylElement.sort_key)

        return cls(system, positive, elements)


@dataclass(frozen=True)
class ThetaEntry:
    pair: str
    partition: tuple
    sign: str  # "+", "-", or "none"
    compact_weight: Weight
    l2_lowest: Weight

    def to_json(self) -> dict:
        part = self.partition
        nested = len(part) == 2 and isinstance(part[0], tuple)
        return {
            "pair": self.pair,
            "partition": [list(part[0]), list(part[1])] if nested else list(part),
            "compact_weight": self.compact_weight.to_json(),
            "sign": self.sign,
            "l2_lowest": self.l2_lowest.to_json(),
        }


@dataclass
class EnrightData:
    lam: Weight
    group: list[WeylElement]
    roots: list[Weight]
    min_reps: list[WeylElement]
    lengths: dict


# ---------------------------------------------------------------------------
# the pairs


class DualPair:
    """Shared machinery; a concrete pair declares what the module docstring
    names and fills in its hooks.  ``ranks`` names the constructor's arguments."""

    tag = ""
    family = ""
    variant = ""
    block = ""
    ranks = ("m", "n")

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.d = min(m, n)
        datum = build_root_datum(self.family, m, n)
        self.system = sys_ = positive_system(datum, distinguished_order(self.family, m, n, self.variant))
        seq = sys_.order.sequence
        self.twist = next((reflection(2 * s.functional(sys_.shape)) for s in seq if s.sign == -1), None)
        types, sizes = dict(zip("ed", FAMILY_BLOCKS[self.family])), {"e": m, "d": n}
        self.compact_kind = "d" if self.block == "e" else "e"
        self.block_size = sizes[self.block]
        whole = lambda kind: [(kind, range(1, sizes[kind] + 1), types[kind])]
        self.s2_block = Block.of(sys_, whole(self.block))
        self.compact_block = Block.of(sys_, whole(self.compact_kind))
        runs = [[s.idx for s in g] for kind, g in itertools.groupby(seq, lambda s: s.kind) if kind == self.block]
        # GL(0, n) has no run: one empty part keeps the identity in the block
        self.levi_block = Block.of(sys_, [(self.block, r, "A") for r in runs or [[]]], self.twist)
        levi = set(self.levi_block.positive)
        self.nilradical = [a for a in self.s2_block.positive if a not in levi]
        self._kept = {}  # (build, key) -> build(self, *key), see ``rootdata.once``

    # -- hooks with defaults ---------------------------------------------------

    def table_keys(self, size: int) -> list:
        return partitions_at_most(self.d, size)

    def labels(self, key) -> list[tuple[str, Weight]]:
        return [("none", self.mu(key))]

    def _flip_sign(self, entry: ThetaEntry, w: WeylElement) -> int:
        return sgn(w)

    # -- common ------------------------------------------------------------

    def _l2_shift(self) -> Weight:
        return -_restricted(self.system.rho1, self.block)

    def _compact_shift(self) -> Weight:
        return -_restricted(self.system.rho1, self.compact_kind)

    def sigma_set(self, bound: int) -> list[ThetaEntry]:
        """The table up to size `bound`: per key, its shifted compact highest
        weight and one entry per sign label.  Built once per bound; each call
        returns a new list of the same (frozen) entries."""
        return list(once(self, DualPair._table, bound))

    def _table(self, bound: int) -> list[ThetaEntry]:
        out = []
        shift, compact_shift = self._l2_shift(), self._compact_shift()
        for size in range(0, bound + 1):
            for key in self.table_keys(size):
                hw = compact_shift + self.compact_hw(key)
                for sign, lowest in self.labels(key):
                    out.append(ThetaEntry(self.tag, key, sign, hw, shift + lowest))
        return out

    def oscillator_character(self, depth: int) -> CharSeries:
        """The oscillator character on the window of depth `depth`, expanded
        once per depth."""
        return once(self, DualPair._oscillator, depth)

    def _oscillator(self, depth: int) -> CharSeries:
        sys_ = self.system
        return product_expansion(sys_, self._window(depth), -sys_.rho1, geom=[(a, 1) for a in sys_.positive_odd])

    def _window(self, depth: int) -> int:
        return window4(self.system, depth, top=-self.system.rho1)

    def _with_tail(self, finite: CharSeries, threshold4: int) -> CharSeries:
        """finite x the nilradical tail on {ht >= threshold4}, for a finite
        series complete there and with a tight ceiling: one tail expansion per
        cut threshold4 - finite.ceiling4."""
        if finite.is_zero_on_window():
            return CharSeries.zero(self.system, threshold4)
        return finite * once(self, DualPair._tail, threshold4 - finite.ceiling4)

    def _tail(self, cut4: int) -> CharSeries:
        """prod 1/(1 - e^{-beta}) over the nilradical on {ht4 >= cut4}."""
        sys_ = self.system
        return product_expansion(sys_, cut4, Weight.zero(sys_.shape), geom=[(b, 1) for b in self.nilradical])

    def l2_summands(self, entry: ThetaEntry) -> list[tuple[int, Weight]]:
        """The entry's flip sum: (c, w(lam0) - rho2) per flip w with c =
        _flip_sign(entry, w) nonzero.  The weights need not be Levi-dominant:
        the Levi character straightens them.  Built once per entry; each call
        returns a new list."""
        return list(once(self, DualPair._flip_sum, entry))

    def _flip_sum(self, entry: ThetaEntry) -> list[tuple[int, Weight]]:
        rho2 = self.s2_block.rho
        lam0 = self._l2_shift() + self.mu(entry.partition) + rho2
        return [(c, w.act(lam0) - rho2) for w in self.flip_set(entry.partition) if (c := self._flip_sign(entry, w))]

    def l2_character(self, entry: ThetaEntry, depth_or_threshold, depth: bool = True) -> CharSeries:
        T = self._window(depth_or_threshold) if depth else depth_or_threshold
        return self._with_tail(weyl_character(self.levi_block, self.l2_summands(entry), T), T)

    def compact_character(self, entry: ThetaEntry, cut4: int | None = None) -> CharSeries:
        return weyl_character(self.compact_block, [(1, entry.compact_weight)], cut4)

    # -- Enright route -------------------------------------------------------

    def enright(self, entry: ThetaEntry) -> EnrightData:
        """The entry's Enright group, its lengths and its minimal
        representatives.  The generators are the reflections in the nilradical
        roots that pair positively and integrally with lam0 = lambda + rho2
        and are orthogonal to every s2 root singular for it, less the long
        roots 2 delta_k when some long root is singular (a delta coordinate of
        lam0 is 0).  That exception is verified, not derived: with it the two
        routes agree on every entry of size <= 7 of D1(2..3, 3..6), D1(4, 5),
        B(2, 4) and B(3, 4); without it D1(2,3) (1,0)+ fails.  No long root is
        integral for lam0 on B, and D2, D2' and GL have none."""
        lam0 = entry.l2_lowest + self.s2_block.rho
        s2_roots = self.s2_block.positive + [-b for b in self.s2_block.positive]
        long_singular = any(_support(a) == 1 and inner(lam0, a) == 0 for a in self.s2_block.positive)
        gens = []
        for alpha in self.nilradical:
            if long_singular and _support(alpha) == 1:
                continue
            pairing = 2 * inner(lam0, alpha) / inner(alpha, alpha)
            if not (pairing.denominator == 1 and pairing > 0):
                continue
            if all(inner(lam0, beta) != 0 or inner(alpha, beta) == 0 for beta in s2_roots):
                gens.append(reflection(alpha))
        group = enumerate_closure(gens, self.system.shape)
        gset = set(group)
        roots = [a for a in s2_roots if reflection(a) in gset]
        s2_set, levi = set(self.s2_block.positive), set(self.levi_block.positive)
        pos = [a for a in roots if a in s2_set]
        pos_set = set(pos)
        lengths = {w: sum(1 for a in pos if w.act(a) not in pos_set) for w in group}
        # w is shortest in W_c w iff l(s_a w) > l(w), i.e. w^-1 a > 0, for all compact a > 0
        compact = [reflection(a) for a in pos if a in levi]
        reps = [w for w in group if all(lengths[s.compose(w)] > lengths[w] for s in compact)]
        reps.sort(key=lambda w: (lengths[w], w.sort_key()))
        return EnrightData(lam0, group, roots, reps, lengths)

    def enright_summands(self, entry: ThetaEntry) -> list[tuple[int, Weight]]:
        """The entry's Enright sum: ((-1)^l(w), w(lam0) - rho2) per minimal
        representative w, each Levi-regular."""
        data = self.enright(entry)
        summands = []
        for w in data.min_reps:
            x = w.act(data.lam)
            if any(inner(x, a) == 0 for a in self.levi_block.positive):
                raise AssertionError("minimal representative hit a singular weight")
            summands.append((-1 if data.lengths[w] % 2 else 1, x - self.s2_block.rho))
        return summands

    def enright_character(self, entry: ThetaEntry, depth: int) -> CharSeries:
        T = self._window(depth)
        return self._with_tail(weyl_character(self.levi_block, self.enright_summands(entry), T), T)

    def verify_enright(self, entry: ThetaEntry) -> IdentityReport:
        """Enright's formula for one entry as an identity of finite Levi sums,
        compared in the basis of irreducible Levi characters, with no
        division: the tail is invertible, so equality here is equality on
        every window, and the report carries no depth."""
        levi = self.levi_block
        left, right = straighten(levi, self.l2_summands(entry)), straighten(levi, self.enright_summands(entry))
        subset = f"a={entry.partition} sign={entry.sign}"
        return compare(f"theta-{self.tag}-enright", repr(self.system), subset, None, left, right)

    # -- duality -------------------------------------------------------------

    def _assembled(self, depth: int, *finites) -> list[CharSeries]:
        """Per finite, the sum over the table of finite(entry, cut4) x
        L^2(entry) on the window {ht4 >= T} of depth `depth` below
        e^{-rho_1}: finite x Levi sum, summed and times one tail, each
        division cut as the module docstring says.  The Levi sum is cut for
        factors no higher than the entry's compact weight; a higher one
        would need Levi terms below that cut (AssertionError)."""
        T = self._window(depth)
        accs = [CharSeries.zero(self.system, T) for _ in finites]
        for entry in self.sigma_set(depth):
            top = self.system.ht4(entry.compact_weight)
            levi = weyl_character(self.levi_block, self.l2_summands(entry), T - top)
            if levi.is_zero_on_window():
                continue
            for k, finite in enumerate(finites):
                fin = finite(entry, T - levi.ceiling4)
                if fin.is_zero_on_window():
                    continue
                if fin.ceiling4 > top:
                    raise AssertionError(f"a finite factor of {entry.partition} tops {fin.ceiling4}, above {top}")
                accs[k] = accs[k] + fin.truncate(T - levi.ceiling4) * levi.truncate(T - fin.ceiling4)
        return [self._with_tail(acc.tightened(), T) for acc in accs]

    def assembled_character(self, depth: int) -> CharSeries:
        return self._assembled(depth, self.compact_character)[0]

    def _duality_report(
        self, kind: str, subset: str, depth: int, left: CharSeries, right: CharSeries
    ) -> IdentityReport:
        """``compare`` of two series that must both hold the whole window of
        depth ``depth``: a series cut above it would narrow the common window
        and pass on fewer coefficients, so it raises AssertionError."""
        T = self._window(depth)
        if left.threshold4 != T or right.threshold4 != T:
            raise AssertionError(f"{kind}: thresholds {left.threshold4}, {right.threshold4} are not the window {T}")
        return compare(kind, repr(self.system), subset, depth, left, right)

    def verify_duality(self, depth: int) -> IdentityReport:
        osc, total = self.oscillator_character(depth), self.assembled_character(depth)
        return self._duality_report(f"theta-{self.tag}", "full table", depth, osc, total)


def _line(shape, kind: str, coeffs: dict) -> Weight:
    """sum of c eps_i (kind "e") or c delta_i (kind "d") over coeffs {i: c},
    written straight into the doubled coordinates."""
    m, n = shape
    offset, size = (0, m) if kind == "e" else (m, n)
    coords2 = [0] * (m + n)
    for i, c in coeffs.items():
        if not 1 <= i <= size:
            raise ValueError(f"index {i} out of range for kind {kind!r} and shape {shape}")
        coords2[offset + i - 1] += 2 * c
    return Weight._trusted(tuple(coords2), shape)


def _restricted(w: Weight, kind: str) -> Weight:
    """The eps ("e") or the delta ("d") part of w."""
    m = w.shape[0]
    return Weight._trusted(tuple([c if (i < m) == (kind == "e") else 0 for i, c in enumerate(w.coords2)]), w.shape)


def _support(w: Weight) -> int:
    """The number of nonzero coordinates of w."""
    return sum(1 for c in w.coords2 if c)


# ---------------------------------------------------------------------------
# one-block pairs


class OneBlockPair(DualPair):
    """The pairs whose noncompact member acts on one coordinate block: the
    deltas for Sp(2n,R) (B and D1), the eps for SO*(2m) (D2).

    Its hooks read that block: mu lies on its last d coordinates, and the
    flips are the sign flips of its block type on the others.
    """

    def mu(self, a) -> Weight:
        coeffs = {self.block_size - self.d + r: -a[self.d - r] for r in range(1, self.d + 1)}
        x = _line(self.system.shape, self.block, coeffs)
        return x if self.twist is None else self.twist.act(x)

    def compact_hw(self, a) -> Weight:
        return _line(self.system.shape, self.compact_kind, dict(enumerate(a, start=1)))

    def flip_set(self, a) -> list[WeylElement]:
        """The sign flips of the noncompact block on its first block_size - d
        coordinates, the same for every entry and built once.  They fix the
        last coordinate, so they commute with the twist."""
        return list(once(self, OneBlockPair._sign_flips))

    def _sign_flips(self) -> list[WeylElement]:
        flips = block_weyl(FAMILY_BLOCKS[self.family]["ed".index(self.block)], self.block_size)[0]
        flipped = range(1, self.block_size - self.d + 1)
        return signed_permutations(self.system.shape, self.block, flipped, permute=False, flips=flips)


# ---------------------------------------------------------------------------
# Sp(2n,R)-side pairs


class SpPair(OneBlockPair):
    """The pairs (O(k), Sp(2n,R)) with the order d_1 > ... > e_m.

    The noncompact side Sp(2n,R) lives on the delta coordinates and is the
    same for k = 2m+1 (family B) and k = 2m (family D); the subclasses fix
    the family, and with it the compact Weyl group W(B_m) or W(D_m).
    """

    block = "d"

    @property
    def k(self) -> int:
        return 2 * self.m + (self.family == "B")

    def nu(self, a) -> Weight:
        j = exact_parts(a)
        coeffs = dict.fromkeys(range(self.n - self.k + j + 1, self.n - j + 1), -1)
        for r in range(self.n - j + 1, self.n + 1):
            coeffs[r] = -a[self.n - r]
        return _line(self.system.shape, "d", coeffs)

    def in_extra_family(self, a) -> bool:
        """Kashiwara-Vergne: the det-twisted partner of the O(k) representation
        with j nonzero parts has first column k - j; it differs from it when
        2j < k and occurs with Sp(2n,R) when k - j <= n, with nu its weight."""
        j = exact_parts(a)
        return 2 * j < self.k and self.k - j <= self.n

    def labels(self, a) -> list[tuple[str, Weight]]:
        out = [("+", self.mu(a))]
        if self.in_extra_family(a):
            out.append(("-", self.nu(a)))
        return out


# ---------------------------------------------------------------------------
# B-pair


class BPair(SpPair):
    """(O(2m+1), Sp(2n,R)) from B(m,n) with the distinguished order."""

    tag = family = "B"

    def _flip_sign(self, entry, w):
        # an even number of flips feeds L^2(mu), an odd number L^2(nu)
        return 1 if (sgn(w) == 1) == (entry.sign == "+") else 0


# ---------------------------------------------------------------------------
# D2-pair


class D2Pair(OneBlockPair):
    """(Sp(n), SO*(2m)) from D(m,n) with the order e_1 > ... > d_n."""

    tag = variant = "D2"
    family = "D"
    block = "e"


class D2PrimePair(D2Pair):
    """D2 on the order that carries -eps_m in the basis; its table is the
    s_{eps_m}-image of D2's and is verified natively against its own
    oscillator character."""

    tag = variant = "D2'"


# ---------------------------------------------------------------------------
# D1-pair


class D1Pair(SpPair):
    """(O(2m), Sp(2n,R)) from D(m,n) with the order d_1 > ... > e_m.

    Entries carry the F^+/F^- labels of the disconnected O(2m); the torus
    part of the branching uses F_D and F_D^+, the x-twisted part uses the
    Kostant quotient over W(C_{m-1}).
    """

    tag = variant = "D1"
    family = "D"

    def __init__(self, m: int, n: int):
        if m < 2:
            raise ValueError("the O(2m) side needs m >= 2; m = 1 degenerates to a torus")
        super().__init__(m, n)
        # C_{m-1} block on eps_1..eps_{m-1} for the Kostant x-characters
        self.x_block = Block.of(self.system, [("e", range(1, m), "C")])

    def a_m(self, a) -> int:
        return a[self.m - 1] if self.m <= len(a) else 0

    def _flip_sign(self, entry, w):
        # with a_m > 0 every flip feeds L^2(mu); otherwise an odd number of
        # flips feeds L^2(nu)
        s = sgn(w)
        return s if (self.a_m(entry.partition) > 0 or s == 1) == (entry.sign == "+") else 0

    # compact characters -----------------------------------------------------

    def compact_character(self, entry: ThetaEntry, cut4: int | None = None) -> CharSeries:
        """ch(hw), plus ch of its s_{eps_m} image on a "+" entry with a_m > 0."""
        hw = entry.compact_weight
        twin = entry.sign == "+" and self.a_m(entry.partition) > 0
        flipped = [(1, reflection(2 * Weight.eps(self.m, self.system.shape)).act(hw))] if twin else []
        return weyl_character(self.compact_block, [(1, hw)] + flipped, cut4)

    def x_character(self, entry: ThetaEntry, cut4: int | None = None) -> CharSeries:
        """Kostant's character of F^{+-}(hw) on the x-component (a_m = 0)."""
        sign = 1 if entry.sign == "+" else -1
        return weyl_character(self.x_block, [] if self.a_m(entry.partition) > 0 else [(sign, entry.compact_weight)], cut4)

    def oscillator_x_character(self, depth: int) -> CharSeries:
        """Trace of x t on the oscillator module: only the eps_m-paired
        monomials survive, pairing delta_i +- eps_m into 2 delta_i, the
        nilradical's roots on one coordinate."""
        sys_ = self.system
        geom = [a for a in sys_.positive_odd if not a.coords2[self.m - 1]]
        geom += [b for b in self.nilradical if _support(b) == 1]
        return product_expansion(sys_, self._window(depth), -sys_.rho1, geom=[(a, 1) for a in geom])

    def d2_twin_sum(self, depth: int) -> CharSeries:
        """The x-twisted oscillator character reproduced from the D(n, m-1)
        superdenominator structure: the bracket sum over
        W(A_{n-1}) {even delta flips on the first n-d1} W(C_{m-1})."""
        sys_ = self.system
        sh = sys_.shape
        m, n = self.m, self.n
        d1 = min(n, m - 1)
        rho_hat = _line(sh, "d", {i: n - (m - 1) - i for i in range(1, n + 1)})
        rho_hat = rho_hat + _line(sh, "e", {i: m - i for i in range(1, m)})
        brackets = [
            _line(sh, "d", dict.fromkeys(range(n - i + 1, n + 1), 1))
            - _line(sh, "e", dict.fromkeys(range(1, i + 1), 1))
            for i in range(1, d1 + 1)
        ]
        W = product_set(
            self.levi_block.elements,
            signed_permutations(sh, "d", range(1, n - d1 + 1), permute=False, flips="even"),
            self.x_block.elements,
        )
        T = self._window(depth)
        denom_lead = self.s2_block.rho + self.x_block.rho
        Tsum = T + sys_.ht4(denom_lead)
        num = WeylSum(W, "sgn", rho_hat, [(b, 1) for b in brackets]).expand(sys_, Tsum)
        inv = product_expansion(
            sys_, T - num.ceiling4, -denom_lead,
            geom=[(a, 1) for a in self.s2_block.positive + self.x_block.positive],
        )
        return (num * inv).truncate(T)

    def verify_duality(self, depth: int) -> IdentityReport:
        """The torus, x and x-twin checks, the first two from one walk of the
        table: the first failing report, else the torus report."""
        total, total_x = self._assembled(depth, self.compact_character, self.x_character)
        rep = self._duality_report("theta-D1", "full table", depth, self.oscillator_character(depth), total)
        if not rep.passed:
            return rep
        osc_x = self.oscillator_x_character(depth)
        for kind, subset, other in (
            ("theta-D1-x", "x-component", lambda: total_x),
            ("theta-D1-xtwin", "x-component vs D(n,m-1) superdenominator", lambda: self.d2_twin_sum(depth)),
        ):
            x_rep = self._duality_report(kind, subset, depth, osc_x, other())
            if not x_rep.passed:
                return x_rep
        return rep


# ---------------------------------------------------------------------------
# GL-pair


class GLPair(DualPair):
    """(U(n), U(p,q)) from gl(m,n), m = p + q, distinguished order p."""

    tag = family = "GL"
    block = "e"
    ranks = ("n", "p", "q")

    def __init__(self, n: int, p: int, q: int):
        self.p, self.q = p, q
        self.variant = f"p{p}"
        super().__init__(p + q, n)

    def table_keys(self, size: int) -> list:
        """Pairs (a, b) of partitions with exactly k and h parts, k <= p,
        h <= q, k + h <= d and |a| + |b| = size; the partitions of s with
        exactly k parts are those of s - k with at most k, each part plus 1."""
        exact = lambda k, s: [tuple(x + 1 for x in a) for a in partitions_at_most(k, s - k)]
        keys = []
        for k in range(min(self.p, self.d) + 1):
            for h in range(min(self.q, self.d - k) + 1):
                for sa in range(size + 1):
                    keys += itertools.product(exact(k, sa), exact(h, size - sa))
        return keys

    def mu(self, ab) -> Weight:
        a, b = ab
        coeffs = {self.p - s + 1: -x for s, x in enumerate(a, start=1)}
        coeffs.update({self.p + t: x for t, x in enumerate(b, start=1)})
        return _line(self.system.shape, "e", coeffs)

    def compact_hw(self, ab) -> Weight:
        a, b = ab
        coeffs = dict(enumerate(a, start=1))
        coeffs.update({self.n - u + 1: -x for u, x in enumerate(b, start=1)})
        return _line(self.system.shape, "d", coeffs)

    def flip_set(self, ab) -> list[WeylElement]:
        """Coset representatives for W_c \\ W_c W_2^{(d-h, d-k)}, built once per (k, h)."""
        return list(once(self, GLPair._cosets, *map(exact_parts, ab)))

    def _cosets(self, k: int, h: int) -> list[WeylElement]:
        free = list(range(1, self.p - self.d + h + 1)) + list(range(self.p + self.d - k + 1, self.m + 1))
        w2 = signed_permutations(self.system.shape, "e", free)
        wc = self.levi_block.elements
        # W_2 alone is not a union of W_c-cosets; the product W_c W_2 is
        return coset_reps([c.compose(g) for c in wc for g in w2], wc, left=True)


PAIRS = {c.tag: c for c in (BPair, D1Pair, D2Pair, D2PrimePair, GLPair)}


def make_pair(tag: str, **kw) -> DualPair:
    """The pair ``tag`` of ``PAIRS`` on its ``ranks``, a rank given as None
    counting as not given; an unknown tag, a missing rank or a rank the pair
    does not take raises ValueError."""
    cls = PAIRS.get(tag.upper())
    if cls is None:
        raise ValueError(f"unknown pair {tag.upper()!r}")
    kw = {r: v for r, v in kw.items() if v is not None}
    missing = [r for r in cls.ranks if r not in kw]
    if missing:
        raise ValueError(f"the {cls.tag} pair is missing rank {', '.join(missing)}")
    extra = [r for r in kw if r not in cls.ranks]
    if extra:
        raise ValueError(f"the {cls.tag} pair takes no rank {', '.join(extra)}")
    return cls(**kw)
