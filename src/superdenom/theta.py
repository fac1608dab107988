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
The sum comes by two independent routes: the sign-character bookkeeping over
the flip groups (``l2_levi_sum``) and Enright's minimal coset representatives
(``enright_levi_sum``).  The tail is invertible, so ``verify_enright``
compares the two finite sums as whole characters, with no window.

Both routes, the table assembly and the duality check are written once on
``DualPair``.  Each pair supplies only what differs:

* its blocks: ``s2_block``, ``levi_block``, ``compact_block``, ``levi_root_set``,
  ``nilradical`` and ``levi_runs`` (the Levi block's runs of ``coords2``);
* ``table_keys(size)``: the table keys of one size (partitions with at most d
  parts by default; pairs of partitions for GL);
* ``labels(key)``: (sign, unshifted L^2 lowest weight) per entry of one key
  (one "none" entry at mu by default; "+" at mu and "-" at nu for Sp(2n,R));
* ``_compact_shift()``, ``_l2_shift()``: the shifts of the compact and the L^2
  weights (0 and -rho_1; for GL -rho_1 on the u(n) and u(p,q) Cartans);
* ``flip_set(key)`` and ``_flip_label(key, w)``: the flips summed for one
  entry, and the sign and bucket ('+' or '-') of one flip.

B, D1 and D2 act on one coordinate block and share one body, ``OneBlockPair``,
set by the class attribute ``block`` ("d" or "e"); the sign flips of both
Weyl groups are read off the family's block types.  The basis twist
s_{eps_m} of the primed D2 pair is read off the one -1 sign of its order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .weights import Weight, inner, weight_sum
from .rootdata import (
    FAMILY_BLOCKS,
    block_weyl,
    build_root_datum,
    distinguished_order,
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
from .series import CharSeries, weyl_character, product_expansion
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
        for p in range(min(maxpart, remaining), -1, -1):
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
    rho is the half sum of its positive roots."""

    system: PositiveSystem
    positive: list[Weight]
    elements: list[WeylElement]

    def __post_init__(self):
        self.rho = weight_sum(self.positive, self.system.shape).half()

    def character(self, lam: Weight) -> CharSeries:
        return weyl_character(self.system, self.elements, self.rho, lam)


@dataclass
class ThetaEntry:
    pair: str
    partition: tuple
    sign: str  # "+", "-", or "none"
    compact_weight: Weight
    l2_lowest: Weight

    def to_json(self) -> dict:
        part = self.partition
        nested = len(part) == 2 and isinstance(part[0], tuple)
        doc = {
            "pair": self.pair,
            "partition": [list(part[0]), list(part[1])] if nested else list(part),
            "compact_weight": self.compact_weight.to_json(),
            "sign": self.sign,
            "l2_lowest": self.l2_lowest.to_json(),
        }
        return doc


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
    """Shared machinery; concrete pairs fill in the block structure and the
    hooks named in the module docstring."""

    tag = ""
    twist: WeylElement | None = None

    # -- hooks with defaults ---------------------------------------------------

    def table_keys(self, size: int) -> list:
        return partitions_at_most(self.d, size)

    def labels(self, key) -> list[tuple[str, Weight]]:
        return [("none", self.mu(key))]

    def _compact_shift(self) -> Weight:
        return Weight.zero(self.system.shape)

    def _l2_shift(self) -> Weight:
        return -self.system.rho1

    def _flip_label(self, key, w: WeylElement) -> tuple[int, str]:
        return sgn(w), "+"

    # -- common ------------------------------------------------------------

    def sigma_set(self, bound: int) -> list[ThetaEntry]:
        """The table up to size `bound`: per key, its shifted compact highest
        weight and one entry per sign label."""
        out = []
        shift, compact_shift = self._l2_shift(), self._compact_shift()
        for size in range(0, bound + 1):
            for key in self.table_keys(size):
                hw = compact_shift + self.compact_hw(key)
                for sign, lowest in self.labels(key):
                    out.append(ThetaEntry(self.tag, key, sign, hw, shift + lowest))
        return out

    def _tw(self, x: Weight) -> Weight:
        return x if self.twist is None else self.twist.act(x)

    def oscillator_character(self, depth: int) -> CharSeries:
        sys_ = self.system
        return product_expansion(sys_, self._window(depth), -sys_.rho1, geom=[(a, 1) for a in sys_.positive_odd])

    def _sorted_in_block(self, x: Weight):
        """Dominant representative w.r.t. the compact Levi block and the sign
        of the sorting permutation; None when singular."""
        c = list(self._tw(x).coords2)
        sign = 1
        for lo, hi in self.levi_runs:
            run = c[lo:hi]
            if len(set(run)) != len(run):
                return None
            for i in range(len(run)):
                for j in range(i + 1, len(run)):
                    if run[i] < run[j]:
                        sign = -sign
            c[lo:hi] = sorted(run, reverse=True)
        return self._tw(Weight(c, self.system.shape)), sign

    def _window(self, depth: int) -> int:
        return window4(self.system, depth, top=-self.system.rho1)

    def _levi_sum(self, summands) -> CharSeries:
        """sum c ch_Levi(lam) over (c, lam) pairs, exact, with the ceiling of
        its highest term: a sum's stated ceiling stays loose after cancellation."""
        acc = CharSeries.zero(self.system)
        for c, lam in summands:
            acc = acc + self.levi_block.character(lam).scale(c)
        return acc.tightened()

    def _with_tail(self, finite: CharSeries, threshold4: int) -> CharSeries:
        """finite x the nilradical tail on {ht >= threshold4}, for a finite
        series complete there and with a tight ceiling: one tail expansion."""
        sys_ = self.system
        if finite.is_zero_on_window():
            return CharSeries.zero(sys_, threshold4)
        geom = [(b, 1) for b in self.nilradical]
        return finite * product_expansion(sys_, threshold4 - finite.ceiling4, Weight.zero(sys_.shape), geom=geom)

    def l2_summands(self, key) -> list[tuple[int, Weight, str]]:
        """(coefficient, Levi-dominant weight of V^2, bucket) triples from the
        flip-group sum; bucket '+' feeds L^2(mu), '-' feeds L^2(nu)."""
        rho2 = self.s2_block.rho
        lam0 = self._l2_shift() + self.mu(key) + rho2
        out = []
        for w in self.flip_set(key):
            res = self._sorted_in_block(w.act(lam0))
            if res is None:
                continue
            dom, c_w = res
            sign, bucket = self._flip_label(key, w)
            out.append((c_w * sign, dom - rho2, bucket))
        return out

    def l2_levi_sum(self, entry: ThetaEntry) -> CharSeries:
        """The L^2 character before the tail: the flip-sum summands of its bucket."""
        want = "+" if entry.sign in ("+", "none") else "-"
        return self._levi_sum((c, lam) for c, lam, b in self.l2_summands(entry.partition) if b == want)

    def l2_character(self, entry: ThetaEntry, depth_or_threshold, depth: bool = True) -> CharSeries:
        T = self._window(depth_or_threshold) if depth else depth_or_threshold
        return self._with_tail(self.l2_levi_sum(entry), T)

    def compact_character(self, entry: ThetaEntry) -> CharSeries:
        return self.compact_block.character(entry.compact_weight)

    # -- Enright route -------------------------------------------------------

    def enright(self, entry: ThetaEntry) -> EnrightData:
        sys_ = self.system
        lam0 = entry.l2_lowest + self.s2_block.rho
        gens = []
        s2_roots = self.s2_block.positive + [-b for b in self.s2_block.positive]
        for alpha in self.enright_candidates():
            pairing = 2 * inner(lam0, alpha) / inner(alpha, alpha)
            if not (pairing.denominator == 1 and pairing > 0):
                continue
            ok = True
            for beta in s2_roots:
                if inner(lam0, beta) == 0 and inner(alpha, beta) != 0:
                    ok = False
                    break
            if ok:
                gens.append(reflection(alpha))
        group = enumerate_closure(gens, sys_.shape)
        gset = set(group)
        roots = [a for a in s2_roots if reflection(a) in gset]
        pos = [a for a in roots if a in set(self.s2_block.positive)]
        pos_set = set(pos)
        lengths = {w: sum(1 for a in pos if w.act(a) not in pos_set) for w in group}
        compact = [a for a in pos if a in set(self.levi_root_set)]
        csub = enumerate_closure([reflection(a) for a in compact], sys_.shape)
        reps = coset_reps(group, csub, key=lambda w: (lengths[w], w.sort_key()), left=True)
        return EnrightData(lam0, group, roots, reps, lengths)

    def enright_levi_sum(self, entry: ThetaEntry) -> CharSeries:
        """The Enright character before the tail: one per minimal representative."""
        data = self.enright(entry)
        summands = []
        for w in data.min_reps:
            res = self._sorted_in_block(w.act(data.lam))
            if res is None:
                raise AssertionError("minimal representative hit a singular weight")
            summands.append((-1 if data.lengths[w] % 2 else 1, res[0] - self.s2_block.rho))
        return self._levi_sum(summands)

    def enright_character(self, entry: ThetaEntry, depth: int) -> CharSeries:
        return self._with_tail(self.enright_levi_sum(entry), self._window(depth))

    def verify_enright(self, entry: ThetaEntry) -> IdentityReport:
        """Enright's formula for one entry as an identity of finite Levi sums:
        the tail is invertible, so equality here is equality on every window,
        and the report carries no depth."""
        left, right = self.l2_levi_sum(entry), self.enright_levi_sum(entry)
        subset = f"a={entry.partition} sign={entry.sign}"
        return compare(f"theta-{self.tag}-enright", repr(self.system), subset, None, left, right)

    # -- duality -------------------------------------------------------------

    def _assembled(self, depth: int, finite) -> CharSeries:
        """The sum over the table of finite(entry) x L^2(entry) on the window
        of depth `depth` below e^{-rho_1}: finite x Levi sum, each factor cut
        to the window, summed and times one tail; finite = 0 is skipped."""
        T = self._window(depth)
        acc = CharSeries.zero(self.system, T)
        for entry in self.sigma_set(depth):
            fin = finite(entry)
            if fin.is_zero_on_window():
                continue
            levi = self.l2_levi_sum(entry)
            acc = acc + fin.truncate(T - levi.ceiling4) * levi.truncate(T - fin.ceiling4)
        return self._with_tail(acc.tightened(), T)

    def assembled_character(self, depth: int) -> CharSeries:
        return self._assembled(depth, self.compact_character)

    def verify_duality(self, depth: int) -> IdentityReport:
        osc, total = self.oscillator_character(depth), self.assembled_character(depth)
        return compare(f"theta-{self.tag}", repr(self.system), "full table", depth, osc, total)


def _line(shape, kind: str, coeffs: dict) -> Weight:
    """sum of c eps_i (kind "e") or c delta_i (kind "d") over coeffs {i: c}."""
    unit = Weight.eps if kind == "e" else Weight.delta
    return weight_sum((c * unit(i, shape) for i, c in coeffs.items()), shape)


# ---------------------------------------------------------------------------
# one-block pairs


class OneBlockPair(DualPair):
    """The pairs whose noncompact member acts on one coordinate block: the
    deltas for Sp(2n,R) (B and D1), the eps for SO*(2m) (D2).

    A subclass names its family and order variant and the noncompact
    ``block`` ("d" or "e").  The Weyl groups of the noncompact and the compact
    block are those of the family's block types (``rootdata.FAMILY_BLOCKS``):
    W(C_n) on the deltas, W(B_m) or W(D_m) on the eps.  A -1 sign in the
    basis order (only D2' has one) twists the Levi block, the lowest weights
    and the Enright candidates by the reflection in that symbol.
    """

    family = ""
    variant = ""
    block = ""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.d = min(m, n)
        datum = build_root_datum(self.family, m, n)
        self.system = positive_system(datum, distinguished_order(self.family, m, n, self.variant))
        sys_ = self.system
        sh = sys_.shape
        for s in sys_.order.sequence:
            if s.sign == -1:
                self.twist = reflection(2 * s.functional(sh))
        lo, hi = (0, m) if self.block == "e" else (m, m + n)
        self.block_size = hi - lo
        self.compact_kind, compact_size = ("d", n) if self.block == "e" else ("e", m)
        eps_type, delta_type, _ = FAMILY_BLOCKS[self.family]
        types = {"e": eps_type, "d": delta_type}
        self.block_flips = block_weyl(types[self.block], self.block_size)[0]
        compact_flips = block_weyl(types[self.compact_kind], compact_size)[0]
        pos0 = set(sys_.positive_even)
        s2_pos = [a for a in pos0 if any(a.coords2[lo:hi])]
        a_pos = [a for a in s2_pos if sum(self._tw(a).coords2[lo:hi]) == 0]
        compact_pos = [a for a in pos0 if not any(a.coords2[lo:hi])]
        block_range, compact_range = range(1, self.block_size + 1), range(1, compact_size + 1)
        levi_elements = signed_permutations(sh, self.block, block_range)
        if self.twist is not None:
            t = self.twist
            levi_elements = sorted((t.compose(w).compose(t) for w in levi_elements), key=WeylElement.sort_key)
        s2_elements = signed_permutations(sh, self.block, block_range, flips=self.block_flips)
        compact_elements = signed_permutations(sh, self.compact_kind, compact_range, flips=compact_flips)
        self.s2_block = Block(sys_, s2_pos, s2_elements)
        self.levi_block = Block(sys_, a_pos, levi_elements)
        self.levi_runs = [(lo, hi)]
        self.levi_root_set = a_pos
        self.nilradical = [a for a in s2_pos if a not in set(a_pos)]
        self.compact_block = Block(sys_, compact_pos, compact_elements)

    def mu(self, a) -> Weight:
        coeffs = {self.block_size - self.d + r: -a[self.d - r] for r in range(1, self.d + 1)}
        return self._tw(_line(self.system.shape, self.block, coeffs))

    def compact_hw(self, a) -> Weight:
        return _line(self.system.shape, self.compact_kind, dict(enumerate(a, start=1)))

    def flip_set(self, a) -> list[WeylElement]:
        """The sign flips of the noncompact block on its first block_size - d
        coordinates; the same for every entry.  They fix the last coordinate,
        so they commute with the twist."""
        flipped = range(1, self.block_size - self.d + 1)
        sh = self.system.shape
        return signed_permutations(sh, self.block, flipped, permute=False, flips=self.block_flips)

    def enright_candidates(self):
        sh = self.system.shape
        return [
            self._tw(_line(sh, self.block, {i: 1, j: 1}))
            for i in range(1, self.block_size + 1)
            for j in range(i + 1, self.block_size + 1)
        ]


# ---------------------------------------------------------------------------
# Sp(2n,R)-side pairs


class SpPair(OneBlockPair):
    """The pairs (O(k), Sp(2n,R)) with the order d_1 > ... > e_m.

    The noncompact side Sp(2n,R) lives on the delta coordinates and is the
    same for k = 2m+1 (family B) and k = 2m (family D); the subclasses fix
    the family, and with it the compact Weyl group W(B_m) or W(D_m).
    """

    block = "d"

    def nu(self, a) -> Weight:
        j = exact_parts(a)
        coeffs = dict.fromkeys(range(self.n - self.d - self.m + j, self.n - j + 1), -1)
        for r in range(self.n - j + 1, self.n + 1):
            coeffs[r] = coeffs.get(r, 0) - a[self.n - r]
        return _line(self.system.shape, "d", coeffs)

    def in_extra_family(self, a) -> bool:
        """Membership in the extra index family P of the second sign character."""
        j = exact_parts(a)
        return self.d == self.m and j >= max(0, self.m + 1 - (self.n - self.d))

    def labels(self, a) -> list[tuple[str, Weight]]:
        out = [("+", self.mu(a))]
        if self.in_extra_family(a):
            out.append(("-", self.nu(a)))
        return out


# ---------------------------------------------------------------------------
# B-pair


class BPair(SpPair):
    """(O(2m+1), Sp(2n,R)) from B(m,n) with the distinguished order."""

    tag = "B"
    family = "B"

    def _flip_label(self, a, w):
        # an even number of flips feeds L^2(mu), an odd number L^2(nu)
        return 1, "+" if sgn(w) == 1 else "-"


# ---------------------------------------------------------------------------
# D2-pair


class D2Pair(OneBlockPair):
    """(Sp(n), SO*(2m)) from D(m,n) with the order e_1 > ... > d_n.

    The primed variant carries -eps_m in the basis; its table is the
    s_{eps_m}-image of the unprimed one and is verified natively against its
    own oscillator character.
    """

    family = "D"
    block = "e"

    def __init__(self, m: int, n: int, primed: bool = False):
        self.tag = self.variant = "D2'" if primed else "D2"
        super().__init__(m, n)


# ---------------------------------------------------------------------------
# D1-pair


class D1Pair(SpPair):
    """(O(2m), Sp(2n,R)) from D(m,n) with the order d_1 > ... > e_m.

    Entries carry the F^+/F^- labels of the disconnected O(2m); the torus
    part of the branching uses F_D and F_D^+, the x-twisted part uses the
    Kostant quotient over W(C_{m-1}).
    """

    tag = "D1"
    family = "D"
    variant = "D1"

    def __init__(self, m: int, n: int):
        if m < 2:
            raise ValueError("the O(2m) side needs m >= 2; m = 1 degenerates to a torus")
        super().__init__(m, n)
        # C_{m-1} block on eps_1..eps_{m-1} for the Kostant x-characters
        x_elements = signed_permutations(self.system.shape, "e", range(1, m), flips="all")
        self.x_block = Block(self.system, self._cm1_positive(), x_elements)

    def _cm1_positive(self):
        sh = self.system.shape
        out = []
        for i in range(1, self.m):
            out.append(2 * Weight.eps(i, sh))
            for j in range(i + 1, self.m):
                out.append(Weight.eps(i, sh) - Weight.eps(j, sh))
                out.append(Weight.eps(i, sh) + Weight.eps(j, sh))
        return out

    def a_m(self, a) -> int:
        return a[self.m - 1] if self.m <= len(a) else 0

    def _flip_label(self, a, w):
        # with a_m > 0 every flip feeds L^2(mu); otherwise an odd number of
        # flips feeds L^2(nu)
        s = sgn(w)
        return s, "+" if self.a_m(a) > 0 or s == 1 else "-"

    # compact characters -----------------------------------------------------

    def compact_character(self, entry: ThetaEntry) -> CharSeries:
        hw = entry.compact_weight
        base = self.compact_block.character(hw)
        if entry.sign == "+" and self.a_m(entry.partition) > 0:
            flipped = reflection(2 * Weight.eps(self.m, self.system.shape)).act(hw)
            base = base + self.compact_block.character(flipped)
        return base

    def x_character(self, entry: ThetaEntry) -> CharSeries:
        """Kostant's character of F^{+-}(hw) on the x-component (a_m = 0)."""
        if self.a_m(entry.partition) > 0:
            return CharSeries.zero(self.system)
        ch = self.x_block.character(entry.compact_weight)
        return ch if entry.sign == "+" else ch.scale(-1)

    def oscillator_x_character(self, depth: int) -> CharSeries:
        """Trace of x t on the oscillator module: only the eps_m-paired
        monomials survive, pairing delta_i +- eps_m into 2 delta_i."""
        sys_ = self.system
        sh = sys_.shape
        T = self._window(depth)
        geom = []
        for i in range(1, self.n + 1):
            for j in range(1, self.m):
                geom.append((Weight.delta(i, sh) - Weight.eps(j, sh), 1))
                geom.append((Weight.delta(i, sh) + Weight.eps(j, sh), 1))
            geom.append((2 * Weight.delta(i, sh), 1))
        return product_expansion(sys_, T, -sys_.rho1, geom=geom)

    def assembled_x_character(self, depth: int) -> CharSeries:
        return self._assembled(depth, self.x_character)

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
            signed_permutations(sh, "d", range(1, n + 1)),
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
        rep = super().verify_duality(depth)
        if not rep.passed:
            return rep
        osc_x = self.oscillator_x_character(depth)
        for kind, subset, other in (
            ("theta-D1-x", "x-component", self.assembled_x_character),
            ("theta-D1-xtwin", "x-component vs D(n,m-1) superdenominator", self.d2_twin_sum),
        ):
            x_rep = compare(kind, repr(self.system), subset, depth, osc_x, other(depth))
            if not x_rep.passed:
                return x_rep
        return rep


# ---------------------------------------------------------------------------
# GL-pair


class GLPair(DualPair):
    """(U(n), U(p,q)) from gl(m,n), m = p + q, distinguished order p."""

    def __init__(self, n: int, p: int, q: int):
        self.tag = "GL"
        self.n, self.p, self.q = n, p, q
        self.m = p + q
        self.d = min(self.m, n)
        datum = build_root_datum("GL", self.m, n)
        self.system = positive_system(datum, distinguished_order("GL", self.m, n, f"p{p}"))
        sys_ = self.system
        sh = sys_.shape
        pos0 = set(sys_.positive_even)
        am_pos = [a for a in pos0 if any(a.eps_coords2())]
        c_pos = [a for a in am_pos if not any(a.eps_coords2()[:p]) or not any(a.eps_coords2()[p:])]
        an_pos = [a for a in pos0 if not any(a.eps_coords2())]
        self.s2_block = Block(sys_, am_pos, signed_permutations(sh, "e", range(1, self.m + 1)))
        levi_elements = product_set(
            signed_permutations(sh, "e", range(1, p + 1)),
            signed_permutations(sh, "e", range(p + 1, self.m + 1)),
        )
        self.levi_block = Block(sys_, c_pos, sorted(levi_elements, key=WeylElement.sort_key))
        self.levi_runs = [(0, p), (p, self.m)]
        self.levi_root_set = c_pos
        self.nilradical = [a for a in am_pos if a not in set(c_pos)]
        self.compact_block = Block(sys_, an_pos, signed_permutations(sh, "d", range(1, n + 1)))

    def table_keys(self, size: int) -> list:
        """Pairs (a, b) of partitions with exactly k and h parts, k <= p,
        h <= q, k + h <= d and |a| + |b| = size."""
        return [
            (a, b)
            for k in range(0, min(self.p, self.d) + 1)
            for h in range(0, min(self.q, self.d - k) + 1)
            for sa in range(0, size + 1)
            for a in partitions_at_most(k, sa)
            if exact_parts(a) == k
            for b in partitions_at_most(h, size - sa)
            if exact_parts(b) == h
        ]

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

    def _compact_shift(self) -> Weight:
        # -(rho_1 restricted to the u(n) Cartan)
        sh = self.system.shape
        r1 = self.system.rho1
        return Weight([0] * self.m + [-c for c in r1.delta_coords2()], sh)

    def _l2_shift(self) -> Weight:
        # -(rho_1 restricted to the u(p,q) Cartan)
        sh = self.system.shape
        r1 = self.system.rho1
        return Weight([-c for c in r1.eps_coords2()] + [0] * self.n, sh)

    def flip_set(self, ab) -> list[WeylElement]:
        """Coset representatives for W_c \\ W_c W_2^{(d-h, d-k)}."""
        a, b = ab
        k, h = exact_parts(a), exact_parts(b)
        free = list(range(1, self.p - self.d + h + 1)) + list(
            range(self.p + self.d - k + 1, self.m + 1)
        )
        w2 = signed_permutations(self.system.shape, "e", free)
        wc = self.levi_block.elements
        # W_2 alone is not a union of W_c-cosets; the product W_c W_2 is
        return coset_reps([c.compose(g) for c in wc for g in w2], wc, left=True)

    def enright_candidates(self):
        sh = self.system.shape
        return [
            Weight.eps(i, sh) - Weight.eps(j, sh)
            for i in range(1, self.p + 1)
            for j in range(self.p + 1, self.m + 1)
        ]


def make_pair(tag: str, **kw) -> DualPair:
    tag = tag.upper()
    if tag == "B":
        return BPair(kw["m"], kw["n"])
    if tag == "D1":
        return D1Pair(kw["m"], kw["n"])
    if tag == "D2":
        return D2Pair(kw["m"], kw["n"])
    if tag == "D2'":
        return D2Pair(kw["m"], kw["n"], primed=True)
    if tag == "GL":
        return GLPair(kw["n"], kw["p"], kw["q"])
    raise ValueError(f"unknown pair {tag!r}")
