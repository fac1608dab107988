"""Root data for gl(m,n), B(m,n), C(m+1), D(m,n) and positive systems.

Roots are expressed in the eps/delta basis.  A positive system is encoded by
a total order f_1 > ... > f_N on the signed basis symbols.  Its simple roots
are the chain f_i - f_{i+1} and one last root that only the family and the
kind of f_N decide: none (GL), f_N (B), 2f_N (f_N eps in C, delta in D) or
the fork f_{N-1} + f_N.  The rest is read off that one decision.  The
principal grading element h, which is 1 on every simple root, has f_j(h) =
f_N(h) + N - j, where f_N(h) is 1 for f_N, 1/2 for 2f_N and 0 for the fork
and in GL.  The coefficients of a weight on the simple roots are the partial
sums of its coefficients on f_1, ..., f_N, halved for the last root except
in B and corrected once at the fork, so cone membership
(``PositiveSystem.in_positive_root_cone``) needs no linear solve.

Each family is two even blocks, one on the eps and one on the delta
coordinates, plus its odd roots (m = number of eps symbols, n = number of
delta symbols).  ``FAMILY_BLOCKS`` declares this once:

    family   eps block  delta block  2 h_vee    odd roots
    GL(m,n)  A          A            2(m-n)     +-(eps_i - delta_k)
    B(m,n)   B          C            2(m-n)-1   +-eps_i +- delta_k, +-delta_k
    C(m)     C          none         positive   +-eps_i +- delta_1
    D(m,n)   D          C            2(m-n-1)   +-eps_i +- delta_k

A block on coordinates f has the even roots (``block_roots``) f_i - f_j (A)
or +-f_i +- f_j, and also +-f_i (B) or +-2f_i (C).  B needs n >= 1, D needs
m, n >= 1, and C(m), usually called C(m+1), has n = 1.  W# is the Weyl group
of the eps block when 2 h_vee >= 0, else of the delta block; C_g = |W_g/W#|
is the order of the other block's group (``block_weyl``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .weights import Weight, is_isotropic, weight_sum

# Each family as two even blocks, the type of the root system on the eps and
# on the delta coordinates ("" for none), and twice its dual Coxeter number
# h_vee (Kac 1977), of which only the sign is read.
FAMILY_BLOCKS = {
    "GL": ("A", "A", lambda m, n: 2 * (m - n)),
    "B": ("B", "C", lambda m, n: 2 * (m - n) - 1),
    "C": ("C", "", lambda m, n: 1),  # positive
    "D": ("D", "C", lambda m, n: 2 * (m - n - 1)),
}
FAMILIES = tuple(FAMILY_BLOCKS)

# the even block that carries W#: the eps block when 2 h_vee >= 0, which
# resolves the h_vee = 0 cases gl(n,n) and D(n+1,n) to it
EPS_BLOCK = "positive-eps-block"
DELTA_BLOCK = "positive-delta-block"


@dataclass(frozen=True)
class RootDatum:
    family: str
    m: int
    n: int
    even_roots: tuple[Weight, ...]
    odd_roots: tuple[Weight, ...]
    dual_coxeter_sign: str
    # what is built once per datum (``once``): W_g, W# and the set of its roots
    _kept: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def defect(self) -> int:
        return min(self.m, self.n)

    @property
    def roots(self) -> tuple[Weight, ...]:
        return self.even_roots + self.odd_roots


def build_root_datum(family: str, m: int, n: int) -> RootDatum:
    family = family.upper()
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if m < 0 or n < 0:
        raise ValueError("ranks must be nonnegative")
    if family == "GL" and m + n == 0:
        raise ValueError("gl(0,0) is not supported")
    if family == "B" and n < 1:
        raise ValueError("B(m,n) needs n >= 1")
    if family == "C" and (n != 1 or m < 1):
        raise ValueError("family C carries exactly one delta symbol (n = 1)" if n != 1 else "C needs m >= 1")
    if family == "D" and (m < 1 or n < 1):
        raise ValueError("D(m,n) needs m, n >= 1")
    eps_type, delta_type, h2 = FAMILY_BLOCKS[family]
    shape = (m, n)
    eps = [Weight.eps(i, shape) for i in range(1, m + 1)]
    dl = [Weight.delta(j, shape) for j in range(1, n + 1)]
    even = block_roots(eps_type, eps) + block_roots(delta_type, dl)
    signs = [(1, -1), (-1, 1)] if eps_type == "A" else [(1, 1), (1, -1), (-1, -1), (-1, 1)]
    odd = [s * e + t * d for e in eps for d in dl for s, t in signs]
    if eps_type == "B":  # the zero weight that gives a B block +-eps_i also gives +-delta_k
        odd += [c * d for c in (1, -1) for d in dl]
    sign = EPS_BLOCK if h2(m, n) >= 0 else DELTA_BLOCK
    return RootDatum(family, m, n, tuple(even), tuple(odd), sign)


def once(owner, build, *key):
    """build(owner, *key), built on the first call per (build, key) and kept
    in ``owner._kept``, the one memo of a datum, a system, a theta block or
    a pair; every later call returns the kept value itself.  The key leaves
    the owner out, so no owner is hashed, and a hit is one dict lookup."""
    try:
        return owner._kept[build, key]
    except KeyError:
        pass
    value = owner._kept[build, key] = build(owner, *key)
    return value


def block_roots(kind: str, fs: list[Weight]) -> list[Weight]:
    """The roots of an even block of type ``kind`` on the coordinates ``fs``:
    +-(f_i - f_j) for A, also +-(f_i + f_j) for B, C and D, and the short
    roots +-f_i (B) or the long roots +-2f_i (C)."""
    out: list[Weight] = []
    for f, g in itertools.combinations(fs, 2):
        out += [f - g, g - f] if kind == "A" else [f + g, f - g, -f - g, g - f]
    if kind in ("B", "C"):
        out += [c * f for c in ((1, -1) if kind == "B" else (2, -2)) for f in fs]
    return out


def block_weyl(kind: str, k: int) -> tuple[str, int]:
    """The sign flips (as ``weyl.signed_permutations`` takes them) and the
    order of the Weyl group of an even block of type ``kind`` on k
    coordinates: "none" and k! for A, "all" and 2^k k! for B and C, "even"
    and 2^(k-1) k! for D, and the trivial group for no block."""
    if kind == "A":
        return "none", math.factorial(k)
    if kind in ("B", "C"):
        return "all", 2**k * math.factorial(k)
    if kind == "D":
        return "even", 2 ** max(k - 1, 0) * math.factorial(k)
    return "none", 1


# ---------------------------------------------------------------------------
# basis orders


@dataclass(frozen=True)
class Symbol:
    """One entry of a basis order: eps_idx or delta_idx with a sign."""

    kind: str  # "e" or "d"
    idx: int  # 1-based
    sign: int  # +1 or -1

    def functional(self, shape: tuple[int, int]) -> Weight:
        base = Weight.eps(self.idx, shape) if self.kind == "e" else Weight.delta(self.idx, shape)
        return base if self.sign == 1 else -base

    def __repr__(self) -> str:
        s = "-" if self.sign < 0 else ""
        return f"{s}{'e' if self.kind == 'e' else 'd'}{self.idx}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "idx": self.idx, "sign": self.sign}

    @staticmethod
    def from_json(doc: dict) -> "Symbol":
        """The inverse of ``to_json``, with "sign" 1 when absent; a document of
        another shape, a "kind" other than the string "e" or "d", or an "idx"
        or "sign" that is not a JSON integer (a float, a boolean, a string),
        raises ValueError."""
        try:
            kind, idx, sign = doc["kind"], doc["idx"], doc.get("sign", 1)
        except (TypeError, KeyError):
            kind = idx = sign = None
        if kind in ("e", "d") and type(idx) is int and type(sign) is int:
            return Symbol(kind, idx, sign)
        raise ValueError(f'a basis symbol is {{"kind": "e" or "d", "idx": <int>, "sign": <int>}}, got {doc!r}')


class BasisOrder:
    """Total order on the eps/delta basis, written from largest to smallest.

    Within each kind the indices must increase left to right (eps_1 before
    eps_2, ...), which fixes a canonical representative of the W_g-orbit.
    A -1 sign is only allowed on eps_m, in families C and D.  In D, when
    eps_m is the last symbol both signs give the same simple roots; the
    +eps_m order is the canonical one (``all_basis_orders`` lists it), and
    ``sign_twin`` builds the other, which ``odd_reflect`` uses.
    """

    def __init__(self, family: str, m: int, n: int, sequence: list[Symbol]):
        family = family.upper()
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        seq = tuple(sequence)
        if len(seq) != m + n:
            raise ValueError("sequence length must be m + n")
        eps_seen = [s.idx for s in seq if s.kind == "e"]
        del_seen = [s.idx for s in seq if s.kind == "d"]
        if sorted(eps_seen) != list(range(1, m + 1)) or eps_seen != sorted(eps_seen):
            raise ValueError("eps symbols must appear once each, indices increasing")
        if sorted(del_seen) != list(range(1, n + 1)) or del_seen != sorted(del_seen):
            raise ValueError("delta symbols must appear once each, indices increasing")
        for s in seq:
            if s.sign not in (1, -1):
                raise ValueError("signs must be +-1")
            if s.sign == -1:
                if family not in ("C", "D") or s.kind != "e" or s.idx != m:
                    raise ValueError("-1 sign only allowed on eps_m in families C and D")
        self.family = family
        self.m = m
        self.n = n
        self.sequence = seq
        self._functionals = tuple(s.functional((m, n)) for s in seq)

    def sign_twin(self) -> "BasisOrder":
        """The same D-type order with the sign of eps_m negated."""
        if self.family != "D":
            raise ValueError("sign twins only exist in family D")
        seq = [
            Symbol(s.kind, s.idx, -s.sign) if (s.kind == "e" and s.idx == self.m) else s
            for s in self.sequence
        ]
        return BasisOrder(self.family, self.m, self.n, seq)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def functionals(self) -> list[Weight]:
        """The weight of each symbol, in order; a fresh list on every call."""
        return list(self._functionals)

    def swapped(self, pos: int) -> "BasisOrder":
        """Order with the symbols at positions pos, pos+1 exchanged."""
        seq = list(self.sequence)
        if not 0 <= pos < len(seq) - 1:
            raise ValueError("position out of range")
        if seq[pos].kind == seq[pos + 1].kind:
            raise ValueError("may only exchange symbols of different type")
        seq[pos], seq[pos + 1] = seq[pos + 1], seq[pos]
        return BasisOrder(self.family, self.m, self.n, seq)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BasisOrder)
            and (self.family, self.m, self.n) == (other.family, other.m, other.n)
            and self.sequence == other.sequence
        )

    def __hash__(self) -> int:
        return hash((self.family, self.m, self.n, self.sequence))

    def __repr__(self) -> str:
        return ">".join(repr(s) for s in self.sequence)

    def to_json(self) -> list:
        return [s.to_json() for s in self.sequence]

    @staticmethod
    def from_json(family: str, m: int, n: int, doc: list) -> "BasisOrder":
        """The inverse of ``to_json``; a document that is not a list of symbols
        raises ValueError."""
        if not isinstance(doc, list):
            raise ValueError(f"a basis order is a list of symbols, got {doc!r}")
        return BasisOrder(family, m, n, [Symbol.from_json(d) for d in doc])


def standard_order(family: str, m: int, n: int, pattern: str, eps_last_sign: int = 1) -> BasisOrder:
    """Build an order from a type pattern like 'edeed' (e = eps, d = delta)."""
    if pattern.count("e") != m or pattern.count("d") != n:
        raise ValueError("pattern does not match (m, n)")
    seq = []
    ei = di = 0
    for ch in pattern:
        if ch == "e":
            ei += 1
            sign = eps_last_sign if ei == m else 1
            seq.append(Symbol("e", ei, sign))
        else:
            di += 1
            seq.append(Symbol("d", di, 1))
    return BasisOrder(family, m, n, seq)


def all_basis_orders(family: str, m: int, n: int) -> list[BasisOrder]:
    """All canonical basis orders (one per positive system up to W_g).

    In family D the -eps_m variant is a distinct system unless eps_m is the
    last symbol, in which case both signs give the same simple roots and the
    + representative is kept.
    """
    family = family.upper()
    orders = []
    for pos in itertools.combinations(range(m + n), m):
        pattern = "".join("e" if i in pos else "d" for i in range(m + n))
        orders.append(standard_order(family, m, n, pattern))
        if family == "D" and m >= 1 and not pattern.endswith("e"):
            orders.append(standard_order(family, m, n, pattern, eps_last_sign=-1))
    return orders


# ---------------------------------------------------------------------------
# positive systems

def _last_simple_root(order: BasisOrder, fs: list[Weight]) -> tuple[str, Weight | None, int]:
    """The family's simple root after the chain f_i - f_{i+1} (Kac 1977), by
    name and value, with the 2x principal height of f_N that it forces: none
    in GL, f_N in B, 2f_N when the block of f_N is of type C (the eps of C,
    the deltas of D), and otherwise the fork f_{N-1} + f_N."""
    eps_type, delta_type, _ = FAMILY_BLOCKS[order.family]
    if eps_type == "A":
        return "none", None, 0
    if eps_type == "B":
        return "f", fs[-1], 2
    if (eps_type if order.sequence[-1].kind == "e" else delta_type) == "C":
        return "2f", 2 * fs[-1], 1
    return "fork", fs[-2] + fs[-1], 0


class PositiveSystem:
    """Positive roots, simple roots and rho-vectors attached to a basis order.

    Series expansion directions are governed by an integer functional.  By
    default it is (4x) the principal height; ``with_tiebreak`` returns an
    equivalent system whose functional is a dominant multiple of the height
    plus a generic perturbation, for computations in which some Weyl image of
    a denominator exponent lands on height zero.  It returns one system per
    seed, so the checks that pick the same perturbation share that system.

    What a system builds once it keeps in its ``_kept`` dict (``once``): its
    perturbed systems per seed, its left sides e^rho R and e^rho Ř per
    window (``denominators.lhs``), whether its functional keeps its positive
    roots off zero (``denominators._separating_system``) and the key of
    each basis vector per digit width (``_unit_keys`` in ``series``), so
    they live exactly as long as the system they belong to.
    """

    TIEBREAK_SCALE = 1024  # height multiplier accompanying a perturbation

    def __init__(self, datum: RootDatum, order: BasisOrder, tiebreak: int = 0):
        if (order.family, order.m, order.n) != (datum.family, datum.m, datum.n):
            raise ValueError("order does not match the root datum")
        self.datum = datum
        self.order = order
        self.shape = datum.shape
        self.tiebreak = tiebreak
        fs = order.functionals()
        self._last, last, last2 = _last_simple_root(order, fs)
        chain = tuple(fs[i] - fs[i + 1] for i in range(len(fs) - 1))
        self.simple_roots = chain if last is None else chain + (last,)
        roots = set(datum.roots)
        if any(a not in roots for a in self.simple_roots):
            raise AssertionError(f"a simple root of {order} is not a root")
        # (slot of w.coords2, sign) of each f_j, in order
        self._slots = tuple(
            (s.idx - 1 if s.kind == "e" else datum.m + s.idx - 1, s.sign) for s in order.sequence
        )
        # 2x the principal grading element h on each basis vector: alpha(h) = 1
        # on every simple root, so f_j(h) = f_N(h) + N - j, and 2 f_N(h) = last2
        N = len(fs)
        base = [0] * N
        for j, (slot, sign) in enumerate(self._slots, 1):
            base[slot] = sign * (last2 + 2 * (N - j))
        base = tuple(base)
        if tiebreak == 0:
            self.unit4 = 4
            self._hvals2 = base
        else:
            # perturbation values up to half the scale: root signs survive
            # (roots have base ht4 >= 4 and at most two nonzero coordinates)
            self.unit4 = 4 * self.TIEBREAK_SCALE
            psi = [((tiebreak * (i + 3) ** 3 * 2654435761) % 1021) - 510 for i in range(len(base))]
            self._hvals2 = tuple(self.TIEBREAK_SCALE * b + p for b, p in zip(base, psi))
        self._base_hvals2 = base
        pos_even = [a for a in datum.even_roots if self.principal_ht4(a) > 0]
        pos_odd = [a for a in datum.odd_roots if self.principal_ht4(a) > 0]
        if 2 * len(pos_even) != len(datum.even_roots) or 2 * len(pos_odd) != len(datum.odd_roots):
            raise AssertionError("order does not split the roots into halves")
        if tiebreak and any(self.ht4(a) <= 0 for a in pos_even + pos_odd):
            raise AssertionError("tiebreak functional flipped a root sign")
        key = lambda w: (-self.ht4(w), w.coords2)
        self.positive_even = tuple(sorted(pos_even, key=key))
        self.positive_odd = tuple(sorted(pos_odd, key=key))
        self.rho0 = weight_sum(self.positive_even, self.shape).half()
        self.rho1 = weight_sum(self.positive_odd, self.shape).half()
        self.rho = self.rho0 - self.rho1
        self._kept = {}  # (build, key) -> build(self, *key), see ``once``

    def with_tiebreak(self, seed: int) -> "PositiveSystem":
        """The system of the same order whose functional is perturbed by
        ``seed``; built on the first call for a seed and returned again on
        every later one."""
        return once(self, PositiveSystem._perturbed, seed)

    def _perturbed(self, seed: int) -> "PositiveSystem":
        return PositiveSystem(self.datum, self.order, tiebreak=seed)

    # -- heights ------------------------------------------------------------

    def ht4(self, w: Weight) -> int:
        """Expansion functional (4x principal height when tiebreak is 0)."""
        return sum(c2 * v2 for c2, v2 in zip(w.coords2, self._hvals2))

    def principal_ht4(self, w: Weight) -> int:
        """4x the principal height of w (exact integer, perturbation-free)."""
        return sum(c2 * v2 for c2, v2 in zip(w.coords2, self._base_hvals2))

    def height(self, w: Weight) -> Fraction:
        return Fraction(self.principal_ht4(w), 4)

    # -- queries -------------------------------------------------------------

    def in_positive_root_cone(self, w: Weight) -> bool:
        """Whether w is a nonnegative integer combination of simple roots.

        With x_j the doubled coefficient of f_j in w and S_i = x_1 + ... + x_i,
        the doubled coefficient of f_i - f_{i+1} is S_i, and that of the last
        root is S_N for f_N and S_N / 2 for 2f_N or the fork, which also
        leaves (S_{N-1} - x_N) / 2 on f_{N-1} - f_N.  In GL, S_N must be 0.
        """
        x = [sign * w.coords2[slot] for slot, sign in self._slots]
        S = list(itertools.accumulate(x))
        q = [2 * s for s in S[:-1]]  # 4x the coefficients
        if self._last == "none":
            if S[-1]:
                return False
        elif self._last == "f":
            q.append(2 * S[-1])
        else:
            if self._last == "fork":
                q[-1] = S[-2] - x[-1]
            q.append(S[-1])
        return all(c >= 0 and c % 4 == 0 for c in q)

    def __repr__(self) -> str:
        return f"PositiveSystem({self.datum.family}({self.datum.m},{self.datum.n}), {self.order})"


def positive_system(datum: RootDatum, order: BasisOrder) -> PositiveSystem:
    return PositiveSystem(datum, order)


def odd_reflect(system: PositiveSystem, alpha: Weight) -> PositiveSystem:
    """Odd reflection at an isotropic simple root.

    The positive system changes by alpha -> -alpha and rho shifts by +alpha.
    When alpha joins the last two symbols through the D-type fork, the order
    is first rewritten through its sign twin (the same positive system with
    -eps_m in the basis); the fork reflections of family C leave the family
    of order-encoded systems and are rejected.
    """
    if alpha not in system.simple_roots:
        raise ValueError(f"{alpha} is not a simple root")
    if not is_isotropic(alpha):
        raise ValueError(f"{alpha} is not isotropic")

    order = system.order
    pos = system.simple_roots.index(alpha)
    if pos == len(order.sequence) - 1:  # the last root, not a chain root
        if system.datum.family != "D":
            raise ValueError(f"{alpha} is not realizable as an adjacent exchange")
        order, pos = order.sign_twin(), pos - 1
    new_system = PositiveSystem(system.datum, order.swapped(pos))
    if new_system.rho != system.rho + alpha:
        raise AssertionError("rho shift under odd reflection failed")
    return new_system


# ---------------------------------------------------------------------------
# distinguished orders (the ones indexing compact dual pairs)


def distinguished_order(family: str, m: int, n: int, variant: str = "") -> BasisOrder:
    """Distinguished basis orders from the dual-pair classification.

    * GL p,q  : eps_1..eps_p, delta_1..delta_n, eps_{p+1}..eps_m (variant "p<int>")
    * B       : delta_1..delta_n, eps_1..eps_m
    * D1      : delta_1..delta_n, eps_1..eps_m
    * D2      : eps_1..eps_m, delta_1..delta_n
    * D2'     : same with eps_m negated
    * C1      : eps_1..eps_m, delta_1;  C2: delta_1, eps_1..eps_m
    """
    family = family.upper()
    if family == "GL":
        if not variant.startswith("p"):
            raise ValueError("GL distinguished orders need variant 'p<int>'")
        p = int(variant[1:])
        if not 0 <= p <= m:
            raise ValueError("p out of range")
        return standard_order("GL", m, n, "e" * p + "d" * n + "e" * (m - p))
    if family == "B":
        if variant:
            raise ValueError(f"B has one distinguished order, with variant '', got {variant!r}")
        return standard_order("B", m, n, "d" * n + "e" * m)
    if family == "D":
        if variant == "D1":
            return standard_order("D", m, n, "d" * n + "e" * m)
        if variant == "D2":
            return standard_order("D", m, n, "e" * m + "d" * n)
        if variant == "D2'":
            return standard_order("D", m, n, "e" * m + "d" * n, eps_last_sign=-1)
        raise ValueError("D variants: D1, D2, D2'")
    if family == "C":
        if n != 1:
            raise ValueError("family C carries exactly one delta symbol (n = 1)")
        if variant == "C1":
            return standard_order("C", m, 1, "e" * m + "d")
        if variant == "C2":
            return standard_order("C", m, 1, "d" + "e" * m)
        raise ValueError("C variants: C1, C2")
    raise ValueError(f"unknown family {family!r}")


def distinguished_orders(family: str, m: int, n: int) -> list[BasisOrder]:
    """Every distinguished order of the family: GL p0, ..., pm, B, D1, D2,
    D2' and C1, C2."""
    family = family.upper()
    variants = {"GL": [f"p{p}" for p in range(m + 1)], "D": ["D1", "D2", "D2'"], "C": ["C1", "C2"]}
    return [distinguished_order(family, m, n, v) for v in variants.get(family, [""])]
