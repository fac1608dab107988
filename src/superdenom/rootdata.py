"""Root data for gl(m,n), B(m,n), C(m+1), D(m,n) and positive systems.

Roots are expressed in the eps/delta basis.  A positive system is encoded by
a total order on the basis symbols; the simple roots are read off the order
family by family, and every positive root is a nonnegative integer
combination of them.

Family conventions (m = number of eps symbols, n = number of delta symbols):

* GL(m,n): even roots eps_i - eps_j, delta_k - delta_l; odd roots
  +-(eps_i - delta_k).
* B(m,n): even +-{eps_i +- eps_j, eps_i, delta_k +- delta_l, 2 delta_k};
  odd +-{delta_k +- eps_i, delta_k}.  Requires n >= 1.
* C(m): one delta symbol (n = 1); even +-{eps_i +- eps_j, 2 eps_i}; odd
  +-{delta_1 +- eps_i}.  This is the superalgebra usually called C(m+1).
* D(m,n): even +-{eps_i +- eps_j, delta_k +- delta_l, 2 delta_k}; odd
  +-{eps_i +- delta_k}.  Requires m, n >= 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .weights import Weight, is_isotropic, weight_sum

FAMILIES = ("GL", "B", "C", "D")

# sign of the dual Coxeter number, deciding which even block carries W#
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
    shape = (m, n)
    eps = [Weight.eps(i, shape) for i in range(1, m + 1)]
    dl = [Weight.delta(j, shape) for j in range(1, n + 1)]
    even: list[Weight] = []
    odd: list[Weight] = []

    if family == "GL":
        if m + n == 0:
            raise ValueError("gl(0,0) is not supported")
        even += [eps[i] - eps[j] for i in range(m) for j in range(m) if i != j]
        even += [dl[k] - dl[l] for k in range(n) for l in range(n) if k != l]
        for e in eps:
            for d in dl:
                odd += [e - d, d - e]
    elif family == "B":
        if n < 1:
            raise ValueError("B(m,n) needs n >= 1")
        for i, j in itertools.combinations(range(m), 2):
            even += [eps[i] + eps[j], eps[i] - eps[j], -eps[i] - eps[j], eps[j] - eps[i]]
        even += [e for e in eps] + [-e for e in eps]
        for k, l in itertools.combinations(range(n), 2):
            even += [dl[k] + dl[l], dl[k] - dl[l], -dl[k] - dl[l], dl[l] - dl[k]]
        even += [2 * d for d in dl] + [-2 * d for d in dl]
        for d in dl:
            for e in eps:
                odd += [d + e, d - e, -d - e, e - d]
        odd += [d for d in dl] + [-d for d in dl]
    elif family == "C":
        if n != 1:
            raise ValueError("family C carries exactly one delta symbol (n = 1)")
        if m < 1:
            raise ValueError("C needs m >= 1")
        for i, j in itertools.combinations(range(m), 2):
            even += [eps[i] + eps[j], eps[i] - eps[j], -eps[i] - eps[j], eps[j] - eps[i]]
        even += [2 * e for e in eps] + [-2 * e for e in eps]
        d = dl[0]
        for e in eps:
            odd += [d + e, d - e, -d - e, e - d]
    else:  # D
        if m < 1 or n < 1:
            raise ValueError("D(m,n) needs m, n >= 1")
        for i, j in itertools.combinations(range(m), 2):
            even += [eps[i] + eps[j], eps[i] - eps[j], -eps[i] - eps[j], eps[j] - eps[i]]
        for k, l in itertools.combinations(range(n), 2):
            even += [dl[k] + dl[l], dl[k] - dl[l], -dl[k] - dl[l], dl[l] - dl[k]]
        even += [2 * d for d in dl] + [-2 * d for d in dl]
        for e in eps:
            for d in dl:
                odd += [e + d, e - d, -e - d, d - e]

    sign = _dual_coxeter_sign(family, m, n)
    return RootDatum(family, m, n, tuple(even), tuple(odd), sign)


def _dual_coxeter_sign(family: str, m: int, n: int) -> str:
    # h_vee: GL m-n, B m-n-1/2, C positive on the eps block, D m-n-1.
    # The h_vee = 0 cases (gl(n,n), D(n+1,n)) are resolved to the eps block;
    # the identity suite validates that choice.
    if family == "GL":
        return DELTA_BLOCK if m < n else EPS_BLOCK
    if family == "B":
        return EPS_BLOCK if m > n else DELTA_BLOCK
    if family == "C":
        return EPS_BLOCK
    return EPS_BLOCK if m >= n + 1 else DELTA_BLOCK


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
        another shape, or an "idx" or "sign" that is not a JSON integer (a
        float, a boolean, a string), raises ValueError."""
        try:
            kind, idx, sign = doc["kind"], doc["idx"], doc.get("sign", 1)
        except (TypeError, KeyError):
            idx = sign = None
        if type(idx) is int and type(sign) is int:
            return Symbol(kind, idx, sign)
        raise ValueError(f'a basis symbol is {{"kind": ..., "idx": <int>, "sign": <int>}}, got {doc!r}')


class BasisOrder:
    """Total order on the eps/delta basis, written from largest to smallest.

    Within each kind the indices must increase left to right (eps_1 before
    eps_2, ...), which fixes a canonical representative of the W_g-orbit.
    A -1 sign is only allowed on eps_m in families C and D, and in D only
    when eps_m is not the last symbol (when it is last, both signs give the
    same simple roots and the + choice is canonical).
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


class PositiveSystem:
    """Positive roots, simple roots and rho-vectors attached to a basis order.

    Series expansion directions are governed by an integer functional.  By
    default it is (4x) the principal height; ``with_tiebreak`` returns an
    equivalent system whose functional is a dominant multiple of the height
    plus a generic perturbation, for computations in which some Weyl image of
    a denominator exponent lands on height zero.  It returns one system per
    seed, so the checks that pick the same perturbation share that system.

    A system also owns the memo of its left sides e^rho R and e^rho Ř
    (``denominators.lhs``), so those series live exactly as long as the
    system they belong to.
    """

    TIEBREAK_SCALE = 1024  # height multiplier accompanying a perturbation

    def __init__(self, datum: RootDatum, order: BasisOrder, tiebreak: int = 0):
        if (order.family, order.m, order.n) != (datum.family, datum.m, datum.n):
            raise ValueError("order does not match the root datum")
        self.datum = datum
        self.order = order
        self.shape = datum.shape
        self.tiebreak = tiebreak
        self.simple_roots = self._simple_roots()
        base = self._height_values()
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
        self._tiebreaks: dict[int, PositiveSystem] = {}
        self._lhs: dict = {}  # (flavor, threshold4) -> CharSeries, see denominators.lhs

    def with_tiebreak(self, seed: int) -> "PositiveSystem":
        """The system of the same order whose functional is perturbed by
        ``seed``; built on the first call for a seed and returned again on
        every later one."""
        system = self._tiebreaks.get(seed)
        if system is None:
            system = self._tiebreaks[seed] = PositiveSystem(self.datum, self.order, tiebreak=seed)
        return system

    # -- simple roots per family ------------------------------------------

    def _simple_roots(self) -> tuple[Weight, ...]:
        fam = self.datum.family
        fs = self.order.functionals()
        simples = [fs[i] - fs[i + 1] for i in range(len(fs) - 1)]
        if fam == "B":
            simples.append(fs[-1])
        elif fam in ("C", "D"):
            last_kind = self.order.sequence[-1].kind
            sp_kind = "e" if fam == "C" else "d"
            if last_kind == sp_kind:
                simples.append(2 * fs[-1])
            else:
                simples.append(fs[-2] + fs[-1])
        allroots = set(self.datum.roots)
        for a in simples:
            if a not in allroots:
                raise AssertionError(f"simple root candidate {a} is not a root")
        return tuple(simples)

    def _height_values(self) -> tuple[int, ...]:
        """2x the value of the principal grading element on each basis vector.

        The principal element h_pr satisfies alpha(h_pr) = 1 for every simple
        root; the leftover degree of freedom (GL center) is pinned by giving
        the last symbol the smallest value.
        """
        fam = self.datum.family
        N = self.datum.m + self.datum.n
        if fam == "GL":
            vals2 = [2 * (N - j) for j in range(1, N + 1)]
        elif fam == "B":
            vals2 = [2 * (N - j + 1) for j in range(1, N + 1)]
        else:
            last_kind = self.order.sequence[-1].kind
            sp_kind = "e" if fam == "C" else "d"
            if last_kind == sp_kind:
                vals2 = [2 * (N - j) + 1 for j in range(1, N + 1)]
            else:
                vals2 = [2 * (N - j) for j in range(1, N + 1)]
        out = [0] * N
        m = self.datum.m
        for symbol, v2 in zip(self.order.sequence, vals2):
            slot = symbol.idx - 1 if symbol.kind == "e" else m + symbol.idx - 1
            out[slot] = symbol.sign * v2
        return tuple(out)

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

    @property
    def positive_roots(self) -> tuple[Weight, ...]:
        return self.positive_even + self.positive_odd

    def simple_coefficients(self, w: Weight) -> list[Fraction] | None:
        """Coefficients of w in the simple-root basis, or None if w is not in
        their rational span."""
        cols = [list(a.coords2) for a in self.simple_roots]
        target = list(w.coords2)
        ncols = len(cols)
        nrows = len(target)
        mat = [[Fraction(cols[c][r]) for c in range(ncols)] + [Fraction(target[r])] for r in range(nrows)]
        pivots = []
        row = 0
        for col in range(ncols):
            piv = next((r for r in range(row, nrows) if mat[r][col] != 0), None)
            if piv is None:
                continue
            mat[row], mat[piv] = mat[piv], mat[row]
            pv = mat[row][col]
            mat[row] = [x / pv for x in mat[row]]
            for r in range(nrows):
                if r != row and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
            pivots.append(col)
            row += 1
            if row == nrows:
                break
        sol = [Fraction(0)] * ncols
        for r, col in enumerate(pivots):
            sol[col] = mat[r][ncols]
        for r in range(len(pivots), nrows):
            if mat[r][ncols] != 0:
                return None
        # verify (also catches free columns)
        acc = [Fraction(0)] * nrows
        for c in range(ncols):
            for r in range(nrows):
                acc[r] += sol[c] * cols[c][r]
        if acc != [Fraction(t) for t in target]:
            return None
        return sol

    def in_positive_root_cone(self, w: Weight) -> bool:
        """Whether w is a nonnegative integer combination of simple roots."""
        sol = self.simple_coefficients(w)
        if sol is None:
            return False
        return all(x.denominator == 1 and x >= 0 for x in sol)

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

    def find_swap(order: BasisOrder):
        fs = order.functionals()
        return next((i for i in range(len(fs) - 1) if fs[i] - fs[i + 1] == alpha), None)

    order = system.order
    pos = find_swap(order)
    if pos is None and system.datum.family == "D":
        twin = order.sign_twin()
        pos = find_swap(twin)
        if pos is not None:
            order = twin
    if pos is None:
        raise ValueError(f"{alpha} is not realizable as an adjacent exchange")
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
        if variant == "C1":
            return standard_order("C", m, 1, "e" * m + "d")
        if variant == "C2":
            return standard_order("C", m, 1, "d" + "e" * m)
        raise ValueError("C variants: C1, C2")
    raise ValueError(f"unknown family {family!r}")
