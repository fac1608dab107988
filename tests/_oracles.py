"""Independent oracles shared by several test modules (not collected).

Each one recomputes a quantity the library produces by other means, written
out directly from its definition.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from superdenom.denominators import compare, window4
from superdenom.diagrams import ArcDiagram, interval_reflect, odd_reflect_diagram
from superdenom.rootdata import DELTA_BLOCK, EPS_BLOCK, RootDatum
from superdenom.series import CharSeries, product_expansion, weyl_character
from superdenom.theta import Block
from superdenom.weights import Weight, inner, is_isotropic
from superdenom.weyl import (
    WeylElement,
    coset_reps,
    enumerate_closure,
    full_weyl,
    product_set,
    reflection,
    sgn,
    sgn_prime,
    signed_permutations,
)


class ReferenceSeries:
    """The truncated series as it was before packed keys: terms keyed by
    ``Weight``, every operation written out on whole dicts and cut to its
    window by the filtering constructor, heights read with ``ht4``."""

    def __init__(self, system, terms, threshold4, ceiling4):
        ht4 = system.ht4
        self.system = system
        self.terms = {w: c for w, c in terms.items() if c and (threshold4 is None or ht4(w) >= threshold4)}
        self.threshold4 = threshold4
        self.ceiling4 = ceiling4

    def coeff(self, w):
        return self.terms.get(w, 0)

    def is_zero_on_window(self):
        return not self.terms

    def support_sorted(self):
        return sorted(self.terms, key=lambda w: (-self.system.ht4(w), w.coords2))

    def window_threshold(self, other):
        ts = [t for t in (self.threshold4, other.threshold4) if t is not None]
        return max(ts, default=None)

    def __add__(self, other):
        merged = dict(self.terms)
        for w, c in other.terms.items():
            merged[w] = merged.get(w, 0) + c
        return ReferenceSeries(self.system, merged, self.window_threshold(other), max(self.ceiling4, other.ceiling4))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return ReferenceSeries(self.system, {w: k * c for w, c in self.terms.items()}, self.threshold4, self.ceiling4)

    def __mul__(self, other):
        """The whole convolution, cut to the window on which it is complete:
        max(t_a + ceil_b, t_b + ceil_a)."""
        full = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                full[wa + wb] = full.get(wa + wb, 0) + ca * cb
        pairs = ((self.threshold4, other.ceiling4), (other.threshold4, self.ceiling4))
        t = max((t + c for t, c in pairs if t is not None), default=None)
        return ReferenceSeries(self.system, full, t, self.ceiling4 + other.ceiling4)

    def tightened(self):
        if not self.terms:
            return self
        top = max(map(self.system.ht4, self.terms))
        return ReferenceSeries(self.system, self.terms, self.threshold4, top)

    def truncate(self, threshold4):
        if self.threshold4 is not None and threshold4 < self.threshold4:
            raise ValueError("cannot widen the window by truncation")
        return ReferenceSeries(self.system, self.terms, threshold4, self.ceiling4)

    def mismatches(self, other, ratio=Fraction(1)):
        t = self.window_threshold(other)
        bad = [
            w for w in self.terms.keys() | other.terms.keys()
            if (t is None or self.system.ht4(w) >= t) and Fraction(other.coeff(w)) != ratio * self.coeff(w)
        ]
        return sorted(bad, key=lambda w: w.coords2)

    def to_json(self):
        doc_terms = [
            {"coords2": list(w.coords2), "coeff": str(c)}
            for w, c in sorted(self.terms.items(), key=lambda it: it[0].coords2)
        ]
        t2 = None
        if self.threshold4 is not None:
            t2 = self.threshold4 / 2 if self.threshold4 % 2 else self.threshold4 // 2
        return {"threshold2": t2, "terms": doc_terms}


def monomial(system, w):
    """The one-term series e^w, exact at every height."""
    return CharSeries(system, {w: 1}, None, system.ht4(w))


def one_minus_exp(system, beta):
    """The finite factor 1 - e^{-beta}, exact, with the ceiling of its
    higher term."""
    return CharSeries(system, {Weight.zero(system.shape): 1, -beta: -1}, None, max(0, system.ht4(-beta)))


def reference_product_expansion(system, threshold4, leading, coeff=1, geom=(), poly=()):
    """coeff * e^leading * prod 1/(1-s e^{-beta}) * prod (1-s e^{-beta}) on
    the window {ht >= threshold4}, multiplied out on ``Weight`` keys with
    ``ht4`` evaluated for every pair of terms and the result built through
    the filtering constructor of ``ReferenceSeries``.  A product wholly
    below the window is the empty series with the product's own ceiling.
    Its ``bound`` is the digit bound the kernel takes: the leading weight's
    largest coordinate plus the largest coordinate of each factor's terms
    (0 for the empty series)."""
    ht4 = system.ht4
    geom = list(geom)
    poly = list(poly)
    g_ceil = [min(0, ht4(b)) for b, _ in geom]
    p_ceil = [max(0, -ht4(b)) for b, _ in poly]
    total_ceiling = ht4(leading) + sum(g_ceil) + sum(p_ceil)
    if total_ceiling < threshold4:
        out = ReferenceSeries(system, {}, threshold4, total_ceiling)
        out.bound = 0
        return out

    factors = []
    other = sum(g_ceil) + sum(p_ceil)
    for (b, s), c in zip(geom, g_ceil):
        ft = threshold4 - (ht4(leading) + other - c)
        h = ht4(b)
        if h == 0:
            raise ValueError(f"cannot expand a geometric factor with height-zero exponent {b}")
        terms = {}
        if h > 0:
            k = 0
            while -k * h >= ft:
                terms[(-k) * b] = s ** k
                k += 1
        else:
            k = 1
            while k * h >= ft:
                terms[k * b] = -(s ** k)
                k += 1
        factors.append((terms, c))
    for (b, s), c in zip(poly, p_ceil):
        terms = {Weight.zero(system.shape): 1}
        terms[-b] = terms.get(-b, 0) - s
        factors.append((terms, c))

    acc = {leading: coeff}
    remaining = sum(c for _, c in factors)
    for fterms, c in factors:
        remaining -= c
        floor = threshold4 - remaining
        nxt = {}
        for wa, ca in acc.items():
            for wb, cb in fterms.items():
                w = wa + wb
                if ht4(w) < floor:
                    continue
                nxt[w] = nxt.get(w, 0) + ca * cb
        acc = nxt
    out = ReferenceSeries(system, acc, threshold4, total_ceiling)
    top = lambda w: max(map(abs, w.coords2), default=0)
    out.bound = top(leading) + sum(max(map(top, fterms)) for fterms, _ in factors)
    return out


def reference_lhs(system, kind, threshold4):
    """e^rho R (kind 'd') or e^rho Ř (kind 'sd') on the window, expanded
    afresh on every call, as ``denominators.lhs`` did before it kept each
    left side on its system."""
    s = 1 if kind == "sd" else -1
    return product_expansion(
        system,
        threshold4,
        system.rho,
        geom=[(a, s) for a in system.positive_odd],
        poly=[(a, 1) for a in system.positive_even],
    )


def reference_weyl_sum(system, U, sign_kind, threshold4, leading, geom=(), poly=(), coeff=1):
    """The signed Weyl sum of ``series.f_sum_quotient`` as a left fold: each
    element's ``product_expansion`` piece added with ``+`` to one growing
    accumulator, in the order of U (the zero series for an empty U)."""
    acc = None
    for w in U:
        s = sgn(w) if sign_kind == "sgn" else sgn_prime(w, system.datum.family)
        piece = product_expansion(
            system, threshold4, w.act(leading), coeff=s * coeff,
            geom=[(w.act(b), sg) for b, sg in geom], poly=[(w.act(b), sg) for b, sg in poly],
        )
        acc = piece if acc is None else acc + piece
    return CharSeries.zero(system, threshold4) if acc is None else acc


def reference_weyl_character(system, elements, rho_block, lam):
    """sum_w sgn(w) e^{w(lam+rho)} / sum_w sgn(w) e^{w(rho)} by sparse
    division on ``Weight`` keys, taking the leading term in the order of
    (height, coords2)."""
    ht4 = system.ht4

    def alternant(x):
        out = {}
        for w in elements:
            y = w.act(x)
            out[y] = out.get(y, 0) + sgn(w)
        return {k: v for k, v in out.items() if v}

    numer = alternant(lam + rho_block)
    denom = alternant(rho_block)
    key = lambda w: (ht4(w), w.coords2)
    if not denom:
        raise ValueError("singular block rho: not a valid block system")
    dmax = max(denom, key=key)
    if denom[dmax] != 1:
        raise AssertionError("block rho is not regular dominant for the block")
    quot = {}
    steps = 0
    while numer:
        steps += 1
        if steps > 200000:
            raise RuntimeError("character division did not terminate")
        nmax = max(numer, key=key)
        c = numer[nmax]
        shift = nmax - dmax
        quot[shift] = quot.get(shift, 0) + c
        for w, cw in denom.items():
            x = w + shift
            numer[x] = numer.get(x, 0) - c * cw
            if numer[x] == 0:
                del numer[x]
    ceiling = max((ht4(w) for w in quot), default=0)
    return ReferenceSeries(system, quot, None, ceiling)


def signed_sum(elements, body):
    """F_U = sum over w in U of sgn(w) body(w), where body(w) is the series of
    w(Y); accumulated one element at a time."""
    acc = None
    for w in elements:
        piece = body(w).scale(sgn(w))
        acc = piece if acc is None else acc + piece
    return acc


def definition_isotropic_sets(system):
    """The recursive construction of the maximal isotropic sets, used as the
    independent oracle for the diagram bijection."""
    d = system.datum.defect
    results = set()

    def indecomposable(roots):
        rootset = set(roots)
        out = []
        for a in roots:
            if not any((a - b) in rootset for b in roots if b != a):
                out.append(a)
        return out

    def grow(current, ambient):
        if len(current) == d:
            results.add(frozenset(current))
            return
        ortho = [
            a for a in ambient
            if all(inner(a, b) == 0 for b in current) and a not in current
        ]
        cands = [a for a in indecomposable(ortho) if is_isotropic(a)]
        seen = set()
        for r in range(1, d - len(current) + 1):
            for combo in itertools.combinations(cands, r):
                if all(inner(a, b) == 0 for a, b in itertools.combinations(combo, 2)):
                    grow(current + list(combo), ortho)

    simples = [a for a in system.simple_roots if is_isotropic(a)]
    for r in range(1, d + 1):
        for combo in itertools.combinations(simples, r):
            if all(inner(a, b) == 0 for a, b in itertools.combinations(combo, 2)):
                grow(list(combo), list(system.positive_even + system.positive_odd))
    return results


def reference_kw_condition_roots(system, lam, atp):
    """atp mutually orthogonal isotropic simple roots orthogonal to rho+lam,
    by depth-first backtracking over the candidates in simple-root order: the
    first set it completes, or None."""
    cands = [b for b in system.simple_roots if is_isotropic(b) and inner(system.rho + lam, b) == 0]
    chosen = []

    def extend(start):
        if len(chosen) == atp:
            return True
        for i in range(start, len(cands)):
            if all(inner(cands[i], c) == 0 for c in chosen):
                chosen.append(cands[i])
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    return chosen if extend(0) else None


def uses_interior_fork(s, m):
    """True when the set involves a root delta_k + eps_i with i < m (a fork
    completion of an interior reduced subsystem): these are exactly the
    isotropic sets of D-type systems that no single basis order can draw."""
    for root in s:
        eps = root.eps_coords2()
        dls = root.delta_coords2()
        for i in range(m - 1):
            if eps[i] > 0 and any(c > 0 for c in dls):
                return True
            if eps[i] < 0 and any(c < 0 for c in dls):
                return True
    return False


def reference_bracket(X, gamma):
    """[[gamma]] from the interval description: sn(gamma) times the sum of
    the eps symbols minus the delta symbols under gamma's arc.  The arc is
    found by scanning the arcs, and every symbol's weight is built afresh."""
    seq = X.order.sequence
    fs = [s.functional(X.shape) for s in seq]
    arc = next((a for a in X.arcs if fs[a[0]] - fs[a[1]] == gamma), None)
    if arc is None:
        raise ValueError(f"{gamma} is not in S(X)")
    i, j = arc
    acc = Weight.zero(X.shape)
    for k in range(i, j + 1):
        acc = acc + (1 if seq[k].kind == "e" else -1) * fs[k]
    return (1 if seq[i].kind == "e" else -1) * acc


def _reference_v2_character(pair, lam, threshold4):
    """The parabolic Verma character ch_Levi(lam) x prod 1/(1 - e^{-beta})
    over the nilradical, with the tail expanded for this one summand."""
    sys_ = pair.system
    fin = weyl_character(pair.levi_block, [(1, lam)])
    tail = product_expansion(
        sys_, threshold4 - fin.ceiling4, Weight.zero(sys_.shape), geom=[(b, 1) for b in pair.nilradical]
    )
    return (fin * tail).truncate(threshold4)


def reference_l2_character(pair, entry, threshold4):
    """The L^2 character of one table entry on {ht >= threshold4}, summed one
    flip-sum summand at a time, each with its own tail."""
    acc = CharSeries.zero(pair.system, threshold4)
    for coeff, lam in pair.l2_summands(entry):
        acc = acc + _reference_v2_character(pair, lam, threshold4).scale(coeff)
    return acc


def reference_enright_character(pair, entry, threshold4):
    """The Enright character of one table entry on {ht >= threshold4}: the
    signed sum over the minimal coset representatives, each with its own
    tail."""
    data = pair.enright(entry)
    acc = CharSeries.zero(pair.system, threshold4)
    for w in data.min_reps:
        dom, _ = reference_sorted_in_block(pair, w.act(data.lam))
        sign = -1 if data.lengths[w] % 2 else 1
        acc = acc + _reference_v2_character(pair, dom - pair.s2_block.rho, threshold4).scale(sign)
    return acc


def reference_verify_enright(pair, entry):
    """``verify_enright`` by expansion: the flip sum and the Enright sum each
    divided in full as one Levi character, and the two compared coefficient
    for coefficient on every weight."""
    levi = pair.levi_block
    left, right = weyl_character(levi, pair.l2_summands(entry)), weyl_character(levi, pair.enright_summands(entry))
    subset = f"a={entry.partition} sign={entry.sign}"
    return compare(f"theta-{pair.tag}-enright", repr(pair.system), subset, None, left, right)


def reference_sorted_in_block(pair, x):
    """The Levi-dominant representative of x and the sign of the sorting
    permutation, or None when x is singular for the Levi block: each of
    ``reference_pair_blocks``'s ``levi_runs`` of coordinates of the pair's
    twisted x, sorted into decreasing order."""
    tw = (lambda y: y) if pair.twist is None else pair.twist.act
    c = list(tw(x).coords2)
    sign = 1
    for lo, hi in reference_pair_blocks(pair)["levi_runs"]:
        run = c[lo:hi]
        if len(set(run)) != len(run):
            return None
        sign *= (-1) ** sum(1 for a, b in itertools.combinations(run, 2) if a < b)
        c[lo:hi] = sorted(run, reverse=True)
    return tw(Weight(c, x.shape)), sign


def reference_assembled(pair, depth, finite):
    """The sum over the table of finite(entry) x L^2(entry) on the window of
    depth `depth` below e^{-rho_1}, each L^2 character expanded on the window
    its finite factor lifts into the result."""
    threshold4 = window4(pair.system, depth, top=-pair.system.rho1)
    acc = CharSeries.zero(pair.system, threshold4)
    for entry in pair.sigma_set(depth):
        fin = finite(entry)
        if fin.is_zero_on_window():
            continue
        l2 = reference_l2_character(pair, entry, threshold4 - fin.ceiling4)
        acc = acc + (fin * l2).truncate(threshold4)
    return acc


def _perm_parity(perm):
    seen = [False] * len(perm)
    parity = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


@dataclass(frozen=True)
class ReferenceElement:
    """A signed permutation in four tuples: w(eps_i) = eps_signs[i] *
    eps_{eps_perm[i]}, likewise on deltas.  Each block is permuted and signed
    on its own, and every operation is written out from that definition."""

    eps_perm: tuple
    eps_signs: tuple
    del_perm: tuple
    del_signs: tuple

    @staticmethod
    def identity(shape):
        m, n = shape
        return ReferenceElement(tuple(range(m)), (1,) * m, tuple(range(n)), (1,) * n)

    @staticmethod
    def of(w: WeylElement) -> "ReferenceElement":
        """The four tuples read off a ``WeylElement``'s signed image."""
        m = w.shape[0]
        slots = [abs(x) - 1 for x in w.img]
        signs = tuple(1 if x > 0 else -1 for x in w.img)
        return ReferenceElement(tuple(slots[:m]), signs[:m], tuple(k - m for k in slots[m:]), signs[m:])

    def element(self) -> WeylElement:
        m = len(self.eps_perm)
        img = [s * (1 + p) for p, s in zip(self.eps_perm, self.eps_signs)]
        img += [s * (1 + m + p) for p, s in zip(self.del_perm, self.del_signs)]
        return WeylElement(tuple(img), m)

    @property
    def shape(self):
        return (len(self.eps_perm), len(self.del_perm))

    def act(self, w: Weight) -> Weight:
        m, n = w.shape
        out = [0] * (m + n)
        c = w.coords2
        for i in range(m):
            out[self.eps_perm[i]] += self.eps_signs[i] * c[i]
        for j in range(n):
            out[m + self.del_perm[j]] += self.del_signs[j] * c[m + j]
        return Weight(out, (m, n))

    def compose(self, other: "ReferenceElement") -> "ReferenceElement":
        """self after other (self o other)."""
        m, n = self.shape
        ep = tuple(self.eps_perm[other.eps_perm[i]] for i in range(m))
        es = tuple(other.eps_signs[i] * self.eps_signs[other.eps_perm[i]] for i in range(m))
        dp = tuple(self.del_perm[other.del_perm[j]] for j in range(n))
        ds = tuple(other.del_signs[j] * self.del_signs[other.del_perm[j]] for j in range(n))
        return ReferenceElement(ep, es, dp, ds)

    def sort_key(self):
        return (self.eps_perm, self.eps_signs, self.del_perm, self.del_signs)

    def sgn(self) -> int:
        s = _perm_parity(self.eps_perm) * _perm_parity(self.del_perm)
        for x in self.eps_signs + self.del_signs:
            s *= x
        return s

    def sgn_prime(self, family: str) -> int:
        s = self.sgn()
        for x in {"B": self.del_signs, "D": self.eps_signs}.get(family.upper(), ()):
            s *= x
        return s


def reference_reflection(alpha: Weight) -> ReferenceElement:
    """s_alpha(x) = x - 2 (x, alpha) / (alpha, alpha) alpha, read off the images
    of the basis vectors; alpha must be a non-isotropic root of one block."""
    m, n = alpha.shape
    basis = [Weight.eps(i, alpha.shape) for i in range(1, m + 1)]
    basis += [Weight.delta(j, alpha.shape) for j in range(1, n + 1)]
    images = []
    for x in basis:
        c = 2 * inner(x, alpha) / inner(alpha, alpha)
        assert c.denominator == 1
        y = x - int(c) * alpha
        (slot,) = [k for k, v in enumerate(y.coords2) if v]
        images.append((slot, y.coords2[slot] // 2))
    return ReferenceElement(
        tuple(k for k, _ in images[:m]), tuple(s for _, s in images[:m]),
        tuple(k - m for k, _ in images[m:]), tuple(s for _, s in images[m:]),
    )


def reference_signed_permutations(shape, kind, indices, permute=True, flips="none"):
    """Every signed permutation of the whole block that moves only the listed
    (1-based) indices, kept when it is allowed by ``permute`` and ``flips``,
    sorted by the four-tuple key."""
    m, n = shape
    size = m if kind == "e" else n
    moved = {i - 1 for i in indices}
    ident = ReferenceElement.identity(shape)
    out = []
    for perm in itertools.permutations(range(size)):
        for signs in itertools.product((1, -1), repeat=size):
            if any((perm[i], signs[i]) != (i, 1) for i in range(size) if i not in moved):
                continue
            if not permute and any(perm[i] != i for i in range(size)):
                continue
            flipped = signs.count(-1)
            if (flips == "none" and flipped) or (flips == "even" and flipped % 2):
                continue
            if kind == "e":
                out.append(ReferenceElement(perm, signs, ident.del_perm, ident.del_signs))
            else:
                out.append(ReferenceElement(ident.eps_perm, ident.eps_signs, perm, signs))
    return [w.element() for w in sorted(out, key=ReferenceElement.sort_key)]


def reference_closure(generators, shape):
    """Every product of the generators, by breadth-first search on
    ``ReferenceElement.compose``, sorted by ``ReferenceElement.sort_key``."""
    gens = [g if isinstance(g, ReferenceElement) else ReferenceElement.of(g) for g in generators]
    ident = ReferenceElement.identity(shape)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                x = g.compose(w)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return [w.element() for w in sorted(seen, key=ReferenceElement.sort_key)]


def apply_moves(X: ArcDiagram, moves) -> ArcDiagram:
    """X after the moves ``reduce_to_simple`` reports, one at a time: ("odd",
    pos) is the odd reflection at (pos, pos + 1), any other move the interval
    reflection at pos."""
    cur = X
    for kind, pos in moves:
        if kind == "odd":
            cur = odd_reflect_diagram(cur, (pos, pos + 1))
        else:
            cur = interval_reflect(cur, pos)
    return cur


def reference_is_nice(X: ArcDiagram) -> bool:
    """Nice, pair by pair: every two comparable (nested) arcs have equal sn."""
    for a, b in itertools.combinations(X.arcs, 2):
        if (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1]):
            if X.sn(a) != X.sn(b):
                return False
    return True


def reference_nesting_count(X: ArcDiagram) -> int:
    """The number of ordered arc pairs (a, b) with b strictly inside a."""
    return sum(1 for a, b in itertools.permutations(X.arcs, 2) if a[0] < b[0] and b[1] < a[1])


def reflect_simple_roots(simples, alpha):
    """Serganova's rule for the simple roots after the odd reflection r_alpha."""
    out = set()
    for beta in simples:
        if beta == alpha:
            out.add(-alpha)
        elif inner(alpha, beta) != 0:
            out.add(alpha + beta)
        else:
            out.add(beta)
    return out


def reference_height_values(system):
    """2x the principal height of each basis vector, by the family case split:
    f_j takes N - j + 1 in B, N - j + 1/2 when f_N is C's eps or D's delta,
    and N - j otherwise (GL pins f_N to 0)."""
    fam = system.datum.family
    m, N = system.datum.m, system.datum.m + system.datum.n
    if fam == "GL":
        vals2 = [2 * (N - j) for j in range(1, N + 1)]
    elif fam == "B":
        vals2 = [2 * (N - j + 1) for j in range(1, N + 1)]
    elif system.order.sequence[-1].kind == ("e" if fam == "C" else "d"):
        vals2 = [2 * (N - j) + 1 for j in range(1, N + 1)]
    else:
        vals2 = [2 * (N - j) for j in range(1, N + 1)]
    out = [0] * N
    for symbol, v2 in zip(system.order.sequence, vals2):
        slot = symbol.idx - 1 if symbol.kind == "e" else m + symbol.idx - 1
        out[slot] = symbol.sign * v2
    return tuple(out)


def reference_simple_coefficients(system, w):
    """The coefficients of w in the simple roots, by Gaussian elimination over
    the rationals, or None when w is not in their span."""
    cols = [a.coords2 for a in system.simple_roots]
    ncols, nrows = len(cols), len(w.coords2)
    mat = [[Fraction(col[r]) for col in cols] + [Fraction(w.coords2[r])] for r in range(nrows)]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, nrows) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        mat[row] = [x / mat[row][col] for x in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[row])]
        pivots.append(col)
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = mat[r][ncols]
    combo = [sum(c * col[r] for c, col in zip(sol, cols)) for r in range(nrows)]
    return sol if combo == list(w.coords2) else None


def reference_in_cone(system, w):
    """Whether w is a nonnegative integer combination of the simple roots."""
    sol = reference_simple_coefficients(system, w)
    return sol is not None and all(x.denominator == 1 and x >= 0 for x in sol)


def reference_odd_reflect_order(system, alpha):
    """The order after the odd reflection at the isotropic simple root alpha,
    found by searching the adjacent differences of the order and, in family D,
    of its sign twin; ValueError when alpha is not an isotropic simple root
    or neither order holds it."""
    if alpha not in system.simple_roots:
        raise ValueError(f"{alpha} is not a simple root")
    if not is_isotropic(alpha):
        raise ValueError(f"{alpha} is not isotropic")

    def find_swap(order):
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
    return order.swapped(pos)


def reference_root_datum(family, m, n):
    """The root datum written out family by family: the even and odd roots
    of each family listed by hand, and the sign of h_vee by its own case
    split (``reference_dual_coxeter_sign``); raises the same ValueError
    messages as ``build_root_datum``."""
    family = family.upper()
    if family not in ("GL", "B", "C", "D"):
        raise ValueError(f"unknown family {family!r}")
    if m < 0 or n < 0:
        raise ValueError("ranks must be nonnegative")
    shape = (m, n)
    eps = [Weight.eps(i, shape) for i in range(1, m + 1)]
    dl = [Weight.delta(j, shape) for j in range(1, n + 1)]
    even, odd = [], []
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
    else:
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
    return RootDatum(family, m, n, tuple(even), tuple(odd), reference_dual_coxeter_sign(family, m, n))


def reference_dual_coxeter_sign(family, m, n):
    """h_vee: GL m-n, B m-n-1/2, C positive on the eps block, D m-n-1; the
    h_vee = 0 cases (gl(n,n), D(n+1,n)) go to the eps block."""
    if family == "GL":
        return DELTA_BLOCK if m < n else EPS_BLOCK
    if family == "B":
        return EPS_BLOCK if m > n else DELTA_BLOCK
    if family == "C":
        return EPS_BLOCK
    return EPS_BLOCK if m >= n + 1 else DELTA_BLOCK


def reference_weyl_order(datum):
    """|W_g| by a closed form per family."""
    fam, m, n = datum.family, datum.m, datum.n
    if fam == "GL":
        return math.factorial(m) * math.factorial(n)
    if fam == "B":
        return (2 ** m) * math.factorial(m) * (2 ** n) * math.factorial(n)
    if fam == "C":
        return (2 ** m) * math.factorial(m)
    return (2 ** max(m - 1, 0)) * math.factorial(m) * (2 ** n) * math.factorial(n)


def reference_c_g(datum):
    """|W_g / W#| by a closed form per family in the defect d = min(m, n)."""
    d = datum.defect
    fam = datum.family
    if fam == "GL":
        return math.factorial(d)
    if fam == "B":
        return (2 ** d) * math.factorial(d)
    if fam == "C":
        return 1
    if datum.m > datum.n:
        return (2 ** d) * math.factorial(d)
    return (2 ** (d - 1)) * math.factorial(d) if d >= 1 else 1


def reference_sharp_generators(datum):
    """The reflections in the even roots of the block that the sign of h_vee
    singles out, the eps block for ``EPS_BLOCK``."""
    eps_sharp = datum.dual_coxeter_sign == EPS_BLOCK
    return [reference_reflection(a) for a in datum.even_roots if any(a.eps_coords2()) == eps_sharp]


def reference_migliore_groups(system, X, bprime=None):
    """W_0 = Z H and |T| = |W_B'| / |H| by closure searches: W_B' is generated
    by the reflections in the even roots supported on B', W#(B') by those of
    them in the block of W#, and H by W#(B') and the permutations of B'."""
    datum, shape = system.datum, system.datum.shape
    keys = [(b.kind, b.idx) for b in (X.support_symbols() if bprime is None else bprime)]
    eps_idx = [i for k, i in keys if k == "e"]
    del_idx = [j for k, j in keys if k == "d"]
    slots = {i - 1 for i in eps_idx} | {datum.m + j - 1 for j in del_idx}
    sub_even = [a for a in datum.even_roots if all(c == 0 or i in slots for i, c in enumerate(a.coords2))]
    w_bprime = enumerate_closure([reflection(a) for a in sub_even], shape)
    eps_sharp = datum.dual_coxeter_sign == EPS_BLOCK
    w_sharp = enumerate_closure([reflection(a) for a in sub_even if any(a.eps_coords2()) == eps_sharp], shape)
    perms = product_set(signed_permutations(shape, "e", eps_idx), signed_permutations(shape, "d", del_idx))
    H = enumerate_closure(perms + w_sharp, shape)
    return product_set(coset_reps(full_weyl(datum), w_bprime), H), len(w_bprime) // len(H)


def reference_pair_blocks(pair):
    """Each pair's data as it was written out pair by pair before the pairs
    were read off their distinguished orders: the parts of the s2, Levi and
    compact blocks (as ``Block.of`` takes them, with the Levi twist),
    ``levi_runs``, both shifts, the nilradical split into its two-coordinate
    roots (``candidates``) and its long roots 2 delta_k (``long``), and the
    flip set of a key (``flips``)."""
    sys_ = pair.system
    sh, m, n = sys_.shape, pair.m, pair.n
    r1 = sys_.rho1
    unit = lambda kind, i: Weight.eps(i, sh) if kind == "e" else Weight.delta(i, sh)
    if pair.family == "GL":
        p = pair.p
        levi = [("e", range(1, p + 1), "A"), ("e", range(p + 1, m + 1), "A")]

        def flips(ab):
            k, h = (sum(1 for x in part if x > 0) for part in ab)
            free = list(range(1, p - pair.d + h + 1)) + list(range(p + pair.d - k + 1, m + 1))
            w2 = signed_permutations(sh, "e", free)
            wc = Block.of(sys_, levi).elements
            return coset_reps([c.compose(g) for c in wc for g in w2], wc, left=True)

        return {
            "s2": [("e", range(1, m + 1), "A")],
            "levi": levi,
            "compact": [("d", range(1, n + 1), "A")],
            "twist": None,
            "levi_runs": [(0, p), (p, m)],
            "compact_shift": Weight([0] * m + [-c for c in r1.delta_coords2()], sh),
            "l2_shift": Weight([-c for c in r1.eps_coords2()] + [0] * n, sh),
            "candidates": [unit("e", i) - unit("e", j) for i in range(1, p + 1) for j in range(p + 1, m + 1)],
            "long": [],
            "flips": flips,
        }
    twist = None
    for s in sys_.order.sequence:
        if s.sign == -1:
            twist = reflection(2 * s.functional(sh))
    tw = (lambda x: x) if twist is None else twist.act
    block, size = ("e", m) if pair.block == "e" else ("d", n)
    other, other_size = ("d", n) if block == "e" else ("e", m)
    types = {"B": {"e": "B", "d": "C"}, "D": {"e": "D", "d": "C"}}[pair.family]
    flip_kind = {"B": "all", "C": "all", "D": "even"}[types[block]]
    block_range = range(1, size + 1)
    return {
        "s2": [(block, block_range, types[block])],
        "levi": [(block, block_range, "A")],
        "compact": [(other, range(1, other_size + 1), types[other])],
        "twist": twist,
        "levi_runs": [(0, m) if block == "e" else (m, m + n)],
        "compact_shift": Weight.zero(sh),
        "l2_shift": -r1,
        "candidates": [tw(unit(block, i) + unit(block, j)) for i in block_range for j in range(i + 1, size + 1)],
        "long": [2 * unit(block, i) for i in block_range] if types[block] == "C" else [],
        "flips": lambda a: signed_permutations(
            sh, block, range(1, size - pair.d + 1), permute=False, flips=flip_kind
        ),
    }
