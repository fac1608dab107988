"""Signed-permutation Weyl groups and their named subgroups.

Elements are stored as signed permutations acting separately on the eps and
delta coordinates.  sgn is the determinant of the action; sgn' twists it by
the sign flips that do not come from reflections in \\bar Delta_0 (delta
flips in family B, eps flips in family D and its extension by s_{eps_i}).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .weights import Weight
from .rootdata import RootDatum, EPS_BLOCK

MAX_GROUP_ENV = "SUPERDENOM_MAX_GROUP"
DEFAULT_MAX_GROUP = 10_000_000


def _max_group() -> int:
    return int(os.environ.get(MAX_GROUP_ENV, DEFAULT_MAX_GROUP))


def _perm_parity(perm: tuple[int, ...]) -> int:
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
class WeylElement:
    """w(eps_i) = eps_signs[i] * eps_{eps_perm[i]}, likewise on deltas."""

    eps_perm: tuple[int, ...]
    eps_signs: tuple[int, ...]
    del_perm: tuple[int, ...]
    del_signs: tuple[int, ...]

    @staticmethod
    def identity(shape: tuple[int, int]) -> "WeylElement":
        m, n = shape
        return WeylElement(tuple(range(m)), (1,) * m, tuple(range(n)), (1,) * n)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.eps_perm), len(self.del_perm))

    def act(self, w: Weight) -> Weight:
        m, n = w.shape
        if (m, n) != self.shape:
            raise ValueError("shape mismatch")
        out = [0] * (m + n)
        c = w.coords2
        for i in range(m):
            out[self.eps_perm[i]] += self.eps_signs[i] * c[i]
        for j in range(n):
            out[m + self.del_perm[j]] += self.del_signs[j] * c[m + j]
        return Weight(out, (m, n))

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other (self o other)."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        m, n = self.shape
        ep = tuple(self.eps_perm[other.eps_perm[i]] for i in range(m))
        es = tuple(other.eps_signs[i] * self.eps_signs[other.eps_perm[i]] for i in range(m))
        dp = tuple(self.del_perm[other.del_perm[j]] for j in range(n))
        ds = tuple(other.del_signs[j] * self.del_signs[other.del_perm[j]] for j in range(n))
        return WeylElement(ep, es, dp, ds)

    def sort_key(self):
        return (self.eps_perm, self.eps_signs, self.del_perm, self.del_signs)

    def is_identity(self) -> bool:
        m, n = self.shape
        return self == WeylElement.identity((m, n))


def sgn(w: WeylElement) -> int:
    """Determinant of the action on the weight space, equal to (-1)^l(w)."""
    s = _perm_parity(w.eps_perm) * _perm_parity(w.del_perm)
    for x in w.eps_signs:
        s *= x
    for x in w.del_signs:
        s *= x
    return s


def sgn_prime(w: WeylElement, family: str) -> int:
    """Sign counting only reflections from \\bar Delta_0^+.

    In family B the delta sign flips come from the long roots 2 delta_k whose
    halves are odd roots, so they do not count; in family D (including the
    extension by the s_{eps_i}) the eps flips do not count.  In GL and C
    sgn' coincides with sgn.
    """
    family = family.upper()
    s = sgn(w)
    if family == "B":
        for x in w.del_signs:
            s *= x
    elif family == "D":
        for x in w.eps_signs:
            s *= x
    return s


def reflection(alpha: Weight) -> WeylElement:
    """The reflection s_alpha for an even root alpha."""
    m, n = alpha.shape
    e = [c // 2 for c in alpha.eps_coords2()]
    d = [c // 2 for c in alpha.delta_coords2()]
    if any(c % 2 for c in alpha.coords2):
        raise ValueError(f"{alpha} is not an even-root candidate")
    se = [i for i, c in enumerate(e) if c]
    sd = [j for j, c in enumerate(d) if c]
    ident = WeylElement.identity((m, n))
    if se and sd:
        raise ValueError(f"{alpha} mixes eps and delta: not an even reflection")
    if se:
        perm, signs = list(ident.eps_perm), list(ident.eps_signs)
        if len(se) == 1:
            i = se[0]
            signs[i] = -1
        else:
            i, j = se
            perm[i], perm[j] = perm[j], perm[i]
            if e[i] * e[j] > 0:  # eps_i + eps_j
                signs[i] = signs[j] = -1
        return WeylElement(tuple(perm), tuple(signs), ident.del_perm, ident.del_signs)
    if sd:
        perm, signs = list(ident.del_perm), list(ident.del_signs)
        if len(sd) == 1:
            j = sd[0]
            signs[j] = -1
        else:
            i, j = sd
            perm[i], perm[j] = perm[j], perm[i]
            if d[i] * d[j] > 0:
                signs[i] = signs[j] = -1
        return WeylElement(ident.eps_perm, ident.eps_signs, tuple(perm), tuple(signs))
    raise ValueError("zero weight has no reflection")


def enumerate_closure(generators: list[WeylElement], shape: tuple[int, int], bound: int | None = None) -> list[WeylElement]:
    """All products of the generators, deterministically ordered."""
    bound = bound or _max_group()
    ident = WeylElement.identity(shape)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in generators:
                x = g.compose(w)
                if x not in seen:
                    seen.add(x)
                    if len(seen) > bound:
                        raise RuntimeError(f"group enumeration exceeded bound {bound}")
                    nxt.append(x)
        frontier = nxt
    return sorted(seen, key=WeylElement.sort_key)


def product_set(*factors: list[WeylElement]) -> list[WeylElement]:
    """Element list of a product of sets, keeping multiplicity-free order.

    Raises if the products collide, so the result really enumerates each
    element of the product exactly once.
    """
    acc = None
    for f in factors:
        if acc is None:
            acc = list(f)
            continue
        nxt = []
        seen = set()
        for a in acc:
            for b in f:
                x = a.compose(b)
                if x in seen:
                    raise ValueError("product set has duplicates")
                seen.add(x)
                nxt.append(x)
        acc = nxt
    return acc if acc is not None else []


# ---------------------------------------------------------------------------
# named groups


def full_weyl(datum: RootDatum) -> list[WeylElement]:
    """W_g, generated by the reflections in the even roots."""
    gens = [reflection(a) for a in datum.even_roots]
    return enumerate_closure(gens, datum.shape)


def weyl_order(datum: RootDatum) -> int:
    fam, m, n = datum.family, datum.m, datum.n
    fact = lambda k: 1 if k <= 1 else k * fact(k - 1)
    if fam == "GL":
        return fact(m) * fact(n)
    if fam == "B":
        return (2 ** m) * fact(m) * (2 ** n) * fact(n)
    if fam == "C":
        return (2 ** m) * fact(m)
    return (2 ** max(m - 1, 0)) * fact(m) * (2 ** n) * fact(n)


def sharp_subgroup(datum: RootDatum) -> list[WeylElement]:
    """W#, the reflections in the even block singled out by the sign of h_vee."""
    block = datum.dual_coxeter_sign
    shape = datum.shape
    fam = datum.family
    gens = []
    for a in datum.even_roots:
        eps_part = any(a.eps_coords2())
        if (block == EPS_BLOCK) != eps_part:
            continue
        gens.append(reflection(a))
    if not gens:
        return [WeylElement.identity(shape)]
    return enumerate_closure(gens, shape)


def eps_permutations(shape: tuple[int, int], indices: list[int]) -> list[WeylElement]:
    """Symmetric group permuting the given eps indices (1-based), W(A)-style."""
    m, n = shape
    out = []
    idx = [i - 1 for i in indices]
    for per in itertools.permutations(idx):
        perm = list(range(m))
        for src, dst in zip(idx, per):
            perm[src] = dst
        out.append(WeylElement(tuple(perm), (1,) * m, tuple(range(n)), (1,) * n))
    return sorted(out, key=WeylElement.sort_key)


def delta_permutations(shape: tuple[int, int], indices: list[int]) -> list[WeylElement]:
    m, n = shape
    out = []
    idx = [j - 1 for j in indices]
    for per in itertools.permutations(idx):
        perm = list(range(n))
        for src, dst in zip(idx, per):
            perm[src] = dst
        out.append(WeylElement(tuple(r for r in range(m)), (1,) * m, tuple(perm), (1,) * n))
    return sorted(out, key=WeylElement.sort_key)


def signed_group(shape: tuple[int, int], kind: str, indices: list[int], even_signs_only: bool = False) -> list[WeylElement]:
    """Hyperoctahedral group on the listed indices: W(B_r)/W(C_r), or W(D_r)
    when even_signs_only is set."""
    m, n = shape
    size = m if kind == "e" else n
    idx = [i - 1 for i in indices]
    out = []
    for per in itertools.permutations(idx):
        for signs in itertools.product((1, -1), repeat=len(idx)):
            if even_signs_only and signs.count(-1) % 2:
                continue
            perm = list(range(size))
            sv = [1] * size
            for src, dst, s in zip(idx, per, signs):
                perm[src] = dst
                sv[src] = s
            if kind == "e":
                out.append(WeylElement(tuple(perm), tuple(sv), tuple(range(n)), (1,) * n))
            else:
                out.append(WeylElement(tuple(range(m)), (1,) * m, tuple(perm), tuple(sv)))
    return sorted(out, key=WeylElement.sort_key)


def sign_flip_set(shape: tuple[int, int], kind: str, indices: list[int], parity: str = "all") -> list[WeylElement]:
    """The abelian group of sign flips on the listed coordinates.

    parity "even" keeps the elements flipping an even number of signs, the
    subgroup used for the +-parity splits; "all" keeps every element.
    """
    m, n = shape
    size = m if kind == "e" else n
    idx = [i - 1 for i in indices]
    out = []
    for signs in itertools.product((1, -1), repeat=len(idx)):
        if parity == "even" and signs.count(-1) % 2:
            continue
        sv = [1] * size
        for src, s in zip(idx, signs):
            sv[src] = s
        if kind == "e":
            out.append(WeylElement(tuple(range(m)), tuple(sv), tuple(range(n)), (1,) * n))
        else:
            out.append(WeylElement(tuple(range(m)), (1,) * m, tuple(range(n)), tuple(sv)))
    return sorted(out, key=WeylElement.sort_key)


def coset_reps(
    big: list[WeylElement],
    small: list[WeylElement],
    key=WeylElement.sort_key,
    left: bool = False,
) -> list[WeylElement]:
    """One representative per coset w*small (small*w when left) inside big.

    The representative is the key-least element of its coset, and the result
    is sorted by key; requires big to be a union of such cosets.
    """
    small = list(small)
    covered: set[WeylElement] = set()
    reps = []
    for w in big:
        if w in covered:
            continue
        coset = [u.compose(w) for u in small] if left else [w.compose(u) for u in small]
        covered.update(coset)
        reps.append(min(coset, key=key))
    if len(reps) * len(small) != len(set(big)):
        raise ValueError("the big set is not a union of cosets of the small group")
    return sorted(reps, key=key)
