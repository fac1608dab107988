"""Signed-permutation Weyl groups and their named subgroups.

Each element is stored in one form, its signed image ``img``: entry i is
+-(1 + the slot that coordinate i goes to), the m eps slots first, so the eps
and delta blocks are permuted and signed separately.  ``act``, ``compose``,
``sgn`` and the closure search all read that tuple.  ``signed_permutations``
builds every named factor on one block: W(A), W(B) = W(C), W(D) and the
groups of sign flips.  sgn is the determinant of the action; sgn' twists it
by the sign flips that do not come from reflections in \\bar Delta_0 (delta
flips in family B, eps flips in family D and its extension by s_{eps_i}).
The family's two blocks come from ``rootdata.FAMILY_BLOCKS``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .weights import Weight
from .rootdata import FAMILY_BLOCKS, RootDatum, EPS_BLOCK, block_weyl

MAX_GROUP = 10_000_000  # closure searches past this many elements raise RuntimeError


@dataclass(frozen=True)
class WeylElement:
    """A signed permutation of the basis b_0, ..., b_{m+n-1} = eps_1, ...,
    eps_m, delta_1, ..., delta_n, stored as its signed image: w(b_i) =
    sign(img[i]) b_{|img[i]| - 1}.  Eps go to eps, and deltas to deltas."""

    img: tuple[int, ...]
    m: int

    @staticmethod
    def identity(shape: tuple[int, int]) -> "WeylElement":
        m, n = shape
        return WeylElement(tuple(range(1, m + n + 1)), m)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, len(self.img) - self.m)

    def act(self, w: Weight) -> Weight:
        if w.shape != self.shape:
            raise ValueError("shape mismatch")
        out = [0] * len(self.img)
        for x, c in zip(self.img, w.coords2):
            if x > 0:
                out[x - 1] = c
            else:
                out[-x - 1] = -c
        return Weight._trusted(tuple(out), w.shape)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other (self o other)."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        a = self.img
        return WeylElement(tuple([a[x - 1] if x > 0 else -a[-x - 1] for x in other.img]), self.m)

    def sort_key(self) -> tuple[int, ...]:
        """The eps slots, the eps signs (-1 first), the delta slots and the
        delta signs, in one flat tuple."""
        m, img = self.m, self.img
        slots = [abs(x) for x in img]
        signs = [1 if x > 0 else -1 for x in img]
        return (*slots[:m], *signs[:m], *slots[m:], *signs[m:])

    def is_identity(self) -> bool:
        return self.img == tuple(range(1, len(self.img) + 1))


def _sign_product(entries) -> int:
    return -1 if sum(x < 0 for x in entries) % 2 else 1


def sgn(w: WeylElement) -> int:
    """Determinant of the action on the weight space, equal to (-1)^l(w): the
    parity of the slot permutation times the product of the signs."""
    img = w.img
    s = _sign_product(img)
    seen = [False] * len(img)
    for i in range(len(img)):
        j = i
        while not seen[j]:
            seen[j] = True
            j = abs(img[j]) - 1
            if j != i:
                s = -s
    return s


def sgn_prime(w: WeylElement, family: str) -> int:
    """Sign counting only reflections from \\bar Delta_0^+.

    Next to a B eps block (family B) the delta sign flips come from the long
    roots 2 delta_k whose halves are odd roots, so they do not count; a D
    eps block (family D, including the extension by the s_{eps_i}) has no
    reflection that flips one sign, so its flips do not count.  In GL and C
    sgn' coincides with sgn.
    """
    eps_type = FAMILY_BLOCKS[family.upper()][0]
    s = sgn(w)
    if eps_type == "B":
        s *= _sign_product(w.img[w.m:])
    elif eps_type == "D":
        s *= _sign_product(w.img[: w.m])
    return s


def _on_block(shape: tuple[int, int], kind: str, perm, signs) -> WeylElement:
    """The signed permutation (perm, signs) on the eps ("e") or delta ("d")
    block, identity on the other."""
    m, n = shape
    if kind == "e":
        img = [s * (1 + p) for p, s in zip(perm, signs)] + list(range(m + 1, m + n + 1))
    else:
        img = list(range(1, m + 1)) + [s * (1 + m + p) for p, s in zip(perm, signs)]
    return WeylElement(tuple(img), m)


def reflection(alpha: Weight) -> WeylElement:
    """The reflection s_alpha for an even root alpha."""
    m, n = alpha.shape
    if any(c % 2 for c in alpha.coords2):
        raise ValueError(f"{alpha} is not an even-root candidate")
    e, d = alpha.eps_coords2(), alpha.delta_coords2()
    se = [i for i, c in enumerate(e) if c]
    sd = [j for j, c in enumerate(d) if c]
    if se and sd:
        raise ValueError(f"{alpha} mixes eps and delta: not an even reflection")
    if not (se or sd):
        raise ValueError("zero weight has no reflection")
    kind, c, idx, size = ("e", e, se, m) if se else ("d", d, sd, n)
    perm, signs = list(range(size)), [1] * size
    if len(idx) == 1:
        signs[idx[0]] = -1
    else:
        i, j = idx
        perm[i], perm[j] = perm[j], perm[i]
        if c[i] * c[j] > 0:  # eps_i + eps_j (or delta_i + delta_j)
            signs[i] = signs[j] = -1
    return _on_block(alpha.shape, kind, perm, signs)


def enumerate_closure(generators: list[WeylElement], shape: tuple[int, int]) -> list[WeylElement]:
    """All products of the generators, deterministically ordered.

    The search runs on signed images.  Each distinct generator g becomes a
    lookup table of length 2(m + n) + 1 whose entry at +-k is +-g.img[k - 1],
    read with a negative index for a negative entry, so g o w is one lookup
    per entry of w.
    """
    bound = MAX_GROUP
    m, n = shape
    lookups = []
    for g in dict.fromkeys(generators):
        if g.shape != (m, n):
            raise ValueError("shape mismatch")
        lookups.append([0, *g.img, *(-x for x in reversed(g.img))].__getitem__)
    if not lookups:
        # most Enright groups in theta are trivial; they need no search
        return [WeylElement.identity((m, n))]
    ident = tuple(range(1, m + n + 1))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in lookups:
                x = tuple(map(g, w))
                if x not in seen:
                    seen.add(x)
                    if len(seen) > bound:
                        raise RuntimeError(f"group enumeration exceeded bound {bound}")
                    nxt.append(x)
        frontier = nxt
    return sorted((WeylElement(x, m) for x in seen), key=WeylElement.sort_key)


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
    """|W_g|, the product of the orders of the two blocks' Weyl groups."""
    eps_type, delta_type, _ = FAMILY_BLOCKS[datum.family]
    return block_weyl(eps_type, datum.m)[1] * block_weyl(delta_type, datum.n)[1]


def sharp_subgroup(datum: RootDatum) -> list[WeylElement]:
    """W#, the Weyl group of the even block singled out by the sign of h_vee."""
    eps_type, delta_type, _ = FAMILY_BLOCKS[datum.family]
    on_eps = datum.dual_coxeter_sign == EPS_BLOCK
    kind, block, size = ("e", eps_type, datum.m) if on_eps else ("d", delta_type, datum.n)
    return signed_permutations(datum.shape, kind, range(1, size + 1), flips=block_weyl(block, size)[0])


def signed_permutations(
    shape: tuple[int, int], kind: str, indices, permute: bool = True, flips: str = "none"
) -> list[WeylElement]:
    """Signed permutations of the listed (1-based) eps ("e") or delta ("d")
    indices, sorted by key.

    ``permute`` allows every permutation of the indices (otherwise none);
    ``flips`` allows no sign flips ("none"), every sign flip ("all") or the
    even numbers of flips ("even").  So W(A) is the default, W(B) = W(C) is
    flips="all", W(D) is flips="even", and permute=False gives the abelian
    groups of sign flips.
    """
    if flips not in ("none", "all", "even"):
        raise ValueError(f"flips must be 'none', 'all' or 'even', got {flips!r}")
    size = shape[0] if kind == "e" else shape[1]
    idx = [i - 1 for i in indices]
    perms = itertools.permutations(idx) if permute else [idx]
    sign_choices = [
        signs
        for signs in itertools.product((1, -1), repeat=len(idx))
        if flips == "all" or -1 not in signs or (flips == "even" and signs.count(-1) % 2 == 0)
    ]
    out = []
    for per in perms:
        for signs in sign_choices:
            perm, sv = list(range(size)), [1] * size
            for src, dst, s in zip(idx, per, signs):
                perm[src] = dst
                sv[src] = s
            out.append(_on_block(shape, kind, perm, sv))
    return sorted(out, key=WeylElement.sort_key)


def coset_reps(big: list[WeylElement], small: list[WeylElement], left: bool = False) -> list[WeylElement]:
    """One representative per coset w*small (small*w when left) inside big.

    The representative is the sort_key-least element of its coset, and the
    result is sorted by sort_key; requires big to be a union of such cosets.
    """
    small = list(small)
    covered: set[WeylElement] = set()
    reps = []
    for w in big:
        if w in covered:
            continue
        coset = [u.compose(w) for u in small] if left else [w.compose(u) for u in small]
        covered.update(coset)
        reps.append(min(coset, key=WeylElement.sort_key))
    if len(reps) * len(small) != len(set(big)):
        raise ValueError("the big set is not a union of cosets of the small group")
    return sorted(reps, key=WeylElement.sort_key)
