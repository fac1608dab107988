"""Independent oracles shared by several test modules (not collected).

Each one recomputes a quantity the library produces by other means, written
out directly from its definition.
"""

import itertools

from superdenom.weights import inner, is_isotropic
from superdenom.weyl import sgn


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
                grow(list(combo), list(system.positive_roots))
    return results


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
