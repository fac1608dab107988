"""Arc diagrams: non-crossing matchings encoding maximal isotropic sets.

An arc diagram on an ordered eps/delta basis consists of min(m,n) arcs whose
ends have different type, whose spanned intervals contain as many eps as
delta symbols, and which neither cross nor share endpoints.  Each diagram X
yields the isotropic set S(X) = {left - right per arc}, and the bracket
weights [[gamma]] that appear as exponents in the generalized denominator
identities.  Every nesting fact (niceness, the nesting count, the brackets,
the root signs) is read off one relation, ``ArcDiagram.nested_below``.  The
nice diagram of an order is the bracket matching of its type word.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .weights import Weight
from .rootdata import BasisOrder, PositiveSystem


class ArcDiagram:
    """Basis order plus arcs given as (left_position, right_position) pairs."""

    def __init__(self, order: BasisOrder, arcs: list[tuple[int, int]]):
        self.order = order
        self.arcs = tuple(sorted(tuple(a) for a in arcs))
        self._validate()
        self._roots = self._root_table()

    def _validate(self) -> None:
        seq = self.order.sequence
        N = len(seq)
        used = set()
        for i, j in self.arcs:
            if not (0 <= i < j < N):
                raise ValueError(f"arc ({i},{j}) out of range")
            if seq[i].kind == seq[j].kind:
                raise ValueError(f"arc ({i},{j}) joins symbols of the same type")
            ek = sum(1 for k in range(i, j + 1) if seq[k].kind == "e")
            dk = (j - i + 1) - ek
            if ek != dk:
                raise ValueError(f"arc ({i},{j}) spans an unbalanced interval")
            if i in used or j in used:
                raise ValueError("arcs share an endpoint")
            used.update((i, j))
        for (i, j), (k, l) in itertools.combinations(self.arcs, 2):
            if i < k < j < l or k < i < l < j:
                raise ValueError(f"arcs ({i},{j}) and ({k},{l}) cross")
        d = min(self.order.m, self.order.n)
        if len(self.arcs) != d:
            raise ValueError(f"expected {d} arcs, got {len(self.arcs)}")

    # -- basic structure ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.order.shape

    def support_symbols(self):
        return [self.order.sequence[p] for p in sorted(p for arc in self.arcs for p in arc)]

    def isotropic_set(self) -> list[Weight]:
        """S(X), ordered by arcs sorted by left endpoint."""
        return list(self._roots)

    def is_simple(self) -> bool:
        return all(j == i + 1 for i, j in self.arcs)

    def sn(self, arc: tuple[int, int]) -> int:
        """+1 iff the left end of the arc is an eps-type vertex.

        For all-positive bases this is the same as the sign of the arc root's
        eps-part; when the basis carries -eps_m (family D) the two readings
        differ and it is the vertex-type one that keeps the brackets
        consistent under odd reflections and makes the identities hold.
        """
        return 1 if self.order.sequence[arc[0]].kind == "e" else -1

    def nested_below(self, arc: tuple[int, int]) -> list[tuple[int, int]]:
        """Arcs whose interval is contained in the given arc's (inclusive)."""
        i, j = arc
        return [a for a in self.arcs if i <= a[0] and a[1] <= j]

    def is_nice(self) -> bool:
        """Nice: comparable arcs (nested) have equal sn."""
        return all(self.sn(b) == self.sn(a) for a in self.arcs for b in self.nested_below(a))

    # -- bracket weights ------------------------------------------------------

    def _root_table(self) -> dict[Weight, tuple[tuple[int, int], Weight]]:
        """gamma -> (its arc, [[gamma]]) for each gamma in S(X), in arc order."""
        fs = self.order.functionals()
        roots = {a: fs[a[0]] - fs[a[1]] for a in self.arcs}
        table = {}
        for arc, gamma in roots.items():
            acc = gamma  # the arc itself: sn(gamma)^2 gamma
            for b in self.nested_below(arc):
                if b != arc:
                    acc = acc + roots[b] if self.sn(b) == self.sn(arc) else acc - roots[b]
            table[gamma] = (arc, acc)
        return table

    def _lookup(self, gamma: Weight) -> tuple[tuple[int, int], Weight]:
        entry = self._roots.get(gamma)
        if entry is None:
            raise ValueError(f"{gamma} is not in S(X)")
        return entry

    def bracket(self, gamma: Weight) -> Weight:
        """[[gamma]] = sum over arcs nested below gamma's arc of
        sn(gamma) sn(beta) beta."""
        return self._lookup(gamma)[1]

    def open_bracket(self, gamma: Weight) -> Weight:
        """]]gamma[[ = [[gamma]] - gamma."""
        return self.bracket(gamma) - gamma

    def nesting_count(self) -> int:
        """Total number of strictly nested arc pairs: sum over gamma of |gamma^<|."""
        return sum(len(self.nested_below(a)) - 1 for a in self.arcs)

    def gamma_le_size(self, gamma: Weight) -> int:
        """|gamma^<=| = number of arcs nested below gamma's arc, inclusive."""
        return len(self.nested_below(self._lookup(gamma)[0]))

    def root_sign(self, gamma: Weight) -> int:
        """sgn(gamma) = (-1)^(|gamma^<=| + 1)."""
        return -1 if self.gamma_le_size(gamma) % 2 == 0 else 1

    # -- equality / display ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ArcDiagram) and self.order == other.order and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.order, self.arcs))

    def __repr__(self) -> str:
        return f"ArcDiagram({self.order}; arcs={list(self.arcs)})"

    def ascii(self) -> str:
        """Dots for eps vertices, crosses for delta vertices, brackets for arcs."""
        seq = self.order.sequence
        N = len(seq)
        width = 4
        depth_of = {}
        for arc in sorted(self.arcs, key=lambda a: a[1] - a[0]):
            depth_of[arc] = 1 + max((depth_of[a] for a in self.nested_below(arc) if a != arc), default=0)
        maxd = max(depth_of.values(), default=0)
        lines = []
        for level in range(maxd, 0, -1):
            row = [" "] * (N * width)
            for arc, d in depth_of.items():
                if d != level:
                    continue
                i, j = arc
                row[i * width] = "┌"
                row[j * width] = "┐"
                for k in range(i * width + 1, j * width):
                    if row[k] == " ":
                        row[k] = "─"
            lines.append("".join(row).rstrip())
        marks = "".join(("•" if s.kind == "e" else "×").ljust(width) for s in seq)
        labels = "".join(repr(s).ljust(width) for s in seq)
        lines.append(marks.rstrip())
        lines.append(labels.rstrip())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"order": self.order.to_json(), "arcs": [list(a) for a in self.arcs]}


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None)
def _matchings(word: tuple[str, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All arc sets on the type word with min(#e,#d) arcs, non-crossing,
    alternating-type, balanced intervals."""
    ne = word.count("e")
    nd = len(word) - ne
    need = min(ne, nd)
    if need == 0:
        return ((),)
    results = []
    t0 = word[0]
    # first vertex unmatched: only affordable if its type is in the majority
    if (t0 == "e" and ne > nd) or (t0 == "d" and nd > ne):
        for rest in _matchings(word[1:]):
            results.append(tuple((i + 1, j + 1) for i, j in rest))
    # first vertex matched with a partner making the interval [0, j] balanced;
    # the inside is then balanced too, so each of its matchings is perfect
    bal = 1 if t0 == "e" else -1
    for j in range(1, len(word)):
        bal += 1 if word[j] == "e" else -1
        if word[j] == t0 or bal != 0:
            continue
        inside = word[1:j]
        outside = word[j + 1:]
        for ins in _matchings(inside):
            for outs in _matchings(outside):
                arcs = ((0, j),) + tuple((a + 1, b + 1) for a, b in ins) + tuple(
                    (a + j + 1, b + j + 1) for a, b in outs
                )
                results.append(arcs)
    return tuple(sorted(set(results)))


def enumerate_diagrams(system: PositiveSystem) -> list[ArcDiagram]:
    """All arc diagrams encoding the system's maximal isotropic sets.

    For D-type orders ending in eps_m the sign twin encodes the same positive
    system, and its diagrams whose arcs reach the last vertex carry the
    isotropic sets with the opposite eps_m sign; they are included so the
    diagram list matches the recursive construction of the isotropic sets.
    """
    word = tuple(s.kind for s in system.order.sequence)
    out = [ArcDiagram(system.order, list(arcs)) for arcs in _matchings(word)]
    order = system.order
    if system.datum.family == "D" and order.sequence[-1].kind == "e":
        twin = order.sign_twin()
        last = len(word) - 1
        for arcs in _matchings(word):
            if any(j == last for _, j in arcs):
                out.append(ArcDiagram(twin, list(arcs)))
    return out


# ---------------------------------------------------------------------------
# reflections on diagrams


def odd_reflect_diagram(X: ArcDiagram, arc: tuple[int, int]) -> ArcDiagram:
    """Swap the two (consecutive) vertices of the arc; the arc reverses."""
    i, j = arc
    if (i, j) not in X.arcs:
        raise ValueError("not an arc of the diagram")
    if j != i + 1:
        raise ValueError("odd reflection needs an arc between consecutive vertices")
    return ArcDiagram(X.order.swapped(i), list(X.arcs))


def interval_reflect(X: ArcDiagram, start: int) -> ArcDiagram:
    """Replace the long arc over an alternating block e d e d ... e d starting
    at position start by the k short arcs; the basis order is unchanged."""
    seq = X.order.sequence
    outer = next((a for a in X.arcs if a[0] == start), None)
    if outer is None:
        raise ValueError("no arc starts at the given position")
    i, j = outer
    k2 = j - i + 1
    if k2 % 2 or k2 < 4:
        raise ValueError("interval too short for an interval reflection")
    k = k2 // 2
    t0 = seq[i].kind
    for r in range(i, j + 1):
        expect = t0 if (r - i) % 2 == 0 else ("d" if t0 == "e" else "e")
        if seq[r].kind != expect:
            raise ValueError("interval is not type-alternating")
    inner_expected = {(i + 2 * t + 1, i + 2 * t + 2) for t in range(k - 1)}
    if not inner_expected.issubset(set(X.arcs)):
        raise ValueError("interval does not carry the staircase arcs")
    arcs = [a for a in X.arcs if a != outer and a not in inner_expected]
    arcs += [(i + 2 * t, i + 2 * t + 1) for t in range(k)]
    return ArcDiagram(X.order, arcs)


def reduce_to_simple(X: ArcDiagram) -> tuple[list[tuple], ArcDiagram]:
    """Odd/interval reflections turning X into a simple diagram.

    Returns the move list (("odd", pos) or ("interval", pos)) and the final
    diagram.  Strategy: pick an innermost non-simple arc, restore alternation
    below it by odd reflections, then apply one interval reflection.
    """
    moves: list[tuple] = []
    cur = X
    while not cur.is_simple():
        if len(moves) >= 10 * (len(cur.order.sequence) ** 2 + 10):
            raise RuntimeError("reduction did not terminate")
        i, j = min((a for a in cur.arcs if a[1] > a[0] + 1), key=lambda a: (a[1] - a[0], a[0]))
        # everything strictly below an innermost non-simple arc consists of
        # adjacent matched pairs; flip the first pair facing the wrong way
        pairs = [(a, a + 1) for a in range(i + 1, j - 1, 2)]
        if not set(pairs) <= set(cur.arcs):
            raise AssertionError("inner vertices of an innermost arc must pair up")
        seq = cur.order.sequence
        wrong = next((a for a, _ in pairs if seq[a].kind == seq[i].kind), None)
        if wrong is None:
            cur, move = interval_reflect(cur, i), ("interval", i)
        else:
            cur, move = odd_reflect_diagram(cur, (wrong, wrong + 1)), ("odd", wrong)
        moves.append(move)
    return moves, cur


# ---------------------------------------------------------------------------
# nice diagrams


def build_nice(system: PositiveSystem) -> ArcDiagram:
    """The bracket matching of the order's type word: scanning left to right,
    each symbol closes the most recent open symbol of the other type and
    otherwise opens.  Nested arcs then share their sn, so every [[gamma]]
    lies in the positive root cone."""
    seq = system.order.sequence
    opened: list[int] = []
    arcs: list[tuple[int, int]] = []
    for p, s in enumerate(seq):
        if opened and seq[opened[-1]].kind != s.kind:
            arcs.append((opened.pop(), p))
        else:
            opened.append(p)
    X = ArcDiagram(system.order, arcs)
    if not X.is_nice():
        raise AssertionError("construction produced a non-nice diagram")
    return X
