"""Exact weights in the eps/delta coordinate lattice.

A weight is a vector in the Q-span of eps_1..eps_m, delta_1..delta_n.  All
weights that occur here (roots, rho vectors, Weyl images, partition shifts)
have coordinates in (1/2)Z, so we store coordinates doubled as plain
integers and never touch floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class Weight:
    """Immutable vector with doubled integer coordinates.

    ``coords2[i]`` is twice the coefficient of eps_{i+1} for i < m and twice
    the coefficient of delta_{i-m+1} for i >= m.
    """

    __slots__ = ("coords2", "shape", "_hash")

    def __init__(self, coords2: Iterable[int], shape: tuple[int, int]):
        c = tuple(int(x) for x in coords2)
        m, n = shape
        if len(c) != m + n:
            raise ValueError(f"expected {m + n} coordinates, got {len(c)}")
        object.__setattr__(self, "coords2", c)
        object.__setattr__(self, "shape", (m, n))
        object.__setattr__(self, "_hash", hash((c, m, n)))

    def __setattr__(self, name, value):
        raise AttributeError("Weight is immutable")

    @classmethod
    def _trusted(cls, coords2: tuple[int, ...], shape: tuple[int, int]) -> "Weight":
        """Wrap a tuple of ints already of length m + n, skipping the
        conversion and the length check of __init__."""
        out = object.__new__(cls)
        object.__setattr__(out, "coords2", coords2)
        object.__setattr__(out, "shape", shape)
        object.__setattr__(out, "_hash", hash((coords2, *shape)))
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(shape: tuple[int, int]) -> "Weight":
        m, n = shape
        return Weight._trusted((0,) * (m + n), (m, n))

    @staticmethod
    def eps(i: int, shape: tuple[int, int]) -> "Weight":
        """eps_i, 1-indexed."""
        m, n = shape
        if not 1 <= i <= m:
            raise ValueError(f"eps index {i} out of range for shape {shape}")
        c = [0] * (m + n)
        c[i - 1] = 2
        return Weight._trusted(tuple(c), (m, n))

    @staticmethod
    def delta(j: int, shape: tuple[int, int]) -> "Weight":
        """delta_j, 1-indexed."""
        m, n = shape
        if not 1 <= j <= n:
            raise ValueError(f"delta index {j} out of range for shape {shape}")
        c = [0] * (m + n)
        c[m + j - 1] = 2
        return Weight._trusted(tuple(c), (m, n))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Weight") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight._trusted(tuple(a + b for a, b in zip(self.coords2, other.coords2)), self.shape)

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight._trusted(tuple(a - b for a, b in zip(self.coords2, other.coords2)), self.shape)

    def __neg__(self) -> "Weight":
        return Weight._trusted(tuple(-a for a in self.coords2), self.shape)

    def __mul__(self, k: int) -> "Weight":
        return Weight._trusted(tuple([k * a for a in self.coords2]), self.shape)

    __rmul__ = __mul__

    def half(self) -> "Weight":
        if any(a % 2 for a in self.coords2):
            raise ValueError(f"{self} is not divisible by 2 in the (1/2)Z lattice")
        return Weight._trusted(tuple([a // 2 for a in self.coords2]), self.shape)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Weight)
            and self._hash == other._hash
            and self.coords2 == other.coords2
            and self.shape == other.shape
        )

    def __hash__(self) -> int:
        return self._hash

    # -- structure ---------------------------------------------------------

    def eps_coords2(self) -> tuple[int, ...]:
        return self.coords2[: self.shape[0]]

    def delta_coords2(self) -> tuple[int, ...]:
        return self.coords2[self.shape[0]:]

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        m, n = self.shape
        parts = []
        for idx, c2 in enumerate(self.coords2):
            if c2 == 0:
                continue
            sym = f"e{idx + 1}" if idx < m else f"d{idx - m + 1}"
            coeff = Fraction(c2, 2)
            if coeff == 1:
                parts.append(f"+{sym}")
            elif coeff == -1:
                parts.append(f"-{sym}")
            else:
                parts.append(f"{'+' if coeff > 0 else ''}{coeff}*{sym}")
        return "".join(parts).lstrip("+") if parts else "0"

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "coords2": list(self.coords2)}

    @staticmethod
    def from_json(doc: dict) -> "Weight":
        return Weight(doc["coords2"], tuple(doc["shape"]))


def inner(a: Weight, b: Weight) -> Fraction:
    """Invariant form: (eps_i, eps_j) = delta_ij = -(delta_i, delta_j)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    m = a.shape[0]
    acc = 0
    for idx, (x, y) in enumerate(zip(a.coords2, b.coords2)):
        acc += x * y if idx < m else -x * y
    return Fraction(acc, 4)


def is_isotropic(a: Weight) -> bool:
    return inner(a, a) == 0


def weight_sum(items: Iterable[Weight], shape: tuple[int, int]) -> Weight:
    acc = Weight.zero(shape)
    for w in items:
        acc = acc + w
    return acc
