"""Young diagram combinatorics.

Partitions, skew shapes and the enumeration of their semistandard
fillings (each a tuple of rows; `ssyt-count` counts them),
Littlewood-Richardson numbers by direct enumeration of lattice fillings,
dimensions of irreducible GL(n) representations by the hook-content
formula and the closed-form list of irreducible constituents of a
two-row skew shape.  The skew decomposition by enumeration, the Pieri
rules, the semistandard check of the fillings and two-row Kostka
numbers, the oracles for these, live in tests/test_tableaux.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class NotContainedError(ValueError):
    """The inner partition is not (strictly) contained in the outer one."""


class Partition:
    """A weakly decreasing tuple of non-negative integers.

    Trailing zeros are trimmed on construction, so (2, 1) and (2, 1, 0)
    compare equal.  Instances are immutable and hashable.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        p = tuple(int(x) for x in parts)
        if any(x < 0 for x in p):
            raise ValueError(f"negative part in {p}")
        if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise ValueError(f"{p} is not weakly decreasing")
        while p and p[-1] == 0:
            p = p[:-1]
        object.__setattr__(self, "_parts", p)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def coerce(cls, value) -> "Partition":
        return value if isinstance(value, Partition) else cls(value)

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def part(self, i: int) -> int:
        """The i-th part (0-based), with implicit zero padding."""
        return self._parts[i] if i < len(self._parts) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        return self._parts + (0,) * (length - len(self._parts))

    @property
    def size(self) -> int:
        return sum(self._parts)

    @property
    def num_rows(self) -> int:
        return len(self._parts)

    def contains(self, other: "Partition") -> bool:
        other = Partition.coerce(other)
        return all(other.part(i) <= self.part(i) for i in range(other.num_rows))

    def conjugate(self) -> "Partition":
        if not self._parts:
            return Partition()
        return Partition([sum(1 for p in self._parts if p > j) for j in range(self._parts[0])])

    def cells(self) -> list[tuple[int, int]]:
        """All boxes (row, col), 0-based, in reading order."""
        return [(i, j) for i, p in enumerate(self._parts) for j in range(p)]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition{self._parts}"

    def to_json(self, min_len: int = 0) -> list[int]:
        return list(self.padded(max(min_len, len(self._parts))))


class SkewShape:
    """The boxes of `outer` not in `inner` (both partitions, inner ⊆ outer)."""

    __slots__ = ("inner", "outer")

    def __init__(self, inner, outer):
        inner = Partition.coerce(inner)
        outer = Partition.coerce(outer)
        if not outer.contains(inner):
            raise NotContainedError(f"{inner.parts} is not contained in {outer.parts}")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)

    def __setattr__(self, name, value):
        raise AttributeError("SkewShape is immutable")

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def num_rows(self) -> int:
        return self.outer.num_rows

    def row_bounds(self) -> list[tuple[int, int]]:
        """Per row, the half-open column range [inner_r, outer_r)."""
        return [(self.inner.part(r), self.outer.part(r)) for r in range(self.num_rows)]

    def cells(self) -> list[tuple[int, int]]:
        """Boxes (row, col), 0-based, in reading order (rows, left to right)."""
        return [(r, c) for r, (lo, hi) in enumerate(self.row_bounds()) for c in range(lo, hi)]

    def __repr__(self) -> str:
        return f"SkewShape({self.inner.parts}/{self.outer.parts})"


def enumerate_ssyt(shape: SkewShape, max_entry: int) -> list[tuple[tuple[int, ...], ...]]:
    """All semistandard fillings with entries in {1..max_entry}, each a
    tuple of row tuples covering only the boxes of the shape.

    Boxes are filled in reading order with backtracking; the output order
    is therefore deterministic (lexicographic in the reading word).
    """
    if max_entry < 1:
        raise ValueError("max_entry must be at least 1")
    bounds = shape.row_bounds()
    cells = shape.cells()
    filling: dict[tuple[int, int], int] = {}
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(k: int):
        if k == len(cells):
            out.append(tuple(tuple(filling[(r, c)] for c in range(lo, hi)) for r, (lo, hi) in enumerate(bounds)))
            return
        r, c = cells[k]
        lo = 1
        if (r, c - 1) in filling:
            lo = filling[(r, c - 1)]
        if (r - 1, c) in filling:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, max_entry + 1):
            filling[(r, c)] = v
            fill(k + 1)
        filling.pop((r, c), None)

    fill(0)
    return out


def _lr_fillings(shape: SkewShape, content: tuple[int, ...]) -> int:
    """Count semistandard fillings of `shape` with the given content whose
    reverse word is a lattice word.

    Boxes are filled in reverse-word order (rows top to bottom, right to
    left) so both the lattice condition and the row condition prune early.
    """
    bounds = shape.row_bounds()
    order = [(r, c) for r, (lo, hi) in enumerate(bounds) for c in range(hi - 1, lo - 1, -1)]
    remaining = list(content)
    filling: dict[tuple[int, int], int] = {}
    count = 0

    def fill(k: int, prefix_counts: list[int]):
        nonlocal count
        if k == len(order):
            count += 1
            return
        r, c = order[k]
        hi_val = len(content)
        right = filling.get((r, c + 1))
        if right is not None:
            hi_val = min(hi_val, right)
        above = filling.get((r - 1, c))
        lo_val = above + 1 if above is not None else 1
        for v in range(lo_val, hi_val + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and prefix_counts[v - 1] + 1 > prefix_counts[v - 2]:
                continue  # lattice condition would fail
            filling[(r, c)] = v
            remaining[v - 1] -= 1
            prefix_counts[v - 1] += 1
            fill(k + 1, prefix_counts)
            prefix_counts[v - 1] -= 1
            remaining[v - 1] += 1
            del filling[(r, c)]

    fill(0, [0] * len(content))
    return count


def lr_number(lam, gam, mu) -> int:
    """The Littlewood-Richardson number: semistandard skew tableaux of
    shape mu/lam and content gam whose reverse word is a lattice word.

    Returns 0 whenever lam is not contained in mu or the box counts do
    not balance.
    """
    lam, gam, mu = Partition.coerce(lam), Partition.coerce(gam), Partition.coerce(mu)
    if not mu.contains(lam):
        return 0
    if lam.size + gam.size != mu.size:
        return 0
    shape = SkewShape(lam, mu)
    if shape.size == 0:
        return 1 if gam.size == 0 else 0
    return _lr_fillings(shape, gam.parts)


def gl_dimension(gam, n: int) -> int:
    """Dimension of the irreducible GL(n) representation of highest weight
    gam, by the hook-content formula: prod over cells of (n + j - i) / hook."""
    gam = Partition.coerce(gam)
    if gam.num_rows > n:
        raise ValueError(f"{gam} has more than {n} rows")
    conj = gam.conjugate()
    num = 1
    den = 1
    for (i, j) in gam.cells():
        num *= n + j - i
        den *= (gam.part(i) - j) + (conj.part(j) - i) - 1
    dim = Fraction(num, den)
    assert dim.denominator == 1
    return int(dim)


def gamma_set(lam, mu) -> list[Partition]:
    """Constituents of the two-row skew shape mu/lam, in closed form.

    After shifting so the inner second row is zero, with m1, m2 the row
    differences, the list runs from (max{m1,m2}, min{m1,m2}) in steps of
    (+1, -1) down to (m1+m2, 0) when the rows of the skew shape do not
    overlap, and stops at the overlap-forced lower bound otherwise.  The
    enumeration in tests/test_tableaux.py is the oracle for this.
    """
    lam, mu = Partition.coerce(lam), Partition.coerce(mu)
    if lam.num_rows > 2 or mu.num_rows > 2:
        raise ValueError("two-row partitions only")
    if not (mu.contains(lam) and mu != lam):
        raise NotContainedError(f"{lam.parts} is not strictly contained in {mu.parts}")
    l1, l2 = lam.padded(2)
    u1, u2 = mu.padded(2)
    m1, m2 = u1 - l1, u2 - l2
    # shift so the inner partition has second row zero
    s1, s2 = u1 - l2, u2 - l2
    start = (max(m1, m2), min(m1, m2))
    if u2 <= l1:
        stop2 = 0
    else:
        stop2 = s2 - (l1 - l2)  # forced count of 2s in the overlap columns
    out = []
    a, b = start
    while b >= stop2:
        out.append(Partition((a, b)))
        a, b = a + 1, b - 1
    return out


def hom_dim(gammas: Sequence[Partition], n: int) -> int:
    """Total dimension of a graded map space mu/lam as a GL(n)
    representation, from its constituents gammas = gamma_set(lam, mu):
    the sum of their hook-content dimensions."""
    return sum(gl_dimension(g, n) for g in gammas)
