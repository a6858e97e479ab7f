"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values (arbitrary precision, always in
lowest terms).  ``RatMatrix`` is an immutable dense matrix of such scalars
with exact products, inverse, rank and pivot columns.  ``SparseEchelon``
is the one exact integer eliminator: rank and pivot columns, the graded
slices of the relation ideal and the exact fallback of the surjectivity
check all insert integer rows into it.
``ModPrimeEchelon`` computes ranks of integer rows modulo the fixed prime
``PRIME``: since the rank mod a prime never exceeds the rank over the
rationals, reaching a known upper bound mod ``PRIME`` certifies the exact
rank.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence


# The largest prime below 2**30: residues stay one-digit CPython ints,
# which made the row updates over twice as fast as with 2**61 - 1.
PRIME = 1_073_741_789


class SingularMatrixError(ValueError):
    """Inversion was requested for a matrix of deficient rank."""


def rat(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {x!r}") from exc
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_to_json(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class RatMatrix:
    """Immutable dense matrix with exact rational entries.

    All operations return fresh matrices; instances are hashable and may be
    shared freely.  Pivoting during elimination always takes the first
    nonzero entry in column order, so results are deterministic.
    """

    __slots__ = ("_rows", "_cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(rat(x) for x in row) for row in entries]
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "_rows", len(rows))
        object.__setattr__(self, "_cols", ncols)
        object.__setattr__(self, "_e", tuple(x for row in rows for x in row))

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def _raw(cls, rows: int, cols: int, flat: tuple) -> "RatMatrix":
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", rows)
        object.__setattr__(m, "_cols", cols)
        object.__setattr__(m, "_e", flat)
        return m

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        one, zero = Fraction(1), Fraction(0)
        return cls._raw(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._raw(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def column(cls, entries: Sequence) -> "RatMatrix":
        return cls([[x] for x in entries])

    @classmethod
    def hstack(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        if not blocks:
            raise ValueError("nothing to stack")
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("row counts differ")
        data = [sum((list(b.row(i)) for b in blocks), []) for i in range(rows)]
        return cls(data)

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._rows, self._cols)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise IndexError(key)
        return self._e[i * self._cols + j]

    def row(self, i: int) -> tuple:
        return self._e[i * self._cols : (i + 1) * self._cols]

    def take_columns(self, idx: Sequence[int]) -> "RatMatrix":
        return RatMatrix([[self[i, j] for j in idx] for i in range(self._rows)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._e))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_to_json(x) for x in self.row(i)) for i in range(self._rows))
        return f"RatMatrix({self._rows}x{self._cols}: {body})"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return RatMatrix._raw(self._rows, self._cols, tuple(a + b for a, b in zip(self._e, other._e)))

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix._raw(self._rows, self._cols, tuple(c * a for a in self._e))

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self._cols != other._rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        m, n, p = self._rows, self._cols, other._cols
        zero = Fraction(0)
        out = []
        for i in range(m):
            acc = [zero] * p
            base = i * n
            for k in range(n):
                a = self._e[base + k]
                if a:
                    brow = other._e[k * p : (k + 1) * p]
                    for j in range(p):
                        b = brow[j]
                        if b:
                            acc[j] += a * b
            out.extend(acc)
        return RatMatrix._raw(m, p, tuple(out))

    def transpose(self) -> "RatMatrix":
        return RatMatrix._raw(self._cols, self._rows, tuple(self._e[j * self._cols + i] for i in range(self._cols) for j in range(self._rows)))

    def is_zero(self) -> bool:
        return not any(self._e)

    def pivot_columns(self) -> list[int]:
        """The leftmost pivot columns: column j is one iff it is not in the
        span of the columns before it.

        Each row is scaled to integers first (rank-preserving), then the
        rows are inserted into one SparseEchelon, whose pivots are the
        pivots of the row space.
        """
        echelon = SparseEchelon()
        for i in range(self._rows):
            r = self.row(i)
            den = lcm(*(x.denominator for x in r))
            echelon.insert({j: int(x * den) for j, x in enumerate(r) if x})
        return sorted(echelon.pivot_rows)

    def rank(self) -> int:
        """Exact rank over the rationals."""
        return len(self.pivot_columns())

    def invert(self) -> "RatMatrix":
        """Exact inverse by Gauss-Jordan elimination of [self | I]; the
        pivot is the first nonzero entry of its column."""
        if self._rows != self._cols:
            raise SingularMatrixError("only square matrices are invertible")
        n = self._rows
        work = [list(self.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for c in range(n):
            sel = next((i for i in range(c, n) if work[i][c]), None)
            if sel is None:
                raise SingularMatrixError("matrix is singular")
            work[c], work[sel] = work[sel], work[c]
            inv = 1 / work[c][c]
            pivot = work[c] = [x * inv for x in work[c]]
            for i in range(n):
                f = work[i][c]
                if i != c and f:
                    work[i] = [x - f * y for x, y in zip(work[i], pivot)]
        return RatMatrix._raw(n, n, tuple(x for row in work for x in row[n:]))

    def to_json(self) -> dict:
        return {
            "rows": self._rows,
            "cols": self._cols,
            "entries": [[rat_to_json(x) for x in self.row(i)] for i in range(self._rows)],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "RatMatrix":
        m = cls(obj["entries"])
        if m.shape != (obj["rows"], obj["cols"]):
            raise ValueError("declared shape does not match entries")
        return m


class SparseEchelon:
    """Row echelon structure for sparse integer vectors over column
    indices; rows are scale-normalized (content one, positive pivot), so
    the reduction is exact over the rationals."""

    def __init__(self):
        self.pivot_rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def insert(self, vec: Mapping[int, int]) -> bool:
        """Reduce vec against the echelon; add it if independent."""
        v = {c: x for c, x in vec.items() if x}
        steps = 0
        while v:
            p = min(v)
            row = self.pivot_rows.get(p)
            if row is None:
                v = self._normalized(v)
                if v[p] < 0:
                    v = {c: -x for c, x in v.items()}
                self.pivot_rows[p] = v
                return True
            a, b = v[p], row[p]
            v = {c: b * x for c, x in v.items()}
            for c, x in row.items():
                s = v.get(c, 0) - a * x
                if s:
                    v[c] = s
                else:
                    v.pop(c, None)
            steps += 1
            if steps % 8 == 0 and v:
                v = self._normalized(v)  # keep coefficient growth in check
        return False

    @staticmethod
    def _normalized(v: dict[int, int]) -> dict[int, int]:
        g = 0
        for x in v.values():
            g = gcd(g, x)
            if g == 1:
                return v
        return {c: x // g for c, x in v.items()} if g > 1 else v

    def basis(self) -> list[dict[int, int]]:
        return [self.pivot_rows[p] for p in sorted(self.pivot_rows)]


class ModPrimeEchelon:
    """Integer rows reduced mod PRIME, inserted one at a time.

    Each stored row is monic at its pivot and zero at the pivots of the
    rows stored before it, so one pass in insertion order reduces a new
    row against all of them.  Only the tail of a stored row from its
    pivot on is kept, since the entries before it are zero.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: Sequence[int]) -> bool:
        """Reduce row against the echelon; add it if independent mod PRIME."""
        p = PRIME
        row = list(row)
        # Entries are reduced once at the end: each update adds less than
        # p**2 in size, and one reduction per entry is cheaper than one per
        # update.
        for pivot, tail in self.rows:
            c = row[pivot] % p
            if c:
                row[pivot:] = [a - c * b for a, b in zip(row[pivot:], tail)]
        row = [x % p for x in row]
        pivot = next((i for i, x in enumerate(row) if x), None)
        if pivot is None:
            return False
        inv = pow(row[pivot], -1, p)
        self.rows.append((pivot, [x * inv % p for x in row[pivot:]]))
        return True
