"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values (arbitrary precision, always in
lowest terms).  ``RatMatrix`` is an immutable dense matrix that holds one
exact integer form: a flat row-major tuple of integers over one positive
common denominator, in lowest terms, so equal matrices have equal forms.
Products, sums, stacking, rank and pivot columns work on the integers
alone; ``invert`` is a fraction-free (Bareiss) Gauss-Jordan elimination.
``Fraction`` values are built only on access: entries, rows, JSON and
repr.  ``SparseEchelon`` is the one exact integer
eliminator: rank and pivot columns, the graded slices of the relation
ideal and the highest-weight blocks of the surjectivity check all insert
integer rows into it.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence


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


def _json_int(value, name: str) -> int:
    """An integer field of a JSON record: no float, string or bool."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


class RatMatrix:
    """Immutable dense matrix with exact rational entries.

    The entries are ``_n[i * cols + j] / _d`` with integers ``_n``, a
    positive integer ``_d`` and ``gcd(_d, *_n) == 1``.  All operations
    return fresh matrices; instances are hashable and may be shared
    freely.  Pivoting during elimination always takes the first nonzero
    entry in column order, so results are deterministic.
    """

    __slots__ = ("_rows", "_cols", "_n", "_d")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(rat(x) for x in row) for row in entries]
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = [x for row in rows for x in row]
        # over the lcm of lowest-terms denominators the form is in lowest terms
        d = lcm(*(x.denominator for x in flat))
        object.__setattr__(self, "_rows", len(rows))
        object.__setattr__(self, "_cols", ncols)
        object.__setattr__(self, "_n", tuple(x.numerator * (d // x.denominator) for x in flat))
        object.__setattr__(self, "_d", d)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def _raw(cls, rows: int, cols: int, ints: Sequence[int], d: int) -> "RatMatrix":
        """The matrix ints / d for any d > 0, brought to lowest terms."""
        g = gcd(d, *ints) if d != 1 else 1
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", rows)
        object.__setattr__(m, "_cols", cols)
        object.__setattr__(m, "_n", tuple(x // g for x in ints) if g != 1 else tuple(ints))
        object.__setattr__(m, "_d", d // g)
        return m

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._raw(n, n, tuple(int(i == j) for i in range(n) for j in range(n)), 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls._raw(rows, cols, (0,) * (rows * cols), 1)

    @classmethod
    def hstack(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        if not blocks:
            raise ValueError("nothing to stack")
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ValueError("row counts differ")
        d = lcm(*(b._d for b in blocks))
        scaled = [(b._n, b._cols, d // b._d) for b in blocks]
        flat = tuple(s * x for i in range(rows) for n, c, s in scaled for x in n[i * c : (i + 1) * c])
        return cls._raw(rows, sum(b.cols for b in blocks), flat, d)

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
        return Fraction(self._n[i * self._cols + j], self._d)

    def row(self, i: int) -> tuple:
        d = self._d
        return tuple(Fraction(x, d) for x in self._n[i * self._cols : (i + 1) * self._cols])

    def take_columns(self, idx: Sequence[int]) -> "RatMatrix":
        idx, e, c = tuple(idx), self._n, self._cols
        if any(not 0 <= j < c for j in idx):
            raise IndexError(idx)
        return RatMatrix._raw(self._rows, len(idx), [e[i * c + j] for i in range(self._rows) for j in idx], self._d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.shape == other.shape and self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((self._rows, self._cols, self._n, self._d))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(rat_to_json(x) for x in self.row(i)) for i in range(self._rows))
        return f"RatMatrix({self._rows}x{self._cols}: {body})"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        d = lcm(self._d, other._d)
        sa, sb = d // self._d, d // other._d
        return RatMatrix._raw(self._rows, self._cols, [sa * a + sb * b for a, b in zip(self._n, other._n)], d)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix._raw(self._rows, self._cols, [c.numerator * a for a in self._n], c.denominator * self._d)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self._cols != other._rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        prod = _int_product(self._n, other._n, self._rows, self._cols, other._cols)
        return RatMatrix._raw(self._rows, other._cols, prod, self._d * other._d)

    def is_zero(self) -> bool:
        return not any(self._n)

    def pivot_columns(self) -> list[int]:
        """The leftmost pivot columns: column j is one iff it is not in the
        span of the columns before it.  These are the pivots of the integer
        rows in one SparseEchelon."""
        echelon = SparseEchelon()
        e, c = self._n, self._cols
        for i in range(self._rows):
            echelon.insert({j: x for j, x in enumerate(e[i * c : (i + 1) * c]) if x})
        return sorted(echelon.pivot_rows)

    def rank(self) -> int:
        """Exact rank over the rationals."""
        return len(self.pivot_columns())

    def invert(self) -> "RatMatrix":
        """Exact inverse by fraction-free (Bareiss) Gauss-Jordan elimination
        of [A | I], A = d * self: each update divides exactly by the previous
        pivot, and the pivot is the first nonzero entry of its column.  It
        ends at [det * I | det * A^{-1}], and self^{-1} = d * A^{-1}.
        Entries left of the pivot column are not read again, nor updated."""
        if self._rows != self._cols:
            raise SingularMatrixError("only square matrices are invertible")
        n, e = self._rows, self._n
        work = [list(e[i * n : (i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
        prev = 1
        for c in range(n):
            sel = next((i for i in range(c, n) if work[i][c]), None)
            if sel is None:
                raise SingularMatrixError("matrix is singular")
            work[c], work[sel] = work[sel], work[c]
            p, pivot = work[c][c], work[c][c + 1 :]
            for i, row in enumerate(work):
                if i != c:
                    f = row[c]
                    row[c + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[c + 1 :], pivot)]
            prev = p
        d = self._d if prev > 0 else -self._d
        return RatMatrix._raw(n, n, [d * x for row in work for x in row[n:]], abs(prev))

    def to_json(self) -> dict:
        return {
            "rows": self._rows,
            "cols": self._cols,
            "entries": [[rat_to_json(x) for x in self.row(i)] for i in range(self._rows)],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "RatMatrix":
        shape = (_json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols"))
        m = cls(obj["entries"])
        if m.shape != shape:
            raise ValueError("declared shape does not match entries")
        return m


def _int_product(a: Sequence[int], b: Sequence[int], m: int, n: int, p: int) -> list[int]:
    """The m x p product of the row-major integer m x n matrix a and
    n x p matrix b, as a flat row-major list."""
    rows = [a[i * n : (i + 1) * n] for i in range(m)]
    cols = [b[j::p] for j in range(p)]
    return [sum(map(mul, r, c)) for r in rows for c in cols]


class SparseEchelon:
    """Row echelon structure for sparse integer vectors over column
    indices; rows are scale-normalized (content one, positive pivot), so
    the reduction is exact over the rationals.  A reduction step scales
    the vector by a positive rational only, so which of its two forms is
    taken never changes a stored row."""

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
            if a % b:
                v = {c: b * x for c, x in v.items()}
            else:  # b divides a: subtract (a // b) * row, no scaling
                a //= b
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
