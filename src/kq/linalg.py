"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` values (arbitrary precision, always in
lowest terms).  ``RatMatrix`` is an immutable dense matrix of such scalars
with exact rank / kernel / inverse / solve via Gaussian elimination, and
``FormalLinComb`` is a sparse linear combination over arbitrary hashable
basis keys.  ``ModPrimeEchelon`` computes ranks of integer rows modulo
the fixed prime ``PRIME``: since the rank mod a prime never exceeds the
rank over the rationals, reaching a known upper bound mod ``PRIME``
certifies the exact rank.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence


# The largest prime below 2**30: residues stay one-digit CPython ints,
# which made the row updates over twice as fast as with 2**61 - 1.
PRIME = 1_073_741_789


class SingularMatrixError(ValueError):
    """Inversion was requested for a matrix of deficient rank."""


class InconsistentSystemError(ValueError):
    """A linear system A X = B has no exact solution."""


def rat(x) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_to_json(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rat_from_json(s) -> Fraction:
    return rat(s)


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

    @classmethod
    def vstack(cls, blocks: Sequence["RatMatrix"]) -> "RatMatrix":
        if not blocks:
            raise ValueError("nothing to stack")
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ValueError("column counts differ")
        data = [list(b.row(i)) for b in blocks for i in range(b.rows)]
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

    def col(self, j: int) -> tuple:
        return self._e[j :: self._cols]

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

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return RatMatrix._raw(self._rows, self._cols, tuple(a - b for a, b in zip(self._e, other._e)))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix._raw(self._rows, self._cols, tuple(-a for a in self._e))

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

    def rank(self) -> int:
        """Exact rank over the rationals.

        Each row is scaled to integers first (rank-preserving), then an
        integer fraction-free elimination with gcd renormalisation runs;
        this avoids Fraction overhead on the hot path.
        """
        rows = []
        for i in range(self._rows):
            r = self.row(i)
            den = 1
            for x in r:
                den = den * x.denominator // gcd(den, x.denominator)
            ints = [int(x * den) for x in r]
            if any(ints):
                rows.append(ints)
        return int_row_rank(rows, self._cols)

    def rref(self) -> tuple["RatMatrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        work = [list(self.row(i)) for i in range(self._rows)]
        pivots = _rref_inplace(work, self._cols)
        return RatMatrix(work), pivots

    def kernel_basis(self) -> list["RatMatrix"]:
        """Column vectors spanning the right kernel, one per free column."""
        work = [list(self.row(i)) for i in range(self._rows)]
        pivots = _rref_inplace(work, self._cols)
        pivot_set = set(pivots)
        basis = []
        for free in range(self._cols):
            if free in pivot_set:
                continue
            v = [Fraction(0)] * self._cols
            v[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -work[r][free]
            basis.append(RatMatrix.column(v))
        return basis

    def invert(self) -> "RatMatrix":
        if self._rows != self._cols:
            raise SingularMatrixError("only square matrices are invertible")
        n = self._rows
        work = [list(self.row(i)) + [Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)]
        pivots = _rref_inplace(work, 2 * n)
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return RatMatrix([row[n:] for row in work])

    def solve_right(self, b: "RatMatrix") -> "RatMatrix":
        """Exact X with self @ X = b; raises InconsistentSystemError otherwise.

        Free variables are set to zero, so the result is deterministic.
        """
        if b.rows != self._rows:
            raise ValueError("row counts differ")
        n, k = self._cols, b.cols
        work = [list(self.row(i)) + list(b.row(i)) for i in range(self._rows)]
        pivots = _rref_inplace(work, n + k, stop_col=n)
        for r in range(len(pivots), self._rows):
            if any(work[r][n:]):
                raise InconsistentSystemError("no exact solution")
        x = [[Fraction(0)] * k for _ in range(n)]
        for r, pc in enumerate(pivots):
            for j in range(k):
                x[pc][j] = work[r][n + j]
        return RatMatrix(x)

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


def _rref_inplace(work: list[list[Fraction]], width: int, stop_col: int | None = None) -> list[int]:
    """Reduce `work` to reduced row echelon form in place; return pivot cols.

    Pivot selection takes the first row with a nonzero entry in column
    order (exact arithmetic needs no magnitude pivoting).
    """
    if stop_col is None:
        stop_col = width
    pivots: list[int] = []
    r = 0
    nrows = len(work)
    for c in range(stop_col):
        sel = None
        for i in range(r, nrows):
            if work[i][c]:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                row_r = work[r]
                work[i] = [x - f * y for x, y in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def int_row_rank(rows: list[list[int]], width: int) -> int:
    """Exact rank of integer rows by fraction-free elimination with gcd
    reduction; the rows are reduced in place."""
    rank = 0
    for c in range(width):
        sel = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        prow = rows[rank]
        pval = prow[c]
        for i in range(rank + 1, len(rows)):
            v = rows[i][c]
            if v:
                row = rows[i]
                new = [pval * a - v * b for a, b in zip(row, prow)]
                g = 0
                for x in new:
                    g = gcd(g, x)
                    if g == 1:
                        break
                rows[i] = [x // g for x in new] if g > 1 else new
        rank += 1
        if rank == len(rows):
            break
    return rank


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


class FormalLinComb:
    """Finite rational linear combination of opaque basis keys.

    Zero coefficients are never stored, so equality of combinations is
    equality of the underlying mappings.
    """

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        t = {}
        for key, coeff in items:
            c = rat(coeff)
            if c:
                c0 = t.get(key)
                c = c if c0 is None else c0 + c
                if c:
                    t[key] = c
                elif key in t:
                    del t[key]
        self._t = t

    @classmethod
    def term(cls, key, coeff=1) -> "FormalLinComb":
        return cls([(key, coeff)])

    @classmethod
    def zero(cls) -> "FormalLinComb":
        return cls()

    def coeff(self, key) -> Fraction:
        return self._t.get(key, Fraction(0))

    def items(self):
        return self._t.items()

    def keys(self):
        return self._t.keys()

    def is_zero(self) -> bool:
        return not self._t

    def __len__(self) -> int:
        return len(self._t)

    def __add__(self, other: "FormalLinComb") -> "FormalLinComb":
        t = dict(self._t)
        for key, c in other._t.items():
            s = t.get(key, 0) + c
            if s:
                t[key] = s
            else:
                t.pop(key, None)
        out = FormalLinComb.zero()
        out._t = t
        return out

    def __sub__(self, other: "FormalLinComb") -> "FormalLinComb":
        return self + other.scale(-1)

    def scale(self, c) -> "FormalLinComb":
        c = rat(c)
        out = FormalLinComb.zero()
        if c:
            out._t = {key: c * v for key, v in self._t.items()}
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalLinComb):
            return NotImplemented
        return self._t == other._t

    def __repr__(self) -> str:
        if not self._t:
            return "FormalLinComb(0)"
        parts = [f"{rat_to_json(c)}*{key!r}" for key, c in self._t.items()]
        return "FormalLinComb(" + " + ".join(parts) + ")"
