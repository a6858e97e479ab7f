"""Fibers of the summand bundles over a point of Gr(n,2).

A point is a canonical full-rank 2 x n rational matrix.  Over it, each
two-row weight lam carries a fiber of dimension lam1 - lam2 + 1 with the
standard monomial basis: lam2 wedge factors (b2 ^ b1) followed by a
degree lam1 - lam2 monomial in b1, b2.  This module builds the banded
matrices of the two elementary maps (append a section to the symmetric
part; sum over wedge pairings with a section), derives the same
matrices directly from the definitions, one column per basis monomial
(`section_matrix`, the test oracle for the banded formulas), and
composes them along the horizontal-then-vertical staircase between two
weights.

`surjectivity_rank` certifies that these compositions span the graded
map space, one torus weight at a time.  For each dominant weight alpha
it evaluates the compositions of the words of content alpha that are
nondecreasing inside each run, at seeded integer points in plain
integer arithmetic; it eliminates mod a fixed prime until the rank
reaches the weight's multiplicity (a sum of two-row Kostka numbers),
falls back to an exact integer rank when it does not, and compares the
block ranks, each counted with its S_n orbit size, with `hom_dim`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

from .linalg import ModPrimeEchelon, RatMatrix, SparseEchelon
from .tableaux import NotContainedError, Partition, dominant_weights, hom_dim


class RankDeficientError(ValueError):
    """A 2 x n matrix of rank below two cannot represent a point."""


class InvalidRankError(ValueError):
    """The wedge-pairing map needs a fiber of dimension at least two."""


class OutOfYoungError(ValueError):
    """A weight stepped outside the ambient staircase of weights."""


class BadWordLengthError(ValueError):
    """A column word does not match the number of staircase steps."""


def in_young(lam, n: int) -> bool:
    """True iff lam fits in the two-row staircase for Gr(n,2)."""
    lam = Partition.coerce(lam)
    if lam.num_rows > 2:
        return False
    return lam.part(0) <= n - 2


def fiber_dim(lam) -> int:
    lam = Partition.coerce(lam)
    return lam.part(0) - lam.part(1) + 1


class GrPoint:
    """A point of Gr(n,2) in canonical reduced form.

    The matrix is 2 x n of rank 2 and carries the 2 x 2 identity at its
    leftmost linearly independent column pair.  Use reduce_point to
    canonicalize an arbitrary full-rank matrix.
    """

    __slots__ = ("n", "matrix", "pivot_cols")

    def __init__(self, matrix: RatMatrix):
        if matrix.rows != 2:
            raise ValueError("a point is a 2 x n matrix")
        n = matrix.cols
        if n < 4:
            raise ValueError("need n >= 4")
        piv = tuple(matrix.pivot_columns())
        if len(piv) < 2:
            raise RankDeficientError("matrix has rank below 2")
        block = matrix.take_columns(piv)
        if block != RatMatrix.identity(2):
            raise ValueError("matrix is not in canonical reduced form; use reduce_point")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "pivot_cols", piv)

    def __setattr__(self, name, value):
        raise AttributeError("GrPoint is immutable")

    def column(self, rho: int) -> tuple[Fraction, Fraction]:
        """Column rho (1-based) as the coordinate pair of the section."""
        if not (1 <= rho <= self.n):
            raise IndexError(rho)
        return (self.matrix[0, rho - 1], self.matrix[1, rho - 1])

    def column_ints(self, rho: int) -> tuple[int, int]:
        """Column rho (1-based) over the matrix's common denominator: the
        integers (a1, a2) with column(rho) == (a1 / d, a2 / d)."""
        if not (1 <= rho <= self.n):
            raise IndexError(rho)
        e = self.matrix._n
        return (e[rho - 1], e[self.n + rho - 1])

    def __eq__(self, other) -> bool:
        if isinstance(other, GrPoint):
            return self.matrix == other.matrix
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"GrPoint(n={self.n}, pivots={self.pivot_cols})"

    def to_json(self) -> dict:
        return {"n": self.n, "matrix": self.matrix.to_json()["entries"]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "GrPoint":
        m = RatMatrix(obj["matrix"])
        if "n" in obj and obj["n"] != m.cols:
            raise ValueError("declared n does not match the matrix")
        return reduce_point(m)


def reduce_point(m: RatMatrix) -> GrPoint:
    """Canonicalize a full-rank 2 x n matrix by the left GL(2) action.

    The unique row-equivalent matrix carrying the identity at the
    leftmost independent column pair is returned; the map is idempotent
    and invariant under invertible row operations.
    """
    if m.rows != 2:
        raise ValueError("a point is a 2 x n matrix")
    piv = m.pivot_columns()
    if len(piv) < 2:
        raise RankDeficientError("matrix has rank below 2")
    block = m.take_columns(piv)
    return GrPoint(block.invert() * m)


def _banded(k: int, horizontal: bool, a1: int, a2: int, d: int) -> RatMatrix:
    """The matrix of f_matrix (horizontal) or g_matrix for the section
    with coordinates (a1 / d, a2 / d), built from the integers."""
    if horizontal:
        if k < 1:
            raise ValueError("fiber dimension must be at least 1")
        ints = [0] * ((k + 1) * k)
        for u in range(k):
            ints[u * k + u] = a1
            ints[(u + 1) * k + u] = a2
        return RatMatrix._raw(k + 1, k, ints, d)
    if k < 2:
        raise InvalidRankError("wedge-pairing map needs fiber dimension >= 2")
    ints = [0] * ((k - 1) * k)
    for u in range(1, k):
        ints[(u - 1) * k + u - 1] = -(k - u) * a2
        ints[(u - 1) * k + u] = u * a1
    return RatMatrix._raw(k - 1, k, ints, d)


def f_matrix(k: int, x: Sequence) -> RatMatrix:
    """The (k+1) x k matrix of the symmetric-append map on a fiber of
    dimension k, for a section with coordinates x = (x1, x2):
    x1 on the diagonal, x2 on the subdiagonal."""
    pair = RatMatrix([x])  # the coordinates over the lcm of their denominators
    return _banded(k, True, *pair._n, pair._d)


def g_matrix(k: int, x: Sequence) -> RatMatrix:
    """The (k-1) x k matrix of the wedge-pairing map on a fiber of
    dimension k >= 2: row u carries -(k-u) x2 on the diagonal and u x1
    on the superdiagonal (1-based)."""
    pair = RatMatrix([x])  # the coordinates over the lcm of their denominators
    return _banded(k, False, *pair._n, pair._d)


def step_matrix(y: GrPoint, k: int, horizontal: bool, rho: int) -> RatMatrix:
    """f_matrix(k, y.column(rho)) if horizontal, else g_matrix(k,
    y.column(rho)), read off the point's integer form over its
    denominator with no Fraction built."""
    a1, a2 = y.column_ints(rho)
    return _banded(k, horizontal, a1, a2, y.matrix._d)


def section_matrix(kind: str, lam, rho: int, y: GrPoint) -> RatMatrix:
    """The matrix of the elementary map of the given kind ('f' or 'g')
    for column rho of the point on the fiber at lam, filled one column
    per basis monomial b1^a b2^j straight from the definitions; the
    independent oracle for f_matrix / g_matrix.

    'f' appends the section to the symmetric part of each monomial; 'g'
    sums over ways of pairing one symmetric variable with the section
    into a new wedge factor, which is then expanded over the fiber
    basis.
    """
    lam = Partition.coerce(lam)
    if kind not in ("f", "g"):
        raise ValueError("kind must be 'f' or 'g'")
    l1, l2 = lam.padded(2)
    target = (l1 + 1, l2) if kind == "f" else (l1, l2 + 1)
    if target[0] < target[1] or not in_young(Partition(target), y.n) or not in_young(lam, y.n):
        raise OutOfYoungError(f"{lam.parts} -> {target} leaves the weight staircase")
    x1, x2 = y.column(rho)
    top = l1 - l2
    rows = [[0] * (top + 1) for _ in range(fiber_dim(Partition(target)))]
    for j in range(top + 1):
        a = top - j  # b1 exponent of the monomial
        if kind == "f":
            # (b1^a b2^j) * (x1 b1 + x2 b2)
            rows[j][j] = x1
            rows[j + 1][j] = x2
        else:
            # pair each symmetric variable with the section:
            #   b1 ^ (x1 b1 + x2 b2) = -x2 (b2 ^ b1),  a choices
            #   b2 ^ (x1 b1 + x2 b2) = +x1 (b2 ^ b1),  j choices
            if a:
                rows[j][j] = -a * x2
            if j:
                rows[j - 1][j] = j * x1
    return RatMatrix(rows)


def staircase(lam, mu) -> list[Partition]:
    """The unique increasing weight path from lam to mu through
    (mu1, lam2): all horizontal steps first, then all vertical steps."""
    lam, mu = Partition.coerce(lam), Partition.coerce(mu)
    if not (mu.contains(lam) and mu != lam):
        raise NotContainedError(f"{lam.parts} is not strictly contained in {mu.parts}")
    l1, l2 = lam.padded(2)
    u1, u2 = mu.padded(2)
    seq = [Partition((l1 + k, l2)) for k in range(u1 - l1 + 1)]
    seq += [Partition((u1, l2 + k)) for k in range(1, u2 - l2 + 1)]
    return seq


def theta_compose(lam, mu, word: Sequence[int], y: GrPoint) -> RatMatrix:
    """Product of the banded matrices along the staircase from lam to mu,
    one column index per step, consumed left to right (first letters feed
    the horizontal steps).  Shape: fiber dim at mu by fiber dim at lam."""
    lam, mu = Partition.coerce(lam), Partition.coerce(mu)
    if not (in_young(lam, y.n) and in_young(mu, y.n)):
        raise OutOfYoungError("weights must lie in the ambient staircase")
    seq = staircase(lam, mu)
    if len(word) != len(seq) - 1:
        raise BadWordLengthError(f"need {len(seq) - 1} columns, got {len(word)}")
    result = RatMatrix.identity(fiber_dim(lam))
    for tau, nxt, rho in zip(seq, seq[1:], word):
        result = step_matrix(y, fiber_dim(tau), nxt.part(0) > tau.part(0), rho) * result
    return result


def sample_point(n: int, seed, bound: int = 9) -> GrPoint:
    """Deterministic canonical point with small integer coordinates,
    for evaluation-rank sweeps (integer arithmetic keeps them fast)."""
    rng = random.Random(f"sample:{n}:{seed}")
    rows = [[0] * n, [0] * n]
    rows[0][0] = rows[1][1] = 1
    for j in range(2, n):
        for i in range(2):
            rows[i][j] = rng.randint(-bound, bound)
    return GrPoint(RatMatrix(rows))


def _step_tables(seq: Sequence[Partition], y: GrPoint, width: int) -> list:
    """The banded step matrices at an integer point (ValueError otherwise),
    per staircase step and per column 1..width, as sparse integer rows
    [(col, value), ...]."""
    d = y.matrix._d
    columns = []
    for rho in range(1, width + 1):
        a1, a2 = y.column_ints(rho)
        if a1 % d or a2 % d:
            raise ValueError(f"sample point column {rho} is not integral")
        columns.append((a1 // d, a2 // d))
    tables = []
    for tau, nxt in zip(seq, seq[1:]):
        level = []
        for a1, a2 in columns:
            m = _banded(fiber_dim(tau), nxt.part(0) > tau.part(0), a1, a2, 1)
            e, k = m._n, m.cols
            level.append([[(c, v) for c, v in enumerate(e[i * k : (i + 1) * k]) if v] for i in range(m.rows)])
        tables.append(level)
    return tables


def _block_rows(tables: list, horizontal: int, alpha: Sequence[int], d_lam: int) -> list[list[int]]:
    """The staircase compositions at one point of the words of content
    alpha that are nondecreasing inside the horizontal run and inside the
    vertical run, as integer rows: one row per matrix entry (i, j), one
    column per word.  The products share their common prefixes."""
    remaining = list(alpha)
    thetas: list[list[list[int]]] = []

    def descend(level: int, partial: list[list[int]], low: int):
        if level == len(tables):
            thetas.append(partial)
            return
        if level == horizontal:
            low = 0  # the vertical run starts
        for rho in range(low, len(remaining)):
            if not remaining[rho]:
                continue
            remaining[rho] -= 1
            product = []
            for terms in tables[level][rho]:
                acc = [0] * d_lam
                for c, v in terms:
                    acc = [a + v * b for a, b in zip(acc, partial[c])]
                product.append(acc)
            descend(level + 1, product, rho)
            remaining[rho] += 1

    descend(0, [[int(i == j) for j in range(d_lam)] for i in range(d_lam)], 0)
    return [[t[i][j] for t in thetas] for i in range(len(thetas[0])) for j in range(d_lam)]


def surjectivity_rank(n: int, lam, mu, samples: int, seed) -> dict:
    """Evaluation rank of the staircase composition map, certified one
    torus weight at a time.

    Each step matrix is linear in the point column it reads, so the
    composition theta_w of a column word w is multihomogeneous of degree
    content(w) in the columns of a 2 x n matrix, and functions of
    different degrees are linearly independent: the evaluation rank
    splits into one block per weight alpha.  Permuting the columns maps
    block alpha onto block sigma(alpha) with the same rank, so only the
    dominant weights of `dominant_weights` are evaluated, each counted
    with its S_n orbit size.  The ff and gg relations make two words
    equal when they differ by a reordering inside the horizontal or the
    vertical run, so a block takes only the words nondecreasing inside
    each run.

    The certificate is one-sided whatever the points are.  The sample
    rank of a block is at most the dimension of the span of its
    functions; those spans are independent subspaces of the graded map
    space, so their dimensions sum to at most `hom_dim`, and
    rank = sum of orbit * block rank <= hom_dim.  Equality certifies
    that compositions of elementary maps span the whole graded piece.
    A block's functions lie in the alpha weight space of the
    constituents, whose dimension is mult = sum of K_{gamma, alpha}; that
    bound only says when to stop, and sets the block's own budget.

    Per block, points are drawn one at a time and their rows are
    eliminated mod `linalg.PRIME`, until the rank reaches mult or the
    draw count reaches max(samples, 2 * ceil(mult / (d_lam * d_mu))).
    Since rank mod p <= rank over Q, reaching mult mod p is exact; on a
    shortfall the exact integer rank of the same rows decides.  The
    report's `samples` is the largest draw count of any block.  Status
    `ok` when the rank equals hom_dim and every block its mult (with
    true multiplicities either implies the other), `fail` when the rank
    exceeds hom_dim (which the theory excludes), `inconclusive`
    otherwise; a report that is not `ok` lists every block whose rank
    differs from its mult as [alpha, rank, mult] under `short_weights`.
    """
    lam, mu = Partition.coerce(lam), Partition.coerce(mu)
    seq = staircase(lam, mu)
    length = len(seq) - 1
    horizontal = mu.part(0) - lam.part(0)
    d_lam, d_mu = fiber_dim(lam), fiber_dim(mu)
    expected = hom_dim(lam, mu, n)
    tables: list = []  # step matrices per sample point, shared by the blocks
    rank = samples_drawn = 0
    short = []
    for alpha, orbit, mult in dominant_weights(lam, mu, n):
        budget = max(samples, 2 * -(-mult // (d_lam * d_mu)))
        echelon = ModPrimeEchelon()
        rows: list[list[int]] = []
        drawn = 0
        while echelon.rank < mult and drawn < budget:
            if drawn == len(tables):
                tables.append(_step_tables(seq, sample_point(n, f"{seed}:{drawn}"), min(n, length)))
            for row in _block_rows(tables[drawn], horizontal, alpha, d_lam):
                rows.append(row)
                if echelon.insert(row) and echelon.rank == mult:
                    break
            drawn += 1
        block_rank = echelon.rank
        if block_rank < mult:
            exact = SparseEchelon()
            for row in rows:
                exact.insert(dict(enumerate(row)))
            block_rank = exact.rank
        if block_rank != mult:
            short.append([list(alpha), block_rank, mult])
        rank += orbit * block_rank
        samples_drawn = max(samples_drawn, drawn)
    status = "fail" if rank > expected else "ok" if rank == expected and not short else "inconclusive"
    report = {
        "lam": list(lam.padded(2)),
        "mu": list(mu.padded(2)),
        "words": n**length,
        "samples": samples_drawn,
        "rank": rank,
        "hom_dim": expected,
        "status": status,
        "ok": status == "ok",
    }
    if status != "ok":
        report["short_weights"] = short
    return report
