"""Fibers of the summand bundles over a point of Gr(n,2).

A point is a canonical full-rank 2 x n rational matrix.  Over it, each
two-row weight lam carries a fiber of dimension lam1 - lam2 + 1 with the
standard monomial basis: lam2 wedge factors (b2 ^ b1) followed by a
degree lam1 - lam2 monomial in b1, b2.  This module builds the banded
matrices of the two elementary maps (append a section to the symmetric
part; sum over wedge pairings with a section).  Their oracle from the
definitions, and the staircase composition between two weights, live
in tests/test_fibers.py.

`surjectivity_rank` certifies that compositions along paths of the
quiver span the graded map space, one torus weight at a time.  For each
dominant weight alpha it evaluates the compositions along the normal
paths of content alpha (columns weakly decreasing from the tail,
strictly at each horizontal -> vertical turn; over all routes there
are exactly as many as the weight's multiplicity, a sum of two-row
Kostka numbers), at seeded integer points in plain integer arithmetic,
with the step tables of each point cached and shared by every pair.  It
eliminates mod a fixed prime until the rank reaches the multiplicity,
falls back to an exact integer rank when it does not, and compares the
block ranks, each counted with its S_n orbit size, with `hom_dim`.
Since E_{lam+(1,1)} = E_lam (x) det Q, the twisted pairs
(lam + (t, t), mu + (t, t)) have one map space and one report body,
which is computed once per twist class and cached.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Mapping, Sequence

from .linalg import ModPrimeEchelon, RatMatrix, SparseEchelon, _json_int
from .tableaux import Partition, dominant_weights, gamma_set, hom_dim


class RankDeficientError(ValueError):
    """A 2 x n matrix of rank below two cannot represent a point."""


class InvalidRankError(ValueError):
    """The wedge-pairing map needs a fiber of dimension at least two."""


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

    def column_ints(self, rho: int) -> tuple[int, int]:
        """Column rho (1-based) over the matrix's common denominator d: the
        integers (a1, a2) whose column is (a1 / d, a2 / d)."""
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
        if "n" in obj and _json_int(obj["n"], "n") != m.cols:
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
    """f_matrix(k, x) if horizontal, else g_matrix(k, x), for column rho
    of the point as x, read off the point's integer form over its
    denominator with no Fraction built."""
    a1, a2 = y.column_ints(rho)
    return _banded(k, horizontal, a1, a2, y.matrix._d)


def seeded_point(n: int, tag: str, draw) -> GrPoint:
    """The canonical point with the identity in columns 1-2 and draw(rng)
    elsewhere, drawn column by column (row 1 first) from random.Random(tag)."""
    rng = random.Random(tag)
    rows = [[0] * n, [0] * n]
    rows[0][0] = rows[1][1] = 1
    for j in range(2, n):
        for i in range(2):
            rows[i][j] = draw(rng)
    return GrPoint(RatMatrix(rows))


@lru_cache(maxsize=None)
def sample_point(n: int, seed) -> GrPoint:
    """Deterministic canonical point with integer coordinates in [-9, 9],
    for evaluation-rank sweeps (integer arithmetic keeps them fast).
    Cached: every pair of a sweep draws the same points."""
    return seeded_point(n, f"sample:{n}:{seed}", lambda rng: rng.randint(-9, 9))


@lru_cache(maxsize=None)
def _point_steps(y: GrPoint, k: int, horizontal: bool) -> tuple:
    """The banded step matrices on a fiber of dimension k at an integer
    point (ValueError otherwise), one per column rho = 1..n at index
    rho - 1.  A band row holds at most two entries, so each row is stored
    as (c, v, e, w): value v in column c plus value w in column e, padded
    with zeros."""
    d = y.matrix._d
    tables = []
    for rho in range(1, y.n + 1):
        a1, a2 = y.column_ints(rho)
        if a1 % d or a2 % d:
            raise ValueError(f"sample point column {rho} is not integral")
        m = _banded(k, horizontal, a1 // d, a2 // d, 1)
        e, c = m._n, m.cols
        rows = []
        for i in range(m.rows):
            band = [(j, v) for j, v in enumerate(e[i * c : (i + 1) * c]) if v] + [(0, 0), (0, 0)]
            rows.append(band[0] + band[1])
        tables.append(tuple(rows))
    return tuple(tables)


def _normal_routes(lam: Partition, mu: Partition, alpha: Sequence[int]) -> tuple:
    """The normal paths lam -> mu of content alpha (alpha[r] arrows with
    column r + 1) as a prefix tree.

    A path is normal when its columns rho weakly decrease from the tail,
    strictly at each horizontal -> vertical turn: it contains no leading
    term of a quadratic relation.  So its columns read alpha in
    decreasing order and only the route, inside a >= b and below mu, is
    free.  A node is a tuple of branches (fiber dim at the arrow's tail,
    horizontal, rho - 1, child), with child None after the last arrow;
    routes that cannot finish are left out.
    """
    rhos = [r for r in reversed(range(len(alpha))) for _ in range(alpha[r])]
    u1, u2 = mu.padded(2)

    memo: dict = {}  # subtrees shared by the routes that reach one state

    def branches(i: int, a: int, b: int, after_h: bool) -> tuple:
        if i == len(rhos):
            return None
        state = (i, a, b, after_h)
        if state not in memo:
            rho, moves = rhos[i], []
            if a < u1:
                moves.append((True, branches(i + 1, a + 1, b, True)))
            if b < u2 and b < a and not (after_h and rhos[i - 1] == rho):
                moves.append((False, branches(i + 1, a, b + 1, False)))
            memo[state] = tuple((a - b + 1, h, rho, child) for h, child in moves if child != ())
        return memo[state]

    return branches(0, *lam.padded(2), False)


def _normal_path_rows(y: GrPoint, routes: tuple, d_lam: int, d_mu: int) -> list[list[int]]:
    """The compositions at one point of the paths of a `_normal_routes`
    tree, as integer rows: one row per matrix entry (i, j), one column
    per path.  The products share their common prefixes."""
    thetas: list[list[list[int]]] = []
    steps: dict = {}  # _point_steps by (fiber dim, direction), without hashing the point per arrow

    def descend(node: tuple, partial: list[list[int]]):
        for k, horizontal, rho, child in node:
            if (k, horizontal) not in steps:
                steps[k, horizontal] = _point_steps(y, k, horizontal)
            product = [[v * s + w * t for s, t in zip(partial[c], partial[e])] for c, v, e, w in steps[k, horizontal][rho]]
            if child is None:
                thetas.append(product)
            else:
                descend(child, product)

    descend(routes, [[int(i == j) for j in range(d_lam)] for i in range(d_lam)])
    return [[t[i][j] for t in thetas] for i in range(d_mu) for j in range(d_lam)]


def surjectivity_rank(n: int, lam, mu, samples: int, seed) -> dict:
    """Evaluation rank of the composition map on the paths lam -> mu,
    certified one torus weight at a time.

    Each step matrix is linear in the point column it reads, so the
    composition theta_p along a path p is multihomogeneous of degree
    content(p) in the columns of a 2 x n matrix, and functions of
    different degrees are linearly independent: the evaluation rank
    splits into one block per weight alpha.  Permuting the columns maps
    block alpha onto block sigma(alpha) with the same rank, so only the
    dominant weights of `dominant_weights` are evaluated, each counted
    with its S_n orbit size.  A block's columns are the normal paths of
    content alpha over all routes (`_normal_routes`): the paths that
    contain no leading term of a quadratic relation.  Where the PBW
    premise of `kq.quiver.kernel_report` holds they form a basis of the
    alpha part of the quotient, and where its report is also `ok` there
    are exactly mult of them and no column is spent on a relation.

    The certificate is one-sided whatever the points and whatever the
    set of paths.  The sample rank of a block is at most the dimension
    of the span of its functions; those spans are independent subspaces
    of the graded map space, so their dimensions sum to at most
    `hom_dim`, and rank = sum of orbit * block rank <= hom_dim.
    Equality certifies that compositions of elementary maps span the
    whole graded piece.  A block's functions lie in the alpha weight
    space of the constituents, whose dimension is mult = sum of
    K_{gamma, alpha}; that bound only says when to stop.

    Per block, points are drawn one at a time and their rows are
    eliminated mod `linalg.PRIME`, until the rank reaches mult or
    max(samples, 1) draws in a row leave it where it was.
    Since rank mod p <= rank over Q, reaching mult mod p is exact; on a
    shortfall the exact integer rank of the same rows decides.  The
    report's `samples` is the largest draw count of any block.  Status
    `ok` when the rank equals hom_dim and every block its mult (with
    true multiplicities either implies the other), `fail` when the rank
    exceeds hom_dim (which the theory excludes), `inconclusive`
    otherwise; a report that is not `ok` lists every block whose rank
    differs from its mult as [alpha, rank, mult] under `short_weights`.

    Twisted pairs share one computation.  E_{lam+(1,1)} = E_lam (x)
    det Q, so the pair (lam + (t, t), mu + (t, t)) has the same map
    space as (lam, mu), and everything the report reads is the same:
    the fiber dimensions, the routes inside a >= b, the constituents
    and their Kostka numbers.  A strictly contained pair is untwisted to
    (lam - (lam2, lam2), mu - (lam2, lam2)) and its report body is read
    from a per-process cache of twist classes; the report carries the
    lam and mu given.
    """
    lam, mu = Partition.coerce(lam), Partition.coerce(mu)
    # Only a strictly contained two-row pair is untwisted.  Any other
    # keeps its parts, so hom_dim refuses it as given: untwisting
    # (2,2) -> (3,1) would give a negative part.
    inner, outer = lam, mu
    if mu.num_rows <= 2 and mu.contains(lam) and mu != lam:
        t = lam.part(1)
        inner, outer = Partition((lam.part(0) - t,)), Partition((mu.part(0) - t, mu.part(1) - t))
    body = _twist_class_report(n, inner, outer, samples, seed)
    report = {"lam": list(lam.padded(2)), "mu": list(mu.padded(2)), **body}
    if "short_weights" in body:
        report["short_weights"] = [[list(alpha), rank, mult] for alpha, rank, mult in body["short_weights"]]
    return report


@lru_cache(maxsize=None)
def _twist_class_report(n: int, lam: Partition, mu: Partition, samples: int, seed) -> dict:
    """The body of the `surjectivity_rank` report of one pair, without
    lam and mu; `short_weights` entries are tuples (alpha, rank, mult).
    Cached, and called with the untwisted pair of each twist class."""
    gammas = gamma_set(lam, mu)  # NotContainedError unless lam < mu
    expected = hom_dim(gammas, n)
    d_lam, d_mu = fiber_dim(lam), fiber_dim(mu)
    rank = samples_drawn = 0
    short = []
    for alpha, orbit, mult in dominant_weights(gammas, n):
        echelon = ModPrimeEchelon()
        rows: list[list[int]] = []
        drawn = stale = 0
        routes = _normal_routes(lam, mu, alpha)
        while echelon.rank < mult and stale < max(samples, 1):
            before = echelon.rank
            for row in _normal_path_rows(sample_point(n, f"{seed}:{drawn}"), routes, d_lam, d_mu):
                rows.append(row)
                if echelon.insert(row) and echelon.rank == mult:
                    break
            drawn += 1
            stale = stale + 1 if echelon.rank == before else 0
        block_rank = echelon.rank
        if block_rank < mult:
            exact = SparseEchelon()
            for row in rows:
                exact.insert(dict(enumerate(row)))
            block_rank = exact.rank
        if block_rank != mult:
            short.append((alpha, block_rank, mult))
        rank += orbit * block_rank
        samples_drawn = max(samples_drawn, drawn)
    status = "fail" if rank > expected else "ok" if rank == expected and not short else "inconclusive"
    body = {
        "words": n ** (mu.size - lam.size),
        "samples": samples_drawn,
        "rank": rank,
        "hom_dim": expected,
        "status": status,
        "ok": status == "ok",
    }
    if status != "ok":
        body["short_weights"] = tuple(short)
    return body
