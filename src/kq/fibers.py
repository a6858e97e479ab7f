"""Fibers of the summand bundles over a point of Gr(n,2).

A point is a canonical full-rank 2 x n rational matrix.  Over it, each
two-row weight lam carries a fiber of dimension lam1 - lam2 + 1 with the
standard monomial basis: lam2 wedge factors (b2 ^ b1) followed by a
degree lam1 - lam2 monomial in b1, b2.  This module builds the banded
matrices of the two elementary maps (append a section to the symmetric
part; sum over wedge pairings with a section).  Their oracle from the
definitions, and the staircase composition between two weights, live
in tests/test_fibers.py.

`surjectivity_rank` decides exactly whether compositions along paths of
the quiver span the graded map space.  Their span is a GL_n
subrepresentation, so it is everything once it holds the highest-weight
vectors: one block per constituent gamma, evaluated over the normal
paths of content gamma (columns weakly decreasing from the tail,
strictly at each horizontal -> vertical turn), or over every path of
that content when the normal ones fall short.  A block reads columns 1
and 2 only, at the identity there, where every step matrix is a
weighted shift (at most one nonzero entry per column): its exact rank
needs no point and no matrix product.  Since E_{lam+(1,1)} = E_lam (x)
det Q, the twisted pairs (lam + (t, t), mu + (t, t)) have one map space
and one report body, which is computed once per twist class and cached.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Mapping, Sequence

from .linalg import RatMatrix, SparseEchelon, _int_product, _json_int
from .tableaux import Partition, gamma_set, gl_dimension, hom_dim


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
    and invariant under invertible row operations.  With B the integer
    pivot block of m, it is adj(B) times the integer form over det(B).
    """
    if m.rows != 2:
        raise ValueError("a point is a 2 x n matrix")
    piv = m.pivot_columns()
    if len(piv) < 2:
        raise RankDeficientError("matrix has rank below 2")
    e, n = m._n, m.cols
    (a, c), (b, d) = ((e[j], e[n + j]) for j in piv)
    det = a * d - b * c
    sign = 1 if det > 0 else -1
    adj = [sign * d, -sign * b, -sign * c, sign * a]
    return GrPoint(RatMatrix._raw(2, n, _int_product(adj, e, 2, 2, n), abs(det)))


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
    so every step matrix at it is an integer matrix.  Cached, so every
    caller with one seed gets the same point."""
    return seeded_point(n, f"sample:{n}:{seed}", lambda rng: rng.randint(-9, 9))


def _routes(lam: Partition, mu: Partition, alpha: Sequence[int], normal: bool = True) -> tuple:
    """The paths lam -> mu of content alpha (alpha[r] arrows with column
    r + 1) as a prefix tree; with `normal`, only the normal paths.

    A path is normal when its columns rho weakly decrease from the tail,
    strictly at each horizontal -> vertical turn: it contains no leading
    term of a quadratic relation.  So its columns read alpha in
    decreasing order and only the route, inside a >= b and below mu, is
    free; without the rule every order of the columns is taken.  A node
    is a tuple of branches (fiber dim at the arrow's tail, horizontal,
    rho - 1, child), with child None after the last arrow; routes that
    cannot finish are left out.
    """
    u1, u2 = mu.padded(2)

    memo: dict = {}  # subtrees shared by the paths that reach one state

    def branches(left: tuple, a: int, b: int, turn: int) -> tuple:
        """Subtree for the content `left` still to place from (a, b);
        turn is the column of a horizontal arrow just taken under the
        rule, else -1."""
        if not any(left):
            return None
        state = (left, a, b, turn)
        if state not in memo:
            rhos = [r for r, m in enumerate(left) if m]
            moves = []
            for rho in rhos[-1:] if normal else rhos:
                rest = left[:rho] + (left[rho] - 1,) + left[rho + 1 :]
                if a < u1:
                    moves.append((True, rho, branches(rest, a + 1, b, rho if normal else -1)))
                if b < u2 and b < a and rho != turn:
                    moves.append((False, rho, branches(rest, a, b + 1, -1)))
            memo[state] = tuple((a - b + 1, h, rho, child) for h, rho, child in moves if child != ())
        return memo[state]

    return branches(tuple(alpha), *lam.padded(2), -1)


@lru_cache(maxsize=None)
def _shift(k: int, horizontal: bool, rho: int) -> dict[int, tuple[int, int]]:
    """The step on a fiber of dimension k for column rho + 1 of the
    identity (rho in {0, 1}), read off `_banded` as a weighted shift:
    basis vector u goes to (row, value), or to 0 when u is not a key."""
    m = _banded(k, horizontal, 1 - rho, rho, 1)
    shift = {index % m.cols: (index // m.cols, v) for index, v in enumerate(m._n) if v}
    assert len(shift) == sum(map(bool, m._n)), "two nonzero entries in one column"
    return shift


def _block_rows(routes: tuple, d_lam: int) -> dict[tuple[int, int], dict[int, int]]:
    """The compositions along the paths of a `_routes` tree at the
    identity in columns 1-2: the sparse row {path index: value} of each
    entry (i, j) that some path reaches.  A composition is a weighted
    shift, carried as the image (j, i, value) of each basis vector j."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    paths = itertools.count()

    def descend(node: tuple, images: list):
        for k, horizontal, rho, child in node:
            step = _shift(k, horizontal, rho)
            moved = [(j, step[u][0], v * step[u][1]) for j, u, v in images if u in step]
            if child is None:
                leaf = next(paths)
                for j, i, v in moved:
                    rows.setdefault((i, j), {})[leaf] = v
            else:
                descend(child, moved)

    descend(routes, [(j, j, 1) for j in range(d_lam)])
    return rows


def surjectivity_rank(n: int, lam, mu, samples=None, seed=None) -> dict:
    """Dimension of the span of the compositions along the paths
    lam -> mu, decided exactly at the highest weights of the map space.

    The argument, for the map space W of the pair at n:
    1. Phi is GL_n-equivariant.  An arrow's matrix is M(y . v) for the
       arrow's vector v in k^n and a map M linear in its column, so
       theta_{v1..vL}(y . g) = theta_{g v1, .., g vL}(y), and the span Im
       of the compositions is a GL_n-subrepresentation of
       W = sum over gamma in gamma_set of S^gamma(k^n), which is
       multiplicity free.
    2. Each step matrix is linear in the point column it reads, so
       theta_p is homogeneous of degree content(p) in the columns: Im is
       graded by torus weight, and its weight-alpha part is spanned by
       the paths of content alpha.  A composition is a map of bundles,
       so it is determined by its values on the dense chart of canonical
       points with the identity in columns 1-2, and each weight part
       keeps its dimension when its functions are read on the chart.
    3. Every gamma has at most two rows, so the paths of content gamma
       read columns 1 and 2 only, which are the identity at every point
       of the chart: their functions are constant there, and r_j, the
       exact rank at the identity in columns 1-2, is the dimension of the
       gamma_j weight space of Im.  There every step is a weighted shift
       (`_shift`): f with e1 keeps index u, f with e2 moves u to u + 1, g
       with e1 moves u to u - 1 with weight u, g with e2 keeps u with
       weight -(k - 1 - u); so is every composition (`_block_rows`).
    4. gamma_set lists gamma_0, gamma_1, ... from least to most dominant,
       and K_{gamma', gamma} is 1 for gamma' dominating gamma and 0
       otherwise, so the weight gamma_j has multiplicity
       mult_j = len(gammas) - j in W.  If Im holds c_i copies of
       S^{gamma_i} (c_i in {0, 1}), then r_j = sum of c_i over i >= j.
       So c_j = r_j - r_{j+1} (with r at len(gammas) equal to 0), and
       rank = sum of c_j * gl_dimension(gamma_j, n) is the dimension of
       Im.  In characteristic 0 a highest-weight vector generates its
       irreducible copy (Fulton-Harris, Representation Theory, §15), so
       Im = W exactly when every r_j = mult_j.

    Where Phi kills the quadratic relations the normal paths
    (`_routes`) span Im, and a block is first evaluated over them alone.
    A block that falls short is evaluated again over every path of its
    content, since a changed map may not kill the relations.  Status
    `ok` when every r_j = mult_j, and then rank = hom_dim; otherwise
    `fail`, which is exact (Phi is not onto), and the report lists
    [gamma_j, r_j, mult_j] of every short block under `short_weights`.
    Neither the blocks nor their multiplicities read n, so a twist class
    gets the same status and short weights at every n where it exists.
    A changed map that no longer gives maps of bundles breaks steps 1
    and 2: tests/test_fibers.py checks that the status still matches
    the exact evaluation rank under one such change.  Some c_j may then
    fall outside {0, 1}, and such a `fail` report gives `rank` null.

    `samples` and `seed` are accepted and ignored; they belong to the
    sampled check this one replaced.

    Twisted pairs share one computation.  E_{lam+(1,1)} = E_lam (x)
    det Q, so the pair (lam + (t, t), mu + (t, t)) has the same map
    space as (lam, mu), and everything the report reads is the same:
    the fiber dimensions, the routes inside a >= b and the
    constituents.  A strictly contained pair is untwisted to
    (lam - (lam2, lam2), mu - (lam2, lam2)) and its report body is read
    from a per-process cache of twist classes; the report carries the
    lam and mu given.
    """
    lam, mu = Partition.coerce(lam), Partition.coerce(mu)
    # Only a strictly contained two-row pair is untwisted.  Any other
    # keeps its parts, so gamma_set refuses it as given: untwisting
    # (2,2) -> (3,1) would give a negative part.
    inner, outer = lam, mu
    if mu.num_rows <= 2 and mu.contains(lam) and mu != lam:
        t = lam.part(1)
        inner, outer = Partition((lam.part(0) - t,)), Partition((mu.part(0) - t, mu.part(1) - t))
    body = _twist_class_report(n, inner, outer)
    report = {"lam": list(lam.padded(2)), "mu": list(mu.padded(2)), **body}
    if "short_weights" in body:
        report["short_weights"] = [[list(gamma), rank, mult] for gamma, rank, mult in body["short_weights"]]
    return report


@lru_cache(maxsize=None)
def _twist_class_report(n: int, lam: Partition, mu: Partition) -> dict:
    """The body of the `surjectivity_rank` report of one pair, without
    lam and mu; `short_weights` entries are tuples (gamma, rank, mult).
    Cached, and called with the untwisted pair of each twist class."""
    gammas = gamma_set(lam, mu)  # NotContainedError unless lam < mu
    ranks, short = [], []
    for j, gamma in enumerate(gammas):
        mult = len(gammas) - j
        for normal in (True, False):  # every path of the content only if the normal ones fall short
            echelon = SparseEchelon()
            for row in _block_rows(_routes(lam, mu, gamma.padded(2), normal), fiber_dim(lam)).values():
                echelon.insert(row)
            if echelon.rank == mult:
                break
        ranks.append(echelon.rank)
        if echelon.rank != mult:
            short.append((gamma.padded(2), echelon.rank, mult))
    copies = [r - above for r, above in zip(ranks, ranks[1:] + [0])]
    body = {
        "words": n ** (mu.size - lam.size),
        "rank": sum(c * gl_dimension(g, n) for g, c in zip(gammas, copies)) if set(copies) <= {0, 1} else None,
        "hom_dim": hom_dim(gammas, n),
        "status": "fail" if short else "ok",
        "ok": not short,
    }
    if short:
        body["short_weights"] = tuple(short)
    return body
