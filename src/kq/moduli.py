"""Quiver representations attached to points of Gr(n,2).

A representation assigns to every arrow of the tilting quiver a rational
matrix of the shape forced by the vertex dimensions (the fiber dimension
lam1 - lam2 + 1 at each weight lam).  A point embeds by placing the two
banded matrices on the arrows; stability of a representation is the
full-rank condition on the concatenated incoming matrices at every
non-source vertex, and the relation families must evaluate to zero.
One packed integer scan decides which relations fail (_nonvanishing);
only a failed relation's residual is formed (evaluate_relation), summed
in integers over one common denominator.

Reconstruction inverts the embedding: it sweeps first, and checks only
to name a refusal.  The point is read off the incoming matrix at (1, 0).
At every later vertex v, in degree order, each arrow's matrix times the
block already solved at its tail equals g_v times the embedded arrow; g_v
is read off the columns where the canonical incoming matrix holds the
identity, each arrow is checked exactly and g_v must have rank d_v.
Only the arrows of the point's pivot columns p and r are multiplied out.
The check of the others is linear: (1) the embedded arrow E(x) is linear
in the section x, the arrow's column of the point; (2) columns p and r
are e1 and e2, so the arrow of column x = (c1, c2) is c1 E_p + c2 E_r;
(3) g_tail is invertible, so once the arrows of columns p and r match,
another arrow matches iff its matrix is c1 rep[a_p] + c2 rep[a_r], an
integer comparison with no product, and the sweep stops at the same
vertex as one that multiplies every arrow out.  A sweep through every
vertex proves scramble(embed(point), gauge) == rep and stability; the
relations then hold by a per-n certificate that they vanish on every
embedding.  A sweep that stops at v leaves the relations with head
before v and the vertices before v proven, so a refusal checks only the
rest, in the order relations, stability, image.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import lshift, mul
from types import MappingProxyType
from typing import Mapping

# f_matrix and g_matrix stay bound here, where the benchmark tracer of
# kqbench/ looks them up, though embed builds its matrices by step_matrix.
from .fibers import (  # noqa: F401
    GrPoint,
    RankDeficientError,
    _banded,
    f_matrix,
    g_matrix,
    reduce_point,
    seeded_point,
    step_matrix,
)
from .linalg import RatMatrix, _int_product, _json_int
from .quiver import (
    RELATION_TERMS,
    Arrow,
    RelationElement,
    TiltingQuiver,
    _relation_elements,
    build_quiver,
    family_coefficients,
    p2_family,
    relation_sets,
)

SOURCE = (0, 0)


class SingularGaugeError(ValueError):
    """A per-vertex change of basis must be invertible."""


class NotStableError(ValueError):
    """Some concatenated incoming matrix fails the full-rank test."""


class RelationsViolatedError(ValueError):
    """Some relation family does not evaluate to zero."""


class NotInImageError(ValueError):
    """A stable relation-satisfying input could not be normalized onto an
    embedded point (should not happen for genuine moduli points)."""


class SourceVertexError(ValueError):
    """The source vertex has no incoming arrows to assemble."""


def _json_vertex(value, name: str) -> tuple[int, int]:
    """A vertex field of a JSON record: a pair of integers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} must be a pair of integers, got {value!r}")
    return (_json_int(value[0], f"{name} entry"), _json_int(value[1], f"{name} entry"))


class QuiverRep:
    """Matrices on every arrow of the tilting quiver for Gr(n,2), as a
    read-only mapping."""

    def __init__(self, n: int, matrices: Mapping[Arrow, RatMatrix]):
        q = build_quiver(n)
        mats = {}
        for a in q.arrows:
            m = matrices.get(a)
            if m is None:
                raise ValueError(f"missing matrix for {a}")
            k = q.vertex_dim(a.tail)
            expect = (k + 1, k) if a.direction == 1 else (k - 1, k)
            if m.shape != expect:
                raise ValueError(f"matrix for {a} has shape {m.shape}, expected {expect}")
            mats[a] = m
        extra = [a for a in matrices if a not in mats]
        if extra:
            raise ValueError(f"matrix for {extra[0]}, which is not an arrow of the quiver")
        self.n = n
        self.quiver = q
        self.matrices = MappingProxyType(mats)

    @classmethod
    def _trusted(cls, n: int, mats: dict[Arrow, RatMatrix]) -> "QuiverRep":
        """A representation from matrices already known to be one per arrow
        with the right shape; nothing is checked again."""
        rep = object.__new__(cls)
        rep.n, rep.quiver, rep.matrices = n, build_quiver(n), MappingProxyType(mats)
        return rep

    def matrix(self, a: Arrow) -> RatMatrix:
        return self.matrices[a]

    def __eq__(self, other) -> bool:
        if isinstance(other, QuiverRep):
            return self.n == other.n and self.matrices == other.matrices
        return NotImplemented

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "arrows": [dict(a.to_json(), matrix=self.matrices[a].to_json()) for a in self.quiver.arrows],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "QuiverRep":
        n, records = _json_int(obj["n"], "n"), obj["arrows"]
        expect = n * (n - 1) * (n - 2)  # refused before a quiver of this many arrows is built
        if n >= 4 and len(records) != expect:
            raise ValueError(f"{len(records)} arrow records, expected n(n-1)(n-2) = {expect}")
        q = build_quiver(n)
        mats = {}
        for rec in records:
            tail = _json_vertex(rec["tail"], "tail")
            head = _json_vertex(rec["head"], "head")
            direction = 1 if head[0] == tail[0] + 1 else 2
            a = Arrow(tail, head, direction, _json_int(rec["rho"], "rho"))
            if a in mats:
                raise ValueError(f"two records for {a}")
            mats[a] = RatMatrix.from_json(rec["matrix"])
        return cls(n, mats)


class GaugeElement:
    """An invertible change of basis at every vertex."""

    def __init__(self, n: int, blocks: Mapping[tuple[int, int], RatMatrix]):
        q = build_quiver(n)
        out = {}
        for v in q.vertices:
            b = blocks.get(v)
            if b is None:
                raise ValueError(f"missing block at {v}")
            d = q.vertex_dim(v)
            if b.shape != (d, d):
                raise ValueError(f"block at {v} has shape {b.shape}, expected {(d, d)}")
            if b.rank() < d:
                raise SingularGaugeError(f"block at {v} is singular")
            out[v] = b
        self.n = n
        self.blocks = out

    @classmethod
    def _trusted(cls, n: int, blocks: dict[tuple[int, int], RatMatrix]) -> "GaugeElement":
        """A gauge from blocks already known to be invertible, one per
        vertex with the right shape; no rank is recomputed."""
        g = object.__new__(cls)
        g.n, g.blocks = n, blocks
        return g

    def __eq__(self, other) -> bool:
        if isinstance(other, GaugeElement):
            return self.n == other.n and self.blocks == other.blocks
        return NotImplemented

    def to_json(self) -> dict:
        q = build_quiver(self.n)
        return {
            "n": self.n,
            "blocks": [{"vertex": list(v), "matrix": self.blocks[v].to_json()} for v in q.vertices],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "GaugeElement":
        n, records = _json_int(obj["n"], "n"), obj["blocks"]
        expect = n * (n - 1) // 2
        if n >= 4 and len(records) != expect:
            raise ValueError(f"{len(records)} blocks, expected n(n-1)/2 = {expect}")
        return cls(n, {_json_vertex(rec["vertex"], "vertex"): RatMatrix.from_json(rec["matrix"]) for rec in records})


@dataclass(frozen=True)
class VertexStability:
    vertex: tuple[int, int]
    expected_dim: int
    shape: tuple[int, int]
    rank: int
    ok: bool

    def to_json(self) -> dict:
        return {
            "vertex": list(self.vertex),
            "expected_dim": self.expected_dim,
            "shape": list(self.shape),
            "rank": self.rank,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class StabilityReport:
    entries: tuple[VertexStability, ...]
    ok: bool

    def to_json(self) -> dict:
        return {"vertices": [e.to_json() for e in self.entries], "ok": self.ok}


@dataclass(frozen=True)
class RelationViolation:
    relation: RelationElement
    residual: RatMatrix

    def to_json(self) -> dict:
        return {"relation": self.relation.to_json(), "residual": self.residual.to_json()}


def embed(y: GrPoint) -> QuiverRep:
    """The representation of a point: the banded append matrix on every
    horizontal arrow and the banded wedge-pairing matrix on every
    vertical arrow, fed by the arrow's column of the point."""
    q = build_quiver(y.n)
    steps, mats = {}, {}  # one shared step matrix per (fiber dim, direction, column)
    for a in q.arrows:
        key = (q.vertex_dim(a.tail), a.direction == 1, a.rho)
        if key not in steps:
            steps[key] = step_matrix(y, *key)
        mats[a] = steps[key]
    return QuiverRep._trusted(y.n, mats)


def assemble_W(rep: QuiverRep, v) -> RatMatrix:
    """The incoming matrix at a non-source vertex v: the matrices of all
    arrows with head at v, horizontal blocks first (column index
    ascending), then vertical blocks."""
    v = tuple(v)
    if not rep.quiver.arrows_into(v):
        raise SourceVertexError(f"{v} has no incoming arrows")
    ordered = sorted(rep.quiver.arrows_into(v), key=lambda a: (a.direction, a.rho))
    return RatMatrix.hstack([rep.matrices[a] for a in ordered])


def check_stability(rep: QuiverRep) -> StabilityReport:
    """Full-rank test of the assembled incoming matrix at every
    non-source vertex; failures are report entries, not exceptions."""
    entries = []
    for v in rep.quiver.vertices:
        if v == SOURCE:
            continue
        w = assemble_W(rep, v)
        d = rep.quiver.vertex_dim(v)
        r = w.rank()
        entries.append(VertexStability(v, d, w.shape, r, r == d))
    return StabilityReport(tuple(entries), all(e.ok for e in entries))


@lru_cache(maxsize=None)
def _relation_bound(q: TiltingQuiver) -> tuple[int, int]:
    """Over the arrow_terms (c, first, second) of the quiver's relations:
    the largest sum over a relation of |c| * (dim of the vertex at the
    head of the first arrow, which the path passes), and the largest
    number of terms of a relation."""
    weight = most_terms = 0
    for rel in _relation_elements(q):
        weight = max(weight, sum(abs(c) * q.vertex_dim(q.arrows[first].head) for c, first, _ in rel.arrow_terms))
        most_terms = max(most_terms, len(rel.arrow_terms))
    return weight, most_terms


def _packed_arrows(rep: QuiverRep) -> tuple[list[int], list[list[tuple[int, ...]]], list[list[int]]]:
    """Per arrow, in quiver order: its denominator, its integer rows, and
    each integer row packed into one integer, entry j at bit j * s.

    The width s bounds every relation residual.  Take a relation with
    terms c_t * A_t * B_t, A_t and B_t the matrices of the path's second
    and first arrows over the denominators dA_t and dB_t, and
    D = prod_t(dA_t * dB_t).  D times its residual is
    sum_t c_t * (D / (dA_t * dB_t)) * A_t * B_t on the integer forms;
    D / (dA_t * dB_t) is the product of the other terms'
    denominators, and an entry of A_t * B_t is a sum of k_t products, k_t
    the dim of the vertex between the two arrows.  With every integer
    entry at most N and every denominator at most d, and W, T the
    _relation_bound, each entry of D times a residual is therefore at most
    U = W * N**2 * d**(2 * (T - 1)) in size; s is the bit length of U, so
    2**s > U.
    """
    weight, most_terms = _relation_bound(rep.quiver)
    mats = [rep.matrices[a] for a in rep.quiver.arrows]
    top = max(max(map(abs, m._n)) for m in mats)
    den = max(m._d for m in mats)
    s = max(1, (weight * top * top * den ** (2 * most_terms - 2)).bit_length())
    dens, rows, packed = [], [], []
    for m in mats:
        e, c = m._n, m.cols
        mrows = [e[i * c : (i + 1) * c] for i in range(m.rows)]
        dens.append(m._d)
        rows.append(mrows)
        packed.append([sum(map(lshift, r, range(0, c * s, s))) for r in mrows])
    return dens, rows, packed


def _nonvanishing(arrows: tuple, rels) -> list[RelationElement]:
    """The relations of rels that do not vanish on the representation
    whose _packed_arrows are `arrows`, in order: the one zero test of the
    relation layer, one integer comparison per residual row.

    With D and s as in _packed_arrows, row i of D times a residual, packed
    like the arrow rows, is sum_t w_t * sum_k A_t[i][k] * b_k with
    w_t = c_t * D / (dA_t dB_t) and b_k the packed rows of B_t; the terms
    are summed over the running product of their denominators, so no lcm
    is taken.  Every entry x_j of the row has |x_j| < 2**s, so the packed
    value sum_j x_j 2**(j*s) is 0 only if x_0 is a multiple of 2**s, that
    is 0, and so on up the row: a packed row is 0 only if every entry is."""
    dens, rows, packed = arrows
    out = []
    for rel in rels:
        acc, common = None, 1
        for c, first, second in rel.arrow_terms:
            w, b, delta = c * common, packed[first], dens[first] * dens[second]
            if acc is None:
                acc = [w * sum(map(mul, r, b)) for r in rows[second]]
            else:
                acc = [x * delta + w * sum(map(mul, r, b)) for x, r in zip(acc, rows[second])]
            common *= delta
        if any(acc):
            out.append(rel)
    return out


def evaluate_relation(rep: QuiverRep, rel: RelationElement) -> RatMatrix:
    """The matrix value of a relation element on the representation: for
    its arrow_terms (c_t, first, second), with A_t and B_t the matrices of
    the second and first arrows over the denominators dA_t and dB_t,
    sum_t c_t * (L / (dA_t dB_t)) * A_t * B_t over L = lcm_t(dA_t dB_t),
    the products taken on the integer forms.  An element of another n is
    refused: its arrow indices name arrows of another quiver."""
    if rel.n != rep.n:
        raise ValueError(f"a relation of n={rel.n} on a representation of n={rep.n}")
    q = rep.quiver
    d_head, d_tail = q.vertex_dim(rel.head), q.vertex_dim(rel.tail)
    terms = [(c, rep.matrices[q.arrows[second]], rep.matrices[q.arrows[first]]) for c, first, second in rel.arrow_terms]
    common = lcm(*(a._d * b._d for _, a, b in terms))
    total = [0] * (d_head * d_tail)
    for c, a, b in terms:
        w = c * (common // (a._d * b._d))
        total = [x + w * y for x, y in zip(total, _int_product(a._n, b._n, d_head, a.cols, d_tail))]
    return RatMatrix._raw(d_head, d_tail, total, common)


def check_relations(rep: QuiverRep) -> list[RelationViolation]:
    """The relations of relation_sets that fail on the representation, in
    order, found by one packed scan, each with its residual."""
    failed = _nonvanishing(_packed_arrows(rep), relation_sets(rep.quiver))
    return [RelationViolation(rel, evaluate_relation(rep, rel)) for rel in failed]


def scramble(rep: QuiverRep, g: GaugeElement) -> QuiverRep:
    """Change basis at every vertex: each arrow matrix M becomes
    g_head M g_tail^{-1}, both products taken on the integer forms and
    brought to lowest terms once.  Stability ranks and relation
    satisfaction are preserved."""
    if g.n != rep.n:
        raise ValueError("sizes differ")
    inv = {v: b.invert() for v, b in g.blocks.items()}
    # per vertex, the rows of g_v and the columns of g_v^{-1}, sliced once
    rows = {v: [b._n[i * b.cols : (i + 1) * b.cols] for i in range(b.rows)] for v, b in g.blocks.items()}
    cols = {v: [b._n[j :: b.cols] for j in range(b.cols)] for v, b in inv.items()}
    mats = {}
    for a, m in rep.matrices.items():
        c = m.cols
        m_cols = [m._n[j::c] for j in range(c)]
        left = [[sum(map(mul, x, y)) for y in m_cols] for x in rows[a.head]]
        ints = [sum(map(mul, x, y)) for x in left for y in cols[a.tail]]
        mats[a] = RatMatrix._raw(m.rows, c, ints, g.blocks[a.head]._d * m._d * inv[a.tail]._d)
    return QuiverRep._trusted(rep.n, mats)


def _relation_classes(q: TiltingQuiver) -> set[tuple[str, int, tuple[int, int]]]:
    """The classes (family, lam1 - lam2, (i, j)) of the quiver's relations
    up to relabelling the columns: (i, j) is (1, 2), (2, 1) or (1, 1) as
    relation_rows has such rows, every order for 'square', i <= j for
    'diag', and i < j for 'ff' and 'gg', whose two terms cancel at i == j."""
    pairs = {"square": ((1, 2), (2, 1), (1, 1)), "diag": ((1, 2), (1, 1))}
    return {
        (family, lam[0] - lam[1], ij)
        for lam in q.vertices
        for step in ((2, 0), (0, 2), (1, 1))
        if (family := p2_family(q, lam, (lam[0] + step[0], lam[1] + step[1])))
        for ij in pairs.get(family, ((1, 2),))
    }


@lru_cache(maxsize=None)
def _relations_vanish(n: int) -> bool:
    """Whether every degree-two relation vanishes on embed(y) for every
    point y of Gr(n,2): the premise under which reconstruct accepts on its
    sweep alone.  Certified exactly, in integers through _banded.

    A relation (family, lam, (i, j)) reads only the columns i and j of the
    point, through banded matrices whose sizes depend on d = lam1 - lam2
    alone, as do its family_coefficients; so its value is a function of
    its class in _relation_classes and the two columns.  Each term
    c * A(x) * B(x') is bilinear in the columns x' and x it reads: for
    i != j the value vanishes for all columns iff it does at the four
    pairs of unit vectors, and for i == j it is a quadratic form in
    column i, which vanishes iff it does at e1, e2 and e1 + e2."""
    units = ((1, 0), (0, 1))
    for family, d, (i, j) in _relation_classes(build_quiver(n)):
        k = d + 1
        steps = list(zip(RELATION_TERMS[family], family_coefficients(family, (d, 0))))
        columns = [{1: x, 2: y} for x in units for y in units] if i != j else [{1: x} for x in (*units, (1, 1))]
        for col in columns:
            products = []
            for (first, second, swap), c in steps:
                mid = k + 1 if first == 1 else k - 1
                b = _banded(k, first == 1, *col[j if swap else i], 1)
                a = _banded(mid, second == 1, *col[i if swap else j], 1)
                products.append([c * x for x in _int_product(a._n, b._n, a.rows, mid, k)])
            if any(map(sum, zip(*products))):
                return False
    return True


def _pivot_block(q: TiltingQuiver, v, p: int, r: int) -> tuple[tuple[Arrow, tuple[int, ...]], ...]:
    """Where the canonical incoming matrix at a non-source vertex v holds
    its identity pivot block, for a point with pivot columns p < r
    (1-based): pairs (arrow, columns of the arrow's matrix), in the order
    of the block's columns.

    At the pivots the point's columns are e1 and e2.  With horizontal
    arrows in, the k - 1 columns of f(e1) = [I; 0] are the first k - 1
    unit vectors and the last column of f(e2) is the k-th; at a diagonal
    vertex, g(e1) = [0 1] on the vertical arrow of column p.  Every column
    of the point left of p is zero and every column between p and r a
    multiple of e1, so these are the leftmost pivot columns."""
    a, b = v
    if a > b:
        k = q.vertex_dim(v)
        return ((q.arrow((a - 1, b), 1, p), tuple(range(k - 1))), (q.arrow((a - 1, b), 1, r), (k - 2,)))
    return ((q.arrow((a, b - 1), 2, p), (1,)),)


def _combines(rep: QuiverRep, arrows: list[Arrow], p: int, r: int, columns: list[tuple[int, int]], den: int) -> bool:
    """Whether rep[a] == (c1 * rep[a_p] + c2 * rep[a_r]) / den for every
    arrow a of `arrows`, the n parallel arrows of one tail and direction
    in column order, with (c1, c2) = columns[a.rho - 1]; tested entrywise
    on the integer forms, cross-multiplied over the three denominators.
    The arrows of columns p and r, (den, 0) and (0, den), are skipped:
    they combine trivially."""
    mp, mr = rep.matrices[arrows[p - 1]], rep.matrices[arrows[r - 1]]
    scale = den * mp._d * mr._d
    xp, xr = [mr._d * x for x in mp._n], [mp._d * x for x in mr._n]
    for a, (c1, c2) in zip(arrows, columns):
        m = rep.matrices[a]
        if a.rho != p and a.rho != r and any(scale * x != m._d * (c1 * y + c2 * z) for x, y, z in zip(m._n, xp, xr)):
            return False
    return True


def _sweep(rep: QuiverRep) -> tuple[GrPoint | None, dict | None, int]:
    """Solve rep == scramble(embed(point), gauge) vertex by vertex:
    (point, blocks, len(q.vertices)) if every vertex was solved, else
    (None, None, the index in q.vertices of the vertex that failed).

    The point is reduce_point at (1, 0); a rank-deficient matrix there
    fails (1, 0).  At each later vertex v, in degree order, v is solved
    when M_a = rep[a] times the block at a's tail equals g_v times the
    embedded arrow E_a for every arrow a into v, and g_v has rank d_v;
    g_v is read off the M_a at the identity pivot block of the canonical
    incoming matrix (_pivot_block).  So at every solved vertex
    rep[a] = g_head * embed(point)[a] * g_tail^-1, and its incoming matrix,
    g_v times the canonical one times an invertible block diagonal, has
    rank d_v.

    Only the arrows of the pivot columns p and r form M_a; the other
    arrows are tested by linearity, with no product.  The n parallel
    arrows a_1 .. a_n of one tail and direction carry E_rho = E(x_rho),
    linear in the point's column x_rho = (c1, c2) / den; columns p and r
    are e1 and e2, so E_rho = (c1 * E_p + c2 * E_r) / den.  Once M_p and
    M_r match, M_rho == g_v E_rho is (rep[a_rho] - (c1 * rep[a_p] + c2 *
    rep[a_r]) / den) * g_tail == 0, and g_tail is invertible (the 1 x 1
    identity at the source, rank-checked at every later vertex): so
    M_rho matches iff rep[a_rho] = (c1 * rep[a_p] + c2 * rep[a_r]) / den
    (_combines).  The same vertices are solved, with the same blocks, as
    by testing every M_a, and the sweep stops at the same vertex."""
    q, n = rep.quiver, rep.n
    try:
        point = reduce_point(assemble_W(rep, (1, 0)))
    except RankDeficientError:
        return None, None, 1
    p, r = (c + 1 for c in point.pivot_cols)
    e, den = point.matrix._n, point.matrix._d
    columns = list(zip(e[:n], e[n:]))
    blocks = {SOURCE: RatMatrix.identity(1)}
    for stop, v in enumerate(q.vertices[1:], 1):
        ins = q.arrows_into(v)  # in quiver order: n arrows, columns 1..n, per tail and direction
        groups = [ins[i : i + n] for i in range(0, len(ins), n)]
        solved = {a: rep.matrices[a] * blocks[a.tail] for arrows in groups for a in (arrows[p - 1], arrows[r - 1])}
        g = RatMatrix.hstack([solved[a].take_columns(cols) for a, cols in _pivot_block(q, v, p, r)])
        for a, m in solved.items():
            if m != g * step_matrix(point, q.vertex_dim(a.tail), a.direction == 1, a.rho):
                return None, None, stop
        if not all(_combines(rep, arrows, p, r, columns, den) for arrows in groups):
            return None, None, stop
        if g.rank() < q.vertex_dim(v):
            return None, None, stop
        blocks[v] = g
    return point, blocks, len(q.vertices)


def reconstruct(rep: QuiverRep) -> tuple[GrPoint, GaugeElement]:
    """Recover the point and the gauge from a stable relation-satisfying
    representation, so that scramble(embed(point), gauge) == rep exactly;
    else raise RelationsViolatedError, NotStableError or NotInImageError,
    checked in that order.

    A sweep that solves every vertex (_sweep) proves the equality, and
    with it stability; the relations then hold because they vanish on
    every embedding (_relations_vanish) and a gauge keeps them.  Only a
    refusal runs the checks, to name it.  If the sweep stopped at v, the
    vertices before v are solved: every relation with head before v
    vanishes, so only those with head at or after v are tested (all of
    them when the premise fails), and every vertex before v is stable.
    The block at the source is the 1 x 1 identity."""
    q = rep.quiver
    point, blocks, stop = _sweep(rep)
    vanish = _relations_vanish(rep.n)
    if stop < len(q.vertices) or not vanish:
        later = set(q.vertices[stop if vanish else 1 :])
        violated = _nonvanishing(_packed_arrows(rep), [r for r in _relation_elements(q) if r.head in later])
        if violated:
            r = violated[0]
            raise RelationsViolatedError(
                f"{len(violated)} relation(s) violated; first: {r.family} {r.indices} at {r.tail} -> {r.head}"
            )
        bad = [v for v in q.vertices[stop:] if assemble_W(rep, v).rank() < q.vertex_dim(v)]
        if bad:
            raise NotStableError(f"rank-deficient at {bad}")
        if stop < len(q.vertices):
            raise NotInImageError(f"incoming matrices at {q.vertices[stop]} do not match the embedding")
    return point, GaugeElement._trusted(rep.n, blocks)  # invertible, as in _sweep


def random_point(n: int, seed) -> GrPoint:
    """Deterministic canonical point: identity in the first two columns,
    entries p/q with |p| <= 99 and 1 <= q <= 99 elsewhere."""
    if n < 4:
        raise ValueError("need n >= 4")
    return seeded_point(n, f"point:{n}:{seed}", lambda rng: Fraction(rng.randint(-99, 99), rng.randint(1, 99)))


def random_gauge(n: int, seed) -> GaugeElement:
    """Deterministic invertible change of basis at every vertex; singular
    draws are resampled."""
    q = build_quiver(n)
    rng = random.Random(f"gauge:{n}:{seed}")
    blocks = {}
    for v in q.vertices:
        d = q.vertex_dim(v)
        while True:
            b = RatMatrix._raw(d, d, [rng.randint(-9, 9) for _ in range(d * d)], 1)
            if b.rank() == d:
                blocks[v] = b
                break
    return GaugeElement._trusted(n, blocks)
