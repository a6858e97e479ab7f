"""Quiver representations attached to points of Gr(n,2).

A representation assigns to every arrow of the tilting quiver a rational
matrix of the shape forced by the vertex dimensions (the fiber dimension
lam1 - lam2 + 1 at each weight lam).  A point embeds by placing the two
banded matrices on the arrows; stability of a representation is the
full-rank condition on the concatenated incoming matrices at every
non-source vertex, and the relation families must evaluate to zero
(each relation is summed in integers over one common denominator).

Reconstruction inverts the embedding: given any stable representation
satisfying the relations, one forward solve per vertex in degree order
recovers the gauge.  The point is read off the incoming matrix at (1, 0).
At every non-source vertex v, the incoming matrix with each arrow's
matrix times the block already solved at its tail equals g times the
canonical incoming matrix; g is solved on the canonical pivot columns
and the equality checked exactly.  Over all vertices the checks certify
scramble(embed(point), gauge) == rep, and stability (checked first)
makes every g invertible: the left side has rank d_v.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Mapping

# f_matrix and g_matrix stay bound here, where the benchmark tracer of
# kqbench/ looks them up, though embed builds its matrices by step_matrix.
from .fibers import GrPoint, f_matrix, g_matrix, reduce_point, seeded_point, step_matrix  # noqa: F401
from .linalg import RatMatrix, _int_product, _json_int
from .quiver import Arrow, RelationElement, TiltingQuiver, _relation_elements, build_quiver, relation_sets

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
    """Matrices on every arrow of the tilting quiver for Gr(n,2).

    `matrices` is a read-only mapping, so the packed arrow rows that
    evaluate_relation caches on the representation cannot go stale."""

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
        self._packed = None  # see _packed_arrows

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
    mats = {}
    for a in q.arrows:
        mats[a] = step_matrix(y, q.vertex_dim(a.tail), a.direction == 1, a.rho)
    return QuiverRep(y.n, mats)


def _incoming(q, matrices: Mapping[Arrow, RatMatrix], v) -> RatMatrix:
    """Concatenate the matrices of all arrows with head at v: horizontal
    blocks first (column index ascending), then vertical blocks."""
    ordered = sorted(q.arrows_into(v), key=lambda a: (a.direction, a.rho))
    return RatMatrix.hstack([matrices[a] for a in ordered])


def assemble_W(rep: QuiverRep, v) -> RatMatrix:
    """The incoming matrix at a non-source vertex v."""
    v = tuple(v)
    if not rep.quiver.arrows_into(v):
        raise SourceVertexError(f"{v} has no incoming arrows")
    return _incoming(rep.quiver, rep.matrices, v)


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


_zeros = lru_cache(maxsize=None)(RatMatrix.zeros)  # immutable, so one per shape


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
    each integer row packed into one integer, entry j at bit j * s.  Built
    once per representation.

    The width s bounds every relation residual.  Take a relation with
    terms c_t * A_t * B_t, A_t and B_t the matrices of the path's second
    and first arrows over the denominators dA_t and dB_t, and
    D = lcm_t(dA_t * dB_t).  D times its residual is
    sum_t c_t * (D / (dA_t * dB_t)) * A_t * B_t on the integer forms;
    D / (dA_t * dB_t) divides the product of the other terms'
    denominators, and an entry of A_t * B_t is a sum of k_t products, k_t
    the dim of the vertex between the two arrows.  With every integer
    entry at most N and every denominator at most d, and W, T the
    _relation_bound, each entry of D times a residual is therefore at most
    U = W * N**2 * d**(2 * (T - 1)) in size; s is the bit length of U, so
    2**s > U.
    """
    if rep._packed is None:
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
            packed.append([sum(x << (j * s) for j, x in enumerate(r)) for r in mrows])
        rep._packed = (dens, rows, packed)
    return rep._packed


def evaluate_relation(rep: QuiverRep, rel: RelationElement) -> RatMatrix:
    """The matrix value of a relation element on the representation,
    summed in integers over one common denominator.

    The element's arrow_terms (c, first, second) are first tested for
    zero one residual row at a time: row i of D times the residual (see
    _packed_arrows), packed like the arrow rows, is sum_t w_t * sum_k
    A_t[i][k] * b_k with w_t = c_t * D / (dA_t dB_t) and b_k the packed
    rows of B_t.  Every entry x_j of the row has |x_j| < 2**s, so the
    packed value sum_j x_j 2**(j*s) is 0 only if x_0 is a multiple of
    2**s, that is 0, and so on up the row: one integer comparison per row
    is exact.  A nonzero residual is sum_t w_t * A_t * B_t over D, the
    products taken on the integer forms.  An element of another n is
    refused: its arrow indices name arrows of another quiver."""
    if rel.n != rep.n:
        raise ValueError(f"a relation of n={rel.n} on a representation of n={rep.n}")
    q, terms = rep.quiver, rel.arrow_terms
    d_head, d_tail = q.vertex_dim(rel.head), q.vertex_dim(rel.tail)
    dens, rows, packed = _packed_arrows(rep)
    deltas = [dens[first] * dens[second] for _, first, second in terms]
    common = lcm(*deltas)
    weights = [c * (common // delta) for (c, _, _), delta in zip(terms, deltas)]
    acc = [0] * d_head
    for (_, first, second), w in zip(terms, weights):
        b = packed[first]
        acc = [x + w * sum(map(mul, r, b)) for x, r in zip(acc, rows[second])]
    if not any(acc):
        return _zeros(d_head, d_tail)
    total = [0] * (d_head * d_tail)
    for (_, first, second), w in zip(terms, weights):
        a, b = rep.matrices[q.arrows[second]], rep.matrices[q.arrows[first]]
        total = [x + w * y for x, y in zip(total, _int_product(a._n, b._n, d_head, a.cols, d_tail))]
    return RatMatrix._raw(d_head, d_tail, total, common)


def check_relations(rep: QuiverRep) -> list[RelationViolation]:
    """Evaluate every relation of relation_sets, each from its integer
    terms; return the nonzero residuals.  The packed rows that
    evaluate_relation caches are dropped afterwards, so a representation
    kept after its check does not hold them."""
    out = []
    for rel in relation_sets(rep.quiver):
        residual = evaluate_relation(rep, rel)
        if not residual.is_zero():
            out.append(RelationViolation(rel, residual))
    rep._packed = None
    return out


def scramble(rep: QuiverRep, g: GaugeElement) -> QuiverRep:
    """Change basis at every vertex: each arrow matrix M becomes
    g_head M g_tail^{-1}, both products taken on the integer forms and
    brought to lowest terms once.  Stability ranks and relation
    satisfaction are preserved."""
    if g.n != rep.n:
        raise ValueError("sizes differ")
    inv = {v: b.invert() for v, b in g.blocks.items()}
    mats = {}
    for a, m in rep.matrices.items():
        h, t, (r, c) = g.blocks[a.head], inv[a.tail], m.shape
        ints = _int_product(_int_product(h._n, m._n, r, r, c), t._n, r, c, c)
        mats[a] = RatMatrix._raw(r, c, ints, h._d * m._d * t._d)
    return QuiverRep(rep.n, mats)


def reconstruct(rep: QuiverRep) -> tuple[GrPoint, GaugeElement]:
    """Recover the point and the gauge from a stable relation-satisfying
    representation, so that scramble(embed(point), gauge) == rep exactly.

    The point is read off at (1, 0).  Each non-source vertex v, in degree
    order, forms `actual`: its incoming matrix with each arrow's matrix
    times the block solved at the arrow's tail.  g solves actual = g * canon
    on the pivot columns of the canonical incoming matrix canon, and the
    whole equality is checked; over all v that is exactly
    scramble(embed(point), gauge) == rep, as every arrow has a non-source
    head.  g is invertible: actual, the stable incoming matrix times an
    invertible block diagonal, has rank d_v.  The block at the source is
    the 1 x 1 identity, so the arrows out of it enter actual as they are.
    """
    violations = check_relations(rep)
    if violations:
        r = violations[0].relation
        raise RelationsViolatedError(
            f"{len(violations)} relation(s) violated; first: {r.family} {r.indices} at {r.tail} -> {r.head}"
        )
    stability = check_stability(rep)
    if not stability.ok:
        bad = [e.vertex for e in stability.entries if not e.ok]
        raise NotStableError(f"rank-deficient at {bad}")

    q = rep.quiver
    point = reduce_point(assemble_W(rep, (1, 0)))
    canonical = embed(point)
    blocks = {SOURCE: RatMatrix.identity(1)}
    for v in q.vertices[1:]:
        canon = assemble_W(canonical, v)
        cols = canon.pivot_columns()
        into = {a: rep.matrices[a] if a.tail == SOURCE else rep.matrices[a] * blocks[a.tail] for a in q.arrows_into(v)}
        actual = _incoming(q, into, v)
        g = actual.take_columns(cols) * canon.take_columns(cols).invert()
        if actual != g * canon:
            raise NotInImageError(f"incoming matrices at {v} do not match the embedding")
        blocks[v] = g
    return point, GaugeElement._trusted(rep.n, blocks)  # invertible, as above


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
            b = RatMatrix([[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)])
            if b.rank() == d:
                blocks[v] = b
                break
    return GaugeElement._trusted(n, blocks)
