"""The tilting quiver of Gr(n,2), its relation ideal, and graded dimensions.

Vertices are the two-row weights fitting in the (n-2) x 2 staircase; for
every pair (lam, lam + e_i) of adjacent vertices there are n parallel
arrows, one per column index.  The relation ideal is generated in path
degree two by four coefficient families (commuting horizontal pairs,
commuting vertical pairs, anticommuting pairs through a diagonal vertex,
and a three-term exchange around each square).  The degree-two relations
are one integer table, relation_rows: per relation its index pair and
its terms (c, first, second), first and second indices into q.arrows.
A relation element is a view of one row, whose integer terms the
relation check in kq.moduli reads; the PBW premise reads the same rows.

A path is a tuple of the quiver's arrows, tail first, so its first
arrow is the rightmost factor of the product.  An arrow has the letter
2(rho - 1) + direction - 1; a path is normal when its letters weakly
decrease from the tail.  The PBW premise reads columns 1-3 only, as
base-6 letter columns, and in degrees two and three the pivots of the
ideal must be exactly the non-normal paths (see _pbw_premise).  Twisted
pairs (lam + (t, t), mu + (t, t)) share their caches (see _untwist).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from math import comb

from .linalg import SparseEchelon, rat_to_json
from .tableaux import gamma_set, hom_dim


class BadNError(ValueError):
    """The construction is defined for n >= 4 only."""


@dataclass(frozen=True, order=True)
class Arrow:
    """One of the n parallel arrows lam -> lam + e_direction."""

    tail: tuple[int, int]
    head: tuple[int, int]
    direction: int  # 1 horizontal, 2 vertical
    rho: int  # column index, 1-based

    def __post_init__(self):
        expect = list(self.tail)
        expect[self.direction - 1] += 1
        if tuple(expect) != self.head:
            raise ValueError("head must be tail + e_direction")

    @property
    def letter(self) -> int:
        """The arrow's digit in a path column: 2(rho - 1) + direction - 1."""
        return 2 * (self.rho - 1) + self.direction - 1

    def to_json(self) -> dict:
        return {"tail": list(self.tail), "head": list(self.head), "rho": self.rho}


def vertex_key(v: tuple[int, int]) -> tuple[int, int]:
    """Sort key for vertices: total boxes, then second row."""
    return (v[0] + v[1], v[1])


class RelationElement:
    """One degree-two relation that maps to zero: a view of one row of
    relation_rows on a quiver's arrows.

    It keeps the row's integer terms (c, first, second), first and second
    indices into q.arrows, as arrow_terms; `terms`, the dict from arrow
    pairs (first, second) to coefficients, is built on access."""

    __slots__ = ("n", "tail", "head", "family", "indices", "arrow_terms", "_arrows")

    def __init__(self, q: TiltingQuiver, family: str, row: tuple[tuple[int, int], Terms]):
        indices, terms = row
        arrows, init = q.arrows, object.__setattr__
        init(self, "n", q.n)
        init(self, "tail", arrows[terms[0][1]].tail)
        init(self, "head", arrows[terms[0][2]].head)
        init(self, "family", family)
        init(self, "indices", indices)
        init(self, "arrow_terms", terms)
        init(self, "_arrows", arrows)

    def __setattr__(self, name, value):
        raise AttributeError("RelationElement is immutable")

    @property
    def terms(self) -> dict[tuple[Arrow, Arrow], int]:
        arrows = self._arrows
        return {(arrows[a], arrows[b]): c for c, a, b in self.arrow_terms}

    def __repr__(self) -> str:
        return f"RelationElement({self.family}{self.indices} {self.tail}->{self.head}, {len(self.arrow_terms)} terms)"

    def to_json(self) -> dict:
        return {
            "tail": list(self.tail),
            "head": list(self.head),
            "family": self.family,
            "indices": list(self.indices),
            "terms": [
                {"coeff": rat_to_json(c), "path": {"order": "right_to_left", "arrows": [a.to_json(), b.to_json()]}}
                for (a, b), c in sorted(self.terms.items())
            ],
        }


class TiltingQuiver:
    """The quiver with two-row staircase vertices and n parallel arrows
    between each adjacent pair."""

    def __init__(self, n: int):
        if n < 4:
            raise BadNError("need n >= 4")
        self.n = n
        cols = n - 2
        self.vertices = sorted(
            ((a, b) for a in range(cols + 1) for b in range(a + 1)), key=vertex_key
        )
        vset = set(self.vertices)
        arrows = []
        for v in self.vertices:
            for direction in (1, 2):
                head = (v[0] + 1, v[1]) if direction == 1 else (v[0], v[1] + 1)
                if head[0] >= head[1] and head in vset:
                    for rho in range(1, n + 1):
                        arrows.append(Arrow(v, head, direction, rho))
        arrows.sort(key=lambda a: (vertex_key(a.tail), a.direction, a.rho))
        self.arrows = arrows
        self._out: dict[tuple[int, int], list[Arrow]] = {v: [] for v in self.vertices}
        self._in: dict[tuple[int, int], list[Arrow]] = {v: [] for v in self.vertices}
        for a in arrows:
            self._out[a.tail].append(a)
            self._in[a.head].append(a)
        self._index = {(a.tail, a.direction, a.rho): k for k, a in enumerate(arrows)}
        # per twist class, keyed by _untwist: letter rows, normal count, failed premise
        self._letter_rows: dict = {}
        self._normal_counts: dict = {}
        self._premise_failures: dict = {}
        self._relations: list[RelationElement] | None = None  # see _relation_elements

    def arrows_from(self, v) -> list[Arrow]:
        return self._out[tuple(v)]

    def arrows_into(self, v) -> list[Arrow]:
        return self._in[tuple(v)]

    def arrow(self, tail, direction: int, rho: int) -> Arrow:
        """The quiver's own arrow from tail in a direction and column."""
        k = self._index.get((tuple(tail), direction, rho))
        if k is None:
            raise ValueError(f"no arrow from {tuple(tail)} with direction {direction} and column {rho}")
        return self.arrows[k]

    def vertex_dim(self, v) -> int:
        v = tuple(v)
        return v[0] - v[1] + 1

    def has_vertex(self, v) -> bool:
        return tuple(v) in self._out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": [list(v) for v in self.vertices],
            "dims": [self.vertex_dim(v) for v in self.vertices],
            "arrows": [a.to_json() for a in self.arrows],
        }


@lru_cache(maxsize=None)
def build_quiver(n: int) -> TiltingQuiver:
    return TiltingQuiver(n)


# The four degree-two relation families: per term, the directions of its
# two steps and whether it swaps the column indices, i.e. takes column j
# on the first step and i on the second instead of i then j.
RELATION_TERMS = {
    "ff": ((1, 1, False), (1, 1, True)),
    "gg": ((2, 2, False), (2, 2, True)),
    "diag": ((1, 2, False), (1, 2, True)),
    "square": ((1, 2, False), (2, 1, True), (2, 1, False)),
}

# One relation's terms (c, first, second): the integer coefficient and the
# indices in q.arrows of the path's first and second arrows.
Terms = tuple[tuple[int, int, int], ...]


def p2_family(q: TiltingQuiver, lam, mu) -> str | None:
    """The relation family of a vertex pair two path steps apart: 'ff'
    two horizontal, 'gg' two vertical, 'diag' through a diagonal vertex,
    'square' around a square; None for any other pair."""
    lam, mu = tuple(lam), tuple(mu)
    if not (q.has_vertex(lam) and q.has_vertex(mu)):
        return None
    step = (mu[0] - lam[0], mu[1] - lam[1])
    if step == (1, 1):
        return "diag" if lam[0] == lam[1] else "square"
    return {(2, 0): "ff", (0, 2): "gg"}.get(step)


def p2_pairs(q: TiltingQuiver) -> list[tuple[tuple[int, int], tuple[int, int], str]]:
    """Vertex pairs two path steps apart, with their relation family, in
    degree order."""
    return [(lam, mu, f) for lam in q.vertices for mu in q.vertices if (f := p2_family(q, lam, mu))]


def family_coefficients(family: str, lam) -> tuple[int, ...]:
    """The coefficients of a family's terms, in RELATION_TERMS order; the
    square family's are (d, -(d + 1), 1) with d = lam1 - lam2."""
    if family == "square":
        d = lam[0] - lam[1]
        return (d, -(d + 1), 1)
    return (1, 1) if family == "diag" else (1, -1)


def relation_rows(q: TiltingQuiver, lam, family: str | None, columns: int) -> list[tuple[tuple[int, int], Terms]]:
    """The degree-two relations of a family at lam with indices i, j <= columns
    as integer rows ((i, j), terms), equal paths merged and zero terms
    dropped (no rows for family None).  The square family takes every
    index pair (i, j); the others are symmetric up to sign, so they take
    i <= j, and 'ff'/'gg' vanish at i == j."""
    if family is None:
        return []
    lam, index, arrows = tuple(lam), q._index, q.arrows
    steps = list(zip(RELATION_TERMS[family], family_coefficients(family, lam)))
    rows = []
    for i in range(1, columns + 1):
        for j in range(1 if family == "square" else i, columns + 1):
            terms: dict[tuple[int, int], int] = {}
            for (first, second, swap), c in steps:
                a = index[lam, first, j if swap else i]
                path = (a, index[arrows[a].head, second, i if swap else j])
                terms[path] = terms.get(path, 0) + c
            if any(terms.values()):
                rows.append(((i, j), tuple((c, a, b) for (a, b), c in terms.items() if c)))
    return rows


def relation_set_for(q: TiltingQuiver, lam, mu) -> list[RelationElement]:
    """The basis of degree-two relations from lam to mu, as new elements
    (empty if the pair is not two steps apart)."""
    family = p2_family(q, lam, mu)
    return [RelationElement(q, family, row) for row in relation_rows(q, lam, family, q.n)]


def _relation_elements(q: TiltingQuiver) -> list[RelationElement]:
    """Every degree-two relation of the quiver, in p2_pairs order, built
    once per quiver; the list itself, not a copy."""
    if q._relations is None:
        q._relations = [rel for lam, mu, _ in p2_pairs(q) for rel in relation_set_for(q, lam, mu)]
    return q._relations


def relation_sets(q: TiltingQuiver) -> list[RelationElement]:
    """All degree-two relation basis elements of the quiver, built once
    per quiver; each call returns a fresh list."""
    return list(_relation_elements(q))


def path_count(q: TiltingQuiver, lam, mu) -> int:
    """The number of paths lam -> mu: n**L per monotone walk in a >= b,
    the walks counted by the reflection principle (one that reaches
    b = a + 1 reflects to a walk from (lam[1] - 1, lam[0] + 1))."""
    lam, mu = tuple(lam), tuple(mu)
    if not (q.has_vertex(lam) and q.has_vertex(mu)):
        raise ValueError("endpoints must be quiver vertices")
    h, v = mu[0] - lam[0], mu[1] - lam[1]
    if h < 0 or v < 0:
        return 0
    crossing = comb(h + v, mu[0] - lam[1] + 1) if mu[1] > lam[0] else 0
    return (comb(h + v, h) - crossing) * q.n ** (h + v)


def _untwist(lam, mu) -> tuple[tuple[int, int], tuple[int, int]]:
    """The member (lam - (t, t), mu - (t, t)), t = lam2, of a pair's twist
    class: the key of every per-class cache of a quiver.  The shift maps
    paths one to one and keeps letters, p2_family, family_coefficients
    (which read the step, lam1 == lam2 and lam1 - lam2) and the vertex_key
    order of arrows, so it keeps letter rows, normal count and premises."""
    t = lam[1]
    return (lam[0] - t, 0), (mu[0] - t, mu[1] - t)


def normal_count(q: TiltingQuiver, lam, mu) -> int:
    """The number of normal paths lam -> mu: paths whose columns rho
    weakly decrease from the tail, and strictly decrease at each
    horizontal -> vertical turn; that is, whose letters weakly decrease
    from the tail.

    Counted once per twist class (the shift maps the paths of one pair
    one to one onto the other's and keeps every letter), by a transfer
    from mu back to lam over the vertices of the interval: below[v][l] is
    the number of normal paths v -> mu with every letter at most l."""
    lam, mu = tuple(lam), tuple(mu)
    if not path_count(q, lam, mu):  # refuses a non-vertex; 0 unless lam <= mu
        return 0
    key = _untwist(lam, mu)
    if key not in q._normal_counts:
        (l1, l2), (u1, u2) = key
        letters = range(2 * q.n)
        zero = [0] * len(letters)
        below = {(u1, u2): [1] * len(letters)}
        for a in range(u1, l1 - 1, -1):
            for b in range(min(a, u2), l2 - 1, -1):
                if (a, b) != (u1, u2):
                    right, up = below.get((a + 1, b), zero), below.get((a, b + 1), zero)
                    below[a, b] = list(accumulate((up if l % 2 else right)[l] for l in letters))
        q._normal_counts[key] = below[l1, l2][-1]
    return q._normal_counts[key]


def enumerate_paths(q: TiltingQuiver, lam, mu) -> list[tuple[Arrow, ...]]:
    """All monomial paths lam -> mu, each a tuple of arrows tail first,
    in increasing column order, by a depth-first walk over the arrows in
    letter order.  Exponential in the degree, so no command calls it: it
    serves the test oracles and the benchmark tracer."""
    lam, mu = tuple(lam), tuple(mu)
    path_count(q, lam, mu)  # refuses a non-vertex
    out = []

    def walk(v, trail):
        if v == mu:
            out.append(trail)
            return
        for a in sorted(q.arrows_from(v), key=lambda a: a.letter):
            if a.head[0] <= mu[0] and a.head[1] <= mu[1]:
                walk(a.head, trail + (a,))

    walk(lam, ())
    return out


def containment_pairs(q: TiltingQuiver, max_degree: int, min_degree: int = 1) -> list[tuple]:
    """All vertex pairs lam < mu with min_degree <= |mu| - |lam| <= max_degree."""
    out = []
    for lam in q.vertices:
        for mu in q.vertices:
            d = (mu[0] - lam[0]) + (mu[1] - lam[1])
            if mu[0] >= lam[0] and mu[1] >= lam[1] and min_degree <= d <= max_degree:
                out.append((lam, mu))
    out.sort(key=lambda t: (vertex_key(t[0]), vertex_key(t[1])))
    return out


COLUMNS, RADIX = 3, 6  # the PBW premise reads columns 1-3, letters 0..5; _pbw_premise says why


def _letter_rows(q: TiltingQuiver, lam, mu) -> list[dict[int, int]]:
    """The degree-two relations lam -> mu with indices i, j <= 3 as dicts from
    letter column to coefficient, in relation_rows order; once per twist class."""
    key = _untwist(lam, mu)
    if key not in q._letter_rows:
        q._letter_rows[key] = [
            {q.arrows[a].letter * RADIX + q.arrows[b].letter: c for c, a, b in terms}
            for _, terms in relation_rows(q, key[0], p2_family(q, *key), COLUMNS)
        ]
    return q._letter_rows[key]


def _pbw_premise(q: TiltingQuiver, lam, mu) -> bool:
    """The PBW premise at a pair of degree two or three, on the arrows of
    columns 1-3: the pivots of the slice of the ideal there (each echelon
    row's smallest column, its leading term) are exactly the paths that
    are not normal, those with some letter above the one before it.  A
    path's column is the base-6 number of its letters, tail first.  The
    slice is spanned by the relations in degree two, and in degree three
    by them extended by an arrow a at the head (column c to
    c * 6 + letter(a)) or at the tail (to letter(a) * 36 + c).

    Three columns decide the premise for every n and any relation table.
    Relations are homogeneous in content, so a slice of degree at most
    three splits into content blocks of at most three distinct columns,
    and its pivots are theirs.  Relabelling the columns in order keeps
    the letter order, relation_rows (which read only the order type of
    (i, j)) and family_coefficients (which read only lam1 - lam2), so
    every block is a block on columns 1-3.  The column order is
    multiplicative, so once the degree-two premises inside a degree-three
    pair hold, its pivots include every non-normal path, and the premise
    is the count rank = paths - normal paths."""
    lam, mu = tuple(lam), tuple(mu)

    def inside(a):  # an arrow of columns 1-3 between vertices of [lam, mu]
        return (a.rho <= COLUMNS and lam[0] <= a.tail[0] and lam[1] <= a.tail[1]
                and a.head[0] <= mu[0] and a.head[1] <= mu[1])
    degree, ech = (mu[0] - lam[0]) + (mu[1] - lam[1]), SparseEchelon()
    if degree == 2:
        rows = _letter_rows(q, lam, mu)
    else:
        rows = [{c * RADIX + a.letter: x for c, x in row.items()} for a in q.arrows_into(mu) if inside(a)
                for row in _letter_rows(q, lam, a.tail)]
        rows += [{a.letter * RADIX**2 + c: x for c, x in row.items()} for a in q.arrows_from(lam) if inside(a)
                 for row in _letter_rows(q, a.head, mu)]
    for row in rows:
        ech.insert(row)
    words = [((), lam)]  # the letters of the paths from lam in columns 1-3, with their heads
    for _ in range(degree):
        words = [(w + (a.letter,), a.head) for w, v in words for a in q.arrows_from(v) if inside(a)]
    leads = {reduce(lambda c, l: c * RADIX + l, w) for w, _ in words if any(x < y for x, y in zip(w, w[1:]))}
    return set(ech.pivot_rows) == leads


def _premise_failure(q: TiltingQuiver, lam, mu) -> tuple | None:
    """The first pair of degree two or three inside [lam, mu], for
    lam <= mu, in containment_pairs order, at which the PBW premise
    fails; None when it holds at every one.  Cached per twist class and
    shifted back to the coordinates of the pair given.  The pairs inside
    are the pair itself and those of the intervals one step shorter at
    either end, so each premise is evaluated once per quiver."""
    lam, mu = tuple(lam), tuple(mu)
    key = _untwist(lam, mu)
    if key not in q._premise_failures:
        low, high = key
        shorter = {(a.head, high) for a in q.arrows_from(low) if a.head[0] <= high[0] and a.head[1] <= high[1]}
        shorter |= {(low, a.tail) for a in q.arrows_into(high) if low[0] <= a.tail[0] and low[1] <= a.tail[1]}
        failures = [f for pair in shorter if (f := _premise_failure(q, *pair))]
        if (high[0] - low[0]) + (high[1] - low[1]) in (2, 3) and not _pbw_premise(q, low, high):
            failures.append(key)
        q._premise_failures[key] = min(failures, key=lambda f: (vertex_key(f[0]), vertex_key(f[1])), default=None)
    failure, t = q._premise_failures[key], lam[1]
    return failure and tuple((a + t, b + t) for a, b in failure)


def kernel_report(q: TiltingQuiver, lam, mu) -> dict:
    """Compare the quotient of the path space by the relation ideal with
    the dimension of the target space of graded maps.

    When the PBW premise holds at every pair of degree two and three
    inside [lam, mu], quotient_dim = normal_count exactly, with no slice
    above degree three built and no path enumerated.  Every path
    lam -> mu runs through vertices of the interval, so I_{lam mu} is the
    slice of the ideal that the relations between those vertices
    generate.  The letter columns order the paths of one length by a
    monomial order, and by the premise the leading terms in degrees two
    and three are exactly the paths that are not normal.  So the normal
    paths span the quotient in every degree and are a basis in degree
    three, where the overlaps of two leading 2-paths live; by the diamond
    lemma (Bergman, Adv. Math. 29, 1978; Polishchuk-Positselski,
    Quadratic Algebras, ch. 4) every overlap then resolves, and they are
    a basis in every degree.

    Otherwise (under a changed relation table, say) the report has
    status 'inconclusive', ok false, no ideal_dim or quotient_dim, and
    names in premise_failed the first pair whose premise failed (see
    _premise_failure).  A pair that is not strictly contained is refused
    before any count, row or premise is cached."""
    lam, mu = tuple(lam), tuple(mu)
    paths = path_count(q, lam, mu)
    report = {"lam": list(lam), "mu": list(mu), "paths": paths}
    hom = hom_dim(gamma_set(lam, mu), q.n)  # NotContainedError unless lam < mu
    failure = _premise_failure(q, lam, mu)
    if failure:
        named = {"lam": list(failure[0]), "mu": list(failure[1])}
        return {**report, "hom_dim": hom, "status": "inconclusive", "premise_failed": named, "ok": False}
    quot = normal_count(q, lam, mu)
    return {**report, "ideal_dim": paths - quot, "quotient_dim": quot, "hom_dim": hom, "ok": quot == hom}
