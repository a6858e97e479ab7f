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
relation check in kq.moduli reads; the degree-two ideal slices read the
same rows.
Graded slices of the ideal are computed by exact sparse elimination over
the monomial path basis, extending lower-degree slices one arrow at a
time.  kernel_report eliminates them only up to degree three: there they
certify that the normal paths (normal_count) are a basis of the quotient
(the PBW premise, see kernel_report), and above degree three a certified
pair reads its ideal dimension off the path and normal-path counts.

A path is a tuple of the quiver's arrows, tail first, so its first
arrow is the rightmost factor of the product; slices hold no paths.  A
path of L arrows has the column
sum(letter_i * (2n)**(L-1-i)), letter = 2(rho - 1) + direction - 1, the
tail arrow most significant; so the smallest column of a row is its
leading term when paths compare arrow by arrow from the tail, smaller
rho first and horizontal first at equal rho.
Only the slice under construction is a live SparseEchelon; a finished
slice is cached packed (IdealSlice): its rank, and its basis rows in
pivot order as one flat sequence of columns, one of exact coefficients
and one of row ends, each in the narrowest signed array that holds it
(see _narrow_array).  Twisted pairs (lam + (t, t), mu + (t, t)) share one
slice, cached under the pair with lam2 = 0 (see _ideal_slice); so do
normal counts and certificates.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice
from math import comb
from typing import Iterable, NamedTuple

from .linalg import SparseEchelon, rat_to_json
from .tableaux import gamma_set, hom_dim

MAX_PATHS = 10**6


class BadNError(ValueError):
    """The construction is defined for n >= 4 only."""


class PathSpaceTooLargeError(RuntimeError):
    """A graded path space exceeds the MAX_PATHS guardrail."""


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
        # per twist class, keyed by _untwist: IdealSlice, normal count, PBW certificate
        self._ideal_cache: dict = {}
        self._normal_counts: dict = {}
        self._certified: dict = {}
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


def relation_rows(q: TiltingQuiver, lam, family: str | None) -> list[tuple[tuple[int, int], Terms]]:
    """The degree-two relations of a family at lam as integer rows
    ((i, j), terms), equal paths merged and zero terms dropped (no rows
    for family None).  The square family takes every index pair (i, j);
    the others are symmetric up to sign, so they take i <= j, and
    'ff'/'gg' vanish at i == j."""
    if family is None:
        return []
    lam, index, arrows = tuple(lam), q._index, q.arrows
    steps = list(zip(RELATION_TERMS[family], family_coefficients(family, lam)))
    rows = []
    for i in range(1, q.n + 1):
        for j in range(1 if family == "square" else i, q.n + 1):
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
    return [RelationElement(q, family, row) for row in relation_rows(q, lam, family)]


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
    class: the key of every per-class cache of a quiver."""
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


def _check_path_space(count: int, lam, mu) -> None:
    if count > MAX_PATHS:
        raise PathSpaceTooLargeError(f"{count} paths from {lam} to {mu} exceeds the guardrail of {MAX_PATHS}")


def enumerate_paths(q: TiltingQuiver, lam, mu) -> list[tuple[Arrow, ...]]:
    """All monomial paths lam -> mu, each a tuple of arrows tail first,
    in increasing column order, by a depth-first walk over the arrows in
    letter order; subject to the path-space guardrail."""
    lam, mu = tuple(lam), tuple(mu)
    _check_path_space(path_count(q, lam, mu), lam, mu)
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


def _narrow_array(values: Iterable[int], bound: int) -> array | tuple[int, ...]:
    """values, every |x| < bound, in the narrowest signed array typecode
    of b, h, i, q that holds bound - 1; a tuple of ints past 64 bits, so
    the stored values stay exact."""
    for code in "bhiq":
        if bound <= 1 << (8 * array(code).itemsize - 1):
            return array(code, values)
    return tuple(values)


class IdealSlice(NamedTuple):
    """A finished graded slice of the relation ideal, packed: its rank
    and its echelon basis rows in pivot order.  Row k has the columns
    cols[start:ends[k]] and the exact coefficients vals[start:ends[k]],
    where start is ends[k - 1], or 0 for k = 0.  Each field is a
    _narrow_array."""

    rank: int
    cols: array | tuple[int, ...]
    vals: array | tuple[int, ...]
    ends: array | tuple[int, ...]


def _ideal_slice(q: TiltingQuiver, lam, mu) -> IdealSlice:
    """The graded slice of the relation ideal between two vertices, over
    the letter columns of the module docstring.

    Built lazily by degree: the degree-two slices are the relation
    bases themselves; longer slices are spanned by lower slices extended
    by a single arrow a at the head (column c goes to c * 2n + letter(a))
    or at the tail (to letter(a) * (2n)**(L-1) + c).  A slice is
    eliminated in a SparseEchelon, but cached packed in _narrow_array
    fields.  Columns are below (2n)**L, so below 2**L times the path
    count, not below it.

    Twisted pairs share one slice, cached and built at the untwisted key
    (lam - (t, t), mu - (t, t)) with t = lam2.  The shift maps the paths
    of [lam, mu] inside b <= a one to one onto those of the shifted pair;
    p2_family and family_coefficients read only the step, whether
    lam1 == lam2, and lam1 - lam2; letters read only direction and rho;
    and arrows_into/arrows_from order arrows by vertex_key, whose order
    the shift keeps.  So the same rows are inserted in the same order,
    and the two slices are equal row for row.  The endpoints and the
    guardrail are checked at the pair asked for, before the cache lookup,
    so a refusal names that pair and does not depend on what is cached.
    """
    lam, mu = tuple(lam), tuple(mu)
    _check_path_space(path_count(q, lam, mu), lam, mu)
    lam, mu = key = _untwist(lam, mu)
    if key in q._ideal_cache:
        return q._ideal_cache[key]
    length = (mu[0] - lam[0]) + (mu[1] - lam[1])
    radix = 2 * q.n
    ech = SparseEchelon()
    if length == 2:
        arrows = q.arrows
        for _, terms in relation_rows(q, lam, p2_family(q, lam, mu)):
            ech.insert({arrows[a].letter * radix + arrows[b].letter: c for c, a, b in terms})
    elif length > 2:
        extensions = []  # (sub-slice, column scale, column offset)
        for a in q.arrows_into(mu):
            if lam[0] <= a.tail[0] and lam[1] <= a.tail[1]:
                extensions.append((_ideal_slice(q, lam, a.tail), radix, a.letter))
        for a in q.arrows_from(lam):
            if a.head[0] <= mu[0] and a.head[1] <= mu[1]:
                extensions.append((_ideal_slice(q, a.head, mu), 1, a.letter * radix ** (length - 1)))
        for sub, scale, offset in extensions:
            # every column is mapped once; each row takes its run of pairs
            terms = zip([c * scale + offset for c in sub.cols], sub.vals)
            start = 0
            for end in sub.ends:
                ech.insert(dict(islice(terms, end - start)))
                start = end
    rows = ech.basis()
    vals = list(chain.from_iterable(map(dict.values, rows)))
    q._ideal_cache[key] = IdealSlice(
        ech.rank,
        _narrow_array(chain.from_iterable(rows), radix**length),
        _narrow_array(vals, max(map(abs, vals), default=0) + 1),
        _narrow_array(accumulate(map(len, rows)), len(vals) + 1),
    )
    return q._ideal_cache[key]


def graded_ideal_dim(q: TiltingQuiver, lam, mu) -> int:
    """Dimension of the slice of the relation ideal between two vertices."""
    return _ideal_slice(q, lam, mu).rank


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


def _pbw_premise(q: TiltingQuiver, lam, mu) -> bool:
    """The PBW premise at a pair of degree two or three, read off its
    eliminated ideal slice.  In degree two, the leading columns of the
    slice (the smallest column of each row) are exactly the 2-paths that
    are not normal, those whose second letter exceeds the first; in
    degree three, the slice has dimension path_count - normal_count."""
    lam, mu = tuple(lam), tuple(mu)
    record = _ideal_slice(q, lam, mu)
    if (mu[0] - lam[0]) + (mu[1] - lam[1]) == 3:
        return record.rank == path_count(q, lam, mu) - normal_count(q, lam, mu)
    radix = 2 * q.n
    rule = {
        a.letter * radix + b.letter
        for a in q.arrows_from(lam)
        for b in q.arrows_from(a.head)
        if b.head == mu and b.letter > a.letter
    }
    starts = [0, *record.ends[:-1]]
    return {min(record.cols[s:e]) for s, e in zip(starts, record.ends)} == rule


def _pbw_certified(q: TiltingQuiver, lam, mu) -> bool:
    """Whether the PBW premise holds at every pair of degree two or three
    inside [lam, mu], for lam <= mu.  Cached per twist class; the pairs
    inside are those of the intervals one step shorter at either end,
    so each premise is evaluated once per quiver."""
    key = _untwist(tuple(lam), tuple(mu))
    if key not in q._certified:
        lam, mu = key
        length = (mu[0] - lam[0]) + (mu[1] - lam[1])
        shorter = {(a.head, mu) for a in q.arrows_from(lam) if a.head[0] <= mu[0] and a.head[1] <= mu[1]}
        shorter |= {(lam, a.tail) for a in q.arrows_into(mu) if lam[0] <= a.tail[0] and lam[1] <= a.tail[1]}
        q._certified[key] = all(_pbw_certified(q, *pair) for pair in shorter) and (
            length not in (2, 3) or _pbw_premise(q, lam, mu)
        )
    return q._certified[key]


def kernel_report(q: TiltingQuiver, lam, mu) -> dict:
    """Compare the quotient of the path space by the relation ideal with
    the dimension of the target space of graded maps.

    The ideal dimension is exact either way.  When the PBW premise holds
    at every pair of degree two and three inside [lam, mu]
    (_pbw_certified), it is paths - normal_count, and no slice above
    degree three is built and no path is enumerated.  The argument: every
    path lam -> mu runs through vertices of the interval, so I_{lam mu}
    is the slice of the ideal that the relations between those vertices
    generate in the subquiver of the interval.  Paths of one length,
    compared by their letter columns, are ordered by a monomial order;
    by the degree-two premise the leading terms of the quadratic
    relations are exactly the 2-paths that are not normal, so the normal
    paths, the paths that contain none of them, span the quotient in
    every degree.  The degree-three premise says they are a basis in
    degree three, which is where the overlaps of two leading 2-paths
    live; by the diamond lemma (Bergman, Adv. Math. 29, 1978;
    Polishchuk-Positselski, Quadratic Algebras, ch. 4) every overlap
    then resolves, and the normal paths are a basis in every degree.
    Otherwise the slice at the pair is eliminated (graded_ideal_dim),
    subject to the path-space guardrail.  A pair that is not strictly
    contained is refused before any count, premise or slice is cached.
    """
    lam, mu = tuple(lam), tuple(mu)
    paths = path_count(q, lam, mu)
    hom = hom_dim(gamma_set(lam, mu), q.n)  # NotContainedError unless lam < mu
    if _pbw_certified(q, lam, mu):
        ideal = paths - normal_count(q, lam, mu)
    else:
        ideal = graded_ideal_dim(q, lam, mu)
    quot = paths - ideal
    return {
        "lam": list(lam),
        "mu": list(mu),
        "paths": paths,
        "ideal_dim": ideal,
        "quotient_dim": quot,
        "hom_dim": hom,
        "ok": quot == hom,
    }
