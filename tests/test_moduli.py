"""Embedding, stability, gauge action, and reconstruction."""

import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kq import moduli, quiver
from kq.fibers import GrPoint, reduce_point
from kq.linalg import RatMatrix
from kq.moduli import (
    GaugeElement,
    NotInImageError,
    NotStableError,
    QuiverRep,
    RelationsViolatedError,
    SingularGaugeError,
    SourceVertexError,
    assemble_W,
    check_relations,
    check_stability,
    embed,
    evaluate_relation,
    random_gauge,
    random_point,
    reconstruct,
    scramble,
)
from kq.quiver import TiltingQuiver, build_quiver, p2_pairs, relation_set_for, relation_sets


def canonical_point(x1, x2, x3, x4):
    return reduce_point(RatMatrix([[1, 0, x1, x3], [0, 1, x2, x4]]))


def expected_arrow_matrices(x1, x2, x3, x4):
    """The six matrix bundles of the worked Gr(4,2) system."""
    cols = {1: (1, 0), 2: (0, 1), 3: (x1, x2), 4: (x3, x4)}
    exp = {}
    for rho, (a, b) in cols.items():
        exp[((0, 0), (1, 0), rho)] = RatMatrix([[a], [b]])
        exp[((1, 1), (2, 1), rho)] = RatMatrix([[a], [b]])
        exp[((1, 0), (1, 1), rho)] = RatMatrix([[-b, a]])
        exp[((2, 1), (2, 2), rho)] = RatMatrix([[-b, a]])
        exp[((1, 0), (2, 0), rho)] = RatMatrix([[a, 0], [b, a], [0, b]])
        exp[((2, 0), (2, 1), rho)] = RatMatrix([[-2 * b, a, 0], [0, -b, 2 * a]])
    return exp


def test_embed_matches_worked_system_on_a_point():
    y = canonical_point(2, 3, 5, 7)
    rep = embed(y)
    expected = expected_arrow_matrices(2, 3, 5, 7)
    for a in rep.quiver.arrows:
        assert rep.matrices[a] == expected[(a.tail, a.head, a.rho)]


def test_embed_satisfies_relations_and_stability():
    for n in (4, 5):
        rep = embed(random_point(n, "embed"))
        assert check_relations(rep) == []
        assert check_stability(rep).ok


def test_assemble_w_displays():
    y = canonical_point(2, 3, 5, 7)
    rep = embed(y)
    assert assemble_W(rep, (1, 0)) == y.matrix
    w11 = assemble_W(rep, (1, 1))
    assert w11 == RatMatrix([[0, 1, -1, 0, -3, 2, -7, 5]])
    w21 = assemble_W(rep, (2, 1))
    assert w21.shape == (2, 16)
    # four append columns first, then the four wedge-pairing blocks
    assert w21.take_columns(range(4)) == y.matrix
    assert w21.take_columns(range(4, 7)) == RatMatrix([[0, 1, 0], [0, 0, 2]])
    with pytest.raises(SourceVertexError):
        assemble_W(rep, (0, 0))


def test_zero_representation_fails_everywhere():
    q = build_quiver(4)
    mats = {}
    for a in q.arrows:
        k = q.vertex_dim(a.tail)
        shape = (k + 1, k) if a.direction == 1 else (k - 1, k)
        mats[a] = RatMatrix.zeros(*shape)
    rep = QuiverRep(4, mats)
    report = check_stability(rep)
    assert not report.ok and all(not e.ok for e in report.entries)
    assert check_relations(rep) == []  # all products vanish identically


def test_stability_report_fields():
    rep = embed(random_point(4, "fields"))
    report = check_stability(rep)
    entry = {tuple(e.vertex): e for e in report.entries}[(2, 1)]
    assert entry.expected_dim == 2 and entry.shape == (2, 16) and entry.rank == 2


def test_perturbation_is_detected():
    rep = embed(random_point(4, "detect"))
    a = rep.quiver.arrow((1, 0), 2, 3)
    m = rep.matrices[a]
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows[0][0] += 1
    mats = dict(rep.matrices)
    mats[a] = RatMatrix(rows)
    assert check_relations(QuiverRep(4, mats))


def fraction_residual(rep: QuiverRep, rel) -> RatMatrix:
    """Reference value of a relation: the sum of c * B * A over its paths
    (A then B), taken entry by entry in Fractions."""
    d_head, d_tail = rep.quiver.vertex_dim(rel.head), rep.quiver.vertex_dim(rel.tail)
    acc = [[Fraction(0)] * d_tail for _ in range(d_head)]
    for p, c in rel.terms.items():
        a, b = (rep.matrices[arrow] for arrow in p)
        for i in range(d_head):
            for j in range(d_tail):
                acc[i][j] += c * sum(b[i, k] * a[k, j] for k in range(a.rows))
    return RatMatrix(acc)


@pytest.mark.parametrize("n", [4, 5])
def test_integer_relation_check_matches_fraction_oracle(n):
    """On perturbed scrambled embeddings every nonzero residual equals the
    Fraction sum of its path matrices, and check_relations reports exactly
    the relations whose oracle residual is nonzero, in relation order."""
    rng = random.Random(f"oracle:{n}")
    q = build_quiver(n)
    rels = relation_sets(q)
    for trial in range(3):
        rep = scramble(embed(random_point(n, f"oracle:{trial}")), random_gauge(n, f"oracle:{trial}"))
        a = rng.choice(q.arrows)
        m = rep.matrices[a]
        rows = [list(m.row(i)) for i in range(m.rows)]
        rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += Fraction(1, 7)
        bad = QuiverRep(n, {**rep.matrices, a: RatMatrix(rows)})
        expect = [(rel, fraction_residual(bad, rel)) for rel in rels]
        expect = [(rel, r) for rel, r in expect if not r.is_zero()]
        assert expect
        for rel, r in expect:
            assert evaluate_relation(bad, rel) == r
        assert any(r[i, j].denominator > 1 for _, r in expect for i in range(r.rows) for j in range(r.cols))
        assert [(v.relation, v.residual) for v in check_relations(bad)] == expect


def test_fresh_relations_evaluate_like_the_cached_ones():
    """relation_set_for builds equal relations as new objects, and
    evaluate_relation gives each of them the residual of the cached
    relation in the same place, zero on a scrambled embedding and nonzero
    where one entry moved, in relation order."""
    n = 5
    q = build_quiver(n)
    cached = relation_sets(q)
    fresh = [rel for lam, mu, _ in p2_pairs(q) for rel in relation_set_for(q, lam, mu)]
    fields = ("tail", "head", "terms", "family", "indices")
    assert [[getattr(r, f) for f in fields] for r in fresh] == [[getattr(r, f) for f in fields] for r in cached]
    assert not any(a is b for a, b in zip(fresh, cached))
    rep = scramble(embed(random_point(n, "fresh")), random_gauge(n, "fresh"))
    assert all(evaluate_relation(rep, rel).is_zero() for rel in fresh)
    a = q.arrow((1, 0), 1, 3)
    m = rep.matrices[a]
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows[0][1] += Fraction(1, 7)
    bad = QuiverRep(n, {**rep.matrices, a: RatMatrix(rows)})
    residuals = [evaluate_relation(bad, rel) for rel in fresh]
    assert residuals == [evaluate_relation(bad, rel) for rel in cached]
    assert any(not r.is_zero() for r in residuals)


def test_a_relation_of_another_n_is_refused():
    """A relation's arrow indices name arrows of its own quiver, so an
    n=5 relation on an n=6 representation is refused."""
    rep = embed(random_point(6, "other n"))
    rel = relation_sets(build_quiver(5))[0]
    with pytest.raises(ValueError, match="n=5 on a representation of n=6"):
        evaluate_relation(rep, rel)


def assert_relations_match_oracle(rep: QuiverRep) -> None:
    expect = []
    for rel in relation_sets(rep.quiver):
        r = fraction_residual(rep, rel)
        assert evaluate_relation(rep, rel) == r, rel
        if not r.is_zero():
            expect.append((rel, r))
    assert [(v.relation, v.residual) for v in check_relations(rep)] == expect


def arrow_shape(q, a) -> tuple[int, int]:
    k = q.vertex_dim(a.tail)
    return (k + 1, k) if a.direction == 1 else (k - 1, k)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([4, 5]),
    st.integers(1, 220),
    st.sampled_from(["random", "embedded", "perturbed"]),
    st.integers(0, 2**32),
)
def test_packed_relation_check_matches_the_fraction_oracle(n, bits, kind, seed):
    """On representations with numerators and denominators of up to
    `bits` bits, evaluate_relation and check_relations agree with the
    Fraction residual of fraction_residual: random matrices (nonzero
    residuals), scrambled embeddings of a point with such entries (zero
    residuals), and those with one entry moved (both)."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))

    q = build_quiver(n)
    if kind == "random":
        shapes = {a: arrow_shape(q, a) for a in q.arrows}
        mats = {a: RatMatrix([[entry() for _ in range(c)] for _ in range(r)]) for a, (r, c) in shapes.items()}
        rep = QuiverRep(n, mats)
    else:
        drawn = RatMatrix([[entry() for _ in range(n)] for _ in range(2)])
        assume(len(drawn.pivot_columns()) == 2)  # small entries can draw a rank-1 matrix, which is no point
        point = reduce_point(drawn)
        rep = scramble(embed(point), random_gauge(n, seed))
        if kind == "perturbed":
            a = rng.choice(q.arrows)
            m = rep.matrices[a]
            rows = [list(m.row(i)) for i in range(m.rows)]
            rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += entry() or 1
            rep = QuiverRep(n, {**rep.matrices, a: RatMatrix(rows)})
    assert_relations_match_oracle(rep)


def square_relation_rep(m: int, top: int, sign: int) -> tuple[QuiverRep, object]:
    """An n=4 integer representation, every entry at most N = 2**m in size,
    on which the square relation (1, 2) at (1, 0) has the residual row
    [sign * 2**top * N**2, -sign] and a zero second row; top is 1 or 2.

    Packed into slots of w bits that row is 0 when 2**w = 2**top * N**2,
    so the relation is reported only if the slots are wide enough."""
    q = build_quiver(4)
    rel = next(r for r in relation_sets(q) if r.family == "square" and r.tail == (1, 0) and r.indices == (1, 2))
    big = 2**m
    mats = {a: RatMatrix.zeros(*arrow_shape(q, a)) for a in q.arrows}

    def put(tail, direction, rho, rows):
        mats[q.arrow(tail, direction, rho)] = RatMatrix(rows)

    # 1 * g2(2,0) f1(1,0): the row (N, N-1, N) times the columns b and (-1, 1, 0)
    put((2, 0), 2, 2, [[sign * big, sign * (big - 1), sign * big], [0, 0, 0]])
    b = (big, big, big) if top == 2 else (big, big, 0)
    put((1, 0), 1, 1, [[b[0], -1], [b[1], 1], [b[2], 0]])
    # -2 * f1(1,1) g2(1,0) adds N**2 to the first entry when top == 2
    put((1, 1), 1, 1, [[sign * big // 2 if top == 2 else 0], [0]])
    put((1, 0), 2, 2, [[-big, 0]])
    # 1 * f2(1,1) g1(1,0) adds N
    put((1, 1), 1, 2, [[sign * big], [0]])
    put((1, 0), 2, 1, [[1, 0]])
    return QuiverRep(4, mats), rel


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 110), st.sampled_from([1, 2]), st.sampled_from([1, -1]))
def test_packed_zero_test_separates_a_unit_from_a_full_slot(m, top, sign):
    """A residual row [2**w, -1] packs to 0 in slots of w bits; the
    relation must still be reported, with the Fraction oracle's value."""
    rep, rel = square_relation_rep(m, top, sign)
    big = 2**m
    residual = evaluate_relation(rep, rel)
    assert residual == RatMatrix([[sign * 2**top * big * big, -sign], [0, 0]])
    assert residual == fraction_residual(rep, rel)
    assert_relations_match_oracle(rep)


def primes_above(start: int, count: int) -> list[int]:
    out, p = [], start
    while len(out) < count:
        p += 1
        if all(p % f for f in range(2, math.isqrt(p) + 1)):
            out.append(p)
    return out


def coprime_square_rep(dens: list[int], big: int, x0: int, x1: int) -> tuple[QuiverRep, object, int]:
    """An n=4 representation on which the square relation (1, 2) at (1, 0)
    has the residual rows [x0 / D, x1 / D] and [0, 0]: the left and right
    factors of its three terms carry the six pairwise coprime
    denominators `dens`, D is their product and every numerator is at
    most `big` in size.  With w_t = c_t * D / (dA_t dB_t), x = sum_t w_t y_t
    is solved with y_2, y_3 residues and y_1 the quotient."""
    q = build_quiver(4)
    rel = next(r for r in relation_sets(q) if r.family == "square" and r.tail == (1, 0) and r.indices == (1, 2))
    deltas = [dens[0] * dens[1], dens[2] * dens[3], dens[4] * dens[5]]
    common = math.prod(deltas)
    w = [c * common // delta for c, delta in zip((1, -2, 1), deltas)]

    def solve(x):
        r2 = x * pow(w[1], -1, deltas[1]) % deltas[1]
        r3 = x * pow(w[2], -1, deltas[2]) % deltas[2]
        y1, rest = divmod(x - w[1] * r2 - w[2] * r3, w[0])
        assert rest == 0
        return y1, r2, r3

    (y1, q2, q3), (z1, q2x, q3x) = solve(x0), solve(x1)
    h, b2 = divmod(y1, big)  # y1 = big * (b0 + b1) + b2
    b0 = h // 2
    entries = [b0, h - b0, b2, z1, q2, q3, q2x, q3x]
    assert max(map(abs, entries)) <= big, "target out of reach"
    mats = {a: RatMatrix.zeros(*arrow_shape(q, a)) for a in q.arrows}

    def put(tail, direction, rho, rows, d):
        mats[q.arrow(tail, direction, rho)] = RatMatrix([[Fraction(x, d) for x in row] for row in rows])

    put((2, 0), 2, 2, [[big, big, 1], [0, 0, 0]], dens[0])
    put((1, 0), 1, 1, [[b0, 0], [h - b0, 0], [b2, z1]], dens[1])
    put((1, 1), 1, 1, [[1], [0]], dens[2])
    put((1, 0), 2, 2, [[q2, q2x]], dens[3])
    put((1, 1), 1, 2, [[1], [0]], dens[4])
    put((1, 0), 2, 1, [[q3, q3x]], dens[5])
    return QuiverRep(4, mats), rel, common


@pytest.mark.parametrize("dbits, nbits", [(4, 12), (12, 30), (30, 64)])
def test_packed_zero_test_separates_a_unit_from_any_lower_slot(dbits, nbits):
    """Residual rows [2**k / D, -1 / D] over six pairwise coprime
    denominators near 2**dbits, for every k within reach of numerators
    below 2**nbits: the row packs to 0 in slots of k bits, so the test
    fails for any slot width the rep's denominators could still fill."""
    dens = primes_above(2**dbits, 6)
    big = 2**nbits
    reach = (big * big * dens[2] * dens[3] * dens[4] * dens[5]).bit_length()
    for k in range(1, reach):
        for sign in (1, -1):
            rep, rel, common = coprime_square_rep(dens, big, sign * 2**k, -sign)
            expect = RatMatrix([[Fraction(sign * 2**k, common), Fraction(-sign, common)], [0, 0]])
            assert evaluate_relation(rep, rel) == expect == fraction_residual(rep, rel), (k, sign)


def coprime_pair(rng: random.Random, bits: int) -> tuple[int, int]:
    """Coprime p > q > 0 with p < 2q, so p // q == 1."""
    while True:
        q = rng.randint(2 ** (bits - 1), 2**bits)
        p = q + rng.randint(1, q - 1)
        if math.gcd(p, q) == 1:
            return p, q


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("bits", [2, 200])
def test_packed_zero_test_weighs_every_denominator(side, bits):
    """The two paths of an ff relation with equal integer products over
    the coprime denominators p and q leave the residual M v (1/p - 1/q):
    weighing the terms by anything but the common denominator over
    their own makes it vanish for one of the two orders of p and q."""
    rng = random.Random(f"denominators:{side}:{bits}")
    q = build_quiver(4)
    rel = next(r for r in relation_sets(q) if r.family == "ff" and r.indices == (1, 2))
    outer = [[rng.randint(1, 2**bits) for _ in range(2)] for _ in range(3)]
    inner = [[rng.randint(1, 2**bits)], [rng.randint(1, 2**bits)]]
    p, r = coprime_pair(rng, bits) if bits > 2 else (3, 2)
    for dens in ((p, r), (r, p)):
        mats = {a: RatMatrix.zeros(*arrow_shape(q, a)) for a in q.arrows}
        for rho, d in zip((1, 2), dens):
            left = [[Fraction(x, d if side == "left" else 1) for x in row] for row in outer]
            right = [[Fraction(x, d if side == "right" else 1) for x in row] for row in inner]
            mats[q.arrow((1, 0), 1, 3 - rho)] = RatMatrix(left)  # second arrow of the path starting with f_rho
            mats[q.arrow((0, 0), 1, rho)] = RatMatrix(right)
        rep = QuiverRep(4, mats)
        residual = fraction_residual(rep, rel)
        assert not residual.is_zero()
        assert evaluate_relation(rep, rel) == residual
        assert_relations_match_oracle(rep)


def test_rep_matrices_are_read_only():
    rep = embed(random_point(4, "frozen"))
    a = rep.quiver.arrows[0]
    with pytest.raises(TypeError):
        rep.matrices[a] = RatMatrix.zeros(*rep.matrices[a].shape)


def counted(calls: Counter, name: str, fn):
    """fn, counting its calls under `name` in `calls`."""

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def test_one_check_evaluates_each_relation_once_from_one_relation_sets_call(monkeypatch):
    """kqbench/test_bench.py counts relation_sets and evaluate_relation calls
    under its tracer; on a quiver with nothing cached, one check_relations
    makes one relation_sets call and one evaluate_relation call per relation."""
    calls = Counter()
    relations = len(relation_sets(build_quiver(5)))
    mats = scramble(embed(random_point(5, "pins")), random_gauge(5, "pins")).matrices
    fresh = TiltingQuiver(5)
    monkeypatch.setattr(moduli, "build_quiver", lambda n: fresh)
    rep = QuiverRep(5, mats)
    assert rep.quiver is fresh
    for module in (moduli, quiver):
        monkeypatch.setattr(module, "relation_sets", counted(calls, "relation_sets", quiver.relation_sets))
    monkeypatch.setattr(moduli, "evaluate_relation", counted(calls, "evaluate_relation", moduli.evaluate_relation))
    assert check_relations(rep) == []
    assert calls == {"relation_sets": 1, "evaluate_relation": relations}


def test_reconstruct_solves_forward_with_one_inverse_per_vertex(monkeypatch):
    """One n=5 reconstruct inverts at most one matrix per vertex and forms
    one product per arrow not out of the source (its matrix times the
    block at its tail) plus two per non-source vertex (the solve and the
    check), and one more in reduce_point: 74 products for 60 arrows."""
    calls = Counter()
    y, h = random_point(5, "counts"), random_gauge(5, "counts")
    rep = scramble(embed(y), h)
    q = rep.quiver
    monkeypatch.setattr(RatMatrix, "invert", counted(calls, "invert", RatMatrix.invert))
    monkeypatch.setattr(RatMatrix, "__mul__", counted(calls, "mul", RatMatrix.__mul__))
    point, gauge = reconstruct(rep)
    vertices, arrows = len(q.vertices), len(q.arrows)
    assert calls["invert"] <= vertices
    assert calls["mul"] == arrows - len(q.arrows_from((0, 0))) + 2 * (vertices - 1) + 1 == 74
    scalar = h.blocks[(0, 0)][0, 0]
    assert point == y
    assert gauge.blocks == {v: b.scale(1 / scalar) for v, b in h.blocks.items()}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_reconstructed_blocks_pass_the_validating_gauge(n):
    """Every block that reconstruct returns is square of the vertex dim and
    invertible, also for a point whose pivots are not the first columns."""
    nonstandard = reduce_point(RatMatrix([[1, 2, 0] + [5] * (n - 3), [0, 0, 1] + list(range(7, 4 + n))]))
    assert nonstandard.pivot_cols == (0, 2)
    for i, y in enumerate((random_point(n, "valid"), nonstandard)):
        rep = scramble(embed(y), random_gauge(n, f"valid:{i}"))
        point, gauge = reconstruct(rep)
        assert point == y
        assert GaugeElement(n, gauge.blocks) == gauge
        assert scramble(embed(point), gauge) == rep


def test_stability_first_keeps_a_singular_block_out(monkeypatch):
    """Zero arrows into the top vertex keep every relation but solve its
    block as 0 with every sweep check passing, so only the stability
    check, run first, refuses the input."""
    rep = embed(random_point(4, "top"))
    top = rep.quiver.vertices[-1]
    zeroed = {a: RatMatrix.zeros(*rep.matrices[a].shape) for a in rep.quiver.arrows_into(top)}
    bad = QuiverRep(4, {**rep.matrices, **zeroed})
    with pytest.raises(NotStableError, match=re.escape(str(top))):
        reconstruct(bad)
    monkeypatch.setattr(moduli, "check_stability", lambda rep: moduli.StabilityReport((), True))
    _, gauge = reconstruct(bad)
    assert gauge.blocks[top].is_zero()


def test_relation_violation_names_the_relation_at_fault():
    """The message names the first violated relation; with one arrow a
    perturbed, that relation has a path through a, so it starts at a's
    tail or ends at a's head."""
    pattern = re.compile(r"(\d+) relation\(s\) violated; first: (\w+) (\(.*?\)) at (\(.*?\)) -> (\(.*?\))$")
    rep = scramble(embed(random_point(5, "named")), random_gauge(5, "named"))
    rng = random.Random("named")
    for a in rng.sample(rep.quiver.arrows, 6):
        m = rep.matrices[a]
        rows = [list(m.row(i)) for i in range(m.rows)]
        rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += 1
        bad = QuiverRep(5, {**rep.matrices, a: RatMatrix(rows)})
        with pytest.raises(RelationsViolatedError) as info:
            reconstruct(bad)
        count, family, indices, tail, head = pattern.match(str(info.value)).groups()
        violations = check_relations(bad)
        first = violations[0].relation
        assert int(count) == len(violations)
        assert (family, indices, tail, head) == (first.family, str(first.indices), str(first.tail), str(first.head))
        assert first.tail == a.tail or first.head == a.head


def compose(g: GaugeElement, h: GaugeElement) -> GaugeElement:
    """The gauge acting as g after h: the blockwise product."""
    return GaugeElement(g.n, {v: g.blocks[v] * h.blocks[v] for v in g.blocks})


def identity_gauge(n: int) -> GaugeElement:
    q = build_quiver(n)
    return GaugeElement(n, {v: RatMatrix.identity(q.vertex_dim(v)) for v in q.vertices})


def test_scramble_group_action():
    rep = embed(random_point(4, "action"))
    g = random_gauge(4, "g")
    h = random_gauge(4, "h")
    ident = identity_gauge(4)
    assert scramble(rep, ident) == rep
    inverse = GaugeElement(4, {v: b.invert() for v, b in g.blocks.items()})
    assert scramble(scramble(rep, g), inverse) == rep
    assert scramble(scramble(rep, h), g) == scramble(rep, compose(g, h))


def test_scramble_reduces_each_arrow_once(monkeypatch):
    """One n=5 scramble brings one matrix to lowest terms per arrow and
    per inverted block: 70 for 60 arrows and 10 vertices, and the result
    is the blockwise composition g_head * M * g_tail^-1."""
    rep, g = embed(random_point(5, "reduce")), random_gauge(5, "reduce")
    q = rep.quiver
    calls = Counter()
    monkeypatch.setattr(RatMatrix, "_raw", staticmethod(counted(calls, "raw", RatMatrix._raw)))
    out = scramble(rep, g)
    assert calls["raw"] == len(q.arrows) + len(q.vertices) == 70
    monkeypatch.undo()
    for a in q.arrows:
        assert out.matrices[a] == g.blocks[a.head] * rep.matrices[a] * g.blocks[a.tail].invert(), a


def test_scramble_preserves_checks():
    for n in (4, 5):
        rep = embed(random_point(n, "covariant"))
        base_ranks = [(e.vertex, e.rank) for e in check_stability(rep).entries]
        for s in range(20):
            sc = scramble(rep, random_gauge(n, f"cov:{s}"))
            assert check_relations(sc) == []
            assert [(e.vertex, e.rank) for e in check_stability(sc).entries] == base_ranks


def test_singular_gauge_rejected():
    with pytest.raises(SingularGaugeError):
        GaugeElement(4, {v: RatMatrix.zeros(build_quiver(4).vertex_dim(v), build_quiver(4).vertex_dim(v)) for v in build_quiver(4).vertices})


def test_reconstruct_of_embedding_is_identity():
    y = random_point(4, "recon-id")
    point, gauge = reconstruct(embed(y))
    assert point == y
    assert gauge == identity_gauge(4)


def test_reconstruct_recovers_worked_point():
    y = canonical_point(2, 1, 3, 5)
    for s in range(5):
        g = random_gauge(4, f"worked:{s}")
        rep = scramble(embed(y), g)
        point, gauge = reconstruct(rep)
        assert point == y
        assert scramble(embed(point), gauge) == rep


def test_reconstruct_rejects_relation_violations():
    rep = embed(random_point(4, "reject"))
    a = rep.quiver.arrow((2, 0), 2, 4)
    m = rep.matrices[a]
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows[1][2] += 1
    mats = dict(rep.matrices)
    mats[a] = RatMatrix(rows)
    with pytest.raises(RelationsViolatedError):
        reconstruct(QuiverRep(4, mats))


def test_reconstruct_rejects_unstable_input():
    q = build_quiver(4)
    mats = {}
    for a in q.arrows:
        k = q.vertex_dim(a.tail)
        shape = (k + 1, k) if a.direction == 1 else (k - 1, k)
        mats[a] = RatMatrix.zeros(*shape)
    with pytest.raises(NotStableError):
        reconstruct(QuiverRep(4, mats))


def test_sweep_alone_refuses_a_perturbed_embedding(monkeypatch):
    """With both checks reporting clean, the sweep must still refuse +1 on
    one entry of any arrow, including the arrows into (1, 0)."""
    monkeypatch.setattr(moduli, "check_relations", lambda rep: [])
    monkeypatch.setattr(moduli, "check_stability", lambda rep: moduli.StabilityReport((), True))
    rep = scramble(embed(random_point(4, "sweep")), random_gauge(4, "sweep"))
    for a in rep.quiver.arrows:
        m = rep.matrices[a]
        rows = [list(m.row(i)) for i in range(m.rows)]
        rows[0][0] += 1
        mats = dict(rep.matrices)
        mats[a] = RatMatrix(rows)
        with pytest.raises(NotInImageError):
            reconstruct(QuiverRep(4, mats))


def test_reconstruct_handles_nonstandard_pivots():
    # leading columns dependent: pivots fall on columns 1 and 3
    y = reduce_point(RatMatrix([[1, 2, 0, 5], [0, 0, 1, 7]]))
    assert y.pivot_cols == (0, 2)
    for s in range(3):
        rep = scramble(embed(y), random_gauge(4, f"piv:{s}"))
        point, gauge = reconstruct(rep)
        assert point == y
        assert scramble(embed(point), gauge) == rep


def test_reconstruct_is_gauge_equivariant():
    """Reconstructing a scrambled embedding returns the applied gauge,
    normalized by the free scalar at the one-dimensional source vertex;
    with a source block of 1 the equality is exact."""
    y = random_point(4, "equivariant")
    rep = embed(y)
    h = random_gauge(4, "equivariant")
    blocks = dict(h.blocks)
    blocks[(0, 0)] = RatMatrix([[1]])
    h1 = GaugeElement(4, blocks)
    point, gauge = reconstruct(scramble(rep, h1))
    assert point == y and gauge == h1

    point, gauge = reconstruct(scramble(rep, h))
    scalar = h.blocks[(0, 0)][0, 0]
    assert point == y
    assert gauge.blocks == {v: b.scale(1 / scalar) for v, b in h.blocks.items()}

    # composing a further gauge composes the recovered one
    g = random_gauge(4, "equivariant-2")
    point, gauge = reconstruct(scramble(scramble(rep, h1), g))
    combined = compose(g, h1)
    scalar = combined.blocks[(0, 0)][0, 0]
    assert point == y
    assert gauge.blocks == {v: b.scale(1 / scalar) for v, b in combined.blocks.items()}


def test_roundtrip_batch():
    for n in (4, 5):
        for t in range(10):
            y = random_point(n, f"batch:{t}")
            g = random_gauge(n, f"batch:{t}")
            rep = scramble(embed(y), g)
            point, gauge = reconstruct(rep)
            assert point == y
            assert scramble(embed(point), gauge) == rep


def test_random_point_deterministic_and_canonical():
    a = random_point(5, "seed")
    b = random_point(5, "seed")
    c = random_point(5, "other")
    assert a == b and a != c
    assert reduce_point(a.matrix) == a
    for j in range(2, 5):
        for i in range(2):
            x = a.matrix[i, j]
            assert abs(x.numerator) <= 99 and x.denominator <= 99


def test_random_gauge_deterministic_and_invertible():
    g = random_gauge(5, 42)
    assert g == random_gauge(5, 42)
    for v, b in g.blocks.items():
        assert b * b.invert() == RatMatrix.identity(b.rows)


def test_rep_json_roundtrip():
    rep = embed(random_point(4, "repjson"))
    again = QuiverRep.from_json(rep.to_json())
    assert again == rep
    gauge = random_gauge(4, "gjson")
    assert GaugeElement.from_json(gauge.to_json()) == gauge


def test_quiver_counts_match_the_record_counts():
    for n in range(4, 10):
        q = build_quiver(n)
        assert len(q.arrows) == n * (n - 1) * (n - 2)
        assert len(q.vertices) == n * (n - 1) // 2


def test_record_counts_are_checked_before_the_quiver_is_built(monkeypatch):
    def refuse(n):
        raise AssertionError(f"built the quiver for n={n}")

    monkeypatch.setattr(moduli, "build_quiver", refuse)
    with pytest.raises(ValueError, match="expected n\\(n-1\\)\\(n-2\\) = 63520800"):
        QuiverRep.from_json({"n": 400, "arrows": []})
    with pytest.raises(ValueError, match="expected n\\(n-1\\)/2 = 79800"):
        GaugeElement.from_json({"n": 400, "blocks": []})


def test_json_readers_refuse_a_non_integer_n_or_rho():
    rep_json = embed(random_point(4, "intfields")).to_json()
    gauge_json = random_gauge(4, "intfields").to_json()
    point_json = random_point(4, "intfields").to_json()
    for bad in (4.0, 4.5, "4", True, None):
        with pytest.raises(ValueError, match="n must be an integer"):
            QuiverRep.from_json(dict(rep_json, n=bad))
        with pytest.raises(ValueError, match="n must be an integer"):
            GaugeElement.from_json(dict(gauge_json, n=bad))
        with pytest.raises(ValueError, match="n must be an integer"):
            GrPoint.from_json(dict(point_json, n=bad))
    matrix_json = rep_json["arrows"][0]["matrix"]  # a 2 x 1 matrix
    for field, bad in (("rows", 2.0), ("rows", "2"), ("cols", True), ("cols", 1.0)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RatMatrix.from_json(dict(matrix_json, **{field: bad}))
    for bad in (1.7, "1", True):
        arrows = [dict(rep_json["arrows"][0], rho=bad)] + rep_json["arrows"][1:]
        with pytest.raises(ValueError, match="rho must be an integer"):
            QuiverRep.from_json(dict(rep_json, arrows=arrows))
    first, block = rep_json["arrows"][0], gauge_json["blocks"][0]
    for bad in ([0.0, 0.0], [0, 0.0], ["0", 0], [False, 0], [0], [0, 0, 0], "00", None):
        for field in ("tail", "head"):
            arrows = [dict(first, **{field: bad})] + rep_json["arrows"][1:]
            with pytest.raises(ValueError, match=field):
                QuiverRep.from_json(dict(rep_json, arrows=arrows))
        blocks = [dict(block, vertex=bad)] + gauge_json["blocks"][1:]
        with pytest.raises(ValueError, match="vertex"):
            GaugeElement.from_json(dict(gauge_json, blocks=blocks))


def test_rep_shape_validation():
    rep = embed(random_point(4, "shape"))
    mats = dict(rep.matrices)
    a = rep.quiver.arrow((0, 0), 1, 1)
    mats[a] = RatMatrix.zeros(3, 3)
    with pytest.raises(ValueError):
        QuiverRep(4, mats)
