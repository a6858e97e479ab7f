"""Embedding, stability, gauge action, and reconstruction."""

import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kq import fibers, moduli, quiver
from kq.fibers import GrPoint, f_matrix, g_matrix, reduce_point
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


def test_accepted_reconstruct_inverts_nothing_and_runs_no_check(monkeypatch):
    """An accepted n=5 reconstruct rests on the sweep and the cached premise
    alone: no matrix is inverted (the point's 2 x 2 block is solved by its
    adjugate) and no relation or stability check runs."""
    calls = Counter()
    y, h = random_point(5, "counts"), random_gauge(5, "counts")
    rep = scramble(embed(y), h)
    moduli._relations_vanish(5)
    monkeypatch.setattr(RatMatrix, "invert", counted(calls, "invert", RatMatrix.invert))
    for name in ("check_relations", "evaluate_relation", "check_stability"):
        monkeypatch.setattr(moduli, name, counted(calls, name, getattr(moduli, name)))
    point, gauge = reconstruct(rep)
    assert calls == {}
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


def test_a_singular_solved_block_stops_the_sweep(monkeypatch):
    """Zero arrows into the top vertex keep every relation and solve its
    block as 0 with every arrow matching, so only the rank of the solved
    block stops the sweep there; the refusal names the top vertex as
    unstable, and the vertices before it are not checked again."""
    rep = embed(random_point(4, "top"))
    q = rep.quiver
    top = q.vertices[-1]
    zeroed = {a: RatMatrix.zeros(*rep.matrices[a].shape) for a in q.arrows_into(top)}
    bad = QuiverRep(4, {**rep.matrices, **zeroed})
    assert moduli._sweep(bad) == (None, None, len(q.vertices) - 1)
    monkeypatch.setattr(moduli, "check_stability", None)
    with pytest.raises(NotStableError, match=re.escape(f"rank-deficient at [{top}]")):
        reconstruct(bad)


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


def test_sweep_stops_for_a_perturbed_arrow():
    """+1 on one entry of any arrow stops the sweep: at the arrow's head,
    which no earlier vertex reads, or past (1, 0) for an arrow into (1, 0),
    which only moves the point read there."""
    rep = scramble(embed(random_point(4, "sweep")), random_gauge(4, "sweep"))
    q = rep.quiver
    assert moduli._sweep(rep)[2] == len(q.vertices)
    for a in q.arrows:
        m = rep.matrices[a]
        rows = [list(m.row(i)) for i in range(m.rows)]
        rows[0][0] += 1
        stop = moduli._sweep(QuiverRep(4, {**rep.matrices, a: RatMatrix(rows)}))[2]
        head = q.vertices.index(a.head)
        assert head < stop < len(q.vertices) if a.head == (1, 0) else stop == head, a


def check_first_reconstruct(rep: QuiverRep):
    """Oracle of the check-first reconstruct: check_relations, then
    check_stability, then a sweep that solves each block on the pivot
    columns of the canonical incoming matrix.  The refusal it raises, or
    the point and gauge."""
    violations = check_relations(rep)
    if violations:
        r = violations[0].relation
        raise RelationsViolatedError(
            f"{len(violations)} relation(s) violated; first: {r.family} {r.indices} at {r.tail} -> {r.head}"
        )
    stability = check_stability(rep)
    if not stability.ok:
        raise NotStableError(f"rank-deficient at {[e.vertex for e in stability.entries if not e.ok]}")
    q = rep.quiver
    point = reduce_point(assemble_W(rep, (1, 0)))
    canonical = embed(point)
    blocks = {(0, 0): RatMatrix.identity(1)}
    for v in q.vertices[1:]:
        canon = assemble_W(canonical, v)
        cols = canon.pivot_columns()
        ordered = sorted(q.arrows_into(v), key=lambda a: (a.direction, a.rho))
        actual = RatMatrix.hstack([rep.matrices[a] * blocks[a.tail] for a in ordered])
        g = actual.take_columns(cols) * canon.take_columns(cols).invert()
        if actual != g * canon:
            raise NotInImageError(f"incoming matrices at {v} do not match the embedding")
        blocks[v] = g
    return point, blocks


def verdict(fn, rep):
    try:
        point, gauge = fn(rep)
    except (RelationsViolatedError, NotStableError, NotInImageError) as exc:
        return type(exc), str(exc)
    return point, gauge if isinstance(gauge, dict) else gauge.blocks


def rank_one_rep(n: int, seed: str) -> QuiverRep:
    """A scrambled representation built from a rank-one 2 x n matrix: every
    relation holds, every incoming matrix at (1, 0) has rank one."""
    rng = random.Random(seed)
    v = (rng.randint(1, 9), rng.randint(-9, 9))
    scale = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    q = build_quiver(n)
    mats = {}
    for a in q.arrows:
        x = (scale[a.rho - 1] * v[0], scale[a.rho - 1] * v[1])
        mats[a] = (f_matrix if a.direction == 1 else g_matrix)(q.vertex_dim(a.tail), x)
    return scramble(QuiverRep(n, mats), random_gauge(n, seed))


def perturbed_reps(n: int):
    """A scrambled embedding with +1 on one entry of one arrow, for every
    arrow: once in a column of the arrow that holds part of the identity
    pivot block at its head, and once in a column that does not."""
    y = random_point(n, f"refusal:{n}")
    rep = scramble(embed(y), random_gauge(n, f"refusal:{n}"))
    q = rep.quiver
    p, r = (c + 1 for c in y.pivot_cols)
    pivot_cols = {a: cols for v in q.vertices[1:] for a, cols in moduli._pivot_block(q, v, p, r)}
    for a in q.arrows:
        m = rep.matrices[a]
        chosen = pivot_cols.get(a, ())
        others = [j for j in range(m.cols) if j not in chosen]
        for i, j in [(0, c) for c in chosen[:1]] + [(m.rows - 1, c) for c in others[-1:]]:
            rows = [list(m.row(k)) for k in range(m.rows)]
            rows[i][j] += 1
            yield QuiverRep(n, {**rep.matrices, a: RatMatrix(rows)})


@pytest.mark.parametrize("n", [4, 5])
def test_refusals_match_the_check_first_order(n):
    """Every +1 perturbation of a scrambled embedding (pivot and non-pivot
    entries of every arrow), rank-one representations and a singular top
    block: the same exception class and message as the check-first
    oracle, or the same point and gauge."""
    reps = list(perturbed_reps(n)) + [rank_one_rep(n, f"rank one:{n}:{t}") for t in range(3)]
    top = build_quiver(n).vertices[-1]
    rep = embed(random_point(n, "top"))
    reps.append(QuiverRep(n, {**rep.matrices, **{a: RatMatrix.zeros(*rep.matrices[a].shape) for a in rep.quiver.arrows_into(top)}}))
    kinds = Counter()
    for rep in reps:
        expect = verdict(check_first_reconstruct, rep)
        assert verdict(reconstruct, rep) == expect
        kinds[expect[0].__name__ if isinstance(expect[0], type) else "accepted"] += 1
    assert kinds["RelationsViolatedError"] > 2 * n and kinds["NotStableError"] >= 4


def flip_g_x2(monkeypatch) -> None:
    """Flip the sign of the x2 band of g in every banded matrix: the
    premise's (kq.moduli's binding of _banded) and step_matrix's, which
    embeddings and the sweep read."""
    banded = fibers._banded
    flipped = lambda k, horizontal, a1, a2, d: banded(k, horizontal, a1, a2 if horizontal else -a2, d)  # noqa: E731
    monkeypatch.setattr(moduli, "_banded", flipped)
    monkeypatch.setattr(fibers, "_banded", flipped)


@pytest.mark.parametrize("n", range(4, 13))
def test_relations_vanish_on_every_embedding(n):
    """The premise holds, and its classes are those of the relation rows
    with index pair (1, 2), (2, 1) or (1, 1), one per family, lam1 - lam2
    and pair."""
    assert moduli._relations_vanish(n)
    q = build_quiver(n)
    rows = {
        (family, lam[0] - lam[1], ij)
        for lam, _, family in p2_pairs(q)
        for ij, _ in quiver.relation_rows(q, lam, family)
        if ij in ((1, 2), (2, 1), (1, 1))
    }
    assert moduli._relation_classes(q) == rows
    assert len(rows) == {6: 17, 7: 22, 12: 47}.get(n, len(rows))


def test_a_failed_premise_refuses_what_the_sweep_solves(monkeypatch):
    """With g's x2 band flipped the relations no longer vanish on
    embeddings, and the premise says so at n=5.  The sweep then solves a
    scrambled mutated embedding, so reconstruct must refuse it from the
    full relation scan, with the message of the check-first order; with
    the premise forced true it would accept.  The unmutated embedding
    keeps every relation and now fails the sweep: not in the image."""
    y, h = random_point(5, "premise"), random_gauge(5, "premise")
    genuine = embed(y)
    moduli._relations_vanish.cache_clear()
    try:
        flip_g_x2(monkeypatch)
        assert not moduli._relations_vanish(5)
        rep = scramble(embed(y), h)
        assert moduli._sweep(rep)[2] == len(rep.quiver.vertices)
        expect = verdict(check_first_reconstruct, rep)
        assert expect[0] is RelationsViolatedError
        assert verdict(reconstruct, rep) == expect
        with monkeypatch.context() as m:
            m.setattr(moduli, "_relations_vanish", lambda n: True)
            assert reconstruct(rep)[0] == y
        expect = verdict(check_first_reconstruct, genuine)
        assert expect[0] is NotInImageError
        assert verdict(reconstruct, genuine) == expect
    finally:
        moduli._relations_vanish.cache_clear()


@pytest.mark.parametrize("n", range(4, 9))
def test_pivot_block_is_the_leftmost_identity(n):
    """For pivot columns (1, 2), (1, 3) and (3, 4), at every non-source
    vertex, the columns of _pivot_block are the pivot columns of the
    canonical incoming matrix and select the identity from it."""
    q = build_quiver(n)
    rng = random.Random(f"pivots:{n}")
    for p, r in ((1, 2), (1, 3), (3, 4)):
        rows = [[0] * n, [0] * n]
        for j in range(p, n):
            rows[0][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rows[1][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if j >= r else 0
        rows[0][p - 1], rows[0][r - 1], rows[1][r - 1] = 1, 0, 1
        y = GrPoint(RatMatrix(rows))
        assert y.pivot_cols == (p - 1, r - 1)
        canonical = embed(y)
        for v in q.vertices[1:]:
            offsets, at = {}, 0
            for a in sorted(q.arrows_into(v), key=lambda a: (a.direction, a.rho)):
                offsets[a], at = at, at + q.vertex_dim(a.tail)
            cols = [offsets[a] + c for a, block in moduli._pivot_block(q, v, p, r) for c in block]
            canon = assemble_W(canonical, v)
            assert cols == canon.pivot_columns(), (p, r, v)
            assert canon.take_columns(cols) == RatMatrix.identity(q.vertex_dim(v))


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
