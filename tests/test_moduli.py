"""Embedding, stability, gauge action, and reconstruction."""

import random
from fractions import Fraction

import pytest

from kq import moduli
from kq.fibers import reduce_point
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
from kq.quiver import build_quiver, relation_sets


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
    """Reference value of a relation: the sum of c * path_matrix(p),
    taken entry by entry in Fractions."""
    d_head, d_tail = rep.quiver.vertex_dim(rel.head), rep.quiver.vertex_dim(rel.tail)
    acc = [[Fraction(0)] * d_tail for _ in range(d_head)]
    for p, c in rel.terms.items():
        m = rep.path_matrix(p)
        acc = [[x + c * m[i, j] for j, x in enumerate(row)] for i, row in enumerate(acc)]
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


def test_scramble_group_action():
    rep = embed(random_point(4, "action"))
    g = random_gauge(4, "g")
    h = random_gauge(4, "h")
    ident = GaugeElement.identity(4)
    assert scramble(rep, ident) == rep
    assert scramble(scramble(rep, g), g.inverse()) == rep
    assert scramble(scramble(rep, h), g) == scramble(rep, g.compose(h))


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
    assert gauge == GaugeElement.identity(4)


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
    combined = g.compose(h1)
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


def test_rep_shape_validation():
    rep = embed(random_point(4, "shape"))
    mats = dict(rep.matrices)
    a = rep.quiver.arrow((0, 0), 1, 1)
    mats[a] = RatMatrix.zeros(3, 3)
    with pytest.raises(ValueError):
        QuiverRep(4, mats)
