"""Point canonicalization, banded matrices, and their oracle from the
definitions; the highest-weight surjectivity check against the sampled
all-weight report and the exact evaluation rank."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from kq import fibers, linalg, tableaux
from kq.cli import run
from kq.fibers import (
    GrPoint,
    InvalidRankError,
    RankDeficientError,
    f_matrix,
    g_matrix,
    reduce_point,
    sample_point,
    step_matrix,
    surjectivity_rank,
)
from kq.linalg import RatMatrix, SparseEchelon
from kq.moduli import random_point
from kq.quiver import build_quiver, containment_pairs
from kq.tableaux import NotContainedError, Partition, gamma_set, gl_dimension, hom_dim
from test_tableaux import kostka


@pytest.fixture
def fresh_class_cache():
    """Twist-class reports and weighted shifts made under a patch are
    neither read from nor left in the caches."""
    fibers._twist_class_report.cache_clear()
    fibers._shift.cache_clear()
    yield
    fibers._twist_class_report.cache_clear()
    fibers._shift.cache_clear()


def zero_g_band(monkeypatch):
    """Every g matrix loses its u * x1 band, so the compositions no longer
    kill the quadratic relations and the normal paths may not span.  The
    caller clears the caches."""
    banded = fibers._banded
    monkeypatch.setattr(fibers, "_banded", lambda k, horizontal, a1, a2, d: banded(k, horizontal, a1 if horizontal else 0, a2, d))


@pytest.fixture
def g_band_zeroed(monkeypatch, fresh_class_cache):
    zero_g_band(monkeypatch)


def _partitions_of(d, max_parts, cap=None):
    if d == 0:
        return [()]
    if max_parts == 0:
        return []
    cap = d if cap is None else min(cap, d)
    return [(first,) + rest for first in range(cap, 0, -1) for rest in _partitions_of(d - first, max_parts - 1, first)]


def dominant_weights(gammas, n):
    """The torus weights of a graded map space mu/lam as a GL(n)
    representation, from its constituents gammas = gamma_set(lam, mu),
    one entry (alpha, orbit, mult) per dominant weight: alpha runs over
    the partitions of |mu| - |lam| with at most n parts, orbit is the
    size of its S_n orbit in N^n and mult = sum over gammas of
    K_{gamma, alpha}, shared by the whole orbit."""
    out = []
    for alpha in _partitions_of(gammas[0].size, max_parts=n):
        orbit = factorial(n) // (factorial(n - len(alpha)) * prod(map(factorial, Counter(alpha).values())))
        out.append((alpha, orbit, sum(kostka(g, alpha) for g in gammas)))
    return out


def path_rows(y, routes, d_lam, d_mu):
    """The compositions at the point y along the paths of a `_routes`
    tree, each a product of `step_matrix` matrices that shares its
    prefix with the paths beside it, as integer rows (y is an integer
    point): one row per matrix entry (i, j), one column per path."""
    thetas = []

    def descend(node, partial):
        for k, horizontal, rho, child in node:
            product = step_matrix(y, k, horizontal, rho + 1) * partial
            if child is None:
                thetas.append(product)
            else:
                descend(child, product)

    descend(routes, RatMatrix.identity(d_lam))
    return [[int(t[i, j]) for t in thetas] for i in range(d_mu) for j in range(d_lam)]


def sampled_report(n, lam, mu, patience, seed):
    """The sampled check that `surjectivity_rank` replaced, as an oracle:
    every dominant weight alpha, counted with its orbit, evaluated over
    the normal paths of content alpha at seeded points drawn until the
    block reaches mult or `patience` draws in a row add nothing.  Ranks
    are exact, so `ok` is a certificate; any other status only says the
    draws fell short."""
    lam, mu = Partition(lam), Partition(mu)
    gammas = gamma_set(lam, mu)
    d_lam, d_mu = fibers.fiber_dim(lam), fibers.fiber_dim(mu)
    rank, short = 0, []
    for alpha, orbit, mult in dominant_weights(gammas, n):
        routes = fibers._routes(lam, mu, alpha)
        echelon = SparseEchelon()
        drawn = stale = 0
        while echelon.rank < mult and stale < patience:
            before = echelon.rank
            for row in path_rows(sample_point(n, f"{seed}:{drawn}"), routes, d_lam, d_mu):
                if echelon.insert(dict(enumerate(row))) and echelon.rank == mult:
                    break
            drawn += 1
            stale = stale + 1 if echelon.rank == before else 0
        if echelon.rank != mult:
            short.append((alpha, echelon.rank, mult))
        rank += orbit * echelon.rank
    expected = hom_dim(gammas, n)
    status = "fail" if rank > expected else "ok" if rank == expected and not short else "inconclusive"
    return {"rank": rank, "hom_dim": expected, "status": status, "short_weights": short}


def column(y, rho):
    return (y.matrix[0, rho - 1], y.matrix[1, rho - 1])


def section_matrix(kind, lam, rho, y):
    """The matrix of the elementary map of the given kind ('f' or 'g')
    for column rho of the point on the fiber at lam, filled one column
    per basis monomial b1^a b2^j straight from the definitions; the
    oracle for the banded constructors.

    'f' appends the section to the symmetric part of each monomial; 'g'
    sums over ways of pairing one symmetric variable with the section
    into a new wedge factor, which is then expanded over the fiber
    basis.
    """
    x1, x2 = column(y, rho)
    top = lam[0] - lam[1]
    rows = [[0] * (top + 1) for _ in range(top + 2 if kind == "f" else top)]
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


def staircase(lam, mu):
    """The unique increasing weight path from lam to mu through
    (mu1, lam2): all horizontal steps first, then all vertical steps."""
    lam, mu = Partition.coerce(lam), Partition.coerce(mu)
    if not (mu.contains(lam) and mu != lam):
        raise NotContainedError(f"{lam.parts} is not strictly contained in {mu.parts}")
    l1, l2 = lam.padded(2)
    u1, u2 = mu.padded(2)
    seq = [Partition((l1 + k, l2)) for k in range(u1 - l1 + 1)]
    return seq + [Partition((u1, l2 + k)) for k in range(1, u2 - l2 + 1)]


def theta_compose(lam, mu, word, y):
    """Product of the step matrices along the staircase from lam to mu,
    one column index per step, consumed left to right (first letters feed
    the horizontal steps).  Shape: fiber dim at mu by fiber dim at lam."""
    seq = staircase(lam, mu)
    result = RatMatrix.identity(fibers.fiber_dim(seq[0]))
    for tau, nxt, rho in zip(seq, seq[1:], word):
        result = step_matrix(y, fibers.fiber_dim(tau), nxt.part(0) > tau.part(0), rho) * result
    return result


def test_reduce_point_fixes_canonical_matrix():
    m = RatMatrix([[1, 0, 2, 5], [0, 1, 3, 7]])
    y = reduce_point(m)
    assert y.matrix == m and y.pivot_cols == (0, 1)


def test_reduce_point_row_scaling():
    y = reduce_point(RatMatrix([[2, 0, 4, 0], [0, 3, 3, 3]]))
    assert y.matrix == RatMatrix([[1, 0, 2, 0], [0, 1, 1, 1]])


def test_reduce_point_degenerate_leading_columns():
    y = reduce_point(RatMatrix([[0, 0, 1, 0], [0, 0, 0, 1]]))
    assert y.pivot_cols == (2, 3)
    assert y.matrix.take_columns((2, 3)) == RatMatrix.identity(2)


def test_reduce_point_rank_deficient():
    with pytest.raises(RankDeficientError):
        reduce_point(RatMatrix([[1, 2, 3, 4], [2, 4, 6, 8]]))


def test_reduce_point_idempotent_and_gl2_invariant():
    rng = random.Random("gl2")
    for _ in range(20):
        m = RatMatrix([[rng.randint(-9, 9) for _ in range(5)] for _ in range(2)])
        try:
            y = reduce_point(m)
        except RankDeficientError:
            continue
        assert reduce_point(y.matrix) == y
        while True:
            g = RatMatrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)])
            if g.rank() == 2:
                break
        assert reduce_point(g * m) == y


def test_f_matrix_examples():
    x1, x2 = Fraction(3), Fraction(5)
    assert f_matrix(2, (x1, x2)) == RatMatrix([[3, 0], [5, 3], [0, 5]])
    assert f_matrix(1, (1, 0)) == RatMatrix([[1], [0]])
    assert f_matrix(3, (0, 1)) == RatMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_g_matrix_examples():
    x1, x2 = Fraction(3), Fraction(5)
    assert g_matrix(3, (x1, x2)) == RatMatrix([[-10, 3, 0], [0, -5, 6]])
    assert g_matrix(2, (1, 0)) == RatMatrix([[0, 1]])
    assert g_matrix(2, (0, 1)) == RatMatrix([[-1, 0]])
    with pytest.raises(InvalidRankError):
        g_matrix(1, (1, 1))


def test_section_apply_pivot_column_raises_top_index_only():
    y = reduce_point(RatMatrix([[1, 0, 2, 3, 6], [0, 1, 4, 5, 7]]))
    # column 1 is (1, 0): each monomial b1^a b2^j goes to b1^(a+1) b2^j alone
    assert section_matrix("f", (2, 0), 1, y) == RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])


def young_vertices(n):
    return [(a, b) for a in range(n - 1) for b in range(a + 1)]


def test_section_matrix_is_oracle_for_banded_constructors():
    for n in (4, 5, 6):
        for s in range(10):  # 20 points per n, half with fractional entries
            for y in (random_point(n, f"oracle:{s}"), sample_point(n, f"oracle:{s}")):
                for lam in young_vertices(n):
                    if lam[0] - lam[1] > 4:
                        continue
                    k = lam[0] - lam[1] + 1
                    for rho in range(1, n + 1):
                        x = column(y, rho)
                        if lam[0] + 1 <= n - 2:
                            assert section_matrix("f", lam, rho, y) == f_matrix(k, x) == step_matrix(y, k, True, rho)
                        if lam[1] + 1 <= lam[0]:
                            assert section_matrix("g", lam, rho, y) == g_matrix(k, x) == step_matrix(y, k, False, rho)


def test_banded_matrices_depend_only_on_fiber_dimension():
    y = random_point(6, "rankonly")
    for rho in range(1, 7):
        assert section_matrix("f", (2, 0), rho, y) == section_matrix("f", (3, 1), rho, y)
        assert section_matrix("g", (2, 0), rho, y) == section_matrix("g", (3, 1), rho, y)


def test_section_matrix_does_not_build_through_banded(monkeypatch):
    """With _banded swapping the two coordinates, the banded constructors
    go wrong on a column with a1 != a2 and the oracle does not."""
    y = reduce_point(RatMatrix([[1, 0, 2, 3], [0, 1, 4, 5]]))
    banded = fibers._banded
    monkeypatch.setattr(fibers, "_banded", lambda k, horizontal, a1, a2, d: banded(k, horizontal, a2, a1, d))
    f = section_matrix("f", (1, 0), 3, y)  # column 3 is (2, 4)
    assert f == RatMatrix([[2, 0], [4, 2], [0, 4]])
    assert f != f_matrix(2, column(y, 3)) and f != step_matrix(y, 2, True, 3)
    g = section_matrix("g", (1, 0), 3, y)
    assert g == RatMatrix([[-4, 2]])
    assert g != g_matrix(2, column(y, 3)) and g != step_matrix(y, 2, False, 3)


def test_normal_paths_give_each_block_exactly_mult_columns():
    """The normal paths of content alpha are a basis of the alpha weight
    space of the quotient, so a block needs no other columns."""
    for n in (4, 5, 6):
        for lam, mu in containment_pairs(build_quiver(n), 2 * (n - 2)):
            d_lam, d_mu = fibers.fiber_dim(lam), fibers.fiber_dim(mu)
            for alpha, _, mult in dominant_weights(gamma_set(lam, mu), n):
                routes = fibers._routes(Partition(lam), Partition(mu), alpha)
                rows = path_rows(sample_point(n, "count"), routes, d_lam, d_mu)
                assert len(rows) == d_lam * d_mu and all(len(row) == mult for row in rows), (n, lam, mu, alpha)


def test_steps_at_the_identity_have_one_entry_per_column():
    """The weighted-shift premise of `_shift`: at column (1, 0) or (0, 1)
    every banded matrix has at most one nonzero entry per column."""
    for k, horizontal, (a1, a2) in itertools.product(range(1, 13), (True, False), ((1, 0), (0, 1))):
        if horizontal or k >= 2:
            m = fibers._banded(k, horizontal, a1, a2, 1)
            assert all(sum(1 for i in range(m.rows) if m[i, u]) <= 1 for u in range(k)), (k, horizontal, a1, a2)


# The identity in columns 1-2: every path of a block reads columns 1 and 2 only.
IDENTITY = GrPoint(RatMatrix([[1, 0, 0, 0], [0, 1, 0, 0]]))


@pytest.mark.parametrize("mutated", [False, True], ids=["maps", "g_band_zeroed"])
@pytest.mark.usefixtures("fresh_class_cache")
def test_block_rows_are_the_dense_products_at_the_identity(monkeypatch, mutated):
    """`_block_rows` holds, entry by entry, the products of `step_matrix`
    matrices at the identity in columns 1-2, for every block of every
    twist class of the whole quiver at n = 8 (so at n = 4..8): over the
    normal paths, and over every path up to n = 7, where the dense
    products stay under a second."""
    if mutated:
        zero_g_band(monkeypatch)
    pairs = [(lam, mu) for lam, mu in containment_pairs(build_quiver(8), 12) if lam[1] == 0]
    blocks = 0
    for lam, mu in pairs:
        d_lam, d_mu = fibers.fiber_dim(lam), fibers.fiber_dim(mu)
        for gamma, normal in itertools.product(gamma_set(lam, mu), (True, False)):
            if normal or mu[0] <= 5:
                routes = fibers._routes(Partition(lam), Partition(mu), gamma.padded(2), normal)
                dense = dict(zip(itertools.product(range(d_mu), range(d_lam)), path_rows(IDENTITY, routes, d_lam, d_mu)))
                expected = {entry: {p: v for p, v in enumerate(row) if v} for entry, row in dense.items() if any(row)}
                assert fibers._block_rows(routes, d_lam) == expected, (lam, mu, gamma, normal)
                blocks += 1
    assert blocks == 203 + 120


def test_reports_do_not_depend_on_pair_order():
    pairs = containment_pairs(build_quiver(5), 6)

    def reports(order):
        return {(tuple(lam), tuple(mu)): surjectivity_rank(5, lam, mu) for lam, mu in order}

    forward = reports(pairs)
    assert reports(pairs[::-1]) == forward
    fibers._twist_class_report.cache_clear()
    fibers._shift.cache_clear()
    assert reports(pairs[::-1]) == forward


def untwist(lam, mu):
    """The pair shifted by (lam2, lam2), so that its inner second row is 0."""
    t = lam[1]
    return (lam[0] - t, 0), (mu[0] - t, mu[1] - t)


def test_twisted_pairs_read_the_same_data():
    """E_{lam+(1,1)} = E_lam (x) det Q: everything a report reads is the
    same for a pair and its untwisted pair, checked without the cache."""
    twisted = 0
    for n in (4, 5, 6, 7):
        for lam, mu in containment_pairs(build_quiver(n), 2 * (n - 2)):
            base_lam, base_mu = untwist(lam, mu)
            twisted += lam[1] > 0
            for end, base in ((lam, base_lam), (mu, base_mu)):
                assert fibers.fiber_dim(end) == fibers.fiber_dim(base), (n, lam, mu)
            gammas = gamma_set(lam, mu)
            assert gammas == gamma_set(base_lam, base_mu), (n, lam, mu)
            for gamma, normal in itertools.product(gammas, (True, False)):
                tree = fibers._routes(Partition(lam), Partition(mu), gamma.padded(2), normal)
                assert tree == fibers._routes(Partition(base_lam), Partition(base_mu), gamma.padded(2), normal), (n, lam, mu, gamma)
    assert twisted == 3 + 14 + 40 + 90


def test_staircase_route():
    seq = staircase((1, 0), (3, 2))
    assert [p.padded(2) for p in seq] == [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
    with pytest.raises(NotContainedError):
        staircase((2, 1), (1, 1))


def test_theta_single_horizontal_step_is_the_banded_matrix():
    y = random_point(5, "theta1")
    for rho in range(1, 6):
        assert theta_compose((1, 0), (2, 0), (rho,), y) == f_matrix(2, column(y, rho))


def test_theta_wedge_square_is_antisymmetric():
    y = random_point(4, "theta2")
    for i, j in itertools.product(range(1, 5), repeat=2):
        m_ij = theta_compose((0, 0), (1, 1), (i, j), y)
        m_ji = theta_compose((0, 0), (1, 1), (j, i), y)
        assert m_ij.shape == (1, 1)
        assert (m_ij + m_ji).is_zero()
    assert theta_compose((0, 0), (1, 1), (1, 1), y).is_zero()


def test_theta_symmetric_square_is_symmetric():
    y = random_point(4, "theta3")
    for i, j in itertools.product(range(1, 5), repeat=2):
        assert theta_compose((0, 0), (2, 0), (i, j), y) == theta_compose((0, 0), (2, 0), (j, i), y)


def test_surjectivity_rank_small_cases():
    r = surjectivity_rank(4, (0, 0), (1, 1))
    assert r["ok"] and r["rank"] == 6
    r = surjectivity_rank(4, (0, 0), (2, 0))
    assert r["ok"] and r["rank"] == 10
    r = surjectivity_rank(4, (1, 0), (2, 1))
    assert r["ok"] and r["rank"] == 16
    assert r["status"] == "ok" and surjectivity_rank(4, (1, 0), (2, 1), 10, "ignored") == r


def test_surjectivity_gap_four_reaches_hom_dim_with_40_samples():
    # 40 samples once stopped at rank 40 against hom_dim 50 on
    # (0,0) -> (2,2); the sampled oracle, drawing until 40 draws in a row
    # add nothing, agrees with the highest-weight check on every pair.
    pairs = containment_pairs(build_quiver(5), 4, min_degree=4)
    assert len(pairs) == 5
    for lam, mu in pairs:
        r = surjectivity_rank(5, lam, mu)
        assert r["status"] == "ok" and r["ok"], r
        assert r["rank"] == r["hom_dim"] == hom_dim(gamma_set(lam, mu), 5) == sampled_report(5, lam, mu, 40, "0")["rank"]


def exact_evaluation_rank(n, lam, mu, samples, seed):
    """Rank over Q of every theta_compose entry at `samples` points."""
    length = len(staircase(lam, mu)) - 1
    words = list(itertools.product(range(1, n + 1), repeat=length))
    rows = []
    for s in range(samples):
        y = sample_point(n, f"{seed}:{s}")
        thetas = [theta_compose(lam, mu, w, y) for w in words]
        rows += [[t[i, j] for t in thetas] for i in range(thetas[0].rows) for j in range(thetas[0].cols)]
    return RatMatrix(rows).rank()


def test_surjectivity_rank_matches_exact_rank_over_40_points():
    for n, max_gap in ((4, 3), (5, 2)):
        for lam, mu in containment_pairs(build_quiver(n), max_gap):
            r = surjectivity_rank(n, lam, mu)
            exact = exact_evaluation_rank(n, lam, mu, 40, "oracle")
            assert exact == r["rank"] == r["hom_dim"], (n, lam, mu)


@pytest.mark.usefixtures("g_band_zeroed")
def test_g_band_mutation_fails_exactly_where_the_evaluation_rank_is_short():
    """With the u * x1 band of g zeroed, a class fails exactly where the
    rank over every word at 40 points stays below hom_dim, although the
    normal paths alone fall short at more classes."""
    fails = normal_short = 0
    for n, max_gap in ((4, 3), (5, 2)):
        for lam, mu in containment_pairs(build_quiver(n), max_gap):
            r = surjectivity_rank(n, lam, mu)
            exact = exact_evaluation_rank(n, lam, mu, 40, "oracle")
            assert (r["status"] == "fail") == (exact < r["hom_dim"]), (n, lam, mu, r, exact)
            fails += r["status"] == "fail"
            normal_short += sampled_report(n, lam, mu, 40, "oracle")["status"] != "ok"
    assert (fails, normal_short) == (18, 24)


@pytest.mark.usefixtures("g_band_zeroed")
def test_surjectivity_falls_back_to_exact_rank(monkeypatch):
    # The one normal path of content (1,1) from (0,0) to (1,1) now
    # composes to zero; the path that takes column 1 first does not.
    calls = []
    routes = fibers._routes

    def spy(lam, mu, alpha, normal=True):
        calls.append((alpha, normal))
        return routes(lam, mu, alpha, normal)

    monkeypatch.setattr(fibers, "_routes", spy)
    r = surjectivity_rank(4, (0, 0), (1, 1))
    assert calls == [((1, 1), True), ((1, 1), False)]
    assert r["status"] == "ok" and r["rank"] == r["hom_dim"] == 6


@pytest.mark.usefixtures("g_band_zeroed")
def test_short_block_is_named_in_the_report(capsys):
    r = surjectivity_rank(4, (1, 0), (2, 1))
    # r = [2, 0] against mult [2, 1]: c_0 = 2 copies of S^(1,1), so no rank
    assert (r["status"], r["ok"], r["rank"], r["hom_dim"]) == ("fail", False, None, 16)
    assert r["short_weights"] == [[[2, 0], 0, 1]]
    code = run(["verify-surjectivity", "--n", "4", "--lam", "1,0", "--mu", "2,1", "--json"])
    out = capsys.readouterr().out
    assert code == 1 and '"rank":null' in out and '"short_weights":[[[2,0],0,1]]' in out


@pytest.mark.usefixtures("g_band_zeroed")
def test_fail_rank_is_null_exactly_where_a_copy_count_leaves_0_1():
    """Under a changed map, c_j = r_j - r_{j+1} can fall outside {0, 1},
    where the rank formula counts no dimension: such a report gives rank
    None, and every other one the formula, at most hom_dim."""
    nulls = 0
    for n in (4, 5, 6):
        for lam, mu in containment_pairs(build_quiver(n), 2 * (n - 2)):
            r = surjectivity_rank(n, lam, mu)
            gammas = gamma_set(lam, mu)
            short = {tuple(gamma): rank for gamma, rank, _ in r.get("short_weights", [])}
            ranks = [short.get(gamma.padded(2), len(gammas) - j) for j, gamma in enumerate(gammas)]
            copies = [rank - above for rank, above in zip(ranks, ranks[1:] + [0])]
            if set(copies) <= {0, 1}:
                assert r["rank"] == sum(c * gl_dimension(g, n) for g, c in zip(gammas, copies)) <= r["hom_dim"], (n, lam, mu, r)
            else:
                assert r["rank"] is None and r["status"] == "fail", (n, lam, mu, r)
                nulls += 1
    assert nulls == 21
    r = surjectivity_rank(5, (1, 0), (3, 1))  # the formula would give 80
    assert (r["status"], r["rank"], r["hom_dim"]) == ("fail", None, 75)


@pytest.mark.usefixtures("fresh_class_cache")
def test_constituents_are_built_once_per_class(monkeypatch):
    calls = []

    def counted(lam, mu):
        calls.append((lam, mu))
        return gamma_set(lam, mu)

    monkeypatch.setattr(tableaux, "gamma_set", counted)
    monkeypatch.setattr(fibers, "gamma_set", counted)
    r = surjectivity_rank(5, (1, 0), (3, 2))
    assert r["ok"] and calls == [(Partition((1,)), Partition((3, 2)))]


def test_refusal_comes_before_untwisting():
    refused = {
        ((2, 2), (3, 1)): "(2, 2) is not strictly contained in (3, 1)",
        ((1, 1), (2, 0)): "(1, 1) is not strictly contained in (2,)",
        ((2, 1), (2, 1)): "(2, 1) is not strictly contained in (2, 1)",
        ((3, 3), (2, 2)): "(3, 3) is not strictly contained in (2, 2)",
    }
    for (lam, mu), message in refused.items():
        with pytest.raises(NotContainedError) as exc:
            surjectivity_rank(6, lam, mu)
        assert str(exc.value) == message


def test_each_twist_class_is_computed_once():
    # The pairs of the surjectivity benchmark workload: 34 pairs, 20 classes.
    pairs = containment_pairs(build_quiver(5), 3) + [((0, 0), (2, 2)), ((1, 1), (3, 3))]
    fibers._twist_class_report.cache_clear()
    reports = [surjectivity_rank(5, lam, mu) for lam, mu in pairs]
    assert len(pairs) == 34 and fibers._twist_class_report.cache_info().misses == 20
    assert [(r["lam"], r["mu"]) for r in reports] == [(list(lam), list(mu)) for lam, mu in pairs]


@pytest.mark.usefixtures("g_band_zeroed")
def test_a_changed_report_leaves_the_next_one_alone():
    expected = {"rank": 0, "hom_dim": 75, "status": "fail", "short_weights": [[[2, 1], 0, 2], [[3, 0], 0, 1]]}
    r = surjectivity_rank(5, (2, 0), (3, 2))
    assert {key: r[key] for key in expected} == expected
    r["rank"] = 1
    r["lam"].append(9)
    r["short_weights"][0][0].append(9)
    r["short_weights"][0][1] = 1
    r["short_weights"].append([[1], 0, 0])
    again = surjectivity_rank(5, (2, 0), (3, 2))
    assert again["lam"] == [2, 0] and {key: again[key] for key in expected} == expected
    twisted = surjectivity_rank(5, (3, 1), (4, 3))
    assert (twisted["lam"], twisted["mu"]) == ([3, 1], [4, 3])
    assert {key: twisted[key] for key in expected} == expected


def test_ok_report_keeps_its_keys():
    r = surjectivity_rank(5, (1, 0), (3, 2))
    assert list(r) == ["lam", "mu", "words", "rank", "hom_dim", "status", "ok"]
    assert r["ok"] and r["words"] == 5**4 and type(r["rank"]) is int


@pytest.mark.usefixtures("fresh_class_cache")
def test_block_rank_depends_only_on_the_pair_and_the_weight(monkeypatch):
    """Neither a block nor its multiplicity reads n: every class up to
    degree 8 gets one status and one list of short weights at n = 8 and
    at n = 12, with the maps as they are and with the g band zeroed."""
    pairs = [(lam, mu) for lam, mu in containment_pairs(build_quiver(8), 8) if lam[1] == 0]
    for mutated in (False, True):
        if mutated:
            zero_g_band(monkeypatch)
            fibers._twist_class_report.cache_clear()
            fibers._shift.cache_clear()
        verdicts = {}
        for n in (8, 12):
            reports = [surjectivity_rank(n, lam, mu) for lam, mu in pairs]
            verdicts[n] = [(r["status"], r.get("short_weights")) for r in reports]
        assert verdicts[8] == verdicts[12]
        assert any(status == "fail" for status, _ in verdicts[8]) == mutated


def test_sampled_oracle_agrees_on_every_class():
    """The sampled all-weight report and the highest-weight check give
    every twist class of the whole quiver the same verdict and rank at
    n = 4..7, and both certify it."""
    for n in range(4, 8):
        for lam, mu in containment_pairs(build_quiver(n), 2 * (n - 2)):
            if lam[1] == 0:
                r = surjectivity_rank(n, lam, mu)
                oracle = sampled_report(n, lam, mu, 40, "oracle")
                assert (oracle["status"], oracle["rank"]) == (r["status"], r["rank"]) == ("ok", r["hom_dim"]), (n, lam, mu)


def test_dominant_weights_sum_to_hom_dim():
    # Checks the weight loop, the orbit sizes and the Kostka numbers together.
    for n in range(4, 9):
        for lam, mu in containment_pairs(build_quiver(n), 6):
            weights = dominant_weights(gamma_set(lam, mu), n)
            assert all(sum(alpha) == sum(mu) - sum(lam) and len(alpha) <= n for alpha, _, _ in weights)
            assert sum(orbit * mult for _, orbit, mult in weights) == hom_dim(gamma_set(lam, mu), n), (n, lam, mu)
    assert dominant_weights(gamma_set((0, 0), (1, 1)), 4) == [((2,), 4, 0), ((1, 1), 6, 1)]


def test_point_json_roundtrip_and_validation():
    y = random_point(4, "json")
    again = GrPoint.from_json(y.to_json())
    assert again == y
    with pytest.raises(ValueError):
        GrPoint.from_json({"n": 5, "matrix": y.to_json()["matrix"]})
