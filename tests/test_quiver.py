"""Quiver structure, relation families, and graded ideal dimensions."""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from kq import fibers, linalg, quiver
from kq.cli import run
from kq.quiver import (
    Arrow,
    BadNError,
    SparseEchelon,
    TiltingQuiver,
    build_quiver,
    containment_pairs,
    enumerate_paths,
    family_coefficients,
    kernel_report,
    normal_count,
    p2_pairs,
    path_count,
    relation_rows,
    relation_set_for,
    relation_sets,
)
from kq.tableaux import NotContainedError, Partition, gamma_set, hom_dim


def test_quiver_counts_n4():
    q = build_quiver(4)
    assert len(q.vertices) == 6
    assert [q.vertex_dim(v) for v in q.vertices] == [1, 2, 3, 1, 2, 1]
    assert len(q.arrows) == 24
    bundles = {(a.tail, a.head) for a in q.arrows}
    assert bundles == {
        ((0, 0), (1, 0)),
        ((1, 0), (2, 0)),
        ((1, 0), (1, 1)),
        ((1, 1), (2, 1)),
        ((2, 0), (2, 1)),
        ((2, 1), (2, 2)),
    }


def test_quiver_counts_n5():
    q = build_quiver(5)
    assert len(q.vertices) == 10
    # n arrows for every adjacent pair of staircase weights: 12 pairs here
    assert len(q.arrows) == 12 * 5


def test_quiver_vertex_count_formula():
    for n in range(4, 9):
        assert len(build_quiver(n).vertices) == (n - 1) * n // 2


def test_bad_n():
    with pytest.raises(BadNError):
        TiltingQuiver(3)


def test_restriction_to_smaller_quiver():
    for n in (5, 6):
        big = build_quiver(n)
        small = build_quiver(n - 1)
        kept = [
            a
            for a in big.arrows
            if a.rho <= n - 1
            and max(a.tail[0], a.head[0]) <= n - 3
        ]
        assert sorted(kept) == sorted(small.arrows)


def test_path_composition_rules():
    with pytest.raises(ValueError):
        Arrow((1, 0), (2, 1), 1, 1)


def test_enumerate_paths_counts():
    q = build_quiver(4)
    assert len(enumerate_paths(q, (0, 0), (1, 1))) == 16
    assert len(enumerate_paths(q, (1, 0), (2, 1))) == 32
    assert enumerate_paths(q, (1, 1), (1, 1)) == [()]
    assert enumerate_paths(q, (1, 1), (1, 0)) == []


def test_verify_kernel_answers_a_pair_of_ten_to_the_sixteen_paths():
    """A certified pair enumerates no path, so one with 9.8e15 paths is
    answered, cold, from the counts."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "kq.cli", "verify-kernel", "--n", "9", "--lam", "0,0", "--mu", "7,7", "--json"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert results["paths"] == 9814143963178269
    assert results["quotient_dim"] == results["hom_dim"] == 2760615 and results["ok"]


def test_refusals_cache_nothing():
    """A pair that is not strictly contained is refused before any count,
    row or premise is cached, untwisted keys with a negative part
    included ((2, 2) -> (3, 1) would be ((0, 0), (1, -1)))."""
    q = TiltingQuiver(6)  # fresh instance, avoids the shared cache
    refusals = {
        ((2, 2), (3, 1)): "(2, 2) is not strictly contained in (3, 1)",
        ((3, 0), (2, 0)): "(3,) is not strictly contained in (2,)",
        ((1, 1), (1, 1)): "(1, 1) is not strictly contained in (1, 1)",
    }
    for (lam, mu), message in refusals.items():
        with pytest.raises(NotContainedError) as exc:
            kernel_report(q, lam, mu)
        assert str(exc.value) == message
    assert q._letter_rows == q._normal_counts == q._premise_failures == {}
    assert q._relations is None


def test_a_non_vertex_is_refused_whatever_is_cached():
    """(5, 2) is no vertex at n=6, but the untwisted key of (4, 1) -> (5, 2)
    is the pair (3, 0) -> (4, 1): the endpoints are checked before a
    cache is read, so the refusal stays once that class is cached."""
    q = TiltingQuiver(6)  # fresh instance, avoids the shared cache
    for _ in range(2):
        with pytest.raises(ValueError, match="endpoints must be quiver vertices"):
            kernel_report(q, (4, 1), (5, 2))
        kernel_report(q, (3, 0), (4, 1))
    assert ((3, 0), (4, 1)) in q._premise_failures


def test_p2_families_n5():
    q = build_quiver(5)
    fams = {(lam, mu): fam for lam, mu, fam in p2_pairs(q)}
    assert fams[((0, 0), (2, 0))] == "ff"
    assert fams[((2, 0), (2, 2))] == "gg"
    assert fams[((0, 0), (1, 1))] == "diag"
    assert fams[((1, 0), (2, 1))] == "square"
    assert len(fams) == 12


def test_relation_counts_and_coefficients():
    q = build_quiver(5)
    assert len(relation_set_for(q, (0, 0), (2, 0))) == 10
    assert len(relation_set_for(q, (2, 0), (2, 2))) == 10
    assert len(relation_set_for(q, (0, 0), (1, 1))) == 15
    assert len(relation_set_for(q, (1, 0), (2, 1))) == 25
    assert family_coefficients("square", (1, 0)) == (1, -2, 1)
    assert family_coefficients("square", (2, 0)) == (2, -3, 1)
    assert family_coefficients("square", (2, 1)) == (1, -2, 1)


def test_diagonal_relation_terms_n4():
    q = build_quiver(4)
    rels = relation_set_for(q, (0, 0), (1, 1))
    by_idx = {r.indices: r for r in rels}
    r = by_idx[(1, 2)]
    f1 = q.arrow((0, 0), 1, 1)
    f2 = q.arrow((0, 0), 1, 2)
    g1 = q.arrow((1, 0), 2, 1)
    g2 = q.arrow((1, 0), 2, 2)
    assert r.terms == {(f1, g2): 1, (f2, g1): 1}
    rii = by_idx[(3, 3)]
    f3 = q.arrow((0, 0), 1, 3)
    g3 = q.arrow((1, 0), 2, 3)
    assert rii.terms == {(f3, g3): 2}


def test_square_relation_terms():
    q = build_quiver(5)
    rels = {r.indices: r for r in relation_set_for(q, (2, 0), (3, 1))}
    r = rels[(1, 2)]
    gf = (q.arrow((2, 0), 1, 1), q.arrow((3, 0), 2, 2))
    fg_swapped = (q.arrow((2, 0), 2, 2), q.arrow((2, 1), 1, 1))
    fg = (q.arrow((2, 0), 2, 1), q.arrow((2, 1), 1, 2))
    assert r.terms == {gf: 2, fg_swapped: -3, fg: 1}


def test_relation_sets_construct_no_arrow(monkeypatch):
    """The relations are built on the quiver's own arrows: a fresh quiver's
    relation_sets makes no Arrow, every path arrow is one of q.arrows, and
    each element has one path per integer term."""
    q = TiltingQuiver(6)
    made = []
    monkeypatch.setattr(Arrow, "__post_init__", lambda self: made.append(self))
    rels = relation_sets(q)
    assert len(rels) == 480 and made == []
    own = set(map(id, q.arrows))
    assert all(id(a) in own for rel in rels for p in rel.terms for a in p)
    assert all(len(rel.terms) == len(rel.arrow_terms) for rel in rels)


def test_arrow_lookup_returns_the_quivers_arrow():
    q = build_quiver(5)
    for a in q.arrows:
        assert q.arrow(list(a.tail), a.direction, a.rho) is a
    for tail, direction, rho in [((0, 0), 2, 1), ((0, 0), 1, 0), ((0, 0), 1, 6), ((3, 3), 1, 1), ((4, 0), 1, 1)]:
        with pytest.raises(ValueError, match="no arrow"):
            q.arrow(tail, direction, rho)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_relation_rows_are_the_relation_elements(n):
    """Each row of the integer table, mapped through q.arrows, is the
    matching relation_set_for element: same indices, and the same terms
    in the same order with the same coefficients."""
    q = build_quiver(n)
    for lam, mu, family in p2_pairs(q):
        rows = relation_rows(q, lam, family)
        rels = relation_set_for(q, lam, mu)
        assert len(rows) == len(rels) > 0
        for (indices, terms), rel in zip(rows, rels):
            assert (rel.tail, rel.head, rel.family, rel.indices) == (lam, mu, family, indices)
            expect = [(c, (q.arrows[a], q.arrows[b])) for c, a, b in terms]
            assert expect == [(c, p) for p, c in rel.terms.items()]
            assert all(type(c) is int and c for c, _, _ in terms)


def test_graded_ideal_dims_n4():
    q, reference = build_quiver(4), {}
    for lam, mu, dim in (((0, 0), (1, 1), 10), ((0, 0), (2, 0), 6)):
        assert _path_keyed_slice(q, lam, mu, reference)[0].rank == dim == kernel_report(q, lam, mu)["ideal_dim"]
    for lam, mu in containment_pairs(q, 1):
        assert _path_keyed_slice(q, lam, mu, reference)[0].rank == 0 == kernel_report(q, lam, mu)["ideal_dim"]


def test_quotient_dims():
    q4 = build_quiver(4)
    assert kernel_report(q4, (0, 0), (1, 1))["quotient_dim"] == 6
    assert kernel_report(q4, (0, 0), (2, 0))["quotient_dim"] == 10
    q5 = build_quiver(5)
    assert path_count(q5, (1, 0), (2, 1)) == 50
    assert kernel_report(q5, (1, 0), (2, 1))["quotient_dim"] == 25


def test_kernel_matches_hom_dims_n4_all_degrees():
    q = build_quiver(4)
    for lam, mu in containment_pairs(q, 4):
        r = kernel_report(q, lam, mu)
        assert r["ok"], r


def _direct_ideal_dim(q, lam, mu):
    """Oracle: span of all products path * relation * path, enumerated
    outright rather than grown degree by degree."""
    paths = enumerate_paths(q, lam, mu)
    index = {p: i for i, p in enumerate(paths)}
    ech = SparseEchelon()
    for alpha, beta, _fam in p2_pairs(q):
        if not (
            lam[0] <= alpha[0]
            and lam[1] <= alpha[1]
            and beta[0] <= mu[0]
            and beta[1] <= mu[1]
        ):
            continue
        lefts = enumerate_paths(q, beta, mu)
        rights = enumerate_paths(q, lam, alpha)
        for rel in relation_set_for(q, alpha, beta):
            for s in rights:
                for p in lefts:
                    vec = {}
                    for mid, c in rel.terms.items():
                        full = s + mid + p
                        i = index[full]
                        vec[i] = vec.get(i, 0) + int(c)
                    ech.insert(vec)
    return ech.rank


def _letter_column(q, path):
    """A path's column: the base-2n number of its arrow letters
    2(rho - 1) + direction - 1, the tail arrow most significant."""
    col = 0
    for a in path:
        col = col * 2 * q.n + 2 * (a.rho - 1) + a.direction - 1
    return col


def _route_first_column(q, path):
    """The route-first column order, route_index * n**L + word: the
    directions as a binary number, then the base-n number of the column
    indices minus one, both with the tail arrow most significant."""
    route = word = 0
    for a in path:
        route = route * 2 + a.direction - 1
        word = word * q.n + a.rho - 1
    return route * q.n ** len(path) + word


def _basis(ech):
    """An echelon's rows in pivot order."""
    return [ech.pivot_rows[p] for p in sorted(ech.pivot_rows)]


def _path_keyed_slice(q, lam, mu, cache, column=_letter_column):
    """Reference: the ideal slice grown degree by degree over arrow
    tuples, each extended path keyed by column(q, path).  Returns the
    echelon and a dict from column to path."""
    if (lam, mu) in cache:
        return cache[(lam, mu)]
    paths = {column(q, p): p for p in enumerate_paths(q, lam, mu)}
    ech = SparseEchelon()
    length = (mu[0] - lam[0]) + (mu[1] - lam[1])
    if length == 2:
        for rel in relation_set_for(q, lam, mu):
            ech.insert({column(q, p): int(c) for p, c in rel.terms.items()})
    elif length > 2:
        for a in q.arrows_into(mu):
            if lam[0] <= a.tail[0] and lam[1] <= a.tail[1]:
                sub_ech, sub_paths = _path_keyed_slice(q, lam, a.tail, cache, column)
                for row in _basis(sub_ech):
                    ech.insert({column(q, sub_paths[c] + (a,)): x for c, x in row.items()})
        for a in q.arrows_from(lam):
            if a.head[0] <= mu[0] and a.head[1] <= mu[1]:
                sub_ech, sub_paths = _path_keyed_slice(q, a.head, mu, cache, column)
                for row in _basis(sub_ech):
                    ech.insert({column(q, (a,) + sub_paths[c]): x for c, x in row.items()})
    cache[(lam, mu)] = (ech, paths)
    return ech, paths


def _lead_terms(q, lam, mu, cache, column=_letter_column):
    """The pivots of the reference slice: each basis row's smallest column."""
    return set(_path_keyed_slice(q, lam, mu, cache, column)[0].pivot_rows)


def test_twisted_pairs_share_one_slice():
    """Each twist class (lam + (t, t), mu + (t, t)) is cached once, at its
    pair with lam2 = 0: the 74 pairs of n=6 up to degree 4 are in 37
    classes, and one set of degree-two rows serves a whole class."""
    q = TiltingQuiver(6)  # fresh instance, avoids the shared cache
    for lam, mu in containment_pairs(q, 4):
        kernel_report(q, lam, mu)
        for cache in (q._letter_rows, q._normal_counts, q._premise_failures):
            assert all(key[0][1] == 0 for key in cache), (lam, mu)
    classes = {quiver._untwist(lam, mu) for lam, mu in containment_pairs(q, 4)}
    assert len(classes) == 37 and classes <= set(q._premise_failures) and classes == set(q._normal_counts)
    assert set(q._letter_rows) == {pair for pair in classes if sum(pair[1]) - sum(pair[0]) == 2}
    assert quiver._letter_rows(q, (1, 1), (2, 2)) is quiver._letter_rows(q, (0, 0), (1, 1))


def test_lazy_ideal_matches_direct_enumeration_at_degree_three():
    for n in (4, 5):
        q, reference = build_quiver(n), {}
        for lam, mu in containment_pairs(q, 3, min_degree=3):
            expect = _direct_ideal_dim(q, lam, mu)
            assert _path_keyed_slice(q, lam, mu, reference)[0].rank == expect == kernel_report(q, lam, mu)["ideal_dim"]


def test_staircase_normal_paths_span_the_quotient():
    """Any wedge-then-append pair rewrites into append-then-wedge mod the
    ideal: unit vectors on horizontal-first paths plus the ideal fill the
    whole path space."""
    for n, pairs in ((4, [((0, 0), (2, 1)), ((1, 0), (2, 2)), ((0, 0), (2, 2))]),
                     (5, [((1, 0), (3, 1)), ((0, 0), (2, 2))])):
        q = build_quiver(n)
        for lam, mu in pairs:
            ech, paths = _path_keyed_slice(q, lam, mu, {})
            added = 0
            for p in paths.values():
                directions = [a.direction for a in p]
                if directions == sorted(directions):  # horizontal steps first
                    if ech.insert({_letter_column(q, p): 1}):
                        added += 1
            assert ech.rank == len(paths)
            assert added == kernel_report(q, lam, mu)["quotient_dim"]


def test_relation_sets_cover_all_p2_pairs():
    q = build_quiver(4)
    rels = relation_sets(q)
    pair_count = {}
    for r in rels:
        pair_count[(r.tail, r.head)] = pair_count.get((r.tail, r.head), 0) + 1
    assert set(pair_count) == {(lam, mu) for lam, mu, _ in p2_pairs(q)}


def test_relation_sets_are_built_once_and_returned_fresh():
    q = build_quiver(5)
    first = relation_sets(q)
    first.clear()
    again = relation_sets(q)
    assert again and again == relation_sets(q) and again is not relation_sets(q)
    assert all(a is b for a, b in zip(again, relation_sets(q)))
    built = [rel for lam, mu, _ in p2_pairs(q) for rel in relation_set_for(q, lam, mu)]
    assert [r.to_json() for r in again] == [r.to_json() for r in built]


def test_sparse_echelon_keeps_its_quiver_name():
    # kqbench/tracing.py wraps the class under its quiver name, so
    # `kqbench/run.py --trace 1` breaks if that name stops being bound.
    assert quiver.SparseEchelon is linalg.SparseEchelon


def test_sparse_echelon_is_exact():
    ech = SparseEchelon()
    assert ech.insert({0: 2, 1: 4})
    assert not ech.insert({0: 1, 1: 2})
    assert ech.insert({1: 1})
    assert not ech.insert({0: 3, 1: 5})
    assert ech.rank == 2


def _walk_count(q, lam, mu):
    """Oracle: monotone vertex walks lam -> mu, by a transfer count."""
    ways = {lam: 1}
    for v in sorted(q.vertices, key=lambda v: v[0] + v[1]):
        for w in ((v[0] + 1, v[1]), (v[0], v[1] + 1)):
            if v in ways and q.has_vertex(w):
                ways[w] = ways.get(w, 0) + ways[v]
    return ways.get(mu, 0)


def test_path_count_is_the_walk_count_times_n_to_the_length():
    for n in range(4, 10):
        q = build_quiver(n)
        for lam in q.vertices:
            for mu in q.vertices:
                length = max(0, (mu[0] - lam[0]) + (mu[1] - lam[1]))
                assert path_count(q, lam, mu) == _walk_count(q, lam, mu) * n**length, (n, lam, mu)


def test_path_count_matches_enumerate_paths_in_column_order():
    """Every vertex pair for n = 4, 5, and n = 6 up to degree 4 (its
    degree-8 pair alone has 14 * 6**8 paths): the count, the endpoints,
    strictly increasing letter columns, and consecutive arrows that
    compose.  Pairs that are not contained have no paths, and lam = mu
    has the empty path."""
    for n, max_degree in ((4, 4), (5, 6), (6, 4)):
        q = build_quiver(n)
        for lam in q.vertices:
            for mu in q.vertices:
                if (mu[0] - lam[0]) + (mu[1] - lam[1]) > max_degree:
                    continue
                paths = enumerate_paths(q, lam, mu)
                assert len(paths) == path_count(q, lam, mu), (n, lam, mu)
                assert all(p[0].tail == lam and p[-1].head == mu for p in paths if p)
                assert all(a.head == b.tail for p in paths for a, b in zip(p, p[1:])), (n, lam, mu)
                cols = [_letter_column(q, p) for p in paths]
                assert all(a < b for a, b in zip(cols, cols[1:])), (n, lam, mu)
        assert enumerate_paths(q, (1, 1), (1, 1)) == [()]
        assert enumerate_paths(q, (2, 0), (1, 1)) == [] == enumerate_paths(q, (1, 1), (2, 0))
        for lam, mu in (((0, 1), (1, 1)), ((0, 0), (n, 0)), ((0, 0), (-1, 0))):
            with pytest.raises(ValueError):
                path_count(q, lam, mu)
            with pytest.raises(ValueError):
                enumerate_paths(q, lam, mu)


def _normal(a, b):
    """The closed-form rule for 2-paths: rho weakly decreases, strictly
    at a horizontal -> vertical turn."""
    return b.rho < a.rho or (b.rho == a.rho and (a.direction, b.direction) != (1, 2))


def test_degree_two_leads_are_one_per_relation():
    q = build_quiver(7)
    total = 0
    for lam, mu, _ in p2_pairs(q):
        rank = _path_keyed_slice(q, lam, mu, {})[0].rank
        assert rank == len(relation_set_for(q, lam, mu))
        total += rank
    assert total == len(relation_sets(q)) == 1050


def test_degree_two_leads_are_the_paths_the_rule_calls_not_normal():
    for n in (4, 5, 6):
        q = build_quiver(n)
        for lam, mu, _ in p2_pairs(q):
            expect = {_letter_column(q, p) for p in enumerate_paths(q, lam, mu) if not _normal(*p)}
            assert _lead_terms(q, lam, mu, {}) == expect, (n, lam, mu)


def _degree_three_failures(q, leads, column):
    """Per degree-3 pair, the leading terms that contain no degree-2
    leading term, and the paths that contain one but lead nothing; a pair
    is left out when both are empty (degree 3 is PBW there)."""
    out = {}
    for lam, mu in containment_pairs(q, 3, min_degree=3):
        generated = set()
        for p in enumerate_paths(q, lam, mu):
            a, b, c = p
            if column(q, (a, b)) in leads(lam, b.head) or column(q, (b, c)) in leads(a.head, mu):
                generated.add(column(q, p))
        unresolved, missing = leads(lam, mu) - generated, generated - leads(lam, mu)
        if unresolved or missing:
            out[(lam, mu)] = (len(unresolved), len(missing))
    return out


def test_degree_three_leads_are_generated_in_degree_two():
    """The PBW criterion in degree 3 for the letter order."""
    for n in (4, 5, 6):
        q, cache = build_quiver(n), {}
        assert _degree_three_failures(q, lambda lam, mu: _lead_terms(q, lam, mu, cache), _letter_column) == {}


def test_route_first_order_fails_the_degree_three_check():
    """Mutation check: with the route-first columns the degree-3 check
    must fail, so the check can see a wrong order."""
    q, cache = build_quiver(4), {}
    failures = _degree_three_failures(q, lambda lam, mu: _lead_terms(q, lam, mu, cache, _route_first_column), _route_first_column)
    assert failures == {((0, 0), (2, 1)): (4, 0), ((1, 0), (2, 2)): (4, 0)}


def test_certified_ideal_dims_match_elimination(monkeypatch):
    """kernel_report's ideal_dim against the reference slice at the pair
    on every pair; every pair is certified, and the reports eliminate
    only in the premises, whose pairs have degree two or three."""
    degrees, echelons, original = [], [], quiver._pbw_premise

    class Counted(SparseEchelon):
        def __init__(self):
            super().__init__()
            echelons.append(self)

    def premise(q, lam, mu):
        degrees.append(sum(mu) - sum(lam))
        return original(q, lam, mu)

    monkeypatch.setattr(quiver, "SparseEchelon", Counted)
    monkeypatch.setattr(quiver, "_pbw_premise", premise)
    for n, max_degree in ((4, 6), (5, 6), (6, 4)):
        q, reference = TiltingQuiver(n), {}  # fresh instance, avoids the shared cache
        pairs = containment_pairs(q, max_degree)
        reports = [kernel_report(q, lam, mu) for lam, mu in pairs]
        assert all(quiver._premise_failure(q, lam, mu) is None for lam, mu in pairs)
        for (lam, mu), r in zip(pairs, reports):
            assert r["ideal_dim"] == _path_keyed_slice(q, lam, mu, reference)[0].rank, (n, lam, mu)
    assert set(degrees) == {2, 3} and len(echelons) == len(degrees)


def test_normal_count_is_hom_dim():
    for n in range(4, 9):
        q = build_quiver(n)
        for lam, mu in containment_pairs(q, 2 * (n - 2)):
            assert normal_count(q, lam, mu) == hom_dim(gamma_set(lam, mu), n), (n, lam, mu)
        assert normal_count(q, (1, 1), (1, 1)) == 1
        assert normal_count(q, (2, 0), (1, 1)) == 0 == normal_count(q, (1, 1), (2, 0))
        with pytest.raises(ValueError, match="endpoints must be quiver vertices"):
            normal_count(q, (0, 0), (0, 1))


def _compositions(total, parts):
    """Every tuple of parts non-negative integers summing to total."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        ends = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def _leaves(node):
    """The paths of a fibers._routes tree: None ends one."""
    return 1 if node is None else sum(_leaves(child) for *_, child in node)


def test_normal_count_is_the_leaves_of_the_normal_routes():
    """The transfer count and the route trees of fibers read one rule:
    summed over every content, the trees of a pair hold normal_count
    paths, and path_count paths with the rule off (checked below n = 6,
    where no pair has more than 78,125 paths to count one by one)."""
    for n in (4, 5, 6):
        q = build_quiver(n)
        for lam, mu in itertools.product(q.vertices, repeat=2):
            if lam[0] <= mu[0] and lam[1] <= mu[1]:
                length = (mu[0] - lam[0]) + (mu[1] - lam[1])
                for normal in (True, False) if n < 6 else (True,):
                    count = normal_count if normal else path_count
                    trees = (fibers._routes(Partition(lam), Partition(mu), alpha, normal) for alpha in _compositions(length, n))
                    assert sum(map(_leaves, trees)) == count(q, lam, mu), (n, lam, mu, normal)


def test_a_broken_relation_is_inconclusive(monkeypatch, capsys):
    """Mutation check: with the square coefficients (d, -(d + 2), 2) the
    premise fails at six degree-3 pairs of n=5.  Up to degree 5, 13
    reports are inconclusive, each naming a pair inside it whose premise
    fails, in the coordinates of the pair asked for; the others are
    certified with the reference ideal dimension; verify-kernel exits 1."""
    original = quiver.family_coefficients

    def broken(family, lam):
        if family == "square":
            d = lam[0] - lam[1]
            return (d, -(d + 2), 2)
        return original(family, lam)

    monkeypatch.setattr(quiver, "family_coefficients", broken)
    q = TiltingQuiver(5)  # fresh instances: the slices of the broken table
    assert all(quiver._pbw_premise(q, *pair) for pair in containment_pairs(q, 2, min_degree=2))
    assert len([pair for pair in containment_pairs(q, 3, min_degree=3) if not quiver._pbw_premise(q, *pair)]) == 6
    q, reference = TiltingQuiver(5), {}
    pairs = containment_pairs(q, 5)
    reports = dict(zip(pairs, (kernel_report(q, lam, mu) for lam, mu in pairs)))
    named = {pair: r["premise_failed"] for pair, r in reports.items() if "status" in r}
    assert len(named) == 13
    for (lam, mu), r in reports.items():
        if (lam, mu) in named:
            low, high = tuple(named[lam, mu]["lam"]), tuple(named[lam, mu]["mu"])
            assert r["status"] == "inconclusive" and not r["ok"] and "ideal_dim" not in r
            assert lam[0] <= low[0] and lam[1] <= low[1] and high[0] <= mu[0] and high[1] <= mu[1]
            assert not quiver._pbw_premise(q, low, high), (lam, mu)
        else:
            assert r["ideal_dim"] == _path_keyed_slice(q, lam, mu, reference)[0].rank, (lam, mu)
    # (1, 1) -> (3, 3) is the class of (0, 0) -> (2, 2), which fails at (0, 0) -> (2, 1)
    assert named[(1, 1), (3, 3)] == {"lam": [1, 1], "mu": [3, 2]}
    monkeypatch.setattr(quiver, "build_quiver", TiltingQuiver)  # not the cached quiver of the real table
    assert run(["verify-kernel", "--n", "5", "--max-degree", "5", "--json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r for r in results["pairs"] if "status" in r] == [r for r in reports.values() if "status" in r]


def test_the_degree_two_premise_sees_a_changed_leading_term(monkeypatch):
    """Mutation check: with 'ff' coefficients (1, 1) the relation at i == j
    is 2 f_i f_i, whose leading 2-path is normal, so the premise fails at
    exactly the 'ff' pairs of degree two."""
    original = quiver.family_coefficients
    monkeypatch.setattr(quiver, "family_coefficients", lambda f, lam: (1, 1) if f == "ff" else original(f, lam))
    q = TiltingQuiver(5)  # fresh instance: the slices of the broken table
    failing = [pair for pair in containment_pairs(q, 2, min_degree=2) if not quiver._pbw_premise(q, *pair)]
    assert failing == [(lam, mu) for lam, mu, family in p2_pairs(q) if family == "ff"]


# Changed relation tables: per name, the RELATION_TERMS entries and the
# family_coefficients values (by family, as functions of d = lam1 - lam2)
# that replace the real ones.
CHANGED_TABLES = {
    "real": ({}, {}),
    "ff unswapped": ({"ff": ((1, 1, False), (1, 1, False))}, {}),
    "gg unswapped": ({"gg": ((2, 2, False), (2, 2, False))}, {}),
    "square (d, -(d + 2), 2)": ({}, {"square": lambda d: (d, -(d + 2), 2)}),
    "diag (1, -1)": ({}, {"diag": lambda d: (1, -1)}),
    "ff (1, 1)": ({}, {"ff": lambda d: (1, 1)}),
}


def _use_table(monkeypatch, name):
    terms, coefficients = CHANGED_TABLES[name]
    for family, entry in terms.items():
        monkeypatch.setitem(quiver.RELATION_TERMS, family, entry)
    original = quiver.family_coefficients

    def changed(family, lam):
        return coefficients[family](lam[0] - lam[1]) if family in coefficients else original(family, lam)

    monkeypatch.setattr(quiver, "family_coefficients", changed)


def _not_normal(path):
    """Some letter of the path is above the one before it."""
    return any(a.letter < b.letter for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("table", CHANGED_TABLES)
def test_three_columns_decide_the_premise_of_every_n(monkeypatch, table):
    """The premise on columns 1-3 equals the leading-term premise over all
    n columns (the reference slice over radix-2n letter columns) at every
    pair of degree two and three of n = 4..6, under the real table and
    changed ones."""
    _use_table(monkeypatch, table)
    for n in (4, 5, 6):
        q, reference = TiltingQuiver(n), {}  # fresh instance: the slices of this table
        for lam, mu in containment_pairs(q, 3, min_degree=2):
            leads = {_letter_column(q, p) for p in enumerate_paths(q, lam, mu) if _not_normal(p)}
            expect = _lead_terms(q, lam, mu, reference) == leads
            assert quiver._pbw_premise(q, lam, mu) == expect, (table, n, lam, mu)


@pytest.mark.parametrize("table", CHANGED_TABLES)
def test_the_premise_is_the_count_where_degree_two_holds(monkeypatch, table):
    """At a degree-three pair whose degree-two premises inside all hold,
    the premise is the count criterion over all n columns: the slice has
    dimension path_count - normal_count."""
    _use_table(monkeypatch, table)
    checked = refuted = 0
    for n in (4, 5, 6):
        q, reference = TiltingQuiver(n), {}
        for lam, mu in containment_pairs(q, 3, min_degree=3):
            inside = [(low, high) for low, high in containment_pairs(q, 2, min_degree=2)
                      if lam[0] <= low[0] and lam[1] <= low[1] and high[0] <= mu[0] and high[1] <= mu[1]]
            if all(quiver._pbw_premise(q, *pair) for pair in inside):
                count = _path_keyed_slice(q, lam, mu, reference)[0].rank == path_count(q, lam, mu) - normal_count(q, lam, mu)
                assert quiver._pbw_premise(q, lam, mu) == count, (table, n, lam, mu)
                checked, refuted = checked + 1, refuted + (not count)
    assert checked and (refuted > 0) == (table == "square (d, -(d + 2), 2)"), (checked, refuted)


def test_a_degree_three_pair_names_itself_before_a_degree_two_pair_inside(monkeypatch):
    """With diag coefficients (1, -1) the relation at i == j vanishes, so
    the premise fails at every diag pair, (1, 1) -> (2, 2) among them.
    The pair (1, 0) -> (2, 2) comes before it in containment_pairs order
    and its own premise fails too, so it names itself, for every n."""
    _use_table(monkeypatch, "diag (1, -1)")
    for n in (4, 5, 6):
        q = TiltingQuiver(n)
        assert not quiver._pbw_premise(q, (1, 1), (2, 2)) and not quiver._pbw_premise(q, (1, 0), (2, 2))
        report = kernel_report(q, (1, 0), (2, 2))
        assert report["status"] == "inconclusive" and report["premise_failed"] == {"lam": [1, 0], "mu": [2, 2]}, n
