"""Exact matrix arithmetic and formal linear combinations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kq import linalg
from kq.linalg import (
    FormalLinComb,
    InconsistentSystemError,
    ModPrimeEchelon,
    RatMatrix,
    SingularMatrixError,
    rat,
    rat_from_json,
    rat_to_json,
)

small = st.integers(min_value=-9, max_value=9)


def random_matrix_strategy(max_dim=8):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(small, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    ).map(RatMatrix)


def test_rank_examples():
    assert RatMatrix.identity(3).rank() == 3
    assert RatMatrix.zeros(2, 2).rank() == 0
    assert RatMatrix([[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert RatMatrix.identity(2).kernel_basis() == []
    (v,) = RatMatrix([[1, -1]]).kernel_basis()
    assert v.col(0)[0] == v.col(0)[1] != 0
    m = RatMatrix([[1, 2], [2, 4]])
    basis = m.kernel_basis()
    assert len(basis) == 1
    assert (m * basis[0]).is_zero()


def test_invert_examples():
    assert RatMatrix.identity(4).invert() == RatMatrix.identity(4)
    assert RatMatrix([[2, 0], [0, 3]]).invert() == RatMatrix([["1/2", 0], [0, "1/3"]])
    m = RatMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    assert m * m.invert() == RatMatrix.identity(3)
    with pytest.raises(SingularMatrixError):
        RatMatrix([[1, 2], [2, 4]]).invert()


def test_solve_examples():
    b = RatMatrix([[5], [7]])
    assert RatMatrix.identity(2).solve_right(b) == b
    assert RatMatrix([[2]]).solve_right(RatMatrix([[1]])) == RatMatrix([["1/2"]])
    with pytest.raises(InconsistentSystemError):
        RatMatrix([[1], [1]]).solve_right(RatMatrix([[1], [2]]))


def test_solve_is_exact_on_consistent_wide_system():
    a = RatMatrix([[1, 2, 3], [0, 1, 4]])
    b = RatMatrix([[6], [5]])
    x = a.solve_right(b)
    assert a * x == b


@settings(max_examples=60, deadline=None)
@given(random_matrix_strategy())
def test_rank_transpose_invariant(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_rank_of_product_bounded(r, k, c, data):
    a = RatMatrix(data.draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=r, max_size=r)))
    b = RatMatrix(data.draw(st.lists(st.lists(small, min_size=c, max_size=c), min_size=k, max_size=k)))
    assert (a * b).rank() <= min(a.rank(), b.rank())


@settings(max_examples=60, deadline=None)
@given(random_matrix_strategy())
def test_kernel_vectors_annihilate(m):
    basis = m.kernel_basis()
    assert len(basis) == m.cols - m.rank()
    for v in basis:
        assert (m * v).is_zero()


@settings(max_examples=60, deadline=None)
@given(random_matrix_strategy())
def test_rank_mod_prime_matches_exact_rank(m):
    echelon = ModPrimeEchelon()
    for i in range(m.rows):
        echelon.insert([int(x) for x in m.row(i)])
    assert echelon.rank == m.rank()


def test_rank_mod_small_prime_is_a_lower_bound(monkeypatch):
    monkeypatch.setattr(linalg, "PRIME", 2)
    m = RatMatrix([[1, 1, 0], [1, -1, 2], [2, 0, 2]])  # rank 2 over Q, 1 mod 2
    echelon = ModPrimeEchelon()
    assert [echelon.insert([int(x) for x in m.row(i)]) for i in range(3)] == [True, False, False]
    assert echelon.rank == 1 < m.rank() == 2


@settings(max_examples=60, deadline=None)
@given(small.filter(bool), st.integers(min_value=1, max_value=9), small.filter(bool))
def test_rational_canonical_form(p, q, k):
    assert Fraction(p, q) == Fraction(k * p, k * q)
    assert rat_from_json(rat_to_json(Fraction(p, q))) == Fraction(p, q)


def test_rat_coercion():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(5) == Fraction(5)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_matrix_json_roundtrip():
    m = RatMatrix([[1, "1/2"], ["-2/3", 0]])
    assert RatMatrix.from_json(m.to_json()) == m


def test_matrix_immutability_and_hash():
    m = RatMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5
    assert hash(m) == hash(RatMatrix([[1, 2], [3, 4]]))


lincomb_strategy = st.dictionaries(
    st.sampled_from(list("abcdef")), small, max_size=4
).map(FormalLinComb)


@settings(max_examples=60, deadline=None)
@given(lincomb_strategy, lincomb_strategy, lincomb_strategy)
def test_lincomb_associative_commutative(u, v, w):
    assert (u + v) + w == u + (v + w)
    assert u + v == v + u


@settings(max_examples=60, deadline=None)
@given(lincomb_strategy, lincomb_strategy, small, small)
def test_lincomb_distributive(u, v, a, b):
    assert (u + v).scale(a) == u.scale(a) + v.scale(a)
    assert u.scale(a + b) == u.scale(a) + u.scale(b)
    assert u.scale(a).scale(b) == u.scale(a * b)


def test_lincomb_never_stores_zero():
    u = FormalLinComb({"x": 1}) - FormalLinComb({"x": 1})
    assert u.is_zero() and len(u) == 0
    assert FormalLinComb({"y": 0}).is_zero()
