"""Exact matrix arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kq import linalg
from kq.linalg import (
    RatMatrix,
    SingularMatrixError,
    rat,
    rat_to_json,
)

small = st.integers(min_value=-9, max_value=9)
# p/q entries, so that rank() meets rows whose denominators differ
rational = st.builds(Fraction, small, st.integers(min_value=1, max_value=9))


def random_matrix_strategy(max_dim=8, entries=small):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)
        )
    ).map(RatMatrix)


@st.composite
def low_rank_matrix(draw, max_dim=8):
    """A rational r x c matrix of rank at most k < c, some columns zero."""
    r, c = draw(st.integers(1, max_dim)), draw(st.integers(2, max_dim))
    k = draw(st.integers(1, c - 1))
    a = RatMatrix(draw(st.lists(st.lists(rational, min_size=k, max_size=k), min_size=r, max_size=r)))
    b = draw(st.lists(st.lists(rational, min_size=c, max_size=c), min_size=k, max_size=k))
    zero = draw(st.sets(st.integers(0, c - 1)))
    return a * RatMatrix([[0 if j in zero else x for j, x in enumerate(row)] for row in b])


# p/q entries with denominators up to 10**15, and many zeros
big_rational = st.builds(Fraction, st.integers(-(10**15), 10**15), st.integers(1, 10**15))
product_entry = st.one_of(st.just(Fraction(0)), rational, big_rational)


def schoolbook_product(a: RatMatrix, b: RatMatrix) -> list[list[Fraction]]:
    """Reference product: one Fraction multiply-add per term."""
    return [
        [sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


@st.composite
def product_operands(draw, max_dim=6):
    """An m x n and an n x p matrix of p/q entries (1 x k and k x 1
    shapes included), with some rows of the left and columns of the
    right operand all zero."""
    k = st.integers(1, max_dim)
    m, n, p = draw(st.one_of(st.tuples(k, k, k), st.tuples(st.just(1), k, st.just(1)), st.tuples(k, st.just(1), k)))

    def matrix(r, c, zero_rows=(), zero_cols=()):
        rows = draw(st.lists(st.lists(product_entry, min_size=c, max_size=c), min_size=r, max_size=r))
        return RatMatrix(
            [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        )

    a = matrix(m, n, zero_rows=draw(st.sets(st.integers(0, m - 1))))
    b = matrix(n, p, zero_cols=draw(st.sets(st.integers(0, p - 1))))
    return a, b


def fraction_gauss_jordan(m: RatMatrix):
    """Reference inverse: Gauss-Jordan elimination of [m | I] in
    Fractions, pivot the first nonzero entry of its column; None when m
    is singular."""
    n = m.rows
    work = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        sel = next((i for i in range(c, n) if work[i][c]), None)
        if sel is None:
            return None
        work[c], work[sel] = work[sel], work[c]
        inv = 1 / work[c][c]
        pivot = work[c] = [x * inv for x in work[c]]
        for i in range(n):
            f = work[i][c]
            if i != c and f:
                work[i] = [x - f * y for x, y in zip(work[i], pivot)]
    return RatMatrix([row[n:] for row in work])


@st.composite
def square_matrix(draw, max_dim=6):
    """A square matrix of p/q entries whose first rows may be zero in the
    leading column (so rows must swap) and whose last row may be a
    combination of the others (so it is singular)."""
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(product_entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(draw(st.integers(0, n))):
        rows[i][0] = Fraction(0)
    if n > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), rational), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
    return RatMatrix(rows)


def assert_canonical(m: RatMatrix):
    """m is in lowest terms and equals, and hashes like, the matrix built
    from its entrywise Fractions."""
    ref = RatMatrix([[m[i, j] for j in range(m.cols)] for i in range(m.rows)])
    assert m == ref and hash(m) == hash(ref)
    assert m._d > 0 and math.gcd(m._d, *m._n) == 1


def greedy_pivot_columns(m: RatMatrix) -> list[int]:
    """Greedy leftmost column set carrying an invertible square block:
    column j is taken when it raises the rank of the columns taken so far."""
    d = m.rows
    chosen: list[int] = []
    rank = 0
    for j in range(m.cols):
        trial = chosen + [j]
        if m.take_columns(trial).rank() > rank:
            chosen = trial
            rank += 1
            if rank == d:
                return chosen
    return chosen


class ScaleFirstEchelon(linalg.SparseEchelon):
    """Reference: every reduction step scales the whole vector by the
    stored pivot before subtracting, whether or not the pivot divides."""

    def insert(self, vec):
        v = {c: x for c, x in vec.items() if x}
        while v:
            p = min(v)
            row = self.pivot_rows.get(p)
            if row is None:
                v = self._normalized(v)
                if v[p] < 0:
                    v = {c: -x for c, x in v.items()}
                self.pivot_rows[p] = v
                return True
            a, b = v[p], row[p]
            v = {c: b * x for c, x in v.items()}
            for c, x in row.items():
                s = v.get(c, 0) - a * x
                if s:
                    v[c] = s
                else:
                    v.pop(c, None)
        return False


def test_sparse_echelon_divide_first_matches_scale_first():
    rng = random.Random("divide-first")
    for trial in range(40):
        cols = rng.randint(2, 12)
        fast, slow = linalg.SparseEchelon(), ScaleFirstEchelon()
        for _ in range(rng.randint(1, 30)):
            support = rng.sample(range(cols), rng.randint(1, min(cols, 4)))
            # entries from 1, 2, 3, 4, 6, 12 and multiples of 5, so some
            # pivots divide each other and some do not
            vec = {c: rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 6, 12, 5 * rng.randint(1, 9))) for c in support}
            if rng.random() < 0.2:  # a combination of stored rows
                rows = list(slow.pivot_rows.values())
                for row in rng.sample(rows, min(len(rows), 2)):
                    k = rng.randint(-3, 3)
                    for c, x in row.items():
                        vec[c] = vec.get(c, 0) + k * x
            assert fast.insert(vec) == slow.insert(vec), trial
        assert fast.pivot_rows == slow.pivot_rows
        for p, row in fast.pivot_rows.items():
            assert row[p] > 0 and min(row) == p
            assert math.gcd(*row.values()) == 1


def test_rank_examples():
    assert RatMatrix.identity(3).rank() == 3
    assert RatMatrix.zeros(2, 2).rank() == 0
    assert RatMatrix([[1, 2], [2, 4]]).rank() == 1


def test_invert_examples():
    assert RatMatrix.identity(4).invert() == RatMatrix.identity(4)
    assert RatMatrix([[2, 0], [0, 3]]).invert() == RatMatrix([["1/2", 0], [0, "1/3"]])
    m = RatMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    assert m * m.invert() == RatMatrix.identity(3)
    with pytest.raises(SingularMatrixError):
        RatMatrix([[1, 2], [2, 4]]).invert()


@settings(max_examples=200, deadline=None)
@given(square_matrix())
def test_invert_matches_fraction_gauss_jordan(m):
    expect = fraction_gauss_jordan(m)
    assert (expect is None) == (m.rank() < m.rows)
    if expect is None:
        with pytest.raises(SingularMatrixError):
            m.invert()
    else:
        assert m.invert() == expect


@settings(max_examples=100, deadline=None)
@given(product_operands(), st.sets(st.integers(0, 5)), st.one_of(rational, big_rational))
def test_every_route_gives_the_canonical_form(operands, drop, c):
    a, b = operands
    keep = [j for j in range(a.cols) if j not in drop]
    routes = [a, b, a * b]
    routes += [RatMatrix.hstack([a, a * b]), a.take_columns(keep), a + a, a + a.scale(-1)]
    routes += [a.scale(c), a.scale(0), a.scale("-1/2")]
    if a.rows == a.cols and a.rank() == a.rows:
        routes.append(a.invert())
    for m in routes:
        assert_canonical(m)


def test_canonical_form_examples():
    m = RatMatrix([[1, "1/6"], ["1/2", 3]])
    assert m._d == 6
    assert m.take_columns([0])._d == 2  # the only sixth is dropped
    assert_canonical(m.take_columns([0]))
    for zero in (m + m.scale(-1), m.scale(0)):
        assert zero == RatMatrix.zeros(2, 2) and zero._d == 1
    assert m.scale("-1/2") == RatMatrix([["-1/2", "-1/12"], ["-1/4", "-3/2"]])


def test_add_rejects_a_non_matrix():
    with pytest.raises(TypeError):
        RatMatrix.identity(2) + 1


@settings(max_examples=60, deadline=None)
@given(random_matrix_strategy(entries=rational))
def test_rank_transpose_invariant(m):
    transpose = RatMatrix([[m[i, j] for i in range(m.rows)] for j in range(m.cols)])
    assert m.rank() == transpose.rank()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_rank_of_product_bounded(r, k, c, data):
    a = RatMatrix(data.draw(st.lists(st.lists(rational, min_size=k, max_size=k), min_size=r, max_size=r)))
    b = RatMatrix(data.draw(st.lists(st.lists(rational, min_size=c, max_size=c), min_size=k, max_size=k)))
    assert (a * b).rank() <= min(a.rank(), b.rank())


@settings(max_examples=200, deadline=None)
@given(product_operands())
def test_product_matches_schoolbook_fractions(operands):
    a, b = operands
    ab = a * b
    assert ab.shape == (a.rows, b.cols)
    assert ab == RatMatrix(schoolbook_product(a, b))
    assert a * b == ab


def test_stacking_and_column_selection_keep_entries():
    a = RatMatrix([[1, "1/2"], ["-2/3", 0]])
    b = RatMatrix([["5/7"], [3]])
    ab = RatMatrix.hstack([a, b, a])
    assert ab == RatMatrix([[1, "1/2", "5/7", 1, "1/2"], ["-2/3", 0, 3, "-2/3", 0]])
    assert ab.take_columns(range(2, 4)) == RatMatrix([["5/7", 1], [3, "-2/3"]])
    assert ab.take_columns([4, 0]) == RatMatrix([["1/2", 1], [0, "-2/3"]])
    assert ab.take_columns([]).shape == (2, 0)
    for bad in (5, -1):
        with pytest.raises(IndexError):
            ab.take_columns([0, bad])


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_matrix_strategy(entries=rational), low_rank_matrix()))
def test_pivot_columns_are_the_greedy_leftmost_block(m):
    assert m.pivot_columns() == greedy_pivot_columns(m)


@settings(max_examples=60, deadline=None)
@given(small.filter(bool), st.integers(min_value=1, max_value=9), small.filter(bool))
def test_rational_canonical_form(p, q, k):
    assert Fraction(p, q) == Fraction(k * p, k * q)
    assert rat(rat_to_json(Fraction(p, q))) == Fraction(p, q)


def test_rat_coercion():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(5) == Fraction(5)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(ValueError):
        rat("1/0")


def test_matrix_json_roundtrip():
    m = RatMatrix([[1, "1/2"], ["-2/3", 0]])
    assert RatMatrix.from_json(m.to_json()) == m


def test_matrix_immutability_and_hash():
    m = RatMatrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.rows = 5
    assert hash(m) == hash(RatMatrix([[1, 2], [3, 4]]))
