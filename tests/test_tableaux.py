"""Partition and tableau combinatorics against enumeration oracles."""

import itertools
from collections import Counter

import pytest

from kq.quiver import build_quiver, containment_pairs
from kq.tableaux import (
    NotContainedError,
    Partition,
    SkewShape,
    enumerate_ssyt,
    gamma_set,
    gl_dimension,
    hom_dim,
    lr_number,
)


def skew_decomposition(shape):
    """Constituents (gamma, multiplicity) of the skew shape, by counting
    its lattice fillings of every content.  Entries never exceed the row
    index of their box, so gamma has at most as many rows as the shape."""
    gammas = _partitions_up_to(shape.size, shape.num_rows, shape.size)
    counts = [(Partition(g), lr_number(shape.inner, g, shape.outer)) for g in gammas]
    return sorted(((g, m) for g, m in counts if m), key=lambda pair: pair[0].parts)


def kostka(gam, alpha):
    """The Kostka number K_{gam, alpha} for a two-row gam: semistandard
    tableaux of shape gam with alpha[i] entries equal to i + 1.  The
    oracle for the weight multiplicities of the map spaces, here and in
    `dominant_weights` of tests/test_fibers.py.

    Letters are placed in increasing order, each as a horizontal strip:
    x copies end the second row and the rest end the first, and the new
    second row may not pass the old first row.
    """
    gam = Partition.coerce(gam)
    if gam.num_rows > 2:
        raise ValueError("two-row partitions only")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative entry in the content {tuple(alpha)}")
    g1, g2 = gam.padded(2)
    ways = {0: 1}  # first-row length -> tableaux; the second row holds the rest
    placed = 0
    for a in alpha:
        grown: dict[int, int] = {}
        for r1, count in ways.items():
            r2 = placed - r1
            for x in range(min(a, r1 - r2) + 1):
                if r1 + a - x <= g1 and r2 + x <= g2:
                    grown[r1 + a - x] = grown.get(r1 + a - x, 0) + count
        ways = grown
        placed += a
    return ways.get(g1, 0) if placed == g1 + g2 else 0


def pieri_row(lam, m, max_rows):
    """Partitions with at most max_rows rows obtained by adding m boxes to
    lam, no two in the same column: row r grows to at most the old row r - 1."""
    base = Partition.coerce(lam).padded(max_rows)
    gains = [gain for gain in itertools.product(range(m + 1), repeat=max_rows) if sum(gain) == m]
    grown = [tuple(map(sum, zip(base, gain))) for gain in gains]
    return [Partition(new) for new in grown if all(new[r] <= base[r - 1] for r in range(1, max_rows))]


def pieri_col(lam, m, max_rows):
    """Analogue of pieri_row with no two new boxes in the same row."""
    base = Partition.coerce(lam).padded(max_rows)
    gains = [gain for gain in itertools.product((0, 1), repeat=max_rows) if sum(gain) == m]
    grown = [tuple(map(sum, zip(base, gain))) for gain in gains]
    return [Partition(new) for new in grown if all(new[r] <= new[r - 1] for r in range(1, max_rows))]


def two_row_partitions(max_size, max_part=None):
    out = []
    for a in range(max_size + 1):
        for b in range(min(a, max_size - a) + 1):
            p = Partition((a, b))
            if max_part is None or a <= max_part:
                out.append(p)
    return [p for p in out if p.size <= max_size]


def test_partition_normalization_and_equality():
    assert Partition((2, 1)) == Partition((2, 1, 0, 0))
    assert Partition((2, 1)).parts == (2, 1)
    assert Partition().size == 0
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_contains_examples():
    assert Partition((2, 1)).contains((1, 0))
    assert not Partition((2, 1)).contains((2, 2))
    assert Partition((0, 0)).contains((0, 0))


def test_enumerate_ssyt_small_shapes():
    assert len(enumerate_ssyt(SkewShape((0,), (1,)), 3)) == 3
    assert len(enumerate_ssyt(SkewShape((0, 0), (1, 1)), 2)) == 1


def test_enumerate_ssyt_count_matches_decomposition():
    shape = SkewShape((1, 0), (2, 2))
    expected = sum(m * gl_dimension(g, 3) for g, m in skew_decomposition(shape))
    assert len(enumerate_ssyt(shape, 3)) == expected


def test_enumerate_ssyt_deterministic_and_unique():
    shape = SkewShape((1, 0), (2, 2))
    tabs = enumerate_ssyt(shape, 3)
    assert tabs == enumerate_ssyt(shape, 3)
    assert len(set(tabs)) == len(tabs)


# the worked four-row skew tableau with filling 1,1,3 / 1,2 / 2,3 / 1
WORKED_SHAPE = SkewShape((3, 2, 2, 1), (6, 4, 4, 2))


def is_semistandard(shape, rows, max_entry):
    """A filling fits the shape row by row, has entries in 1..max_entry,
    weakly increasing rows and strictly increasing columns."""
    bounds = shape.row_bounds()
    if len(rows) != len(bounds) or any(len(row) != hi - lo for (lo, hi), row in zip(bounds, rows)):
        return False
    entry = {(r, c): x for r, ((lo, _), row) in enumerate(zip(bounds, rows)) for c, x in enumerate(row, lo)}
    return (
        all(1 <= x <= max_entry for x in entry.values())
        and all(x <= entry.get((r, c + 1), x) for (r, c), x in entry.items())
        and all(x < entry.get((r + 1, c), x + 1) for (r, c), x in entry.items())
    )


def test_worked_tableaux_are_semistandard_fillings():
    """The worked tableau and the one with its corner entries swapped pass
    the semistandard check and are among the enumerated fillings."""
    fillings = set(enumerate_ssyt(WORKED_SHAPE, 3))
    for rows in (((1, 1, 3), (1, 2), (2, 3), (1,)), ((1, 1, 1), (1, 2), (2, 3), (3,))):
        assert is_semistandard(WORKED_SHAPE, rows, 3)
        assert rows in fillings


def test_enumerated_fillings_are_semistandard():
    assert not is_semistandard(WORKED_SHAPE, ((1, 1, 3), (1, 2), (1, 3), (1,)), 3)  # column 2 repeats 1
    assert not is_semistandard(WORKED_SHAPE, ((1, 3, 1), (1, 2), (2, 3), (1,)), 3)  # row 0 decreases
    for inner, outer, max_entry in (((), (2, 1), 3), ((1, 0), (2, 2), 3), ((2, 1), (4, 3, 1), 3), ((), (0,), 2)):
        shape = SkewShape(inner, outer)
        fillings = enumerate_ssyt(shape, max_entry)
        assert fillings and all(is_semistandard(shape, rows, max_entry) for rows in fillings)
    fillings = enumerate_ssyt(WORKED_SHAPE, 3)
    assert len(fillings) > 2 and all(is_semistandard(WORKED_SHAPE, rows, 3) for rows in fillings)


def test_lr_number_examples():
    assert lr_number((1, 0), (1, 0), (2, 0)) == 1
    assert lr_number((1, 0), (3, 0), (2, 2)) == 0
    assert lr_number((1, 0), (2, 1), (2, 2)) == 1
    assert lr_number((2, 1), (1, 0), (2, 0)) == 0  # not contained
    assert lr_number((), (), ()) == 1


def test_skew_decomposition_examples():
    assert skew_decomposition(SkewShape((1, 0), (2, 1))) == [
        (Partition((1, 1)), 1),
        (Partition((2, 0)), 1),
    ]
    for m in range(1, 5):
        assert skew_decomposition(SkewShape((0,), (m,))) == [(Partition((m,)), 1)]
    assert skew_decomposition(SkewShape((1, 0), (2, 2))) == [(Partition((2, 1)), 1)]


def test_pieri_examples():
    assert set(pieri_row((2, 1), 2, 2)) == {Partition((4, 1)), Partition((3, 2))}
    assert pieri_row((3, 1), 0, 2) == [Partition((3, 1))]
    assert pieri_col((1, 0), 2, 2) == [Partition((2, 1))]


def test_pieri_row_matches_lr_characterization():
    for lam in two_row_partitions(5):
        for m in range(4):
            expected = {
                mu
                for mu in two_row_partitions(lam.size + m)
                if mu.size == lam.size + m and lr_number(lam, (m,), mu) == 1
            }
            assert set(pieri_row(lam, m, 2)) == expected


def test_pieri_col_matches_lr_characterization():
    for lam in two_row_partitions(5):
        for m in range(3):
            gam = Partition((1,) * m)
            expected = {
                mu
                for mu in two_row_partitions(lam.size + m)
                if mu.size == lam.size + m and lr_number(lam, gam, mu) == 1
            }
            assert set(pieri_col(lam, m, 2)) == expected


def test_gl_dimension_examples():
    assert gl_dimension((1, 1), 4) == 6
    assert gl_dimension((2, 0), 4) == 10
    assert gl_dimension((2, 2), 5) == 50


def test_gl_dimension_matches_ssyt_count():
    for n in range(1, 6):
        for size in range(7):
            for parts in itertools.product(range(size + 1), repeat=min(n, 3)):
                if sum(parts) != size or any(
                    parts[i] < parts[i + 1] for i in range(len(parts) - 1)
                ):
                    continue
                gam = Partition(parts)
                shape = SkewShape(Partition(), gam)
                assert gl_dimension(gam, n) == len(enumerate_ssyt(shape, n))


def test_gamma_set_examples():
    assert gamma_set((1, 0), (2, 1)) == [Partition((1, 1)), Partition((2, 0))]
    assert gamma_set((1, 0), (3, 2)) == [Partition((2, 2)), Partition((3, 1))]
    for m in range(1, 5):
        assert gamma_set((0, 0), (m, 0)) == [Partition((m,))]
    with pytest.raises(NotContainedError):
        gamma_set((2, 1), (1, 1))
    with pytest.raises(NotContainedError):
        gamma_set((1, 1), (1, 1))


def test_gamma_set_matches_lr_enumeration():
    for mu in two_row_partitions(8, max_part=6):
        for lam in two_row_partitions(mu.size):
            if not (mu.contains(lam) and mu != lam):
                continue
            d = mu.size - lam.size
            expected = [
                gam
                for gam in two_row_partitions(d)
                if gam.size == d and lr_number(lam, gam, mu) == 1
            ]
            assert sorted(gamma_set(lam, mu), key=lambda p: p.parts) == sorted(
                expected, key=lambda p: p.parts
            )


def test_gamma_set_shift_invariance():
    for lam, mu in [((1, 0), (3, 1)), ((2, 1), (3, 3)), ((3, 2), (5, 4))]:
        shifted = gamma_set((lam[0] - lam[1], 0), (mu[0] - lam[1], mu[1] - lam[1]))
        assert gamma_set(lam, mu) == shifted


def test_hom_dim_example():
    assert hom_dim(gamma_set((1, 0), (3, 2)), 5) == 155


def test_lr_symmetry_small():
    parts_pool = [
        Partition(p)
        for size in range(5)
        for p in _partitions_up_to(size, max_parts=4, max_entry=4)
    ]
    for lam in parts_pool:
        for gam in parts_pool:
            total = lam.size + gam.size
            if total > 6:
                continue
            for mu in _partitions_up_to(total, max_parts=8, max_entry=total or 1):
                mu = Partition(mu)
                if mu.size != total:
                    continue
                assert lr_number(lam, gam, mu) == lr_number(gam, lam, mu)


def _partitions_up_to(size, max_parts, max_entry):
    if size == 0:
        return [()]
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if len(acc) == max_parts:
            return
        for first in range(min(cap, remaining), 0, -1):
            acc.append(first)
            rec(remaining - first, first, acc)
            acc.pop()

    rec(size, max_entry, [])
    return out


def test_lr_number_classical_multiplicity_two():
    # self-tensor of (2,1): the (3,2,1) constituent appears twice
    expected = {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
        (4, 1): 0,
    }
    for gam, mult in expected.items():
        assert lr_number((2, 1), (2, 1), gam) == mult


def test_tensor_product_dimension_identity():
    shapes = [Partition(p) for p in [(1,), (2,), (1, 1), (2, 1), (2, 2)]]
    for n in (2, 3, 4):
        for lam in shapes:
            for mu in shapes:
                if lam.num_rows > n or mu.num_rows > n:
                    continue
                lhs = gl_dimension(lam, n) * gl_dimension(mu, n)
                rhs = sum(
                    lr_number(lam, mu, Partition(g)) * gl_dimension(Partition(g), n)
                    for g in _partitions_up_to(lam.size + mu.size, n, lam.size + mu.size)
                    if sum(g) == lam.size + mu.size
                )
                assert lhs == rhs


def test_two_row_lr_numbers_are_zero_or_one():
    for mu in two_row_partitions(8):
        for lam in two_row_partitions(mu.size):
            for gam in two_row_partitions(mu.size):
                if lam.size + gam.size == mu.size:
                    assert lr_number(lam, gam, mu) in (0, 1)


def test_skew_dimension_identity():
    for mu in two_row_partitions(6):
        for lam in two_row_partitions(mu.size):
            if not mu.contains(lam):
                continue
            shape = SkewShape(lam, mu)
            for n in range(1, 6):
                total = sum(m * gl_dimension(g, n) for g, m in skew_decomposition(shape) if g.num_rows <= n)
                assert total == len(enumerate_ssyt(shape, n))


def test_kostka_counts_tableaux_by_content():
    for gam in two_row_partitions(6):
        for k in range(1, 5):
            tableaux = enumerate_ssyt(SkewShape((), gam), k)
            by_content = Counter(tuple(sum(row.count(i) for row in t) for i in range(1, k + 1)) for t in tableaux)
            for alpha in itertools.product(range(gam.size + 1), repeat=k):
                if sum(alpha) == gam.size:
                    assert kostka(gam, alpha) == by_content[alpha], (gam, alpha)
    assert kostka((2, 2), (1, 1, 1)) == 0  # the content must fill the shape
    with pytest.raises(ValueError):
        kostka((1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        kostka((2,), (3, -1))


def test_highest_weight_multiplicity_counts_the_constituents_after_it():
    # gamma_set lists the constituents from least to most dominant, and a
    # two-row gamma' has the weight gamma exactly when it dominates gamma,
    # so the weight gamma_j has multiplicity len(gammas) - j.
    blocks = 0
    for n in (5, 8, 12):
        for lam, mu in containment_pairs(build_quiver(n), 2 * (n - 2)):
            gammas = gamma_set(lam, mu)
            for j, gamma in enumerate(gammas):
                assert [kostka(other, gamma.parts) for other in gammas] == [int(i >= j) for i in range(len(gammas))], (lam, mu, gamma)
                assert len(gammas) - j == sum(kostka(other, gamma.parts) for other in gammas)
                blocks += 1
    assert blocks == 3417
