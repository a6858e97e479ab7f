"""Acceptance criteria.

Each test exercises one criterion end to end at its stated tolerance
(exact rational equality throughout) and time budget, and prints one
pass/fail line; run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete.
"""

import itertools
import json
import time

from kq.cli import run as cli_run
from kq.fibers import reduce_point, surjectivity_rank
from kq.linalg import RatMatrix
from kq.moduli import (
    QuiverRep,
    check_relations,
    check_stability,
    embed,
    random_gauge,
    random_point,
    reconstruct,
    scramble,
)
from kq.quiver import build_quiver, containment_pairs, kernel_report
from kq.tableaux import (
    Partition,
    SkewShape,
    enumerate_ssyt,
    gl_dimension,
    lr_number,
)


def report(name: str, ok: bool, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{verdict}] {name}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"


def expected_gr42_system(x1, x2, x3, x4):
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


def test_criterion_1_figure_regeneration():
    """Embedding at n=4 reproduces the worked system of matrices on the
    whole evaluation grid {0,1,2}^4 (entries are degree <= 1 in each
    coordinate, so the grid certifies the polynomial identity)."""
    t0 = time.monotonic()
    ok = True
    for x in itertools.product((0, 1, 2), repeat=4):
        x1, x2, x3, x4 = x
        y = reduce_point(RatMatrix([[1, 0, x1, x3], [0, 1, x2, x4]]))
        rep = embed(y)
        expected = expected_gr42_system(x1, x2, x3, x4)
        for a in rep.quiver.arrows:
            if rep.matrices[a] != expected[(a.tail, a.head, a.rho)]:
                ok = False
    report("criterion 1: worked-system regeneration at n=4", ok, time.monotonic() - t0, 1.0)


def test_criterion_2_relation_families_n5(capsys):
    """The n=5 relation listing has exactly the five coefficient groups."""
    t0 = time.monotonic()
    code = cli_run(["relations", "--n", "5", "--json"])
    out = capsys.readouterr().out
    with capsys.disabled():
        payload = json.loads(out)
        fams = payload["results"]["families"]
        grouped = {}
        for f in fams:
            grouped.setdefault((f["family"], tuple(f["coefficients"])), set()).add(tuple(f["lam"]))
        ok = (
            code == 0
            and len(fams) == 12
            and grouped.get(("ff", (1, -1))) == {(0, 0), (1, 0), (1, 1)}
            and grouped.get(("gg", (1, -1))) == {(2, 0), (3, 0), (3, 1)}
            and grouped.get(("diag", (1, 1))) == {(0, 0), (1, 1), (2, 2)}
            and grouped.get(("square", (1, -2, 1))) == {(1, 0), (2, 1)}
            and grouped.get(("square", (2, -3, 1))) == {(2, 0)}
            and set(grouped) == {
                ("ff", (1, -1)),
                ("gg", (1, -1)),
                ("diag", (1, 1)),
                ("square", (1, -2, 1)),
                ("square", (2, -3, 1)),
            }
        )
        report("criterion 2: relation families at n=5", ok, time.monotonic() - t0, 1.0)


def test_criterion_3_relation_soundness():
    """Every relation family evaluates to the exact zero matrix on 25
    seeded rational points for n in {4,5,6,7}."""
    t0 = time.monotonic()
    ok = True
    for n in (4, 5, 6, 7):
        for s in range(25):
            rep = embed(random_point(n, f"soundness:{s}"))
            if check_relations(rep):
                ok = False
    report("criterion 3: relation soundness on random points", ok, time.monotonic() - t0, 60.0)


def test_criterion_4_ideal_presentation():
    """Path space modulo the relation ideal matches the graded map-space
    dimension for every pair with degree gap at most 4, n in {4,5}."""
    t0 = time.monotonic()
    mismatches = []
    for n in (4, 5):
        q = build_quiver(n)
        for lam, mu in containment_pairs(q, 4):
            r = kernel_report(q, lam, mu)
            if not r["ok"]:
                mismatches.append(r)
    report(
        "criterion 4: path-algebra quotient matches map-space dimensions",
        not mismatches,
        time.monotonic() - t0,
        300.0,
    )


def test_criterion_5_surjectivity_rank():
    """The compositions along paths span the map space, decided exactly at
    the highest weight of each constituent, for every pair with gap at
    most 3 at n = 4, 5, 6, and gap 4 at n = 5."""
    t0 = time.monotonic()
    mismatches = []
    for n, min_gap, max_gap in ((4, 1, 3), (5, 1, 4), (6, 1, 3)):
        for lam, mu in containment_pairs(build_quiver(n), max_gap, min_gap):
            r = surjectivity_rank(n, lam, mu)
            if not r["ok"]:
                mismatches.append(r)
    report(
        "criterion 5: composition surjectivity at the highest weights",
        not mismatches,
        time.monotonic() - t0,
        120.0,
    )


def test_criterion_6_reconstruction_roundtrip():
    """100 seeded embed/scramble/reconstruct trials per n in {4,5,6}
    recover the point with exact rational equality."""
    t0 = time.monotonic()
    failures = 0
    for n in (4, 5, 6):
        for t in range(100):
            y = random_point(n, f"roundtrip:{t}")
            g = random_gauge(n, f"roundtrip:{t}")
            rep = scramble(embed(y), g)
            point, gauge = reconstruct(rep)
            if point != y or scramble(embed(point), gauge) != rep:
                failures += 1
    report(
        "criterion 6: reconstruction round trip (300 trials)",
        failures == 0,
        time.monotonic() - t0,
        120.0,
    )


def test_criterion_7_combinatorics_oracles():
    """Hook-content dimensions match tableau counts for |gamma| <= 6 and
    n <= 5; two-row LR numbers are symmetric and 0/1 for |mu| <= 8."""
    t0 = time.monotonic()
    ok = True
    for size in range(7):
        for gam in _all_partitions(size):
            shape = SkewShape(Partition(), gam)
            for n in range(gam.num_rows, 6):
                if n < 1:
                    continue
                if gl_dimension(gam, n) != len(enumerate_ssyt(shape, n)):
                    ok = False
    two_row = [
        Partition((a, b)) for a in range(9) for b in range(a + 1) if a + b <= 8
    ]
    for mu in two_row:
        for lam in two_row:
            for gam in two_row:
                if lam.size + gam.size != mu.size:
                    continue
                c = lr_number(lam, gam, mu)
                if c not in (0, 1) or c != lr_number(gam, lam, mu):
                    ok = False
    report("criterion 7: combinatorics oracles", ok, time.monotonic() - t0, 60.0)


def _all_partitions(size):
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in rec(size, size or 1)]


def test_criterion_8_stability_and_detection():
    """Embedded representations pass the full-rank test at every vertex
    for 100 points per n in {4..8}; every single-entry perturbation of an
    embedded system at n=4 is caught by the relation check, as is a
    sample of perturbations at n=5."""
    t0 = time.monotonic()
    ok = True
    for n in range(4, 9):
        for t in range(100):
            if not check_stability(embed(random_point(n, f"stability:{t}"))).ok:
                ok = False

    rep = embed(random_point(4, "detect"))
    for a in rep.quiver.arrows:
        m = rep.matrices[a]
        for i in range(m.rows):
            for j in range(m.cols):
                rows = [list(m.row(r)) for r in range(m.rows)]
                rows[i][j] += 1
                mats = dict(rep.matrices)
                mats[a] = RatMatrix(rows)
                if not check_relations(QuiverRep(4, mats)):
                    ok = False

    rep5 = embed(random_point(5, "detect"))
    for idx, a in enumerate(rep5.quiver.arrows):
        if idx % 7:
            continue
        m = rep5.matrices[a]
        rows = [list(m.row(r)) for r in range(m.rows)]
        rows[0][0] += 1
        mats = dict(rep5.matrices)
        mats[a] = RatMatrix(rows)
        if not check_relations(QuiverRep(5, mats)):
            ok = False

    report(
        "criterion 8: stability of embeddings and perturbation detection",
        ok,
        time.monotonic() - t0,
        60.0,
    )
