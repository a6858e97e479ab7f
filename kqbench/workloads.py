"""The four benchmark workloads: inputs made from the workload seed, one
operation per input, and the known-correct verdict of every operation.

Each operation calls the same public `kq` functions, in the same order,
as the handler of the matching `kq` subcommand; only JSON serialisation
is left out.  Why each workload was chosen is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from kq import fibers, moduli
from kq import quiver as qv
from kq.linalg import RatMatrix

ROUNDTRIP_N, ROUNDTRIP_TRIALS = 7, 6
REJECT_N, REJECT_INPUTS = 6, 12
KERNEL_N, KERNEL_MAX_DEGREE = 6, 4
SURJ_N, SURJ_MAX_DEGREE, SURJ_SAMPLES = 5, 3, 40
# The two cheapest degree-four pairs; 40 samples cannot reach their
# hom_dim (rank 40 against 50), so both count as failures until the
# sample count follows hom_dim.  They are kept so that fix shows.
SURJ_EXTRA_PAIRS = (((0, 0), (2, 2)), ((1, 1), (3, 3)))

REJECT_ERRORS = (moduli.NotStableError, moduli.RelationsViolatedError, moduli.NotInImageError)


@dataclass(frozen=True)
class Outcome:
    """The result of one operation.

    `ok` says whether the verdict is the known-correct one.  `shortfall`
    marks a wrong verdict that exact arithmetic does not contradict: a
    sampled rank below hom_dim is only a missing certificate.  Any other
    wrong verdict is a wrong answer.  `answer` feeds the digest."""

    ok: bool
    answer: object
    shortfall: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list]
    run: Callable[[object], Outcome]


def _roundtrip_setup(seed: int) -> list[str]:
    qv.build_quiver(ROUNDTRIP_N)
    return [f"{seed}:{t}" for t in range(ROUNDTRIP_TRIALS)]


def _roundtrip_run(trial_seed: str) -> Outcome:
    """One trial of `kq roundtrip --n 7 --seed <seed>`."""
    y = moduli.random_point(ROUNDTRIP_N, trial_seed)
    g = moduli.random_gauge(ROUNDTRIP_N, trial_seed)
    rep = moduli.scramble(moduli.embed(y), g)
    recovered, gauge = moduli.reconstruct(rep)
    point_match = recovered == y
    rep_match = moduli.scramble(moduli.embed(recovered), gauge) == rep
    return Outcome(point_match and rep_match, recovered.to_json())


def _perturbed_embedding(q: qv.TiltingQuiver, tag: str, rng: random.Random) -> moduli.QuiverRep:
    """A scrambled embedding with +1 added to one entry of one arrow."""
    rep = moduli.scramble(moduli.embed(moduli.random_point(q.n, tag)), moduli.random_gauge(q.n, tag))
    arrow = rng.choice(q.arrows)
    m = rep.matrix(arrow)
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += 1
    mats = dict(rep.matrices)
    mats[arrow] = RatMatrix(rows)
    return moduli.QuiverRep(q.n, mats)


def _rank_one_rep(q: qv.TiltingQuiver, tag: str, rng: random.Random) -> moduli.QuiverRep:
    """A scrambled representation built from a rank-one integer 2 x n
    matrix: every relation holds (they are polynomial identities in the
    columns) but every incoming matrix at (1, 0) has rank one."""
    v = (rng.randint(1, 9), rng.randint(-9, 9))
    scale = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(q.n)]
    mats = {}
    for a in q.arrows:
        x = (scale[a.rho - 1] * v[0], scale[a.rho - 1] * v[1])
        k = q.vertex_dim(a.tail)
        mats[a] = fibers.f_matrix(k, x) if a.direction == 1 else fibers.g_matrix(k, x)
    return moduli.scramble(moduli.QuiverRep(q.n, mats), moduli.random_gauge(q.n, tag))


def _reject_setup(seed: int) -> list[tuple[moduli.QuiverRep, str]]:
    q = qv.build_quiver(REJECT_N)
    rng = random.Random(f"reject:{seed}")
    inputs = []
    for i in range(REJECT_INPUTS):
        tag = f"{seed}:{i}"
        if i % 2 == 0:
            inputs.append((_perturbed_embedding(q, tag, rng), "RelationsViolatedError"))
        else:
            inputs.append((_rank_one_rep(q, tag, rng), "NotStableError"))
    return inputs


def _reject_run(item: tuple[moduli.QuiverRep, str]) -> Outcome:
    """One `kq reconstruct` on an input that must be refused."""
    rep, expected = item
    try:
        moduli.reconstruct(rep)
        got = "accepted"
    except REJECT_ERRORS as exc:
        got = type(exc).__name__
    return Outcome(got == expected, got)


def _kernel_setup(seed: int) -> list[tuple]:
    q = qv.build_quiver(KERNEL_N)
    return qv.containment_pairs(q, KERNEL_MAX_DEGREE)


def _kernel_run(pair: tuple) -> Outcome:
    """One pair of `kq verify-kernel --n 6 --max-degree 4`."""
    r = qv.kernel_report(qv.build_quiver(KERNEL_N), pair[0], pair[1])
    return Outcome(r["ok"], [r["lam"], r["mu"], r["paths"], r["ideal_dim"], r["hom_dim"]])


def _surjectivity_setup(seed: int) -> list[tuple]:
    q = qv.build_quiver(SURJ_N)
    pairs = qv.containment_pairs(q, SURJ_MAX_DEGREE) + list(SURJ_EXTRA_PAIRS)
    return [(lam, mu, str(seed)) for lam, mu in pairs]


def _surjectivity_run(item: tuple) -> Outcome:
    """One pair of `kq verify-surjectivity --n 5 --seed <seed>`."""
    lam, mu, seed = item
    r = fibers.surjectivity_rank(SURJ_N, lam, mu, SURJ_SAMPLES, seed)
    return Outcome(r["ok"], [r["lam"], r["mu"], r["hom_dim"]], shortfall=r["rank"] < r["hom_dim"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("roundtrip", _roundtrip_setup, _roundtrip_run),
        Workload("reject", _reject_setup, _reject_run),
        Workload("kernel", _kernel_setup, _kernel_run),
        Workload("surjectivity", _surjectivity_setup, _surjectivity_run),
    )
}


def digest(answers: list) -> str:
    blob = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
