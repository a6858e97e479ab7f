"""Command-line front end.

Subcommands cover combinatorics queries (lr, ssyt-count, gamma, gl-dim,
hom-dim), quiver construction and relations (quiver, relations,
fg-matrix), the moduli layer (embed, check, reconstruct, roundtrip) and
the verification sweeps (verify-kernel, verify-surjectivity).  With
--json the report is machine-readable and byte-identical across runs
for identical inputs and seed; timing is only shown in human mode.
Exit codes: 0 success, 1 verification failure or a verify-kernel pair
that the PBW premise leaves inconclusive, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import fibers, moduli, quiver as qv, tableaux
from .linalg import rat
from .tableaux import Partition, SkewShape


class InputError(ValueError):
    """Malformed command-line input or input file."""


def _partition(text: str, max_rows: int | None = None) -> Partition:
    try:
        lam = Partition([int(p) for p in text.split(",") if p != ""])
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}: {exc}") from exc
    if max_rows is not None and lam.num_rows > max_rows:
        raise InputError(f"partition {text!r} has more than {max_rows} rows")
    return lam


def _gl_dimension(gam: Partition, n: int) -> int:
    if n < 0:
        raise InputError(f"--n must be at least 0, got {n}")
    if gam.num_rows > n:
        raise InputError(f"{gam.parts} has more than --n {n} rows")
    return tableaux.gl_dimension(gam, n)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def cmd_lr(args) -> tuple[dict, bool]:
    lam, gam, mu = _partition(args.lam), _partition(args.gam), _partition(args.mu)
    return {"lr": tableaux.lr_number(lam, gam, mu)}, True


def cmd_ssyt_count(args) -> tuple[dict, bool]:
    if args.max_entry < 1:
        raise InputError("--max-entry must be at least 1")
    shape = SkewShape(_partition(args.inner), _partition(args.outer))
    count = len(tableaux.enumerate_ssyt(shape, args.max_entry))
    return {"count": count}, True


def cmd_gamma(args) -> tuple[dict, bool]:
    gams = tableaux.gamma_set(_partition(args.lam, 2), _partition(args.mu, 2))
    return {"gamma": [g.to_json(2) for g in gams]}, True


def cmd_gl_dim(args) -> tuple[dict, bool]:
    gam = _partition(args.gam)
    return {"gamma": gam.to_json(2), "n": args.n, "dim": _gl_dimension(gam, args.n)}, True


def cmd_hom_dim(args) -> tuple[dict, bool]:
    gams = tableaux.gamma_set(_partition(args.lam, 2), _partition(args.mu, 2))
    dims = [_gl_dimension(g, args.n) for g in gams]
    return {"gamma": [g.to_json(2) for g in gams], "dims": dims, "total": sum(dims)}, True


def cmd_quiver(args) -> tuple[dict, bool]:
    return qv.build_quiver(args.n).to_json(), True


def cmd_relations(args) -> tuple[dict, bool]:
    q = qv.build_quiver(args.n)
    pairs = qv.p2_pairs(q)
    if args.lam or args.mu:
        if not (args.lam and args.mu):
            raise InputError("--lam and --mu must be given together")
        lam = tuple(_partition(args.lam).padded(2))
        mu = tuple(_partition(args.mu).padded(2))
        fam = qv.p2_family(q, lam, mu)
        if fam is None:
            raise InputError(f"{lam} -> {mu} is not a degree-two pair of the quiver")
        pairs = [(lam, mu, fam)]
    families = []
    for lam, mu, fam in pairs:
        rels = qv.relation_set_for(q, lam, mu)
        families.append(
            {
                "lam": list(lam),
                "mu": list(mu),
                "family": fam,
                "coefficients": list(qv.family_coefficients(fam, lam)),
                "count": len(rels),
                "relations": [r.to_json() for r in rels],
            }
        )
    return {"families": families}, True


def cmd_fg_matrix(args) -> tuple[dict, bool]:
    try:
        parts = [rat(p.strip()) for p in args.x.split(",")]
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad --x {args.x!r}: {exc}") from exc
    if len(parts) != 2:
        raise InputError("--x needs exactly two rational coordinates")
    if args.k < 1:
        raise InputError("--k must be at least 1")
    results = {"f": fibers.f_matrix(args.k, parts).to_json()}
    results["g"] = fibers.g_matrix(args.k, parts).to_json() if args.k >= 2 else None
    return results, True


def cmd_embed(args) -> tuple[dict, bool]:
    try:
        point = fibers.GrPoint.from_json(_load_json(args.point))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad point file: {exc}") from exc
    if args.n is not None and args.n != point.n:
        raise InputError(f"--n {args.n} does not match the {point.n}-column point")
    rep = moduli.embed(point)
    return {"point": point.to_json(), "rep": rep.to_json()}, True


def _load_rep(path: str) -> moduli.QuiverRep:
    try:
        return moduli.QuiverRep.from_json(_load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad representation file: {exc}") from exc


def cmd_check(args) -> tuple[dict, bool]:
    rep = _load_rep(args.rep)
    stability = moduli.check_stability(rep)
    violations = moduli.check_relations(rep)
    ok = stability.ok and not violations
    return {
        "stability": stability.to_json(),
        "violations": [v.to_json() for v in violations],
        "ok": ok,
    }, ok


def cmd_reconstruct(args) -> tuple[dict, bool]:
    rep = _load_rep(args.rep)
    try:
        point, gauge = moduli.reconstruct(rep)
    except (moduli.NotStableError, moduli.RelationsViolatedError, moduli.NotInImageError) as exc:
        return {"error": type(exc).__name__.removesuffix("Error"), "detail": str(exc)}, False
    return {"point": point.to_json(), "gauge": gauge.to_json()}, True


def _selected_pairs(q: qv.TiltingQuiver, args) -> list[tuple]:
    """The one pair named by --lam/--mu, or every containment pair up to
    --max-degree."""
    if not (args.lam or args.mu):
        if args.max_degree < 1:
            raise InputError("--max-degree must be at least 1")
        return qv.containment_pairs(q, args.max_degree)
    if not (args.lam and args.mu):
        raise InputError("--lam and --mu must be given together")
    pair = (tuple(_partition(args.lam).padded(2)), tuple(_partition(args.mu).padded(2)))
    if not all(q.has_vertex(v) for v in pair):
        raise InputError("endpoints must be quiver vertices")
    return [pair]


def _pair_reports(reports: list[dict]) -> tuple[dict, bool]:
    ok = all(r["ok"] for r in reports)
    if len(reports) == 1:
        return dict(reports[0]), ok
    return {"pairs": reports, "ok": ok}, ok


def cmd_verify_kernel(args) -> tuple[dict, bool]:
    q = qv.build_quiver(args.n)
    return _pair_reports([qv.kernel_report(q, lam, mu) for lam, mu in _selected_pairs(q, args)])


def cmd_verify_surjectivity(args) -> tuple[dict, bool]:
    pairs = _selected_pairs(qv.build_quiver(args.n), args)
    return _pair_reports([fibers.surjectivity_rank(args.n, lam, mu) for lam, mu in pairs])


def _roundtrip_once(n: int, seed, trial: int) -> dict:
    y = moduli.random_point(n, f"{seed}:{trial}")
    g = moduli.random_gauge(n, f"{seed}:{trial}")
    rep = moduli.scramble(moduli.embed(y), g)
    entry = {"trial": trial, "ok": False}
    try:
        recovered, gauge = moduli.reconstruct(rep)
    except (moduli.NotStableError, moduli.RelationsViolatedError, moduli.NotInImageError) as exc:
        entry["error"] = str(exc)
        return entry
    entry["point_match"] = recovered == y
    g, back = gauge.blocks, moduli.embed(recovered)  # rep == scramble(back, gauge), inverting no g[v]
    entry["rep_match"] = all(rep.matrix(a) * g[a.tail] == g[a.head] * m for a, m in back.matrices.items())
    entry["ok"] = entry["point_match"] and entry["rep_match"]
    return entry


def cmd_roundtrip(args) -> tuple[dict, bool]:
    if args.n < 4:
        raise InputError("--n must be at least 4")
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    results = [_roundtrip_once(args.n, args.seed, t) for t in range(args.trials)]
    failures = [r for r in results if not r["ok"]]
    return {"trials": args.trials, "failures": failures, "ok": not failures}, not failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kq",
        description="Exact computations on the tilting quiver of the Grassmannian of lines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("lr", cmd_lr, help="Littlewood-Richardson number")
    p.add_argument("--lam", required=True)
    p.add_argument("--gam", required=True)
    p.add_argument("--mu", required=True)

    p = add("ssyt-count", cmd_ssyt_count, help="count semistandard skew tableaux")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--max-entry", type=int, required=True)

    p = add("gamma", cmd_gamma, help="constituents of a two-row skew shape")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)

    p = add("gl-dim", cmd_gl_dim, help="dimension of an irreducible GL(n) representation")
    p.add_argument("--gam", required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("hom-dim", cmd_hom_dim, help="graded map-space dimension between two weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)

    p = add("quiver", cmd_quiver, help="vertices and arrows of the tilting quiver")
    p.add_argument("--n", type=int, required=True)

    p = add("relations", cmd_relations, help="degree-two relation families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam")
    p.add_argument("--mu")

    p = add("fg-matrix", cmd_fg_matrix, help="banded matrices of the elementary maps")
    p.add_argument("--k", type=int, required=True, help="fiber dimension at the tail")
    p.add_argument("--x", required=True, help='section coordinates "p/q,p/q"')

    p = add("embed", cmd_embed, help="embed a point as a quiver representation")
    p.add_argument("--point", required=True, help="point JSON file")
    p.add_argument("--n", type=int)

    p = add("check", cmd_check, help="stability and relation check of a representation")
    p.add_argument("--rep", required=True, help="representation JSON file")

    p = add("reconstruct", cmd_reconstruct, help="recover point and gauge from a representation")
    p.add_argument("--rep", required=True, help="representation JSON file")

    p = add("verify-kernel", cmd_verify_kernel, help="ideal vs map-space dimension check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam")
    p.add_argument("--mu")
    p.add_argument("--max-degree", type=int, default=4)

    p = add("verify-surjectivity", cmd_verify_surjectivity, help="highest-weight rank check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam")
    p.add_argument("--mu")
    p.add_argument("--max-degree", type=int, default=3)

    p = add("roundtrip", cmd_roundtrip, help="embed/scramble/reconstruct round trips")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", default="0", help="seed for the random points and gauges")

    return parser


def _echo_inputs(args) -> dict:
    skip = {"handler", "command", "json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _human_lines(results, indent="") -> list[str]:
    if isinstance(results, dict):
        pairs = [(f"{key}:", value) for key, value in results.items()]
    else:
        pairs = [("-", item) for item in results]
    lines = []
    for label, value in pairs:
        compact = json.dumps(value)
        if isinstance(value, (dict, list)) and value and len(compact) > 72:
            lines.append(f"{indent}{label}")
            lines.extend(_human_lines(value, indent + "  "))
        else:
            lines.append(f"{indent}{label} {compact}")
    return lines


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        results, ok = args.handler(args)
    except (InputError, qv.BadNError, tableaux.NotContainedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = {
        "command": args.command,
        "inputs": _echo_inputs(args),
        "results": results,
        "ok": ok,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(f"command: {args.command}")
        for key, value in report["inputs"].items():
            print(f"  {key}: {value}")
        # the ok line below repeats the results' own ok, so it is printed once
        for line in _human_lines({k: v for k, v in results.items() if k != "ok"}):
            print(line)
        print(f"ok: {str(ok).lower()}")
        print(f"elapsed_ms: {elapsed_ms}")
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
