"""Tests of the benchmark itself: run with `python -m pytest kqbench`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import kq  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kq import fibers, moduli, quiver  # noqa: E402


def traced_worker(workload: str, seed: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def counts(record: dict) -> dict:
    return {k: v for k, v in record["layers"].items() if tracing.PER_LAYER[k] != "s"}


def test_same_seed_same_inputs_other_seed_other_inputs():
    reject = workloads.WORKLOADS["reject"].setup
    assert reject(3) == reject(3)
    assert [rep for rep, _ in reject(3)] != [rep for rep, _ in reject(4)]

    def drawn(seed):
        trials = workloads.WORKLOADS["roundtrip"].setup(seed)
        return [moduli.random_point(workloads.ROUNDTRIP_N, t) for t in trials]

    assert drawn(3) == drawn(3)
    assert all(a != b for a, b in zip(drawn(3), drawn(4)))

    def samples(seed):
        items = workloads.WORKLOADS["surjectivity"].setup(seed)
        return {fibers.sample_point(workloads.SURJ_N, f"{s}:0") for _, _, s in items}

    assert samples(3) == samples(3)
    assert samples(3).isdisjoint(samples(4))
    kernel = workloads.WORKLOADS["kernel"].setup
    assert kernel(3) == kernel(4)  # kernel has no randomness


def test_traced_counts_repeat_and_match_known_values():
    first, second = traced_worker("kernel"), traced_worker("kernel")
    assert counts(first) == counts(second)
    assert first["layers"]["quiver.echelon_inserts"] == 99_864
    assert first["layers"]["quiver.echelon_independent"] == 60_618
    rt = traced_worker("roundtrip")
    trials = workloads.ROUNDTRIP_TRIALS
    assert rt["layers"]["moduli.evaluate_relation_calls"] == 1_050 * trials
    assert rt["layers"]["quiver.relation_sets_calls"] == trials
    for record in (first, second, rt):
        assert not record["wrong"] and record["cold"]
        for span in record["spans"]:
            assert 0 <= span["self_s"] <= span["total_s"] + 1e-9, span


def _snapshot() -> dict:
    owners = [m for name, m in sys.modules.items() if name == "kq" or name.startswith("kq.")]
    owners += [kq.linalg.RatMatrix, quiver.SparseEchelon]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_wrappers_are_gone_after_a_traced_run():
    before = _snapshot()
    q = quiver.build_quiver(4)
    y = moduli.random_point(4, "t")
    with tracing.Tracer() as tracer:
        assert moduli.f_matrix is not before[(id(moduli), "f_matrix")]
        assert quiver.hom_dim is kq.fibers.hom_dim is kq.tableaux.hom_dim
        moduli.reconstruct(moduli.scramble(moduli.embed(y), moduli.random_gauge(4, "t")))
        quiver.kernel_report(q, (0, 0), (2, 1))
    assert _snapshot() == before
    layers = tracer.metrics()
    assert layers["moduli.evaluate_relation_calls"] == len(quiver.relation_sets(q))
    assert layers["quiver.echelon_inserts"] > 0 and layers["tableaux.hom_dim_calls"] == 1
    moduli.embed(y)
    assert tracer.metrics() == layers  # nothing is recorded after exit


def test_every_run_is_a_fresh_cold_process():
    plain, traced = run.measure("reject", 0, 1, False)
    assert len(plain) == run.MIN_RUNS and not traced
    assert len({r["pid"] for r in plain}) == len(plain)
    assert all(r["cold"] for r in plain)
    assert run.correctness("reject", plain)
    warm = dict(plain[0], cold=False)
    assert not run.correctness("reject", [warm])
    assert not run.correctness("reject", [plain[0], plain[0]])
    assert not run.correctness("reject", [dict(plain[0], digest="0" * 16)])


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "kqbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "kqbench/run.py", "--workload", "kernel", "--seed", "0", "--seconds", "1"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
