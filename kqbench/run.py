"""The kq benchmark.

    python3 kqbench/run.py --workload kernel --seed 0 --seconds 25 --trace 0

Runs one workload for about `--seconds` seconds as repeated cold runs:
each run is a fresh interpreter (`worker.py`) that imports `kq`, builds
the inputs from the seed, and times every operation in a closed loop on
one thread.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the line before it
records the answer digest and the figures of every repetition.
With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
the per-layer ones from traced runs interleaved with untraced runs.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("roundtrip", "reject", "kernel", "surjectivity")
MIN_RUNS = 3  # full untraced repetitions per benchmark run
LIMIT_S = 150  # no run is started that would end after this

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}

# Digests of answers that do not depend on the seed.  Recovered points
# (roundtrip) do, and are checked against the drawn point instead.
EXPECTED_DIGESTS = {
    "reject": "d85ebcfb53984cd5",
    "kernel": "5c8e9dde17d14456",
    "surjectivity": "569a4b1390d8f4ef",
}


class BenchError(RuntimeError):
    """The benchmark could not measure."""


def run_worker(workload: str, seed: int, timeout: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} run exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload} run exited with code {proc.returncode}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record.pop("ops_start") - spawned
    return record


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    """Repetitions until one more would end after `seconds`; with
    `trace`, each untraced repetition is followed by a traced one."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()

    def worker(*flags: str) -> dict:
        return run_worker(workload, seed, LIMIT_S + 20 - (time.monotonic() - start), *flags)

    while True:
        plain.append(worker())
        if trace:
            traced.append(worker("--trace", "1"))
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(plain)
        enough = trace or len(plain) >= MIN_RUNS
        if next_end > LIMIT_S or (enough and next_end > seconds):
            return plain, traced


def correctness(workload: str, runs: list[dict]) -> bool:
    """Every run cold and in its own process, no wrong answer, and the
    same answers in every run (and the recorded ones, where fixed)."""
    digests = {r["digest"] for r in runs}
    expected = EXPECTED_DIGESTS.get(workload)
    return (
        all(r["cold"] for r in runs)
        and len({r["pid"] for r in runs}) == len(runs)
        and not any(r["wrong"] for r in runs)
        and len(digests) == 1
        and (expected is None or digests == {expected})
    )


def fastest(runs: list[dict]) -> dict:
    return min(runs, key=lambda r: r["wall_s"])


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """The layer times of the fastest traced run; counts must repeat
    exactly in every traced run."""
    layers = fastest(traced)["layers"]
    out, repeat = {}, True
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = fastest(traced)["wall_s"] - fastest(plain)["wall_s"]
        else:
            value = layers[name]
            if unit != "s":
                repeat = repeat and all(r["layers"][name] == value for r in traced)
        out[name] = {"value": value, "unit": unit}
    return out, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kq benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kq" / "__init__.py").is_file():
        print(f"error: no kq sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile first, as an installed package is, so that no timed
    # run pays for compiling.
    compileall.compile_dir(SRC / "kq", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    ops = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = correctness(args.workload, runs)
    if args.trace:
        metrics, repeat = layer_metrics(plain, traced)
        correct = correct and repeat
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": 1 - failed / ops,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "runs": len(plain),
                "traced_runs": len(traced),
                "ops_per_run": plain[0]["ops"],
                "fail_frac": failed / ops,
                "digest": plain[0]["digest"],
                "setup_s": [r["setup_s"] for r in plain],
                "wall_s": [r["wall_s"] for r in plain],
                "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
                "spans": fastest(traced)["spans"] if traced else [],
            }
        )
    )
    print(json.dumps({"correct": correct, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
