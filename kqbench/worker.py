"""One cold run of one workload, in the interpreter that runs this file.

    python3 kqbench/worker.py --workload kernel --seed 0 --trace 0

Imports `kq` from the `src` directory beside this one, generates the
workload's inputs, runs every operation once in a closed loop and checks
each verdict, then prints one JSON line.  `run.py` starts a fresh
interpreter for each run, so every run pays the cold `build_quiver` and
ideal-slice caches, as a command-line user does on every invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import kq

    if Path(kq.__file__).resolve().parent != SRC / "kq":
        sys.exit(f"kq was imported from {kq.__file__}, not from {SRC}")
    from kq import quiver

    cold = quiver.build_quiver.cache_info().currsize == 0
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    with tracer or nullcontext():
        items = workload.setup(args.seed)
        start = time.monotonic()
        outcomes = []
        for item in items:
            try:
                outcomes.append(workload.run(item))
            except Exception as exc:  # a crash is a wrong answer; the run goes on
                traceback.print_exc()
                outcomes.append(workloads.Outcome(False, f"raised {type(exc).__name__}"))
        wall_s = time.monotonic() - start

    record = {
        "pid": os.getpid(),
        "cold": cold,
        "ops_start": start,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "wrong": sum(not o.ok and not o.shortfall for o in outcomes),
        "digest": workloads.digest([o.answer for o in outcomes]),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["spans"] = tracer.spans()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
