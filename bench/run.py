"""Benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in this process and prints, last, one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is the full record: machine header,
quartiles over passes and set-ups, the two unbounded end-to-end metrics
(``failed_share``, ``worst_error_ratio``) and what each check measures.
With ``--trace 1`` the spans go to ``bench/out/spans-<workload>.jsonl``.

``--workload all`` (the default) runs every workload, each in a fresh
process so that its peak RSS is its own, and prints one table.

The BLAS/OpenMP thread pools are capped at the number of usable CPUs before
numpy is imported.  The library is imported from ``src/`` beside this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("entropic_ot", "matching", "montecarlo", "quadrature")


def _cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "convexineq" / "__init__.py").is_file():
        _fail(f"no library source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import convexineq

    if Path(convexineq.__file__).resolve().parent != SRC / "convexineq":
        _fail(f"imported convexineq from {convexineq.__file__}, not {SRC}")


def _run_one(args) -> int:
    _import_library()
    import harness
    import workloads

    record, result = harness.run_workload(
        args.workload,
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        workloads.CHECK_DOCS,
    )
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        metrics = record["per_layer"] if args.trace else record["metrics"]
        for metric, m in metrics.items():
            rows.append((name, metric, m["value"], m["unit"]))
        if not args.trace:
            rows.append((name, "instance_tail_percentile", record["tail_percentile"], "%"))
            rows.append((name, "instances_per_pass", record["instances_per_pass"], "count"))
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print(f"{name:<12s} {metric:<{width}s} {value:>14.6g} {unit}")
    print(json.dumps({"correct": ok}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _cap_threads()
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
