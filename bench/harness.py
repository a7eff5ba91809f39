"""Closed-loop runner for one workload: set-up, timed passes, checks, metrics.

One caller runs the workload's instances one after another, in one process;
the next instance starts when the previous one has returned.  A pass is one
run over the workload's fixed instance list.  Passes repeat at least three
times, and then while the next one, if it takes as long as the median pass so
far, ends within the requested seconds: a run then lasts about as long on a
slowed host as on a quiet one.  Every pass after the first is compared with
it: a pass whose digest of result rows differs from the first pass's counts
all of its instances as failed.

The timed metrics take the least disturbed repeat.  On a host whose cores
are shared with other machines, speed drifts by a quarter or more over
seconds to minutes, and drift can only make a pass slower: ``run_s`` is the
fastest pass, and the per-instance median and tail are taken over each
instance's fastest time across the passes.  The median and quartiles over
passes are kept in the record's ``spread``.  With tracing on, plain and
traced passes alternate, and the tracing overhead is the median difference
of adjacent (plain, traced) pairs, so that drift does not enter it.

``run_workload`` returns the full record (machine header, metric quartiles,
per-check documentation) and the one-line result the benchmark prints last.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics, per_layer_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10

# name -> unit, in report order; the first five are the bounded end-to-end
# metrics of BENCHMARK.json, the last two are reported beside them
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "instance_ms_p50": "ms",
    "instance_ms_tail": "ms",
    "peak_rss_mib": "MiB",
}
REPORTED = {
    "failed_share": "ratio",
    "worst_error_ratio": "ratio",
}


def machine_header(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def quartiles(values) -> dict:
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    vals = list(values)
    if len(vals) == 1:
        return {"q1": vals[0], "median": vals[0], "q3": vals[0], "n": 1}
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(vals)}


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it.  A list too short to have one reports its maximum."""
    vals = sorted(values)
    n = len(vals)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return vals[k], (100.0 * k / (n - 1) if n > 1 else 100.0)


def check_ratio(check) -> float:
    if not math.isfinite(check.error):
        return math.inf
    if check.tolerance <= 0:
        return 0.0 if check.error <= 0 else math.inf
    return check.error / check.tolerance


def check_passes(check) -> bool:
    return math.isfinite(check.error) and check.error <= check.tolerance


def import_seconds() -> float:
    """Wall time of ``import convexineq`` in a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import convexineq\n"
        "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(instances, tracer=None):
    """Run every instance once; returns the pass record."""
    digest = hashlib.sha256()
    times = []
    failed = 0
    worst = 0.0
    errors = []
    names = set()
    t_pass = perf_counter()
    for iid, fn in instances:
        if tracer is not None:
            tracer.instance = iid
        t0 = perf_counter()
        try:
            row, checks = fn()
        except Exception as exc:  # a raising instance is a failed instance, not a dead run
            times.append(perf_counter() - t0)
            failed += 1
            errors.append(f"{iid}: {type(exc).__name__}: {exc}")
            digest.update(f"{iid}:raised:{type(exc).__name__}".encode())
            continue
        times.append(perf_counter() - t0)
        ok = True
        for c in checks:
            names.add(c.name)
            worst = max(worst, check_ratio(c))
            ok = ok and check_passes(c)
        failed += 0 if ok else 1
        if not ok:
            errors.append(f"{iid}: check failed: " + ", ".join(
                f"{c.name} {c.error:.3g} > {c.tolerance:.3g}" for c in checks if not check_passes(c)))
        digest.update(repr((iid, row)).encode())
    return {
        "wall_s": perf_counter() - t_pass,
        "instance_s": times,
        "failed": failed,
        "worst": worst,
        "digest": digest.hexdigest(),
        "errors": errors,
        "checks": names,
    }


def run_workload(name: str, make, seed: int, seconds: float, trace: bool, check_docs: dict):
    """Set up, measure for ``seconds``, and return (record, result line)."""
    header = machine_header(seed)
    setups = []
    instances = None
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = perf_counter()
        instances = make(seed)
        instances[0][1]()  # untimed warm-up instance
        setups.append(imp + perf_counter() - t0)

    tracer = Tracer() if trace else None
    plain, traced = [], []
    t_start = perf_counter()
    while len(plain) + len(traced) < MIN_PASSES or (
        perf_counter() - t_start + statistics.median(p["wall_s"] for p in plain + traced) <= seconds
    ):
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_pass(instances, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(instances))

    passes = plain + traced
    first = passes[0]["digest"]
    attempted = sum(len(p["instance_s"]) for p in passes)
    failed = 0
    errors = []
    for p in passes:
        if p["digest"] != first:
            failed += len(p["instance_s"])
            errors.append("pass digest differs from the first pass")
        else:
            failed += p["failed"]
        errors.extend(p["errors"])
    worst = max(p["worst"] for p in passes)
    ran = set().union(*(p["checks"] for p in passes))

    walls = [p["wall_s"] for p in plain]
    p50s = [1e3 * statistics.median(p["instance_s"]) for p in plain]
    tail_ms = [1e3 * tail(p["instance_s"])[0] for p in plain]
    best = [min(times) for times in zip(*(p["instance_s"] for p in plain))]
    best_tail, tail_percentile = tail(best)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": min(walls),
        "instance_ms_p50": 1e3 * statistics.median(best),
        "instance_ms_tail": 1e3 * best_tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": failed / attempted,
        "worst_error_ratio": worst,
    }
    record = {
        "workload": name,
        "header": header,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(plain),
        "instances_per_pass": len(instances),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in {**END_TO_END, **REPORTED}.items()},
        "spread": {
            "setup_s": quartiles(setups),
            "run_s": quartiles(walls),
            "instance_ms_p50": quartiles(p50s),
            "instance_ms_tail": quartiles(tail_ms),
        },
        "pass_s": walls,
        "tail_percentile": tail_percentile,
        "checks": {c: check_docs.get(c, "") for c in sorted(ran)},
    }
    if trace:
        traced_walls = [p["wall_s"] for p in traced]
        layer = layer_metrics(tracer, len(traced), sum(traced_walls))
        layer["trace.run_s"] = statistics.median(traced_walls)
        layer["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)
        )
        record["spread"]["trace.run_s"] = quartiles(traced_walls)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in per_layer_names()}
        record["per_layer"] = metrics
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{name}.jsonl")
    else:
        metrics = {k: record["metrics"][k] for k in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result
