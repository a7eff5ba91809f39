"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py

They run one pass of every workload (about half a minute), so they live
beside the benchmark rather than in the library's test suite.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from convexineq import concentration, geometry, sampling, transport  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_pass_of_each_workload_passes_every_check(name):
    p = harness.run_pass(workloads.WORKLOADS[name](3))
    assert p["failed"] == 0, p["errors"]
    assert 0.0 < p["worst"] <= 1.0
    assert p["checks"] <= workloads.CHECK_DOCS.keys()


def test_inputs_repeat_for_a_seed_and_change_with_it():
    def digest(seed):
        return [(iid, fn.args) for iid, fn in workloads.entropic_ot(seed)]

    a, b, c = digest(4), digest(4), digest(5)
    for (ia, xa), (ib, xb), (ic, xc) in zip(a, b, c):
        assert ia == ib == ic
        np.testing.assert_array_equal(xa[0], xb[0])
        assert not np.array_equal(xa[0], xc[0])


def _module_state():
    owners = [m for n, m in sys.modules.items() if n == "convexineq" or n.startswith("convexineq.")]
    owners += [geometry.AffineMap, transport.DiscreteMeasure, sys.modules["convexineq.functional"].TestFunction]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_originals_and_nests_spans():
    before = _module_state()
    original = sampling.sample_uniform
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert concentration.sample_uniform is sampling.sample_uniform
        assert sampling.sample_uniform is not original
        tracer.instance = "probe"
        g = np.random.default_rng(0)
        mu = transport.DiscreteMeasure.uniform(g.random((6, 2)))
        nu = transport.DiscreteMeasure.uniform(g.random((6, 2)))
        transport.exact_ot(mu, nu, 2)
    finally:
        tracer.uninstall()
    after = _module_state()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert sampling.sample_uniform is original

    spans = {rec[0]: rec for rec in tracer.spans}
    names = [rec[1] for rec in tracer.spans]
    assert names.count("transport.discrete_measure") == 2
    (ot,) = [rec for rec in tracer.spans if rec[1] == "transport.exact_ot"]
    children = [rec for rec in tracer.spans if rec[4] == ot[0]]
    assert {rec[1] for rec in children} == {"transport.cost_matrix", "transport.linear_sum_assignment"}
    for rec in tracer.spans:
        assert rec[5] == "probe"
        assert rec[2] <= rec[3]
        if rec[4] is not None:
            parent = spans[rec[4]]
            assert parent[2] <= rec[2] and rec[3] <= parent[3]
    assert ot[6] == pytest.approx(sum(c[3] - c[2] for c in children))
    metrics = tracing.layer_metrics(tracer, 1, ot[3] - tracer.spans[0][2])
    assert metrics["transport.exact_ot.calls"] == 1
    assert metrics["transport.cost_matrix.entries"] == 36
    top = sum(rec[3] - rec[2] for rec in tracer.spans if rec[4] is None)
    layers = sum(metrics[f"layer.{name}.self_s"] for name in tracing.LAYERS)
    assert layers == pytest.approx(top)


def test_quadrature_distinct_share_does_not_depend_on_traced_passes():
    instances = workloads.quadrature(3)[:6]
    tracer = tracing.Tracer()
    shares = []
    for passes in (1, 2):
        tracer.install()
        try:
            harness.run_pass(instances, tracer)
        finally:
            tracer.uninstall()
        shares.append(tracing.layer_metrics(tracer, passes, 1.0)["geometry.quadrature.distinct_share"])
    assert 0.0 < shares[0] < 1.0
    assert shares[1] == shares[0]


def _fake(rows):
    def make(seed):
        return [(iid, fn) for iid, fn in rows]

    return make


def test_printed_metric_names_match_benchmark_json():
    make = _fake([("a", lambda: ((1.0,), [workloads.Check("x", 0.5, 1.0)]))])
    _, plain = harness.run_workload("fake", make, 1, 0.0, False, {})
    assert [(k, m["unit"]) for k, m in plain["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert (plain["correct"], plain["attempted"], plain["failed"]) == (True, harness.MIN_PASSES, 0)
    _, traced = harness.run_workload("fake", make, 1, 0.0, True, {})
    assert [(k, m["unit"]) for k, m in traced["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


def test_timed_metrics_take_each_instance_fastest_pass():
    def make(seed):
        # the first call of "a" is the set-up's warm-up; passes after the
        # third are the slowest
        delays = {
            "a": itertools.chain([0.0, 0.15, 0.05, 0.10], itertools.repeat(0.15)),
            "b": itertools.chain([0.10, 0.15, 0.15], itertools.repeat(0.15)),
        }

        def run(iid):
            time.sleep(next(delays[iid]))
            return (iid,), []

        return [(iid, partial(run, iid)) for iid in delays]

    record, _ = harness.run_workload("fake", make, 1, 0.0, False, {})
    metrics = {k: m["value"] for k, m in record["metrics"].items()}
    # the first three passes take 0.25, 0.20 and 0.25 s; a's best is 0.05 s, b's 0.10 s
    assert 0.20 <= metrics["run_s"] < 0.22 < record["spread"]["run_s"]["median"]
    assert 75.0 <= metrics["instance_ms_p50"] < 85.0
    assert 100.0 <= metrics["instance_ms_tail"] < 110.0


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    seen = set()
    for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
        assert name.match(m["name"]) and m["name"] not in seen
        seen.add(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert 2 <= len(SPEC["workloads"]) <= 8


def test_irreproducible_pass_and_raising_instance_count_as_failed():
    drift = itertools.count()

    def boom():
        raise RuntimeError("instance failure")

    make = _fake([
        ("steady", lambda: ((1.0,), [])),
        ("drift", lambda: ((next(drift),), [])),
        ("boom", boom),
    ])
    record, result = harness.run_workload("fake", make, 1, 0.0, False, {})
    # the first pass loses boom; every later pass's digest differs, so all
    # three of its instances fail
    passes = harness.MIN_PASSES
    failed = 1 + 3 * (passes - 1)
    assert (result["attempted"], result["failed"], result["correct"]) == (3 * passes, failed, False)
    assert record["metrics"]["failed_share"]["value"] == pytest.approx(failed / (3 * passes))


def test_deliberately_wrong_reference_fails_the_check():
    _, fn = workloads.entropic_ot(5)[0]
    _, checks = fn()
    assert all(harness.check_passes(c) for c in checks)
    gate = next(c for c in checks if c.name == "sinkhorn_rel_err")
    assert 0.0 < gate.error
    assert not harness.check_passes(gate._replace(tolerance=0.0))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = harness.tail(range(100))
    assert value == 89 and sum(v > value for v in range(100)) == 10
    assert pct == pytest.approx(100 * 89 / 99)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_run_exits_nonzero_without_library_source(tmp_path, monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "quadrature", "--seconds", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
