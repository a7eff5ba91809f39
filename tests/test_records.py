"""Result records and the sample-mean rule behind their stderrs."""

import dataclasses
import json
import math

import numpy as np
import pytest

from convexineq import (
    Ball,
    Estimate,
    SamplingError,
    concentration,
    corpora,
    functional,
    geometry,
    isotropy,
    sampling,
    transport,
)
from convexineq.reporting import Record, jsonable

INF, NAN = math.inf, math.nan


# -- the sample-mean rule ---------------------------------------------------------------


def test_of_samples_is_the_mean_with_its_standard_error():
    x = np.array([1.0, 2.0, 4.0, 7.0])
    est = Estimate.of_samples(x, seed=5)
    assert est.value == x.mean()
    assert est.stderr == x.std(ddof=1) / 2.0
    assert (est.count, est.seed) == (4, 5)


@pytest.mark.parametrize("k", [0, 1])
def test_of_samples_rejects_fewer_than_two(k):
    with pytest.raises(SamplingError, match="at least 2 samples"):
        Estimate.of_samples(np.ones(k))


ONE_SAMPLE = {
    "estimate_mean_norm_p": lambda: sampling.estimate_mean_norm_p(Ball(1.0, 2), 1, 1, seed=0),
    "wasserstein_empirical": lambda: transport.wasserstein_empirical(Ball(1.0, 2), Ball(1.0, 2), m=8, reps=1),
}


@pytest.mark.parametrize("call", ONE_SAMPLE.values(), ids=ONE_SAMPLE.keys())
def test_one_random_sample_has_no_stderr(call):
    # a random value from one sample is not reported with stderr 0
    with pytest.raises(SamplingError):
        call()


# -- first-order error propagation ----------------------------------------------------------

A, B = Estimate(3.0, 0.2, 10, seed=1), Estimate(-2.0, 0.5, 20, seed=2)

DELTA_METHOD = {
    "add": (lambda: A + B, 1.0, math.hypot(0.2, 0.5), 30),
    "sub": (lambda: A - B, 5.0, math.hypot(0.2, 0.5), 30),
    "mul": (lambda: A * B, -6.0, math.hypot(-2.0 * 0.2, 3.0 * 0.5), 30),
    "div": (lambda: A / B, -1.5, 1.5 * math.hypot(0.2 / 3.0, 0.5 / 2.0), 30),
    "pow": (lambda: A**3, 27.0, 3.0 * 3.0**2 * 0.2, 10),
    "root": (lambda: A**-0.5, 3.0**-0.5, 0.5 * 3.0**-1.5 * 0.2, 10),
    "sqrt": (lambda: A.sqrt(), math.sqrt(3.0), 0.2 / (2.0 * math.sqrt(3.0)), 10),
}


@pytest.mark.parametrize("op,value,stderr,count", DELTA_METHOD.values(), ids=DELTA_METHOD.keys())
def test_operations_follow_the_delta_method(op, value, stderr, count):
    got = op()
    assert got.value == pytest.approx(value, rel=1e-15)
    assert got.stderr == pytest.approx(stderr, rel=1e-14)
    assert got.count == count


def test_floats_are_exact_constants_on_either_side():
    e = Estimate(4.0, 0.5, 7, seed=3)
    cases = [
        (2.0 * e, 8.0, 1.0),
        (e * 2, 8.0, 1.0),
        (e / 3, 4.0 / 3.0, 0.5 / 3.0),
        (1 / e, 0.25, 0.5 / 16.0),
        (e + 1.0, 5.0, 0.5),
        (1.0 - e, -3.0, 0.5),
        (e - 1.0, 3.0, 0.5),
    ]
    for got, value, stderr in cases:
        assert isinstance(got, Estimate)
        assert (got.value, got.count, got.seed) == (value, 7, 3)
        assert got.stderr == pytest.approx(stderr, rel=1e-15)


def test_a_numpy_scalar_on_the_left_defers_to_the_estimate():
    e = Estimate(4.0, 0.5, 7, seed=3)
    for got in (np.float64(2.0) * e, np.float64(32.0) / e, np.float64(4.0) + e, np.float64(12.0) - e):
        assert isinstance(got, Estimate)
        assert got.value == 8.0 and got.count == 7


def test_inputs_are_independent():
    # the same estimate twice counts as two independent draws
    e = Estimate(4.0, 0.5, 7, seed=3)
    assert (e - e).value == 0.0
    assert (e - e).stderr == pytest.approx(math.sqrt(2.0) * 0.5, rel=1e-15)


def test_counts_add_and_the_seed_survives_only_when_shared():
    a, b = Estimate(1.0, 0.1, 5, seed=7), Estimate(2.0, 0.1, 6, seed=7)
    quadrature = Estimate(2.0, 0.0, 100)
    unseeded = Estimate(1.0, 0.1, 4)
    other = Estimate(2.0, 0.1, 6, seed=8)
    # a deterministic input adds its nodes but no seed
    cases = [(a + b, 11, 7), (a * other, 11, None), (a / quadrature, 105, 7), (a - unseeded, 9, None)]
    cases.append((quadrature * 2.0, 100, None))
    for got, count, seed in cases:
        assert (got.count, got.seed) == (count, seed)


# -- record JSON ---------------------------------------------------------------------------


def _records():
    """One instance of every record type, holding inf and nan where a field can."""
    est = Estimate(INF, 0.0, 1)
    steps = (concentration.AuditStep("final", 1.0, INF, NAN, "REPORTED"),)
    fit = concentration.ConcentrationFit(
        "x[0]", np.array([0.5]), np.array([0.1]), np.array([0.1]), np.array([3]), np.array([0]), INF, NAN, 10, 0
    )
    tlsi = functional.tlsi_verify(geometry.interval(0.0, 1.0), functional.polynomial([(1.0, (0,))], 1), 1.0, 16)
    step = functional.StepRecord("holder_young", "inequality", 1.0, INF, 0.0, {"A": NAN})
    chain = functional.brenier_chain_check_1d(np.ones(33), (0.0, 1.0), p=1.0)
    plan = transport.CouplingPlan(np.eye(2) / 2, INF, 1, "sinkhorn", NAN, epsilon=INF)
    return [
        est,
        Estimate(NAN, 0.0, 1, seed=3),
        geometry.AffineMap.identity(2),
        transport.DiscreteMeasure.uniform([[0.0, 1.0], [2.0, 3.0]]),
        plan,
        dataclasses.replace(plan, plan=np.eye(65) / 65),
        isotropy.IsotropyReport(
            np.zeros(2), np.eye(2), geometry.AffineMap.identity(2), est, NAN, 10, "ab"
        ),
        fit,
        concentration.TauProxyResult(est, (fit,), "x[0]"),
        steps[0],
        concentration.Lemma1Audit(INF, NAN, 2, steps, {"tau_proxy": est}, 8, 0, "k", "b"),
        functional.polynomial([(1.0, (0, 1))], 2),
        tlsi,
        dataclasses.replace(tlsi, slack=NAN, tolerance=INF),
        functional.DirichletConstants(1.0, 0.0, INF, NAN, 4),
        step,
        dataclasses.replace(chain, tv_error=NAN, steps=(step,)),
    ]


def test_every_record_type_writes_strict_json():
    records = _records()
    assert {type(r) for r in records} == set(Record.__subclasses__())
    for rec in records:
        json.dumps(rec.to_json(), allow_nan=False)


def test_record_json_is_its_fields():
    est = Estimate(np.float64(0.5), 0.25, np.int64(7), seed=np.int64(2))
    assert est.to_json() == {"value": 0.5, "stderr": 0.25, "count": 7, "seed": 2}
    rep = isotropy.IsotropyReport(np.zeros(2), np.eye(2), geometry.AffineMap.identity(2), est, INF, 10, "ab")
    assert rep.to_json()["transform"] == {"linear": [[1.0, 0.0], [0.0, 1.0]], "shift": [0.0, 0.0]}
    assert rep.to_json()["L_estimate"] == est.to_json()
    assert rep.to_json()["isotropy_defect"] == "inf"


def test_only_records_with_another_shape_write_their_own_json():
    own = {cls.__name__ for cls in Record.__subclasses__() if "to_json" in vars(cls)}
    assert own == {"Lemma1Audit", "TLSIReport", "TauProxyResult", "CouplingPlan", "StepRecord", "BrenierChain1D"}


def test_jsonable_returns_a_to_json_as_is():
    data = {"a": [1, 2.5], "b": "x"}

    class Stub:
        def to_json(self):
            return data

    assert jsonable(Stub()) is data
    assert jsonable([Stub()])[0] is data


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_body_variant_writes_strict_json():
    # jsonable hands a body's to_json on unchanged, so it must already be strict JSON
    bodies = [
        Ball(0.5, 3),
        geometry.Cube(1.0, 2),
        geometry.L1Ball(1.0, 2),
        geometry.HPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.array([1.0, 1.0, 0.5])),
        geometry.apply_affine(geometry.L1Ball(1.0, 2), [[2.0, 0.3], [0.0, 1.0]], [0.1, -0.2]),
        geometry.interval(0.25, 1.75),
        corpora.lshape(),
    ]
    variants = {cls for cls in _subclasses(geometry._Region) if "to_json" in vars(cls)}
    assert {type(b) for b in bodies} == variants
    for body in bodies:
        json.dumps(body.to_json(), allow_nan=False)


def test_reshaped_records_keep_their_keys():
    step = functional.StepRecord("s", "identity", 1.0, 2.0, 0.5, {"A": 3.0})
    assert step.to_json()["A"] == 3.0 and "extras" not in step.to_json()
    big = transport.CouplingPlan(np.eye(65) / 65, 1.0, 2, "exact", 0.0).to_json()
    assert big["shape"] == [65, 65] and "plan" not in big
    assert big["plan_coo"][:2] == [[0, 0, 1 / 65], [1, 1, 1 / 65]]


# -- verdicts ----------------------------------------------------------------------------


def _verdict_of(rec):
    return "PASS" if rec.holds() else "VIOLATION"


def test_tlsi_report_verdict_is_its_own_rule():
    rep = functional.tlsi_verify(geometry.interval(0.0, 1.0), functional.random_trig(1, 3), 2.0, 16)
    t = rep.tolerance
    # replace re-derives the verdict, so a record cannot keep a stale one
    for slack, at_one, at_zero in ((t, True, True), (0.0, True, True), (-t / 2, True, False), (-2 * t, False, False)):
        moved = dataclasses.replace(rep, slack=slack)
        assert (moved.holds(), moved.holds(0.0)) == (at_one, at_zero)
        assert moved.verdict == _verdict_of(moved)
    assert "verdict" not in {f.name for f in dataclasses.fields(rep) if f.init}


@pytest.mark.parametrize(
    "kind,lhs,rhs,slack,at_one,at_zero",
    [
        ("inequality", 1.0, 1.5, 0.5, True, True),
        ("inequality", 1.0, 0.875, -0.125, True, False),
        ("inequality", 1.0, 0.5, -0.5, False, False),
        ("identity", 1.0, 1.0, 0.0, True, True),
        ("identity", 1.0, 1.125, -0.125, True, False),
        ("identity", 1.5, 1.0, 0.5, False, False),
    ],
)
def test_step_record_derives_slack_and_verdict(kind, lhs, rhs, slack, at_one, at_zero):
    step = functional.StepRecord("s", kind, lhs, rhs, 0.25)
    assert step.slack == slack
    assert (step.holds(), step.holds(0.0)) == (at_one, at_zero)
    assert step.verdict == _verdict_of(step)


def test_brenier_chain_passes_when_every_step_holds():
    chain = functional.brenier_chain_check_1d(np.ones(33), (0.0, 1.0), p=2.0)
    assert chain.passed() and all(s.verdict == _verdict_of(s) for s in chain.steps)
    broken = dataclasses.replace(chain.steps[0], rhs=chain.steps[0].lhs - 1.0)
    assert broken.verdict == "VIOLATION"
    assert not dataclasses.replace(chain, steps=(broken, *chain.steps[1:])).passed()


@pytest.mark.parametrize(
    "lhs,rhs,stderr,at_one,at_zero",
    [(1.0, 1.5, 0.1, True, True), (1.0, 0.9, 0.05, True, False), (1.0, 0.5, 0.1, False, False)],
)
def test_audit_step_verdict_is_its_own_rule(lhs, rhs, stderr, at_one, at_zero):
    step = concentration.AuditStep("s", lhs, rhs, stderr)
    assert (step.holds(), step.holds(0.0)) == (at_one, at_zero)
    assert step.verdict == _verdict_of(step)
    # a verdict passed in is replaced by the row's own, unless it is REPORTED
    assert concentration.AuditStep("s", lhs, rhs, stderr, "PASS").verdict == step.verdict
    reported = concentration.AuditStep("s", lhs, rhs, stderr, "REPORTED")
    assert reported.verdict == "REPORTED" and reported.holds() and reported.holds(0.0)
