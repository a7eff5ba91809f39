"""One test per acceptance criterion, each printing its PASS/FAIL line.

Every criterion test reads one seed-0 ``run_suite`` call, made once for the
module: criteria 1 through 11 are judged on that call's first pass (with its
wall-clock budgets), and criterion 12 on its byte comparison with the second
pass, so the corpus runs twice per test session.
"""

import hashlib
from dataclasses import replace

import pytest

from convexineq import acceptance, functional

SEED = 0

# SHA-256 of the seed-0 combined CSV of criteria 1-11 (174,529 bytes): the
# oracle a refactor of the library or the criteria must leave unchanged
SUITE_CSV_SHA256 = "dfe172b9b0a4f7ccae3b7eacd8fa346991c4dfcdb8c2ebd2ea7ed4bbc5e6087f"


@pytest.fixture(scope="module")
def suite():
    return acceptance.run_suite(seed=SEED, tolerance_scale=1.0)


def _result(capsys, suite, index):
    res = suite.results[index - 1]
    with capsys.disabled():
        print()
        print(res.line())
    assert res.index == index
    assert res.elapsed < res.limit, f"over runtime budget: {res.elapsed:.1f}s >= {res.limit:.0f}s"
    assert res.passed, res.detail
    return res


def test_criterion_01_exact_ot_against_permutation_oracle(capsys, suite):
    res = _result(capsys, suite, 1)
    assert len(res.rows) == 500


def test_criterion_02_sinkhorn_accuracy(capsys, suite):
    res = _result(capsys, suite, 2)
    assert len(res.rows) == 50


def test_criterion_03_wasserstein_1d_translates(capsys, suite):
    res = _result(capsys, suite, 3)
    assert len(res.rows) == 3


def test_criterion_04_relative_entropy_against_mc_volumes(capsys, suite):
    res = _result(capsys, suite, 4)
    assert len(res.rows) == 20


def test_criterion_05_isotropic_constants(capsys, suite):
    _result(capsys, suite, 5)


def test_criterion_06_tlsi_corpus(capsys, suite):
    res = _result(capsys, suite, 6)
    # 100 functions x 4 domains x 3 exponents
    assert len(res.rows) == 1200


def test_tlsi_corpus_at_scale_zero_flags_exactly_the_negative_slacks(monkeypatch):
    # the corpus has no negative slack, so shift the reports' slacks by row:
    # +tolerance, 0, -tolerance / 2 in turn
    verify, calls = functional.tlsi_verify, []

    def shifted(*args, **kwargs):
        rep = verify(*args, **kwargs)
        calls.append(None)
        return replace(rep, slack=(1.0, 0.0, -0.5)[len(calls) % 3] * rep.tolerance)

    monkeypatch.setattr(functional, "tlsi_verify", shifted)
    args = (("interval", "disk"), 4, (1, 2, 3), 16)
    for ts in (0.0, 1.0):
        run = acceptance.tlsi_corpus(ts, *args)
        slack, verdict = run.header.index("slack"), run.header.index("verdict")
        negative = {row[:3] for row in run.rows if row[slack] < 0}
        assert len(negative) == 8
        flagged = {(v["domain"], v["p"], v["f_id"]) for v in run.violations}
        assert flagged == (negative if ts == 0.0 else set())
        assert {row[:3] for row in run.rows if row[verdict] == "VIOLATION"} == flagged


def test_lemma1_corpus_never_flags_a_reported_row():
    # borell_ratio's lhs is above its rhs = 1 by Jensen, so judging it as an
    # inequality at scale 0 would flag it
    run = acceptance.lemma1_corpus(0.0, 0, "l1-in-D2", m=64)
    reported = {row[2]: row for row in run.rows if row[-1] == "REPORTED"}
    assert {"entropy_vs_transport", "borell_ratio", "final", "c_implied"} == set(reported)
    assert reported["borell_ratio"][3] > reported["borell_ratio"][4]
    assert not {v["step"] for v in run.violations} & set(reported)


def test_criterion_07_dirichlet_sharpness(capsys, suite):
    _result(capsys, suite, 7)


def test_criterion_08_brenier_chain(capsys, suite):
    _result(capsys, suite, 8)


def test_brenier_corpus_scales_every_step_tolerance():
    # the trig chain's integration-by-parts slack is discretization error,
    # inside its tolerance at scale 1 and a violation at scale 0
    args = {"count": 1, "ps": (2.0,), "points": 129}
    assert not acceptance.brenier_corpus(1.0, **args).violations
    failed = {(v["f_id"], v["step"]) for v in acceptance.brenier_corpus(0.0, **args).violations}
    assert ("trig-1d-000", "integration_by_parts") in failed


def test_criterion_09_spectral_quotients(capsys, suite):
    _result(capsys, suite, 9)


def test_criterion_10_mean_norm_audit(capsys, suite):
    _result(capsys, suite, 10)


def test_criterion_11_tail_proxy_trends(capsys, suite):
    _result(capsys, suite, 11)


def test_criterion_12_suite_determinism(capsys, suite):
    _result(capsys, suite, 12)
    failed = [f"criterion {r.index} {r.name}: {r.detail}" for r in suite.results if not r.passed]
    assert suite.passed, "failed inside the suite run: " + "; ".join(failed)
    assert hashlib.sha256(suite.combined_csv().encode()).hexdigest() == SUITE_CSV_SHA256
