import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexineq import (
    Ball,
    DiscreteMeasure,
    NotNormalizedError,
    SamplingError,
    SolverError,
    corpora,
    transport,
)


def _uniform(rng, k, d=2):
    return DiscreteMeasure.uniform(rng.normal(size=(k, d)))


def test_discrete_measure_merges_duplicates():
    d = DiscreteMeasure(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), np.array([0.25, 0.25, 0.5]))
    assert d.count == 2
    assert sorted(d.weights.tolist()) == [0.5, 0.5]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(exponent=st.integers(-6, 15), sign=st.sampled_from([1.0, -1.0]))
def test_discrete_measure_keeps_distinct_points_at_any_scale(exponent, sign):
    # keys of pts / 1e-12 passed the int64 range at coordinates near 9.2e6
    pts = sign * 10.0**exponent * np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 5.0]])
    assert DiscreteMeasure.uniform(pts).count == 3
    # a repeated point and the origin written with both signs of zero merge
    again = DiscreteMeasure.uniform(np.vstack([pts, pts[1:2], [[0.0, -0.0], [-0.0, 0.0]]]))
    assert again.count == 4
    assert sorted(again.weights.tolist()) == pytest.approx([1 / 6, 1 / 6, 1 / 3, 1 / 3])


def test_discrete_measure_weight_validation():
    with pytest.raises(NotNormalizedError):
        DiscreteMeasure(np.zeros((2, 2)), np.array([0.7, 0.7]))


def test_cost_matrix_exponent_validation():
    rng = np.random.default_rng(0)
    mu, nu = _uniform(rng, 3), _uniform(rng, 3)
    with pytest.raises(SolverError):
        transport.cost_matrix(mu, nu, 3)


def test_exact_ot_matches_oracle_small():
    rng = np.random.default_rng(1)
    for k in (2, 5, 7):
        for p in (1, 2):
            mu, nu = _uniform(rng, k), _uniform(rng, k)
            a = transport.exact_ot(mu, nu, p)
            b = transport.permutation_oracle(mu, nu, p)
            assert abs(a.cost - b.cost) <= 1e-9
            assert a.marginal_residual <= 1e-9


def test_exact_ot_nonuniform_weights():
    """Unequal weights route through the transportation LP."""
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    plan = transport.exact_ot(mu, nu, 1)
    # move mass 0.5 across distance 1
    assert plan.cost == pytest.approx(0.5, abs=1e-9)
    assert plan.solver == "exact"


def test_transport_lp_matches_the_1d_cdf_closed_form():
    """A non-uniform 150 x 151 instance on the line: W1 = integral of |F - G|."""
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=150), rng.normal(0.3, 1.5, size=151)
    a, b = rng.random(150) + 0.1, rng.random(151) + 0.1
    a, b = a / a.sum(), b / b.sum()
    plan = transport.exact_ot(DiscreteMeasure(x[:, None], a), DiscreteMeasure(y[:, None], b), 1)
    grid = np.sort(np.concatenate([x, y]))
    F = np.array([a[x <= t].sum() for t in grid[:-1]])
    G = np.array([b[y <= t].sum() for t in grid[:-1]])
    w1 = float((np.abs(F - G) * np.diff(grid)).sum())
    assert plan.cost == pytest.approx(w1, rel=1e-9)
    assert plan.marginal_residual <= 1e-9


def test_discrete_measure_leaves_the_callers_points_writeable():
    x = np.array([[0.0, 1.0], [2.0, 3.0]])
    mu = DiscreteMeasure.uniform(x)
    x[0, 0] = 5.0
    assert not mu.support.flags.writeable
    assert mu.support[0, 0] == 0.0


def test_w1_below_w2():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mu, nu = _uniform(rng, 20), _uniform(rng, 20)
        w1 = transport.exact_ot(mu, nu, 1).cost
        w2 = math.sqrt(transport.exact_ot(mu, nu, 2).cost)
        assert w1 <= w2 + 1e-9


def test_triangle_inequality_exact():
    # exact solves give a true metric on point clouds, so no stderr is needed
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = (_uniform(rng, 10) for _ in range(3))
        dab = transport.exact_ot(a, b, 1).cost
        dbc = transport.exact_ot(b, c, 1).cost
        dac = transport.exact_ot(a, c, 1).cost
        assert dac <= dab + dbc + 1e-9


def test_permutation_oracle_guards():
    rng = np.random.default_rng(4)
    with pytest.raises(SolverError):
        transport.permutation_oracle(_uniform(rng, 9), _uniform(rng, 9), 1)
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
    with pytest.raises(SolverError):
        transport.permutation_oracle(mu, mu, 1)


def test_exact_cap_falls_back_to_sinkhorn(monkeypatch):
    monkeypatch.setattr(transport, "_EXACT_CAP", 8)
    rng = np.random.default_rng(5)
    mu, nu = _uniform(rng, 9), _uniform(rng, 9)
    with pytest.warns(UserWarning, match="exceeds the exact solver cap"):
        plan = transport.exact_ot(mu, nu, 2)
    assert plan.solver == "sinkhorn"


@pytest.mark.parametrize("p", [1, 2])
def test_exact_cap_fallback_warns_when_sinkhorn_stops_unconverged(monkeypatch, p):
    # one far outlier on each side: at the fallback's epsilon the iteration
    # reaches max_iters before its stopping test holds
    monkeypatch.setattr(transport, "_EXACT_CAP", 8)
    rng = np.random.default_rng(1)
    x, y = rng.random((2, 20, 2))
    x[0], y[0] = (300.0, 0.0), (0.0, 300.0)
    mu, nu = DiscreteMeasure.uniform(x), DiscreteMeasure.uniform(y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        plan = transport.exact_ot(mu, nu, p)
    assert plan.solver == "sinkhorn" and not plan.converged
    messages = [str(w.message) for w in caught]
    assert any("exceeds the exact solver cap" in m for m in messages)
    unconverged = [m for m in messages if "did not converge" in m]
    assert len(unconverged) == 1
    assert f"{plan.iterations} iterations" in unconverged[0]
    assert f"marginal defect {plan.marginal_defect:.3g}" in unconverged[0]


def test_sinkhorn_error_decreases_with_epsilon():
    mu, nu, p = corpora.sinkhorn_instance(0)
    exact = transport.exact_ot(mu, nu, p)
    med = float(np.median(transport.cost_matrix(mu, nu, p)))
    errs = []
    for frac in (0.1, 0.03, 0.01):
        plan = transport.sinkhorn(mu, nu, p, epsilon=frac * med)
        # the rounded plan is feasible, so its cost sits above the optimum
        assert plan.cost >= exact.cost - 1e-9
        assert plan.marginal_residual <= 1e-12
        errs.append(plan.cost - exact.cost)
    assert errs[0] > errs[1] > errs[2]


def test_sinkhorn_stable_where_the_plain_kernel_underflows():
    # criterion 2's epsilon: entries of the plain kernel exp(-C / eps)
    # underflow to zero, so the scalings alone cannot carry the solution
    mu, nu, p = corpora.sinkhorn_instance(0)
    C = transport.cost_matrix(mu, nu, p)
    eps = 1e-3 * float(np.median(C))
    assert np.any(np.exp(-C / eps) == 0.0)
    plan = transport.sinkhorn(mu, nu, p, epsilon=eps)
    # the unrounded plan is exp((f + g - C) / eps); a converged, finite
    # defect leaves no row or column whose potential is infinite
    assert plan.converged
    assert math.isfinite(plan.marginal_defect)
    assert plan.marginal_defect <= eps / C.max()
    assert np.all(np.isfinite(plan.plan))
    exact = transport.exact_ot(mu, nu, p)
    assert abs(plan.cost - exact.cost) <= 0.02 * exact.cost
    assert plan.marginal_residual <= 1e-12


def test_sinkhorn_converges_when_a_kernel_row_underflows():
    # one far outlier on each side: the first rung's kernel row of the
    # outlier is all zeros, and plain updates on the next rungs stall
    rng = np.random.default_rng(1)
    x, y = rng.random((2, 20, 2))
    x[0], y[0] = (300.0, 0.0), (0.0, 300.0)
    mu, nu = DiscreteMeasure.uniform(x), DiscreteMeasure.uniform(y)
    C = transport.cost_matrix(mu, nu, 2)
    assert np.all(np.exp(-C[0] / np.median(C[C > 0])) == 0.0)
    plan = transport.sinkhorn(mu, nu, 2, epsilon=1e-2 * float(np.median(C)))
    assert plan.converged
    exact = transport.exact_ot(mu, nu, 2)
    assert abs(plan.cost - exact.cost) <= 0.02 * exact.cost
    assert plan.marginal_residual <= 1e-12


def test_sinkhorn_reports_an_early_stop():
    mu, nu, p = corpora.sinkhorn_instance(0)
    C = transport.cost_matrix(mu, nu, p)
    eps = 1e-3 * float(np.median(C))
    plan = transport.sinkhorn(mu, nu, p, epsilon=eps, max_iters=5)
    assert plan.iterations == 5
    assert not plan.converged
    assert plan.marginal_defect > eps / C.max()
    # still rounded to exact feasibility
    assert plan.marginal_residual <= 1e-12


def test_sinkhorn_epsilon_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(SolverError):
        transport.sinkhorn(_uniform(rng, 4), _uniform(rng, 4), 2, epsilon=0.0)


def test_wasserstein_1d_quantile_oracles():
    m = 10_000
    base = (np.arange(m) + 0.5) / m
    assert transport.wasserstein_1d(base, base + 0.5, p=1) == pytest.approx(0.5, abs=1e-12)
    # U(0,1) to U(0,2) under the monotone map 2x costs 1/sqrt(3) in W2
    assert transport.wasserstein_1d(base, 2.0 * base, p=2) == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-6
    )


def test_wasserstein_1d_input_validation():
    with pytest.raises(SamplingError):
        transport.wasserstein_1d([1.0, 2.0], [1.0])
    with pytest.raises(SamplingError):
        transport.wasserstein_1d([], [])


def test_empirical_bias_decreases_with_m():
    # W1 between two samples of the same body is pure finite-m bias
    vals = [
        transport.wasserstein_empirical(Ball(1.0, 2), Ball(1.0, 2), p=1, m=m, seed=3, reps=3).value
        for m in (64, 256, 1024)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_w1_to_point_mass_disk():
    est = transport.w1_to_point_mass(Ball(1.0, 2), m=200_000, seed=9)
    assert abs(est.value - 2.0 / 3.0) <= 4.0 * est.stderr


def test_tci_records_skip_zero_entropy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SamplingError, match="skipped"):
            transport.tci_tau_records(Ball(1.0, 2), [Ball(1.0, 2)], m=256)


def test_tci_bound_on_nested_pair():
    est, records = transport.tci_tau_records(Ball(1.0, 2), [Ball(0.5, 2)], m=512, seed=1)
    rec = records[0]
    assert not rec["skipped"]
    assert rec["entropy"] == pytest.approx(math.log(4.0), rel=1e-9)
    assert est.value == pytest.approx(2.0 * rec["entropy"] / rec["w_value"] ** 2, rel=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    xs=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=50),
    a=st.floats(-100.0, 100.0),
)
def test_wasserstein_1d_translation(xs, a):
    """W1 between a sample and its translate is the translation size."""
    x = np.asarray(xs)
    w = transport.wasserstein_1d(x, x + a, p=1)
    assert abs(w - abs(a)) <= 1e-9 * (1.0 + abs(a) + np.abs(x).max())


@pytest.mark.parametrize(
    "points,weights",
    [
        ([[math.nan, 0.0], [1.0, 0.0]], [0.5, 0.5]),
        ([[math.inf, 0.0], [1.0, 0.0]], [0.5, 0.5]),
        ([[0.0, 0.0], [1.0, 0.0]], [math.nan, 0.5]),
    ],
)
def test_discrete_measure_rejects_non_finite_entries(points, weights):
    with pytest.raises(NotNormalizedError, match="finite"):
        DiscreteMeasure(np.array(points), np.array(weights))


def test_uniform_measure_with_nan_point_fails_before_transport():
    with pytest.raises(NotNormalizedError):
        DiscreteMeasure.uniform([[math.nan, 0.0], [1.0, 0.0]])
