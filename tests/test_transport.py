import itertools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexineq import (
    Ball,
    Cube,
    DiscreteMeasure,
    NotNormalizedError,
    SamplingError,
    SolverError,
    corpora,
    transport,
)
from convexineq._rng import Purpose, child_seed
from convexineq.estimate import Estimate
from convexineq.sampling import estimate_mean_norm_p, sample_uniform


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


@pytest.mark.parametrize("scale", [1e300, 1.7e297, 1e296])
def test_discrete_measure_keeps_huge_distinct_points_apart(scale):
    # pts / 1e-12 overflowed to inf past about 1.8e296, which merged these
    pts = scale * np.array([[1.0, -1.0], [1.5, -1.0], [-1.5, 1.0], [1.0, -1.0]])
    pts = np.vstack([pts, [[1.0, 0.0], [1.0, 5e-13]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = DiscreteMeasure.uniform(pts)
    # only the repeated huge point merges; the two points 5e-13 apart stay
    assert d.count == 5
    assert d.support.tolist() == [
        [-1.5 * scale, scale], [1.0, 0.0], [1.0, 5e-13], [scale, -scale], [1.5 * scale, -scale]
    ]
    assert d.weights.tolist() == pytest.approx([1 / 6, 1 / 6, 1 / 6, 1 / 3, 1 / 6])


@pytest.mark.parametrize("scale", [1e-13, 1e-200, 1e-300])
def test_discrete_measure_keeps_tiny_distinct_points_apart(scale):
    # an absolute 1e-12 merge key made these one atom of weight 1
    pts = scale * np.random.default_rng(7).normal(size=(7, 2))
    d = DiscreteMeasure.uniform(pts)
    assert d.count == 7
    assert d.support.tobytes() == pts.tobytes()


def _merge_with_unique(pts, w):
    # the merge as np.unique alone computes it, without the sorted pre-check
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    if first.shape[0] == pts.shape[0]:
        return pts, w
    merged_w = np.zeros(first.shape[0])
    np.add.at(merged_w, inverse, w)
    return pts[first], merged_w


def _merge_cases():
    g = np.random.default_rng(12)
    base = g.normal(size=(1024, 2))
    yield "distinct", base
    yield "exact", np.vstack([base[:5], base[3:4], base[:1]])
    # within 1e-12 of each other but not equal: none merges
    yield "near", np.vstack([base[:6], base[2:3] + 3e-13, base[4:5] - 4e-13, base[5:6] + 8e-13])
    yield "signed-zero", np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [1.0, -0.0]])
    yield "huge", np.array([[9.2e6, 1.0], [9.2e6 + 1e-6, 1.0], [9.2e6, 1.0], [1e290, -1e290],
                            [1.5e290, -1e290], [-4e18, 3e18]])
    yield "one-point", base[:1]
    yield "all-equal", np.repeat(base[:1], 7, axis=0)


@pytest.mark.parametrize("name,pts", list(_merge_cases()), ids=[c[0] for c in _merge_cases()])
def test_merge_duplicates_equals_the_unique_merge(name, pts):
    w = np.random.default_rng(3).uniform(0.5, 1.5, pts.shape[0])
    got_pts, got_w = transport._merge_duplicates(pts.copy(), w.copy())
    want_pts, want_w = _merge_with_unique(pts.copy(), w.copy())
    assert got_pts.tobytes() == want_pts.tobytes() and got_w.tobytes() == want_w.tobytes()
    assert (got_pts.shape[0] < pts.shape[0]) == (name not in ("distinct", "near", "one-point"))


@pytest.mark.parametrize("offset", [0.0, 1e-13, -9e-13, 1e-12, 1.1e-12, -2e-12, 1e-9])
def test_is_uniform_is_allclose_at_atol_1e_12(offset):
    w = np.full(8, 1.0 / 8)
    w[3] += offset
    w[5] -= offset
    got = DiscreteMeasure(np.arange(16.0).reshape(8, 2), w).is_uniform()
    assert got == bool(np.allclose(w, 1.0 / 8, rtol=0, atol=1e-12))


def test_discrete_measure_weight_validation():
    with pytest.raises(NotNormalizedError):
        DiscreteMeasure(np.zeros((2, 2)), np.array([0.7, 0.7]))


def test_cost_matrix_exponent_validation():
    rng = np.random.default_rng(0)
    mu, nu = _uniform(rng, 3), _uniform(rng, 3)
    with pytest.raises(SolverError):
        transport.cost_matrix(mu, nu, 3)


def _einsum_cost(mu, nu, p):
    # the m x m x n difference tensor form that cost_matrix replaced
    diff = mu.support[:, None, :] - nu.support[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return d2 if p == 2 else np.sqrt(d2)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_cost_matrix_matches_the_difference_tensor_form(n, p):
    rng = np.random.default_rng(10 + n)
    mu = DiscreteMeasure.uniform(rng.normal(size=(300, n)))
    nu = DiscreteMeasure.uniform(rng.normal(size=(257, n)))
    new, old = transport.cost_matrix(mu, nu, p), _einsum_cost(mu, nu, p)
    if n <= 2:
        # one sum at most, which no summation order can round differently
        assert np.array_equal(new, old)
    else:
        # einsum sums the coordinates in SIMD lanes, another order
        assert np.all(np.abs(new - old) <= 4.0 * np.spacing(old))


def test_cost_matrix_holds_no_difference_tensor():
    rng = np.random.default_rng(11)
    mu = DiscreteMeasure.uniform(rng.random((1024, 3)))
    nu = DiscreteMeasure.uniform(rng.random((1024, 3)))
    tracemalloc.start()
    try:
        transport.cost_matrix(mu, nu, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result and one scratch matrix are 16 MiB; the 3-D tensor was 24
    assert peak <= 20 * 2**20


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
    """Unequal weights on the line take the monotone coupling."""
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
    nu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    plan = transport.exact_ot(mu, nu, 1)
    # move mass 0.5 across distance 1
    assert plan.cost == pytest.approx(0.5, abs=1e-9)
    assert plan.solver == "exact"


def test_monotone_coupling_matches_the_1d_cdf_closed_form():
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


def _line_instance(seed):
    # sizes 1-39 with k = 1 against k, tied supports across the two sides
    # (a 0.1 grid) and zero-weight atoms
    g = np.random.default_rng([19, seed])
    k1, k2 = (1, int(g.integers(1, 40))) if seed % 5 == 0 else g.integers(1, 40, size=2)
    x = np.unique(np.round(g.normal(size=k1), 1))
    y = np.unique(np.round(g.normal(size=k2), 1))
    a, b = g.random(x.size), g.random(y.size)
    a[g.random(x.size) < 0.25] = 0.0
    b[g.random(y.size) < 0.25] = 0.0
    a[0] += 0.1
    b[-1] += 0.1
    return x, a / a.sum(), y, b / b.sum()


@pytest.mark.parametrize("p", [1, 2])
def test_monotone_coupling_equals_the_lp_of_the_embedded_instance(p):
    # the same points with a zero second coordinate take the transportation LP
    ties = zero_weights = unequal = singles = 0
    for seed in range(60):
        x, a, y, b = _line_instance(seed)
        line = transport.exact_ot(DiscreteMeasure(x[:, None], a), DiscreteMeasure(y[:, None], b), p)
        plane = transport.exact_ot(
            DiscreteMeasure(np.c_[x, 0 * x], a), DiscreteMeasure(np.c_[y, 0 * y], b), p
        )
        assert line.cost == pytest.approx(plane.cost, rel=1e-12, abs=1e-300)
        assert max(line.marginal_residual, plane.marginal_residual) <= 1e-12
        ties += np.intersect1d(x, y).size > 0
        zero_weights += np.any(a == 0.0) or np.any(b == 0.0)
        unequal += x.size != y.size
        singles += min(x.size, y.size) == 1
    assert min(ties, zero_weights, unequal, singles) > 0


def test_exact_ot_on_the_line_never_calls_the_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the transportation LP was called")

    monkeypatch.setattr(transport, "linprog", refuse)
    for seed in range(20):
        x, a, y, b = _line_instance(seed)
        plan = transport.exact_ot(DiscreteMeasure(x[:, None], a), DiscreteMeasure(y[:, None], b), 2)
        assert plan.solver == "exact"


@pytest.mark.parametrize("seed", range(20))
def test_monotone_coupling_is_a_chain_in_both_sorted_supports(seed):
    x, a, y, b = _line_instance(seed)
    # shuffled, so that the plan's indices differ from the sorted ranks
    g = np.random.default_rng(seed)
    sx, sy = g.permutation(x.size), g.permutation(y.size)
    x, a, y, b = x[sx], a[sx], y[sy], b[sy]
    plan = transport.exact_ot(DiscreteMeasure(x[:, None], a), DiscreteMeasure(y[:, None], b), 1)
    rows, cols = np.nonzero(plan.plan)
    assert rows.size <= x.size + y.size - 1
    # ranks in the sorted supports, visited in increasing order of x then y
    rx, ry = np.argsort(np.argsort(x))[rows], np.argsort(np.argsort(y))[cols]
    order = np.lexsort((ry, rx))
    rx, ry = rx[order], ry[order]
    assert np.all(np.diff(rx) >= 0) and np.all(np.diff(ry) >= 0)
    assert np.all((np.diff(rx) > 0) | (np.diff(ry) > 0))
    assert np.all(a[rows] > 0) and np.all(b[cols] > 0)
    assert plan.solver == "exact"


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


def _raw_assignment(mu, nu, p):
    """scipy's assignment on the unreduced cost matrix: rows, cols, cost."""
    from scipy.optimize import linear_sum_assignment

    C = transport.cost_matrix(mu, nu, p)
    rows, cols = linear_sum_assignment(C)
    return rows, cols, float(C[rows, cols].sum() / C.shape[0])


def _assignment_of(plan):
    rows, cols = np.nonzero(plan.plan)
    assert np.array_equal(rows, np.arange(plan.plan.shape[0]))
    assert np.array_equal(np.sort(cols), rows)
    return rows, cols


def _seeded_pair(m, d, seed):
    g = np.random.default_rng([m, d, seed])
    x, y = g.normal(size=(2, m, d))
    return DiscreteMeasure.uniform(x), DiscreteMeasure.uniform(y)


# (d, p) = (1, 1) is left out: on the line |x - y| has many optimal
# matchings, and test_exact_ot_on_the_line_at_p1_is_optimal covers it
ASSIGNMENT_CASES = [
    (m, d, p) for m in (2, 7, 100, 512, 1024) for d in (1, 2, 3) for p in (1, 2) if (d, p) != (1, 1)
]


@pytest.mark.parametrize("m,d,p", ASSIGNMENT_CASES)
def test_exact_ot_assignment_equals_scipy_on_the_unreduced_matrix(m, d, p):
    for seed in range(3 if m <= 100 else 1):
        mu, nu = _seeded_pair(m, d, seed)
        rows, cols, cost = _raw_assignment(mu, nu, p)
        plan = transport.exact_ot(mu, nu, p)
        got_rows, got_cols = _assignment_of(plan)
        assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
        assert plan.cost == cost


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("pair", corpora.audit_pairs(), ids=lambda pair: pair[0])
def test_exact_ot_assignment_equals_scipy_on_the_audit_pairs(pair, p):
    # the first repetition of a wasserstein_empirical matching at m = 1024
    _, K, B = pair
    ca = sample_uniform(K, 1024, child_seed(3, Purpose.EMPIRICAL_W, 0))
    cb = sample_uniform(B, 1024, child_seed(3, Purpose.EMPIRICAL_W, 1))
    mu, nu = DiscreteMeasure.from_cloud(ca), DiscreteMeasure.from_cloud(cb)
    rows, cols, cost = _raw_assignment(mu, nu, p)
    plan = transport.exact_ot(mu, nu, p)
    got_rows, got_cols = _assignment_of(plan)
    assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
    assert plan.cost == cost


@pytest.mark.parametrize("m", [2, 7, 100, 512, 1024])
def test_exact_ot_on_the_line_at_p1_is_optimal(m):
    # many matchings are optimal here, so the solver on the reduced matrix
    # may pick another one than scipy on C; each is within rounding of the
    # monotone rearrangement's cost
    for seed in range(3):
        mu, nu = _seeded_pair(m, 1, seed)
        plan = transport.exact_ot(mu, nu, 1)
        _assignment_of(plan)
        exact = transport.wasserstein_1d(mu.support, nu.support, 1)
        assert plan.cost == pytest.approx(_raw_assignment(mu, nu, 1)[2], rel=1e-13)
        assert plan.cost == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_exact_ot_on_lattice_points_matches_scipys_cost(seed):
    # integer points at p = 2: every cost entry and every sum of them is an
    # exact integer, and the optimum is far from unique
    g = np.random.default_rng(seed)
    grid = np.array([(i, j) for i in range(20) for j in range(20)], dtype=float)
    mu = DiscreteMeasure.uniform(grid[g.choice(400, 100, replace=False)])
    nu = DiscreteMeasure.uniform(grid[g.choice(400, 100, replace=False)])
    plan = transport.exact_ot(mu, nu, 2)
    _assignment_of(plan)
    assert plan.cost == _raw_assignment(mu, nu, 2)[2]


@pytest.mark.parametrize("k", range(1, 9))
def test_permutation_table_is_built_once_and_read_only(k):
    table = transport._permutations(k)
    assert np.array_equal(table, np.array(list(itertools.permutations(range(k)))))
    assert transport._permutations(k) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


def _uncached_oracle(mu, nu, p):
    k = mu.count
    C = transport.cost_matrix(mu, nu, p)
    perms = np.array(list(itertools.permutations(range(k))))
    costs = C[np.arange(k)[None, :], perms].sum(axis=1)
    return perms[int(np.argmin(costs))], float(costs.min() / k)


def test_permutation_oracle_equals_the_uncached_table_on_the_ot_corpus():
    for index in range(corpora.OT_INSTANCES):
        mu, nu, p = corpora.ot_instance(index)
        best, cost = _uncached_oracle(mu, nu, p)
        plan = transport.permutation_oracle(mu, nu, p)
        assert np.array_equal(_assignment_of(plan)[1], best)
        assert plan.cost == cost


def test_exact_cap_is_a_hard_limit(monkeypatch):
    # refused before the cost matrix is built, so memory stays within the cap
    monkeypatch.setattr(transport, "_EXACT_CAP", 8)

    def no_cost_matrix(*args):
        raise AssertionError("cost_matrix called over the cap")

    monkeypatch.setattr(transport, "cost_matrix", no_cost_matrix)
    rng = np.random.default_rng(5)
    mu, nu = _uniform(rng, 9), _uniform(rng, 9)
    with pytest.raises(SolverError, match="exceeds the exact solver cap 8"):
        transport.exact_ot(mu, nu, 2)


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


def _serial_wasserstein(A, B, p, m, seed, reps):
    vals = np.empty(reps)
    for r in range(reps):
        ca = sample_uniform(A, m, child_seed(seed, Purpose.EMPIRICAL_W, 2 * r))
        cb = sample_uniform(B, m, child_seed(seed, Purpose.EMPIRICAL_W, 2 * r + 1))
        mu, nu = DiscreteMeasure.from_cloud(ca), DiscreteMeasure.from_cloud(cb)
        vals[r] = transport.exact_ot(mu, nu, p).cost ** (1.0 / p)
    return Estimate.of_samples(vals, seed=seed)


W_PAIRS = {
    "disk-square": (Ball(1.0, 2), Cube(1.0, 2)),
    "cube-in-ball-3d": (Cube(1.0, 3), Ball(1.0, 3)),
}


@pytest.mark.parametrize("reps", [2, 3, 10])
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("pair", W_PAIRS.values(), ids=W_PAIRS.keys())
def test_wasserstein_empirical_equals_the_serial_loop(pair, p, reps):
    A, B = pair
    serial = _serial_wasserstein(A, B, p, 96, 7, reps)
    first = transport.wasserstein_empirical(A, B, p=p, m=96, seed=7, reps=reps)
    again = transport.wasserstein_empirical(A, B, p=p, m=96, seed=7, reps=reps)
    for est in (first, again):
        assert (est.value, est.stderr, est.count, est.seed) == (
            serial.value, serial.stderr, serial.count, serial.seed
        )


@pytest.mark.parametrize("cpus", [1, 8])
def test_wasserstein_empirical_does_not_depend_on_the_pool_size(monkeypatch, cpus):
    # eight threads on fewer cores, switching often, finish in shuffled order
    A, B = W_PAIRS["cube-in-ball-3d"]
    serial = _serial_wasserstein(A, B, 1, 64, 4, 10)
    monkeypatch.setattr(transport, "usable_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = transport.wasserstein_empirical(A, B, p=1, m=64, seed=4, reps=10)
    finally:
        sys.setswitchinterval(interval)
    assert (est.value, est.stderr) == (serial.value, serial.stderr)


def test_wasserstein_empirical_raises_a_repetitions_error_and_leaves_no_thread(monkeypatch):
    bad_seed = child_seed(5, Purpose.EMPIRICAL_W, 2 * 3)
    real = transport.sample_uniform

    def failing(body, m, seed):
        if seed == bad_seed:
            raise SamplingError("repetition 3 failed")
        return real(body, m, seed)

    monkeypatch.setattr(transport, "sample_uniform", failing)
    before = threading.active_count()
    with pytest.raises(SamplingError, match="repetition 3 failed"):
        transport.wasserstein_empirical(Ball(1.0, 2), Cube(1.0, 2), p=1, m=64, seed=5, reps=10)
    assert threading.active_count() == before


def test_w1_to_point_mass_disk():
    # the only coupling to the point mass at the origin sends every point
    # there, so W1 from the unit disk is its mean norm, 2/3
    est = estimate_mean_norm_p(Ball(1.0, 2), 1, 200_000, seed=9)
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
