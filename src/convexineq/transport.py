"""Discrete optimal transport and Wasserstein estimation.

Exact plans come from three routes.  Equal-cardinality uniform instances
reduce to an assignment problem.  Other instances on the line take the
monotone (quantile) coupling: sort both supports and match their cumulative
weights, which is optimal for |x - y|^p with p >= 1 (Villani, Topics in
Optimal Transportation, 2003, Thm 2.18; Santambrogio, Optimal Transport for
Applied Mathematicians, 2015, 2.2).  It needs only numpy and has at most
k1 + k2 - 1 nonzero entries.  The rest, in dimension two and up, solve the
transportation linear program of k1 k2 variables.  The assignment solver is
given the column-reduced cost matrix (each column minus its minimum, the
first step of Jonker and Volgenant, Computing 1987), which shifts every
permutation's cost by the same constant, so the optimum is unchanged.
scipy's shortest augmenting path solver (Crouse, IEEE TAES 2016) skips that
step, and on the nested-body matchings of the audits it runs faster from the
reduced matrix.  The permutation it returns is priced on the unreduced
matrix.  A brute-force permutation oracle (at most 8 points) provides an
independent ground truth for small uniform instances; it builds its table of
the k! permutations once per k.

The entropic solver is a stabilized scaling Sinkhorn iteration with an
epsilon ladder.  It updates kernel scalings (u, v) by mat-vecs and folds them
into log potentials (f, g), rebuilding the kernel exp((f + g - C) / eps),
whenever a scaling passes a threshold or a kernel row or column underflows;
that iteration is redone in the log domain.  The ladder starts at the median
pairwise cost and halves epsilon down to the target, each rung running to
its own convergence test, which keeps the potentials finite at small
regularization.  The returned plan is made exactly feasible by
marginal-fixing rounding (clamp row scalings, then column scalings, then add
a rank-one correction), and the reported cost is that of the rounded plan;
the plan records whether the iteration converged and its unrounded defect.

``wasserstein_empirical`` estimates W_p between uniform laws on two bodies by
solving exact OT between equal-size samples, repeated ten times for a
standard error.  The repetitions run concurrently on a thread pool sized to
the usable CPUs (the assignment solver releases the interpreter lock); each
draws from its own derived streams and the values are collected in
repetition order, so the result does not depend on the thread count or on
the order in which repetitions finish.  ``tci_tau_records`` combines the
exact relative entropy of nested uniform laws with these empirical
distances: any inner body K with W_p(m_K, m_B) > 0 certifies
tau_p(B) <= 2 H(m_K|m_B) / W_p(m_K, m_B)^2.
The bound it reports is a plug-in value, not a certified one: W_p^p is
jointly convex in the two laws, so by Jensen the m-point matching value is
biased upward, and 2 H / W^2 is biased low, on the unsafe side of an upper
bound.  The bias shrinks slowly in m and the records' stderr does not
cover it.

scipy.optimize (the assignment solver and the LP) and scipy.sparse (the LP's
constraint matrix) are imported the first time ``exact_ot`` needs them, not
with the module, and the monotone route needs neither: scipy.optimize takes
about half a second to import, and importing the package should not cost
that when no plan is solved.  Python's import lock makes a first call from
several pool threads at once safe.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from ._rng import Purpose, child_seed, usable_cpus
from .errors import (
    DimensionMismatchError,
    NotNormalizedError,
    SamplingError,
    SolverError,
)
from .estimate import Estimate
from .geometry import Domain
from .isotropy import relative_entropy_uniform
from .reporting import Record, jsonable
from .sampling import PointCloud, sample_uniform

_EXACT_CAP = 4096
# sinkhorn folds its scalings into the log potentials outside [1/max, max]
_SCALE_MAX = math.exp(50.0)
_SCALE_MIN = 1.0 / _SCALE_MAX
# kernel entries below this are zeroed: subnormal products slow a mat-vec
# twentyfold, and such an entry weighs under 1e-228 at the largest scaling
_KERNEL_FLOOR = 1e-250
# iterations an intermediate ladder rung may take before the ladder moves on:
# where plain updates stall, the final rung's over-relaxed ones do better
_RUNG_ITERS = 200


@dataclass(frozen=True)
class DiscreteMeasure(Record):
    """Finitely supported probability measure.

    Support points and weights must be finite, and the weights must sum to
    one within 1e-9.  Equal support points (0.0 equals -0.0) are merged at
    construction with summed weights; distinct points stay apart at any
    scale.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        pts = np.atleast_2d(np.array(self.support, dtype=float))
        w = np.atleast_1d(np.array(self.weights, dtype=float))
        if pts.shape[0] != w.shape[0]:
            raise DimensionMismatchError("support and weights lengths differ")
        if pts.shape[0] == 0:
            raise NotNormalizedError("support must be nonempty")
        if not (np.isfinite(pts).all() and np.isfinite(w).all()):
            raise NotNormalizedError("support points and weights must be finite")
        if np.any(w < 0):
            raise NotNormalizedError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise NotNormalizedError(f"weights sum to {w.sum():.12g}, not 1")
        pts, w = _merge_duplicates(pts, w)
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @staticmethod
    def from_cloud(cloud: PointCloud) -> "DiscreteMeasure":
        return DiscreteMeasure(cloud.points, cloud.weights)

    @staticmethod
    def uniform(points) -> "DiscreteMeasure":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return DiscreteMeasure(pts, np.full(pts.shape[0], 1.0 / pts.shape[0]))

    def is_uniform(self) -> bool:
        return bool(np.all(np.abs(self.weights - 1.0 / self.count) <= 1e-12))


def _merge_duplicates(pts, w):
    # equal rows are adjacent once sorted; most supports have none, so the
    # costlier np.unique runs only when a duplicate is found
    ordered = pts[np.lexsort(pts.T[::-1])]
    if not np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
        return pts, w
    _, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    merged_w = np.zeros(first.shape[0])
    np.add.at(merged_w, inverse, w)
    return pts[first], merged_w


@dataclass(frozen=True)
class CouplingPlan(Record):
    """A transport plan with its cost and solver provenance.

    ``cost`` is the p-th power transport cost of the stored plan (take the
    1/p root for the Wasserstein distance).  ``marginal_residual`` is the
    largest deviation of a row or column sum from its prescribed marginal.
    Iterative solvers also report whether they met their stopping rule
    (``converged``) and the total L1 marginal defect of the plan before it
    was rounded to feasibility (``marginal_defect``); exact solvers report
    True and 0.
    """

    plan: np.ndarray
    cost: float
    p: int
    solver: str
    marginal_residual: float
    iterations: int = 0
    epsilon: float | None = None
    converged: bool = True
    marginal_defect: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.plan, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "plan", arr)

    def to_json(self) -> dict:
        # the plan in full up to 64 x 64, beyond that as (row, column, mass)
        # triples of its nonzero entries
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "plan"}
        out["shape"] = self.plan.shape
        if max(self.plan.shape) <= 64:
            out["plan"] = self.plan
        else:
            i, j = np.nonzero(self.plan)
            out["plan_coo"] = [(a, b, self.plan[a, b]) for a, b in zip(i, j)]
        return jsonable(out)


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int) -> np.ndarray:
    """Pairwise |x - y|^p in double precision, computed once per instance."""
    if mu.dim != nu.dim:
        raise DimensionMismatchError(
            f"measures live in dimensions {mu.dim} and {nu.dim}"
        )
    if p not in (1, 2):
        raise SolverError(f"cost exponent must be 1 or 2, got {p}")
    # summed one coordinate at a time into the result, through one reused
    # scratch matrix: peak memory is two m x m arrays in any dimension
    x, y = mu.support, nu.support
    d2 = np.subtract.outer(x[:, 0], y[:, 0])
    np.square(d2, out=d2)
    scratch = None
    for k in range(1, mu.dim):
        scratch = np.subtract.outer(x[:, k], y[:, k], out=scratch)
        np.square(scratch, out=scratch)
        d2 += scratch
    if p == 2:
        return d2
    return np.sqrt(d2, out=d2)


def _residual(plan, a, b) -> float:
    return float(
        max(
            np.abs(plan.sum(axis=1) - a).max(),
            np.abs(plan.sum(axis=0) - b).max(),
        )
    )


# The two scipy.optimize kernels exact_ot calls, imported on first call (see
# the module docstring).  They stay module attributes and exact_ot looks them
# up here, so a caller can wrap or replace them.


def linear_sum_assignment(cost):
    """scipy.optimize.linear_sum_assignment, imported on first use."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def linprog(c, **kwargs):
    """scipy.optimize.linprog, imported on first use."""
    from scipy.optimize import linprog as solve

    return solve(c, **kwargs)


def exact_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int = 2) -> CouplingPlan:
    """Optimal transport plan between two discrete measures.

    Equal-cardinality uniform pairs solve an assignment problem.  The
    assignment is solved on C minus its column minima and priced on C, so
    the cost is the sum of the chosen entries of C over k.  Where the
    optimum is not unique (points on a line at p = 1, lattice points), the
    permutation can be another optimal one than scipy returns for C itself,
    at a cost equal up to rounding.  Other pairs on the line take the
    monotone coupling (``monotone_coupling``), priced on C as the sum of
    its masses times their entries of C; at p = 1 it too may be another
    optimum than a linear program would return.  Pairs in dimension two and
    up that are not assignments solve the transportation linear program.
    All three routes report ``solver="exact"``.  An instance with more than
    4096 points on either side raises ``SolverError`` before its cost matrix
    is built, so no instance needs more memory than the cap allows.
    """
    k1, k2 = mu.count, nu.count
    if k1 > _EXACT_CAP or k2 > _EXACT_CAP:
        raise SolverError(f"instance {k1}x{k2} exceeds the exact solver cap {_EXACT_CAP}")
    C = cost_matrix(mu, nu, p)
    a, b = mu.weights, nu.weights
    if k1 == k2 and mu.is_uniform() and nu.is_uniform():
        # solved on the column-reduced matrix, priced on C (module docstring)
        rows, cols = linear_sum_assignment(C - C.min(axis=0))
        return _exact_plan(C, rows, cols, 1.0 / k1, float(C[rows, cols].sum() / k1), p, a, b)
    if mu.dim == 1:
        rows, cols, mass = monotone_coupling(mu.support[:, 0], a, nu.support[:, 0], b)
        return _exact_plan(C, rows, cols, mass, float(C[rows, cols] @ mass), p, a, b)
    from scipy import sparse

    # equality constraints: all row sums, and all but one column sum (the
    # dropped one is implied since both weight vectors sum to 1); sparse, as
    # the dense matrix would hold (k1 + k2 - 1) k1 k2 entries
    A_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(k1), np.ones((1, k2))),
            sparse.kron(np.ones((1, k1)), sparse.eye(k2), format="csr")[:-1],
        ],
        format="csr",
    )
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise SolverError(
            f"transportation program failed after {res.nit} iterations: {res.message}"
        )
    plan = res.x.reshape(k1, k2)
    return CouplingPlan(
        plan=plan,
        cost=float((plan * C).sum()),
        p=p,
        solver="exact",
        marginal_residual=_residual(plan, a, b),
    )


def _exact_plan(C, rows, cols, mass, cost, p, a, b) -> CouplingPlan:
    # an exact route's plan: ``mass`` at (rows, cols), zeros elsewhere
    plan = np.zeros_like(C)
    plan[rows, cols] = mass
    return CouplingPlan(
        plan=plan, cost=cost, p=p, solver="exact", marginal_residual=_residual(plan, a, b)
    )


def monotone_coupling(x, a, y, b):
    """The monotone (quantile) coupling of two weighted point sets on the line.

    ``x`` and ``y`` are 1-D supports in any order, ``a`` and ``b`` their
    nonnegative weights, each summing to one.  Both supports are sorted
    (stable argsort) and their cumulative weights, clipped to 1 and ending at
    exactly 1, are merged by the north-west corner rule: each piece between
    consecutive merged breakpoints carries its length as mass from the
    first atom of ``x`` whose cumulative weight reaches the piece's right end
    to the first such atom of ``y``.  Zero-length pieces are dropped, so
    zero-weight atoms receive no mass and the plan has at most
    ``len(x) + len(y) - 1`` entries.  Returns ``(rows, cols, mass)``, with
    rows and columns indexing ``x`` and ``y`` as given, in increasing order of
    both sorted supports.  For the cost |x - y|^p with p >= 1 this plan is
    optimal (Villani, Topics in Optimal Transportation, 2003, Thm 2.18;
    Santambrogio, Optimal Transport for Applied Mathematicians, 2015, 2.2).
    """
    ix = np.argsort(x, kind="stable")
    iy = np.argsort(y, kind="stable")
    fa, fb = _cumulative(a[ix]), _cumulative(b[iy])
    ends = np.sort(np.concatenate([fa, fb]))
    mass = np.diff(ends, prepend=0.0)
    keep = mass > 0.0
    ends, mass = ends[keep], mass[keep]
    return ix[np.searchsorted(fa, ends)], iy[np.searchsorted(fb, ends)], mass


def _cumulative(w):
    # cumulative weights, clipped to 1 and ending at exactly 1; the whole
    # run of values equal to the last is set to 1, so that trailing
    # zero-weight atoms do not take the rounding gap below 1
    f = np.minimum(np.cumsum(w), 1.0)
    f[f >= f[-1]] = 1.0
    return f


def permutation_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int = 2) -> CouplingPlan:
    """Brute-force minimum over all permutation couplings.

    Independent ground truth for exact_ot on small uniform instances; the
    measures must be uniform with equal cardinality at most 8.  The k! x k
    table of permutations is built on the first call for each k and shared,
    read-only, by every later call.
    """
    k = mu.count
    if k != nu.count:
        raise SolverError("permutation oracle requires equal cardinality")
    if k > 8:
        raise SolverError(f"permutation oracle limited to 8 points, got {k}")
    if not (mu.is_uniform() and nu.is_uniform()):
        raise SolverError("permutation oracle requires uniform weights")
    C = cost_matrix(mu, nu, p)
    perms = _permutations(k)
    costs = C[np.arange(k)[None, :], perms].sum(axis=1)
    best = perms[int(np.argmin(costs))]
    plan = np.zeros_like(C)
    plan[np.arange(k), best] = 1.0 / k
    return CouplingPlan(
        plan=plan,
        cost=float(costs.min() / k),
        p=p,
        solver="permutation_oracle",
        marginal_residual=_residual(plan, mu.weights, nu.weights),
    )


@functools.lru_cache(maxsize=None)
def _permutations(k: int) -> np.ndarray:
    """The k! permutations of range(k) as rows, in itertools order; read-only."""
    perms = np.array(list(itertools.permutations(range(k))))
    perms.setflags(write=False)
    return perms


def _round_plan(P, a, b):
    """Marginal-fixing rounding: clamp rows, clamp columns, rank-one repair."""
    x = np.minimum(a / np.maximum(P.sum(axis=1), 1e-300), 1.0)
    P = P * x[:, None]
    y = np.minimum(b / np.maximum(P.sum(axis=0), 1e-300), 1.0)
    P = P * y[None, :]
    ea = a - P.sum(axis=1)
    eb = b - P.sum(axis=0)
    s = ea.sum()
    if s > 0:
        P = P + np.outer(ea, eb) / s
    return P


def logsumexp(M: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(M))) along ``axis``, shifted by the maximum so nothing
    overflows.  Plain numpy: on arrays this small scipy.special.logsumexp
    spends most of its time in array-API dispatch."""
    m = M.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(M - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _gibbs(f, g, C, eps):
    """The kernel exp((f + g - C) / eps) with unit scalings for it."""
    K = np.exp((f[:, None] + g[None, :] - C) / eps)
    K[K < _KERNEL_FLOOR] = 0.0
    return K, np.ones(K.shape[0]), np.ones(K.shape[1])


def sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: int = 2,
    epsilon: float = 1e-2,
    max_iters: int = 20000,
) -> CouplingPlan:
    """Entropic optimal transport by stabilized scaling, with an epsilon ladder.

    The plan is diag(u) K diag(v) with the kernel K = exp((f + g - C) / eps):
    the log potentials (f, g) carry the scale of the dual solution and the
    scalings (u, v) the recent updates, so each iteration costs two kernel
    mat-vecs.  Whenever a scaling leaves [exp(-50), exp(50)] or turns
    non-finite (a kernel row or column underflowed), that iteration is
    redone in the log domain by logsumexp, the scalings are absorbed into
    (f, g) and the kernel is rebuilt; so no positive quantity underflows
    where it matters and the potentials stay finite at small epsilon
    (Schmitzer, SIAM J. Sci. Comput. 2019).

    The ladder starts at the median cost and halves epsilon down to the
    target; each rung runs until the unrounded plan's total L1 marginal
    defect, priced at the largest cost entry, falls below that rung's
    epsilon: beyond that point the feasibility rounding perturbs the cost by
    less than the regularization bias already present.  An intermediate
    rung stops after 200 iterations even if its test fails.  The final rung
    uses over-relaxed updates (factor 1.95, dropped back to plain updates if
    the defect ever grows).  ``max_iters`` bounds the iterations of the
    whole ladder; a plan whose final rung did not meet its test has
    ``converged=False``.  The returned plan is rounded to exact feasibility
    and its residual reflects the rounded plan; ``marginal_defect`` is the
    L1 defect of the unrounded plan.
    """
    if epsilon <= 0:
        raise SolverError(f"epsilon must be positive, got {epsilon}")
    C = cost_matrix(mu, nu, p)
    a, b = mu.weights, nu.weights
    log_a, log_b = np.log(a), np.log(b)
    pos = C[C > 0]
    start = float(np.median(pos)) if pos.size else epsilon
    ladder = []
    e = start
    while e > epsilon:
        ladder.append(e)
        e /= 2.0
    ladder.append(epsilon)
    f = np.zeros(a.shape[0])
    g = np.zeros(b.shape[0])
    iters = 0
    c_max = max(float(C.max()), 1e-300)
    converged = False
    for rung, eps in enumerate(ladder):
        final = rung == len(ladder) - 1
        w = 1.95 if final else 1.0
        stop = max_iters if final else min(max_iters, iters + _RUNG_ITERS)
        K, u, v = _gibbs(f, g, C, eps)
        best = math.inf
        snapshot = (f, g)
        while iters < stop:
            iters += 1
            # a kernel row or column that underflowed shows as a zero divisor
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                u1 = a / (K @ v)
                if w != 1.0:
                    u1 = u * (u1 / u) ** w
                v1 = b / (K.T @ u1)
                if w != 1.0:
                    v1 = v * (v1 / v) ** w
            if _SCALE_MIN <= min(u1.min(), v1.min()) and max(u1.max(), v1.max()) <= _SCALE_MAX:
                u, v = u1, v1
            else:
                # absorb the last good scalings, then iterate in the log domain
                f = f + eps * np.log(u)
                g = g + eps * np.log(v)
                f = w * eps * (log_a - logsumexp((g[None, :] - C) / eps, axis=1)) + (1.0 - w) * f
                g = w * eps * (log_b - logsumexp((f[:, None] - C) / eps, axis=0)) + (1.0 - w) * g
                if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
                    raise SolverError(
                        "sinkhorn potentials became non-finite; epsilon too small "
                        "even for the log-domain step"
                    )
                K, u, v = _gibbs(f, g, C, eps)
            if iters % 10 == 0 or iters == stop:
                defect = float(
                    np.abs(u * (K @ v) - a).sum() + np.abs(v * (K.T @ u) - b).sum()
                )
                if defect <= eps / c_max:
                    converged = final
                    break
                if defect < best:
                    best = defect
                    snapshot = (f + eps * np.log(u), g + eps * np.log(v))
                elif w != 1.0 and (not math.isfinite(defect) or defect > 4.0 * best):
                    # over-relaxation went unstable; restart plain from the
                    # best iterate seen so far
                    f, g = snapshot
                    w = 1.0
                    K, u, v = _gibbs(f, g, C, eps)
        f = f + eps * np.log(u)
        g = g + eps * np.log(v)
    P = _gibbs(f, g, C, epsilon)[0]
    defect = float(np.abs(P.sum(axis=1) - a).sum() + np.abs(P.sum(axis=0) - b).sum())
    P = _round_plan(P, a, b)
    return CouplingPlan(
        plan=P,
        cost=float((P * C).sum()),
        p=p,
        solver="sinkhorn",
        marginal_residual=_residual(P, a, b),
        iterations=iters,
        epsilon=float(epsilon),
        converged=converged,
        marginal_defect=defect,
    )


def wasserstein_empirical(
    A: Domain, B: Domain, p: int = 1, m: int = 1024, seed: int = 0, reps: int = 10
) -> Estimate:
    """W_p between uniform laws on two bodies, from m-point exact matchings.

    Each repetition samples m points from each body with independent derived
    streams and solves the assignment problem; the value is the mean of the
    per-repetition distances and the stderr their sample error.  The
    repetitions run concurrently on a thread pool sized to the usable CPUs;
    results are kept in repetition order, so the estimate is bit-identical
    whatever the thread count or the order in which repetitions finish.
    Finite-m values are upward-biased for continuous laws; the bias
    decreases in m.
    """
    if m > _EXACT_CAP:
        raise SamplingError(f"sample count {m} exceeds the exact solver budget {_EXACT_CAP}")
    if A.dim != B.dim:
        raise DimensionMismatchError(f"bodies live in dimensions {A.dim} and {B.dim}")

    def one(r: int) -> float:
        # shares no mutable state with the other repetitions
        ca = sample_uniform(A, m, child_seed(seed, Purpose.EMPIRICAL_W, 2 * r))
        cb = sample_uniform(B, m, child_seed(seed, Purpose.EMPIRICAL_W, 2 * r + 1))
        plan = exact_ot(DiscreteMeasure.from_cloud(ca), DiscreteMeasure.from_cloud(cb), p)
        return plan.cost ** (1.0 / p)

    with ThreadPoolExecutor(max_workers=max(1, min(reps, usable_cpus()))) as pool:
        vals = list(pool.map(one, range(reps)))
    return Estimate.of_samples(vals, seed=seed)


def wasserstein_1d(samplesA, samplesB, p: int = 1) -> float:
    """Exact W_p between two equal-size empirical measures on the line.

    The optimal coupling in one dimension is the monotone rearrangement, so
    the distance is the p-mean of gaps between order statistics.
    """
    xa = np.sort(np.asarray(samplesA, dtype=float).ravel())
    xb = np.sort(np.asarray(samplesB, dtype=float).ravel())
    if xa.shape[0] != xb.shape[0]:
        raise SamplingError(
            f"equal sample counts required, got {xa.shape[0]} and {xb.shape[0]}"
        )
    if xa.shape[0] == 0:
        raise SamplingError("samples must be nonempty")
    if p not in (1, 2):
        raise SolverError(f"cost exponent must be 1 or 2, got {p}")
    gaps = np.abs(xa - xb) ** p
    return float(gaps.mean() ** (1.0 / p))


def tci_tau_records(
    B: Domain,
    sub_bodies: list,
    p: int = 1,
    m: int = 1024,
    seed: int = 0,
) -> tuple[Estimate, list[dict]]:
    """Plug-in upper bound on tau_p(B) with one diagnostic record per inner body.

    For each K contained in B, tau_p(B) <= 2 H(m_K|m_B) / W_p(m_K, m_B)^2,
    evaluated at the empirical W.  That W is biased upward (Jensen), so the
    value is biased low, the unsafe side for an upper bound, by more than
    ``tau_stderr`` at moderate m; it is an estimate, not a certificate.
    A sub-body is skipped (with a warning and a record) when its entropy
    vanishes or its empirical W is statistically indistinguishable from 0.
    """
    if not sub_bodies:
        raise SamplingError("at least one sub-body is required")
    records = []
    best: Estimate | None = None
    for idx, K in enumerate(sub_bodies):
        h = relative_entropy_uniform(K, B, m=max(m, 4096), seed=child_seed(seed, Purpose.TCI_ENTROPY, idx))
        w = wasserstein_empirical(K, B, p=p, m=m, seed=child_seed(seed, Purpose.TCI_W, idx))
        rec = {
            "index": idx,
            "entropy": h,
            "w_value": w.value,
            "w_stderr": w.stderr,
            "tau_bound": None,
            "skipped": False,
            "reason": "",
        }
        if h <= 1e-12:
            rec["skipped"] = True
            rec["reason"] = "relative entropy is zero"
        elif w.value <= 2.0 * w.stderr:
            rec["skipped"] = True
            rec["reason"] = "W estimate indistinguishable from 0 within 2 stderr"
        else:
            bound = 2.0 * h / w**2
            rec["tau_bound"] = bound.value
            rec["tau_stderr"] = bound.stderr
            if best is None or bound.value < best.value:
                best = bound
        if rec["skipped"]:
            warnings.warn(f"sub-body {idx} skipped: {rec['reason']}", stacklevel=2)
        records.append(rec)
    if best is None:
        raise SamplingError("all sub-bodies were skipped; no usable tau bound")
    return best, records
