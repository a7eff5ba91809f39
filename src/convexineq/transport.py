"""Discrete optimal transport and Wasserstein estimation.

Exact plans come from two routes. Equal-cardinality uniform instances reduce
to an assignment problem; general instances solve the transportation linear
program. A brute-force permutation oracle (at most 8 points) provides an
independent ground truth for both.

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
standard error.  ``tci_tau_upper_bound`` combines the exact relative entropy
of nested uniform laws with these empirical distances: any inner body K with
W_p(m_K, m_B) > 0 certifies tau_p(B) <= 2 H(m_K|m_B) / W_p(m_K, m_B)^2.
Because W is estimated from finite samples (typically biased upward), the
resulting bound errs on the conservative side; records carry stderr so
callers can judge.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from ._rng import Purpose, child_seed
from .errors import (
    DimensionMismatchError,
    NotNormalizedError,
    SamplingError,
    SolverError,
)
from .estimate import Estimate
from .geometry import Domain
from .isotropy import relative_entropy_uniform
from .sampling import PointCloud, estimate_mean_norm_p, sample_uniform

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
class DiscreteMeasure:
    """Finitely supported probability measure.

    Support points and weights must be finite, and the weights must sum to
    one within 1e-9.  Support points closer than 1e-12 are merged at
    construction with summed weights.
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
        return bool(np.allclose(self.weights, 1.0 / self.count, rtol=0, atol=1e-12))

    def to_json(self) -> dict:
        return {"support": self.support.tolist(), "weights": self.weights.tolist()}


def _merge_duplicates(pts, w):
    # duplicates within 1e-12: group by rounded coordinates, sum weights; the
    # keys stay floats, since an integer cast overflows past about 9.2e6, and
    # adding 0.0 turns -0.0 into 0.0
    key = np.round(pts / 1e-12) + 0.0
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    if first.shape[0] == pts.shape[0]:
        return pts, w
    merged_w = np.zeros(first.shape[0])
    np.add.at(merged_w, inverse, w)
    return pts[first], merged_w


@dataclass(frozen=True)
class CouplingPlan:
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
        base = {
            "cost": float(self.cost),
            "p": int(self.p),
            "solver": self.solver,
            "marginal_residual": float(self.marginal_residual),
            "iterations": int(self.iterations),
            "epsilon": None if self.epsilon is None else float(self.epsilon),
            "converged": bool(self.converged),
            "marginal_defect": float(self.marginal_defect),
            "shape": list(self.plan.shape),
        }
        if self.plan.shape[0] <= 64 and self.plan.shape[1] <= 64:
            base["plan"] = self.plan.tolist()
        else:
            i, j = np.nonzero(self.plan)
            base["plan_coo"] = [
                [int(a), int(b), float(self.plan[a, b])] for a, b in zip(i, j)
            ]
        return base


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int) -> np.ndarray:
    """Pairwise |x - y|^p in double precision, computed once per instance."""
    if mu.dim != nu.dim:
        raise DimensionMismatchError(
            f"measures live in dimensions {mu.dim} and {nu.dim}"
        )
    if p not in (1, 2):
        raise SolverError(f"cost exponent must be 1 or 2, got {p}")
    diff = mu.support[:, None, :] - nu.support[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    if p == 2:
        return d2
    return np.sqrt(d2)


def _residual(plan, a, b) -> float:
    return float(
        max(
            np.abs(plan.sum(axis=1) - a).max(),
            np.abs(plan.sum(axis=0) - b).max(),
        )
    )


def exact_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int = 2) -> CouplingPlan:
    """Optimal transport plan between two discrete measures.

    Equal-cardinality uniform pairs solve an assignment problem; everything
    else solves the transportation linear program.  Instances larger than
    4096 x 4096 fall back to entropic regularization with a warning, and
    with a second one if that iteration stops unconverged.
    """
    C = cost_matrix(mu, nu, p)
    k1, k2 = C.shape
    if k1 > _EXACT_CAP or k2 > _EXACT_CAP:
        warnings.warn(
            f"instance {k1}x{k2} exceeds the exact solver cap {_EXACT_CAP}; "
            "falling back to sinkhorn",
            stacklevel=2,
        )
        med = float(np.median(C[C > 0])) if np.any(C > 0) else 1.0
        plan = sinkhorn(mu, nu, p, epsilon=1e-3 * med)
        if not plan.converged:
            warnings.warn(
                f"sinkhorn fallback did not converge in {plan.iterations} iterations "
                f"(marginal defect {plan.marginal_defect:.3g}); its cost is approximate",
                stacklevel=2,
            )
        return plan
    if k1 == k2 and mu.is_uniform() and nu.is_uniform():
        rows, cols = linear_sum_assignment(C)
        plan = np.zeros_like(C)
        plan[rows, cols] = 1.0 / k1
        cost = float(C[rows, cols].sum() / k1)
        return CouplingPlan(
            plan=plan,
            cost=cost,
            p=p,
            solver="exact",
            marginal_residual=_residual(plan, mu.weights, nu.weights),
        )
    a, b = mu.weights, nu.weights
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


def permutation_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure, p: int = 2) -> CouplingPlan:
    """Brute-force minimum over all permutation couplings.

    Independent ground truth for exact_ot on small uniform instances; the
    measures must be uniform with equal cardinality at most 8.
    """
    k = mu.count
    if k != nu.count:
        raise SolverError("permutation oracle requires equal cardinality")
    if k > 8:
        raise SolverError(f"permutation oracle limited to 8 points, got {k}")
    if not (mu.is_uniform() and nu.is_uniform()):
        raise SolverError("permutation oracle requires uniform weights")
    C = cost_matrix(mu, nu, p)
    perms = np.array(list(itertools.permutations(range(k))))
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
    per-repetition distances and the stderr their sample error.  Finite-m
    values are upward-biased for continuous laws; the bias decreases in m.
    """
    if m > _EXACT_CAP:
        raise SamplingError(f"sample count {m} exceeds the exact solver budget {_EXACT_CAP}")
    if A.dim != B.dim:
        raise DimensionMismatchError(f"bodies live in dimensions {A.dim} and {B.dim}")
    vals = np.empty(reps)
    for r in range(reps):
        ca = sample_uniform(A, m, child_seed(seed, Purpose.EMPIRICAL_W, 2 * r))
        cb = sample_uniform(B, m, child_seed(seed, Purpose.EMPIRICAL_W, 2 * r + 1))
        plan = exact_ot(DiscreteMeasure.from_cloud(ca), DiscreteMeasure.from_cloud(cb), p)
        vals[r] = plan.cost ** (1.0 / p)
    return Estimate(
        value=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        count=reps,
        seed=seed,
    )


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


def w1_to_point_mass(body: Domain, m: int = 10_000, seed: int = 0) -> Estimate:
    """W_1 from the uniform law on the body to the point mass at the origin.

    The only coupling sends every point to the origin, so this is the mean
    Euclidean norm.
    """
    return estimate_mean_norm_p(body, 1, m, seed)


def tci_tau_records(
    B: Domain,
    sub_bodies: list,
    p: int = 1,
    m: int = 1024,
    seed: int = 0,
) -> tuple[Estimate, list[dict]]:
    """Upper bound on tau_p(B) with one diagnostic record per inner body.

    For each K contained in B, tau_p(B) <= 2 H(m_K|m_B) / W_p(m_K, m_B)^2.
    A sub-body is skipped (with a warning and a record) when its entropy
    vanishes or its empirical W is statistically indistinguishable from 0.
    """
    if not sub_bodies:
        raise SamplingError("at least one sub-body is required")
    records = []
    best: tuple[float, float] | None = None
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
            bound = 2.0 * h / w.value**2
            rel = 2.0 * w.stderr / w.value
            rec["tau_bound"] = bound
            rec["tau_stderr"] = bound * rel
            if best is None or bound < best[0]:
                best = (bound, bound * rel)
        if rec["skipped"]:
            warnings.warn(f"sub-body {idx} skipped: {rec['reason']}", stacklevel=2)
        records.append(rec)
    if best is None:
        raise SamplingError("all sub-bodies were skipped; no usable tau bound")
    est = Estimate(value=best[0], stderr=best[1], count=m, seed=seed)
    return est, records


def tci_tau_upper_bound(
    B: Domain, sub_bodies: list, p: int = 1, m: int = 1024, seed: int = 0
) -> Estimate:
    """Minimum over sub-bodies of 2 H / W_p^2, an upper bound on tau_p(B)."""
    est, _ = tci_tau_records(B, sub_bodies, p=p, m=m, seed=seed)
    return est
