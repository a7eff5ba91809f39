"""The four benchmark workloads.

A workload turns a seed into a fixed list of instances.  An instance is an
``(instance_id, run)`` pair; ``run()`` calls the library's public API on
inputs generated here and returns ``(row, checks)``: a tuple of the
instance's results (hashed into the pass digest) and a list of ``Check``
records comparing those results with a reference computed independently of
the code path under test.  A check passes when ``error <= tolerance``;
``CHECK_DOCS`` says what error and tolerance mean for every check name.

Inputs come from ``numpy.random.default_rng([seed, workload code, index])``;
the library sees only the generated bodies, measures, functions and the
integer seeds it takes as arguments, never the benchmark seed itself.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import betainc

from convexineq import concentration, corpora, functional, geometry, isotropy, sampling, transport
from convexineq.geometry import Ball, Cube, HPolytope, L1Ball


class Check(NamedTuple):
    name: str
    error: float
    tolerance: float


CHECK_DOCS = {
    "sinkhorn_rel_err": "|sinkhorn cost - exact_ot cost| / exact_ot cost; tolerance 0.02, criterion 2's gate",
    "sinkhorn_not_below_exact": "relative amount by which the rounded (feasible) sinkhorn plan costs less "
    "than the optimum; tolerance 1e-9",
    "sinkhorn_marginals": "largest row/column-sum deviation of the sinkhorn plan; tolerance 1e-9",
    "exact_vs_lsa": "|exact_ot cost - optimum of the untransformed base instance from "
    "scipy linear_sum_assignment, times scale^p| / that optimum; tolerance 1e-9",
    "oracle": "|exact_ot cost - permutation_oracle cost|; tolerance 1e-9, criterion 1's gate",
    "lp_vs_cdf": "|exact_ot (LP route) W_1 - integral of |F_mu - F_nu| over the line| / that integral; "
    "tolerance 1e-6",
    "audit_triangle": "excess of E_K|x| over W_1 + E_B|x| in the audit; tolerance 4 combined stderr",
    "audit_cauchy_schwarz": "excess of E_B|x| over sqrt(E_B|x|^2) in the audit; tolerance 4 combined stderr",
    "audit_mean_norm_B": "|audit E_B|x| - r n / (n + 1)| for the ball B of radius r; tolerance 5 stderr",
    "tci_entropy": "|H(m_K|m_B) - n log(1/t)| for K = t B; tolerance 1e-9",
    "tci_w1": "|empirical W_1 - (1 - t) E_B|x|| for K = t B (the radial map is optimal); "
    "tolerance 10% of the closed form (finite-m bias allowance) plus 5 stderr",
    "iso_closed_form": "|L - closed form| / closed form for cubes and the disk; tolerance 0.01",
    "iso_affine": "|L(A Q + b) / L(Q) - 1| for the 3-cube Q; tolerance 0.02",
    "tau_tail": "largest |empirical tail - closed-form tail| / binomial stderr of the x[0] probe over "
    "the usable thresholds of a tau1_proxy fit; tolerance 5",
    "tau_spread": "max/min - 1 of the tau proxy over n in (2, 4, 8); tolerance 1.0, criterion 11's gate",
    "entropy_vs_mc": "|relative_entropy_uniform - log of the ratio of MC volumes|; tolerance 5 stderr",
    "second_moment": "|mean |x|^2 of a uniform sample (direct or H-polytope) - closed form|; "
    "tolerance 5 stderr",
    "hpoly_containment": "largest constraint violation max(Ax - b, 0) over the sample; tolerance 1e-9",
    "tlsi_slack": "violation max(-slack, 0) of the trace log-Sobolev inequality; "
    "tolerance the verifier's quadrature tolerance",
    "tlsi_coefficients": "largest relative gap between the reported coefficients and the "
    "closed form recomputed here; tolerance 1e-12",
    "tlsi_halving": "resolution-48 tolerance / resolution-24 tolerance; tolerance 0.5",
    "dirichlet_ratio": "|ratio - target| (disk 1, square 0.9549); tolerance 0.01, criterion 7's gate",
    "brenier_step": "violation of a chain step (inequality: max(-slack, 0); identity: |slack|); "
    "tolerance the step's half-grid tolerance",
    "brenier_const": "|slack - analytic slack| for f = 1; tolerance 1e-6, criterion 8's gate",
}

WORKLOAD_CODES = {"entropic_ot": 1, "matching": 2, "montecarlo": 3, "quadrature": 4}


def _rng(seed: int, workload: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_CODES[workload], index])


def _lib_seed(g: np.random.Generator) -> int:
    return int(g.integers(0, 2**62))


# -- entropic_ot ----------------------------------------------------------------

# Sinkhorn's iteration count varies several-fold between random 100-point
# instances (740 to 7620 over criterion 2's fifty), so a handful of freshly
# drawn instances per run would measure instance luck.  The instances are
# therefore criterion 2's own median instances, one per exponent: corpus
# index 20 (p = 1, 2650 iterations; the median of the p = 1 instances is
# 2650) and index 1 (p = 2, 2410 iterations; median 2410).  Each seed moves
# them by a rotation or reflection, a translation, a scale and a relabelling
# of the points: that changes every input number but leaves the optimal
# plan, the scaled epsilon and hence the solver's work unchanged.  A small
# freshly drawn instance goes first: it is the set-up's warm-up, so that
# set-up does not repeat a full-size solve.
SINKHORN_BASE = (20, 1)
SINKHORN_WARMUP_POINTS = 12


def _pairwise_cost(x, y, p):
    d = np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    return d if p == 1 else d**2


def entropic_ot(seed: int):
    g = _rng(seed, "entropic_ot")
    x, y = g.random((2, SINKHORN_WARMUP_POINTS, 2))
    rows, cols = linear_sum_assignment(_pairwise_cost(x, y, 1))
    eps = 1e-3 * float(np.median(_pairwise_cost(x, y, 1)))
    reference = float(_pairwise_cost(x, y, 1)[rows, cols].mean())
    out = [("sinkhorn-warmup-p1", partial(_sinkhorn, x, y, 1, eps, reference))]
    for i, index in enumerate(SINKHORN_BASE):
        mu0, nu0, p = corpora.sinkhorn_instance(index)
        x0, y0 = mu0.support, nu0.support
        k = x0.shape[0]
        rows, cols = linear_sum_assignment(_pairwise_cost(x0, y0, p))
        base_opt = float(_pairwise_cost(x0, y0, p)[rows, cols].mean())

        g = _rng(seed, "entropic_ot", 1 + i)
        theta = g.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        if g.random() < 0.5:
            rot = rot @ np.diag([1.0, -1.0])
        scale = 2.0 ** g.uniform(-1.0, 1.0)
        shift = g.uniform(-5.0, 5.0, size=2)
        x = scale * x0[g.permutation(k)] @ rot.T + shift
        y = scale * y0[g.permutation(k)] @ rot.T + shift
        eps = 1e-3 * float(np.median(_pairwise_cost(x, y, p)))
        out.append((f"sinkhorn-c2-{index}-p{p}", partial(_sinkhorn, x, y, p, eps, base_opt * scale**p)))
    return out


def _sinkhorn(x, y, p, eps, reference):
    mu = transport.DiscreteMeasure.uniform(x)
    nu = transport.DiscreteMeasure.uniform(y)
    exact = transport.exact_ot(mu, nu, p)
    sink = transport.sinkhorn(mu, nu, p, epsilon=eps)
    checks = [
        Check("sinkhorn_rel_err", abs(sink.cost - exact.cost) / exact.cost, 0.02),
        Check("sinkhorn_not_below_exact", max(exact.cost - sink.cost, 0.0) / exact.cost, 1e-9),
        Check("sinkhorn_marginals", sink.marginal_residual, 1e-9),
        Check("exact_vs_lsa", abs(exact.cost - reference) / reference, 1e-9),
    ]
    return (p, eps, exact.cost, sink.cost, sink.iterations), checks


# -- matching ---------------------------------------------------------------------

SMALL_OT_INSTANCES = 24
LP_SIZES = ((40, 41), (90, 91), (150, 151))
AUDIT_M = 1024
# tci_tau_records repeats its matching ten times; at m = 1024 that alone
# took as long as both audits, so it runs at half the size to keep a pass
# near ten seconds
TCI_M = 512


def matching(seed: int):
    g = _rng(seed, "matching")
    small = []
    for i in range(SMALL_OT_INSTANCES):
        gi = _rng(seed, "matching", 1 + i)
        small.append(
            (f"small-{i:02d}", partial(_small, gi.random((7, 2)), gi.random((7, 2)), 1 + i % 2))
        )
    lps = []
    for j, (k1, k2) in enumerate(LP_SIZES):
        gj = _rng(seed, "matching", 100 + j)
        xs = np.sort(gj.random(k1))
        ys = np.sort(gj.random(k2))
        a = gj.dirichlet(np.ones(k1))
        b = gj.dirichlet(np.ones(k2))
        lps.append((f"lp-{k1}x{k2}", partial(_lp, xs, a, ys, b)))
    audits = [(f"audit-{name}", partial(_audit, K, B, _lib_seed(g))) for name, K, B in corpora.audit_pairs()]
    t = float(g.uniform(0.4, 0.7))
    B = geometry.ball_volume_one(2)
    tci = ("tci-disk", partial(_tci, Ball(t * B.radius, 2), B, t, _lib_seed(g)))
    # the small instances set the per-instance median and tail; a run of
    # them before each large one spreads them over the whole pass, so that
    # they see the same machine speed as the pass time does.  A small
    # instance comes first: it is the set-up's warm-up.
    heavy = [audits[0], lps[0], tci, audits[1], lps[1], lps[2]]
    per = len(small) // len(heavy)
    out = []
    for j, h in enumerate(heavy):
        out += small[j * per:(j + 1) * per] + [h]
    return out


def _audit(K, B, seed):
    audit = concentration.lemma1_audit(K, B, m=AUDIT_M, seed=seed)
    checks = []
    for step in audit.steps:
        if step.name in ("triangle", "cauchy_schwarz"):
            checks.append(Check(f"audit_{step.name}", max(step.lhs - step.rhs, 0.0), 4.0 * step.stderr))
    mean_b = audit.quantities["mean_norm_B"]
    n = B.dim
    closed = B.radius * n / (n + 1.0)
    checks.append(Check("audit_mean_norm_B", abs(mean_b.value - closed), 5.0 * mean_b.stderr))
    row = tuple((s.name, s.lhs, s.rhs, s.stderr, s.verdict) for s in audit.steps)
    row += tuple((k, q.value, q.stderr) for k, q in sorted(audit.quantities.items()))
    return row, checks


def _tci(K, B, t, seed):
    est, records = transport.tci_tau_records(B, [K], p=1, m=TCI_M, seed=seed)
    rec = records[0]
    n = B.dim
    h_closed = n * math.log(1.0 / t)
    w_closed = (1.0 - t) * B.radius * n / (n + 1.0)
    checks = [
        Check("tci_entropy", abs(rec["entropy"] - h_closed), 1e-9),
        Check("tci_w1", abs(rec["w_value"] - w_closed), 0.10 * w_closed + 5.0 * rec["w_stderr"]),
    ]
    return (est.value, est.stderr, rec["entropy"], rec["w_value"], rec["w_stderr"]), checks


def _small(x, y, p):
    mu = transport.DiscreteMeasure.uniform(x)
    nu = transport.DiscreteMeasure.uniform(y)
    plan = transport.exact_ot(mu, nu, p)
    oracle = transport.permutation_oracle(mu, nu, p)
    return (p, plan.cost, oracle.cost), [Check("oracle", abs(plan.cost - oracle.cost), 1e-9)]


def _w1_cdf(xs, a, ys, b) -> float:
    pts = np.concatenate([xs, ys])
    mass = np.concatenate([a, -b])
    order = np.argsort(pts, kind="stable")
    gap = np.cumsum(mass[order])[:-1]
    return float(np.abs(gap) @ np.diff(pts[order]))


def _lp(xs, a, ys, b):
    mu = transport.DiscreteMeasure(xs[:, None], a)
    nu = transport.DiscreteMeasure(ys[:, None], b)
    plan = transport.exact_ot(mu, nu, 1)
    ref = _w1_cdf(xs, a, ys, b)
    return (plan.cost, plan.marginal_residual), [Check("lp_vs_cdf", abs(plan.cost - ref) / ref, 1e-6)]


# -- montecarlo -------------------------------------------------------------------

# sized so that the direct samplers and the hit-and-run chains (H-polytopes)
# each take a third or more of a pass: a gain in either path then shows
# without the other
DIRECT_M = 1_000_000
DIRECT_DIM = 6
ISO_M = 500_000
ISO_CUBE_DIMS = (2, 3, 5)
ISO_AFFINE_MAPS = 2
TAU_M = 200_000
ENTROPY_PAIRS = 3
HPOLY_DIMS = (3, 5, 8)
HPOLY_M = 1024


def montecarlo(seed: int):
    g = _rng(seed, "montecarlo")
    out = []
    cube_l = 1.0 / math.sqrt(12.0)
    for n in ISO_CUBE_DIMS:
        out.append((f"iso-cube-{n}", partial(_iso, Cube(1.0, n), cube_l, _lib_seed(g))))
    disk_l = 1.0 / (2.0 * math.sqrt(math.pi))
    out.append(("iso-disk", partial(_iso, geometry.ball_volume_one(2), disk_l, _lib_seed(g))))
    maps = []
    for _ in range(ISO_AFFINE_MAPS):
        while True:
            A = np.eye(3) + 0.5 * g.standard_normal((3, 3))
            if abs(np.linalg.det(A)) >= 0.2:
                break
        maps.append(geometry.apply_affine(Cube(1.0, 3), A, g.standard_normal(3)))
    out.append(("iso-affine", partial(_iso_affine, Cube(1.0, 3), maps, _lib_seed(g))))

    l1 = [geometry.l1_ball_volume_one(n) for n in (4, 8, 16)]
    out.append(("tau-l1", partial(_tau, l1, _lib_seed(g), False)))
    out.append(("tau-cube", partial(_tau, [Cube(1.0, n) for n in (2, 4, 8)], _lib_seed(g), True)))
    balls = [geometry.ball_volume_one(n) for n in (2, 4, 8)]
    out.append(("tau-ball", partial(_tau, balls, _lib_seed(g), True)))

    for i in range(ENTROPY_PAIRS):
        n = 2 + i % 2
        t = float(g.uniform(0.3, 0.8))
        inner, outer = (
            (Ball(t, n), Ball(1.0, n)),
            (Cube(2.0 * t, n), Cube(2.0, n)),
            (L1Ball(t, n), Ball(1.0, n)),
        )[i % 3]
        out.append((f"entropy-{i}", partial(_entropy, inner, outer, _lib_seed(g), _lib_seed(g))))

    n = DIRECT_DIM
    for name, body, closed in (
        ("ball", Ball(1.0, n), n / (n + 2.0)),
        ("cube", Cube(1.0, n), n / 12.0),
        ("l1ball", L1Ball(1.0, n), 2.0 * n / ((n + 1.0) * (n + 2.0))),
    ):
        out.append((f"direct-{name}-{n}", partial(_moment, body, closed, DIRECT_M, _lib_seed(g))))

    for n in HPOLY_DIMS:
        eye = np.eye(n)
        cube = HPolytope(np.vstack([eye, -eye]), np.full(2 * n, 0.5))
        signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n)).reshape(n, -1).T
        cross = HPolytope(signs, np.ones(signs.shape[0]))
        out.append((f"hpoly-cube-{n}", partial(_moment, cube, n / 12.0, HPOLY_M, _lib_seed(g))))
        out.append((f"hpoly-cross-{n}", partial(
            _moment, cross, 2.0 * n / ((n + 1.0) * (n + 2.0)), HPOLY_M, _lib_seed(g))))
        normals = g.standard_normal((3 * n, n))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        A = np.vstack([normals, eye, -eye])
        b = np.concatenate([g.uniform(0.5, 1.0, 3 * n), np.ones(2 * n)])
        out.append((f"hpoly-random-{n}", partial(_hpoly_contained, HPolytope(A, b), _lib_seed(g))))
    return out


def _iso(body, closed, seed):
    L = isotropy.isotropic_constant(body, m=ISO_M, seed=seed)
    return (L.value, L.stderr), [Check("iso_closed_form", abs(L.value - closed) / closed, 0.01)]


def _iso_affine(base, images, seed):
    L0 = isotropy.isotropic_constant(base, m=ISO_M, seed=seed)
    row = [L0.value]
    checks = []
    for j, body in enumerate(images):
        Lj = isotropy.isotropic_constant(body, m=ISO_M, seed=seed + 1 + j)
        row.append(Lj.value)
        checks.append(Check("iso_affine", abs(Lj.value / L0.value - 1.0), 0.02))
    return tuple(row), checks


def _coordinate_tail(body, t):
    """P(|x_0| >= t) under the uniform law on a centred cube, ball or l1 ball."""
    n = body.dim
    if isinstance(body, Cube):
        return np.clip(1.0 - 2.0 * t / body.side, 0.0, 1.0)
    if isinstance(body, Ball):
        # x_0^2 / r^2 is Beta(1/2, (n + 1) / 2)
        return betainc((n + 1) / 2.0, 0.5, np.clip(1.0 - (t / body.radius) ** 2, 0.0, 1.0))
    # |x_0| / r has density n (1 - u)^(n - 1) on the cross-polytope
    return np.clip(1.0 - t / body.radius, 0.0, 1.0) ** n


def _tau(bodies, seed, stable):
    taus = []
    checks = []
    for j, K in enumerate(bodies):
        res = concentration.tau1_proxy(K, m=TAU_M, seed=seed + j)
        taus.append(res.estimate.value)
        fit = next(f for f in res.fits if f.functional == "x[0]")
        t = fit.t_grid[fit.usable_points]
        exact = _coordinate_tail(K, t)
        se = np.sqrt(np.maximum(exact * (1.0 - exact), 1.0 / TAU_M) / TAU_M)
        z = float(np.max(np.abs(fit.tails[fit.usable_points] - exact) / se))
        checks.append(Check("tau_tail", z, 5.0))
    if stable:
        # the proxy of cubes and balls must not drift with the dimension
        checks.append(Check("tau_spread", max(taus) / min(taus) - 1.0, 1.0))
    return tuple(taus), checks


def _entropy(K, B, seed_h, seed_v):
    h = isotropy.relative_entropy_uniform(K, B, m=10_000, seed=seed_h)
    vk = geometry.volume_with_error(K, mc_samples=200_000, seed=seed_v, method="mc")
    vb = geometry.volume_with_error(B, mc_samples=200_000, seed=seed_v + 1, method="mc")
    h_mc = math.log(vb.value / vk.value)
    se = math.hypot(vk.stderr / vk.value, vb.stderr / vb.value)
    return (h, h_mc, se), [Check("entropy_vs_mc", abs(h - h_mc), 5.0 * se)]


def _moment(body, closed, m, seed):
    cloud = sampling.sample_uniform(body, m, seed)
    sq = (cloud.points**2).sum(axis=1)
    se = float(sq.std(ddof=1)) / math.sqrt(m)
    checks = [Check("second_moment", abs(float(sq.mean()) - closed), 5.0 * se)]
    if isinstance(body, HPolytope):
        checks.append(_containment(body, cloud.points))
    return (cloud.sampler, float(sq.mean()), se), checks


def _hpoly_contained(body, seed):
    cloud = sampling.sample_uniform(body, HPOLY_M, seed)
    return (cloud.sampler, float(cloud.points.sum())), [_containment(body, cloud.points)]


def _containment(body, points):
    excess = float(np.maximum(points @ body.A.T - body.b, 0.0).max())
    return Check("hpoly_containment", excess, 1e-9)


# -- quadrature -------------------------------------------------------------------

TLSI_FUNCTIONS = 100
TLSI_PS = (1, 2, 3)
TLSI_RESOLUTION = 24
HALVING_EVERY = 40
BRENIER_FUNCTIONS = 20
BRENIER_PS = (1.5, 2.0, 3.0)


def quadrature(seed: int):
    g = _rng(seed, "quadrature")
    domains = corpora.domain_set()
    per_domain = []
    k = 0
    for dn, dom in domains.items():
        rows = []
        for i in range(TLSI_FUNCTIONS):
            f = functional.random_trig(dom.dim, _lib_seed(g), label=f"trig-{dn}-{i}")
            for p in TLSI_PS:
                rows.append((f"tlsi-{dn}-{i}-p{p}", partial(_tlsi, dom, f, p)))
                if k % HALVING_EVERY == 0:
                    rows.append((f"halving-{dn}-{i}-p{p}", partial(_halving, dom, f, p)))
                k += 1
        per_domain.append(rows)
    # the domains take turns, so that each domain's instances, whose cost
    # differs by domain, spread over the whole pass and the per-instance
    # median sees the same machine speed as the pass time does
    out = [row for rows in itertools.zip_longest(*per_domain) for row in rows if row is not None]
    for name, dom, target in (("disk", Ball(1.0, 2), 1.0), ("square", Cube(1.0, 2), 0.9549)):
        out.append((f"dirichlet-{name}", partial(_dirichlet, dom, target)))
    out.append(("brenier-const", _brenier_const))
    for i in range(BRENIER_FUNCTIONS):
        f = functional.random_trig(1, _lib_seed(g), label=f"trig-1d-{i}")
        vals = corpora.brenier_grid(f)
        for p in BRENIER_PS:
            out.append((f"brenier-{i}-p{p}", partial(_brenier, vals, p)))
    return out


def _tlsi_checks(dom, rep):
    grad_c, bdry_c = _tlsi_coefficients_reference(rep.p, dom.dim, rep.volume)
    gap = max(abs(rep.grad_coeff - grad_c) / grad_c, abs(rep.bdry_coeff - bdry_c) / bdry_c)
    return [
        Check("tlsi_slack", max(-rep.slack, 0.0), rep.tolerance),
        Check("tlsi_coefficients", gap, 1e-12),
    ]


def _tlsi_coefficients_reference(p, n, volume):
    omega = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    pre = 1.0 if p == 1 else ((p - 1.0) / (n + p / (p - 1.0))) ** (p - 1.0)
    grad = pre / (omega ** (p / n) * volume ** (1.0 - p / n))
    bdry = 1.0 / (omega ** (1.0 / n) * volume ** (1.0 - 1.0 / n))
    return grad, bdry


def _tlsi(dom, f, p):
    rep = functional.tlsi_verify(dom, f, p, grid_resolution=TLSI_RESOLUTION)
    return (rep.lhs, rep.grad_term, rep.bdry_term, rep.slack, rep.tolerance), _tlsi_checks(dom, rep)


def _halving(dom, f, p):
    coarse = functional.tlsi_verify(dom, f, p, grid_resolution=TLSI_RESOLUTION)
    fine = functional.tlsi_verify(dom, f, p, grid_resolution=2 * TLSI_RESOLUTION)
    checks = _tlsi_checks(dom, fine) + [
        Check("tlsi_halving", fine.tolerance / coarse.tolerance, 0.5)
    ]
    return (fine.slack, fine.tolerance, coarse.tolerance), checks


def _dirichlet(dom, target):
    c = functional.dirichlet_lsi_constants(dom, ("grid", 256))
    return (c.prop_constant, c.classical_bound, c.ratio), [
        Check("dirichlet_ratio", abs(c.ratio - target), 0.01)
    ]


def _step_checks(chain):
    checks = []
    for s in chain.steps:
        err = abs(s.slack) if s.kind == "identity" else max(-s.slack, 0.0)
        checks.append(Check("brenier_step", err, s.tolerance))
    return checks


def _brenier_const():
    chain = functional.brenier_chain_check_1d(np.ones(4097), (0.0, 1.0), p=2)
    analytic = {
        "log_det_bound": 0.0,
        "integration_by_parts": 0.0,
        "boundary_bound": 0.0,
        "holder_young": chain.R**2 / 3.0,
    }
    checks = _step_checks(chain) + [
        Check("brenier_const", abs(s.slack - analytic[s.name]), 1e-6) for s in chain.steps
    ]
    return tuple(s.slack for s in chain.steps), checks


def _brenier(vals, p):
    chain = functional.brenier_chain_check_1d(vals, (0.0, 1.0), p=p)
    return tuple((s.slack, s.tolerance) for s in chain.steps) + (chain.tv_error,), _step_checks(chain)


WORKLOADS = {
    "entropic_ot": entropic_ot,
    "matching": matching,
    "montecarlo": montecarlo,
    "quadrature": quadrature,
}
