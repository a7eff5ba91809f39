"""The acceptance suite: twelve numbered criteria, each a self-contained
check with its own corpus, tolerance, and runtime budget.

Criteria 1 to 11 each build a :class:`RunReport`: tabular evidence as CSV
rows with a fixed header, so the suite artifact is diff-able across runs
(rows never contain wall-clock data), and one violation record per failed
check.  A criterion passes exactly when its report has no violations.
``tolerance_scale`` multiplies every numeric acceptance tolerance,
including the sigma multipliers of statistical checks and the tolerance of
every step of the 1-D chain, which makes the negative control at scale 0
meaningful: checks that can only pass with a genuine tolerance must then
fail, demonstrating they are live.

The corpus checks of criteria 1, 6, 7, 8 and 10 are corpus runners
(``ot_corpus``, ``tlsi_corpus``, ``dirichlet_corpus``, ``brenier_corpus``,
``lemma1_corpus``) that take a slice of their corpus and return a
:class:`RunReport`.  A criterion runs its full slice; the CLI commands
``ot``, ``tlsi-verify``, ``dirichlet-sharpness``, ``brenier-1d`` and
``lemma1-audit`` run the slice their ``params`` name, validated against
``SLICE_PARAMS``, so both report the same rows under the same check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from . import concentration, corpora, functional, geometry, isotropy, transport
from ._rng import Purpose, child_seed, rng_for
from .errors import ConvexIneqError
from .geometry import Ball, Cube, apply_affine, ball_volume_one, interval, l1_ball_volume_one
from .reporting import csv_text


@dataclass(frozen=True)
class RunReport:
    """One run of a check: its table, the offending records (empty when the
    check holds), the summary its JSON report carries, and any further
    tables by name."""

    header: tuple
    rows: list
    violations: list
    payload: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    header: tuple
    rows: tuple
    limit: float
    elapsed: float = 0.0

    def csv(self) -> str:
        return csv_text(list(self.header), list(self.rows))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.index:2d} {self.name:<22s} {status}  "
            f"{self.detail}  [{self.elapsed:.1f}s / {self.limit:.0f}s]"
        )


def _criterion(index, name, run: RunReport, detail, limit) -> CriterionResult:
    return CriterionResult(
        index=index,
        name=name,
        passed=not run.violations,
        detail=detail,
        header=run.header,
        rows=tuple(run.rows),
        limit=limit,
    )


def _judge(rows, violations, ok, row, violation) -> None:
    """Append ``row`` with its PASS/FAIL verdict and, unless ``ok``, the
    ``violation`` record."""
    rows.append((*row, "PASS" if ok else "FAIL"))
    if not ok:
        violations.append(violation)


# -- corpus runners ----------------------------------------------------------


def ot_corpus(ts: float, instances: int = corpora.OT_INSTANCES, oracle: bool = True) -> RunReport:
    """exact_ot on the first ``instances`` OT corpus instances; with
    ``oracle``, an instance off the permutation oracle by more than
    1e-9 * ts is a violation."""
    rows, violations = [], []
    worst = 0.0
    for i in range(instances):
        mu, nu, p = corpora.ot_instance(i)
        cost = transport.exact_ot(mu, nu, p).cost
        ref = diff = math.nan
        if oracle:
            ref = transport.permutation_oracle(mu, nu, p).cost
            diff = abs(cost - ref)
            worst = max(worst, diff)
            if diff > 1e-9 * ts:
                violations.append({"instance": i, "p": p, "abs_diff": diff, "limit": 1e-9 * ts})
        rows.append((i, p, cost, ref, diff))
    header = ("instance", "p", "exact_cost", "oracle_cost", "abs_diff")
    payload = {"instances": instances, "oracle": oracle, "max_abs_diff": worst if oracle else None}
    return RunReport(header, rows, violations, payload)


def tlsi_corpus(
    ts: float,
    domains=("lshape",),
    count: int = corpora.TRIG_SEEDS,
    ps=(1, 2, 3),
    resolution: int = 24,
) -> RunReport:
    """tlsi_verify on the first ``count`` trigonometric functions of each
    named domain at each exponent; a report that fails ``holds(ts)`` is a
    violation.  An unknown domain name raises."""
    available = corpora.domain_set()
    rows, violations = [], []
    for name in domains:
        if name not in available:
            raise ConvexIneqError(f"unknown corpus domain {name!r}; have {sorted(available)}")
        dom = available[name]
        for i in range(count):
            f = corpora.trig_function(dom.dim, i)
            for p in ps:
                rep = functional.tlsi_verify(dom, f, p, grid_resolution=resolution)
                ok = rep.holds(ts)
                verdict = "PASS" if ok else "VIOLATION"
                rows.append(
                    (name, p, f.label, rep.lhs, rep.grad_term, rep.bdry_term, rep.slack, rep.tolerance, verdict)
                )
                if not ok:
                    violations.append(
                        {"domain": name, "p": p, "f_id": f.label, "slack": rep.slack, "tolerance": rep.tolerance}
                    )
    header = ("domain", "p", "f_id", "lhs", "grad_term", "bdry_term", "slack", "tolerance", "verdict")
    return RunReport(header, rows, violations, {"instances": len(rows), "violations": len(violations)})


def dirichlet_corpus(ts: float, resolution: int = 256) -> RunReport:
    """The Dirichlet comparison on the disk, where it is sharp (ratio 1),
    and on the square (ratio 0.9549); a ratio more than 0.01 * ts off its
    target is a violation."""
    rows, violations = [], []
    for name, dom, target in (
        ("disk", Ball(1.0, 2), 1.0),
        ("square", Cube(1.0, 2), 0.9549),
    ):
        c = functional.dirichlet_lsi_constants(dom, ("grid", resolution))
        diff = abs(c.ratio - target)
        row = (name, c.prop_constant, c.classical_bound, c.ratio, target, diff)
        violation = {"domain": name, "ratio": c.ratio, "target": target, "limit": 0.01 * ts}
        _judge(rows, violations, diff <= 0.01 * ts, row, violation)
    header = ("domain", "prop_constant", "classical_bound", "ratio", "target", "abs_diff", "verdict")
    return RunReport(header, rows, violations, {"cases": len(rows)})


def brenier_corpus(ts: float, count: int = 20, ps=(1.5, 2.0, 3.0), points: int = 2049) -> RunReport:
    """The 1-D chain audit: f = 1 at p = 2, whose slacks must match their
    analytic values within 1e-6 * ts, then the first ``count``
    trigonometric functions on ``points``-point grids at each exponent.
    Every step is judged by its ``holds(ts)``."""
    rows, violations = [], []

    chain = functional.brenier_chain_check_1d(np.ones(4097), (0.0, 1.0), p=2)
    analytic = {
        "log_det_bound": 0.0,
        "integration_by_parts": 0.0,
        "boundary_bound": 0.0,
        "holder_young": chain.R**2 / 3.0,  # (p-1) R^q/(1+q) at p = 2
    }
    for s in chain.steps:
        gap = abs(s.slack - analytic[s.name])
        row = ("const-1", 2.0, s.name, s.lhs, s.rhs, s.slack, s.tolerance)
        violation = {"f_id": "const-1", "p": 2.0, "step": s.name, "slack": s.slack, "gap": gap}
        _judge(rows, violations, s.holds(ts) and gap <= 1e-6 * ts, row, violation)

    for i in range(count):
        f = corpora.trig_function(1, i)
        vals = corpora.brenier_grid(f, points=points)
        for p in ps:
            chain = functional.brenier_chain_check_1d(vals, (0.0, 1.0), p=float(p))
            for s in chain.steps:
                row = (f.label, p, s.name, s.lhs, s.rhs, s.slack, s.tolerance)
                violation = {"f_id": f.label, "p": p, "step": s.name, "slack": s.slack}
                _judge(rows, violations, s.holds(ts), row, violation)
    header = ("f_id", "p", "step", "lhs", "rhs", "slack", "tolerance", "verdict")
    return RunReport(header, rows, violations, {"audits": 1 + count * len(ps), "violations": len(violations)})


def lemma1_corpus(ts: float, seed: int, pair: str = "both", reps: int = 1, m: int = 1024) -> RunReport:
    """lemma1_audit on the reference pairs (``pair`` names one, or "both")
    at seeds seed, seed + 1, ... for ``reps`` repetitions.  Every step is
    judged by its ``holds(ts)``, which passes a REPORTED row; with more
    than one repetition, a spread of c_implied over them above 0.25 * ts of
    its mean is a violation too.  An unknown pair name raises."""
    pairs = corpora.audit_pairs()
    chosen = [idx for idx, (name, _, _) in enumerate(pairs) if pair in ("both", name)]
    if not chosen:
        raise ConvexIneqError(f"unknown audit pair {pair!r}; have " + ", ".join(n for n, _, _ in pairs))
    rows, violations, audits = [], [], []
    for idx in chosen:
        name, K, B = pairs[idx]
        c_values = []
        for r in range(reps):
            audit_seed = child_seed(seed + r, Purpose.CRITERION_AUDIT, idx)
            audit = concentration.lemma1_audit(K, B, m=m, seed=audit_seed)
            audits.append({"pair": name, "rep": r, **audit.to_json()})
            c, tau = audit.quantities["c_implied"], audit.quantities["tau_proxy"]
            c_values.append(c.value)
            for step in audit.steps:
                ok = step.holds(ts)
                if not ok:
                    violations.append({"pair": name, "rep": r, "step": step.name, "lhs": step.lhs, "rhs": step.rhs})
                verdict = "REPORTED" if step.verdict == "REPORTED" else "PASS" if ok else "VIOLATION"
                rows.append((name, r, step.name, step.lhs, step.rhs, step.stderr, verdict))
            rows.append((name, r, "c_implied", c.value, tau.value, c.stderr, "REPORTED"))
        if reps > 1:
            mean_c = sum(c_values) / len(c_values)
            spread = (max(c_values) - min(c_values)) / mean_c
            violation = {"pair": name, "step": "c_spread", "spread": spread, "limit": 0.25 * ts}
            _judge(rows, violations, spread <= 0.25 * ts, (name, -1, "c_spread", spread, 0.25, 0.0), violation)
    header = ("pair", "rep", "record", "lhs", "rhs", "stderr", "verdict")
    return RunReport(header, rows, violations, {"audits": audits})


_COUNT = {"type": "integer", "minimum": 1}
_EXPONENTS = {"type": "array", "minItems": 1, "items": {"type": "number", "minimum": 1}}

# JSON schema of the runner arguments a CLI command's params may set (the
# tolerance scale, seed and oracle come from the manifest's own keys, and
# lemma1-audit runs one repetition)
SLICE_PARAMS = {
    ot_corpus: {"instances": {**_COUNT, "maximum": corpora.OT_INSTANCES}},
    tlsi_corpus: {
        "domains": {"type": "array", "minItems": 1, "items": {"enum": list(corpora.domain_set())}},
        "count": {**_COUNT, "maximum": corpora.TRIG_SEEDS},
        "ps": _EXPONENTS,
        "resolution": {"type": "integer", "minimum": 16},
    },
    dirichlet_corpus: {"resolution": {"type": "integer", "minimum": 2}},
    brenier_corpus: {
        "count": {**_COUNT, "maximum": corpora.TRIG_SEEDS},
        "ps": _EXPONENTS,
        "points": {"type": "integer", "minimum": 9},
    },
    lemma1_corpus: {
        "pair": {"enum": ["both", *(name for name, _, _ in corpora.audit_pairs())]},
        "m": {"type": "integer", "minimum": 2, "maximum": transport._EXACT_CAP},
    },
}


# -- criteria ----------------------------------------------------------------


def criterion_1(seed: int, ts: float) -> CriterionResult:
    """exact_ot equals the brute-force permutation oracle on 500 instances."""
    run = ot_corpus(ts, corpora.OT_INSTANCES)
    detail = f"max |exact - oracle| = {run.payload['max_abs_diff']:.3g} over {len(run.rows)} instances"
    return _criterion(1, "ot-oracle", run, detail, limit=30.0)


def criterion_2(seed: int, ts: float) -> CriterionResult:
    """Stabilized scaling sinkhorn within 2% of exact_ot at epsilon = 1e-3
    median cost, every instance converged.

    The solver iterates on kernel scalings and folds them into its log
    potentials when they leave their threshold or a kernel row or column
    underflows (see ``transport.sinkhorn``); an instance that stops at
    ``max_iters`` fails the criterion, so the budget cannot be met by
    stopping early.
    """
    rows, violations = [], []
    for i in range(corpora.SINKHORN_INSTANCES):
        mu, nu, p = corpora.sinkhorn_instance(i)
        exact = transport.exact_ot(mu, nu, p)
        eps = 1e-3 * float(np.median(transport.cost_matrix(mu, nu, p)))
        sink = transport.sinkhorn(mu, nu, p, epsilon=eps)
        rel = abs(sink.cost - exact.cost) / exact.cost
        rows.append((i, p, eps, exact.cost, sink.cost, rel, sink.iterations))
        if not (rel <= 0.02 * ts and sink.converged):
            violations.append({"instance": i, "p": p, "rel_err": rel, "converged": sink.converged})
    header = ("instance", "p", "epsilon", "exact_cost", "sinkhorn_cost", "rel_err", "iterations")
    run = RunReport(header, rows, violations)
    detail = f"max relative cost error = {max(r[5] for r in rows):.3g} over {len(rows)} instances"
    unconverged = sum(not v["converged"] for v in violations)
    if unconverged:
        detail += f"; {unconverged} stopped at max_iters unconverged"
    return _criterion(2, "sinkhorn-accuracy", run, detail, limit=120.0)


def criterion_3(seed: int, ts: float) -> CriterionResult:
    """wasserstein_1d reproduces W_1(U(0,1), U(a,a+1)) = |a| on quantile grids."""
    m = 10_000
    base = (np.arange(m) + 0.5) / m
    rows, violations = [], []
    for a in (0.0, 0.5, 2.0):
        w = transport.wasserstein_1d(base, a + base, p=1)
        diff = abs(w - abs(a))
        rows.append((a, w, diff))
        if not diff <= 1e-3 * ts:
            violations.append({"a": a, "w1": w, "abs_diff": diff, "limit": 1e-3 * ts})
    run = RunReport(("a", "w1", "abs_diff"), rows, violations)
    detail = f"max |W1 - a| = {max(r[2] for r in rows):.3g} on 10^4-point quantile grids"
    return _criterion(3, "wasserstein-1d", run, detail, limit=5.0)


def criterion_4(seed: int, ts: float) -> CriterionResult:
    """Closed-form relative entropy against the MC volume estimate, 3 stderr."""
    rows, violations = [], []
    for idx, (name, K, B) in enumerate(corpora.nested_pairs()):
        h = isotropy.relative_entropy_uniform(
            K, B, m=10_000, seed=child_seed(seed, Purpose.CRITERION_ENTROPY, idx)
        )
        vK = geometry.volume_with_error(
            K, mc_samples=200_000, seed=child_seed(seed, Purpose.CRITERION_ENTROPY_MC, 2 * idx), method="mc"
        )
        vB = geometry.volume_with_error(
            B,
            mc_samples=200_000,
            seed=child_seed(seed, Purpose.CRITERION_ENTROPY_MC, 2 * idx + 1),
            method="mc",
        )
        ratio = vB / vK
        h_mc = math.log(ratio.value)
        # the stderr of log r is that of r relative to r
        se = ratio.stderr / ratio.value
        z = abs(h - h_mc) / se if se > 0 else math.inf
        ok = abs(h - h_mc) <= 3.0 * ts * se
        _judge(rows, violations, ok, (name, h, h_mc, se, z), {"pair": name, "h_closed": h, "h_mc": h_mc, "z": z})
    run = RunReport(("pair", "h_closed", "h_mc", "stderr", "z", "verdict"), rows, violations)
    detail = f"{len(rows) - len(violations)}/{len(rows)} pairs within 3 stderr of the MC oracle"
    return _criterion(4, "relative-entropy", run, detail, limit=60.0)


def criterion_5(seed: int, ts: float) -> CriterionResult:
    """Isotropic constants of cubes and the disk; affine invariance."""
    rows, violations = [], []

    def judge(body, n, L, reference, rel, limit):
        row = (body, n, L.value, L.stderr, reference, rel)
        _judge(rows, violations, rel <= limit * ts, row, {"body": body, "rel_err": rel, "limit": limit * ts})

    target_cube = 1.0 / math.sqrt(12.0)
    for n in range(2, 7):
        L = isotropy.isotropic_constant(Cube(1.0, n), m=200_000, seed=child_seed(seed, Purpose.CRITERION_ISO, n))
        judge(f"Q_{n}", n, L, target_cube, abs(L.value - target_cube) / target_cube, 0.01)
    target_disk = 1.0 / (2.0 * math.sqrt(math.pi))
    L = isotropy.isotropic_constant(ball_volume_one(2), m=200_000, seed=child_seed(seed, Purpose.CRITERION_ISO, 1))
    judge("D_2", 2, L, target_disk, abs(L.value - target_disk) / target_disk, 0.01)

    base = Cube(1.0, 3)
    L0 = isotropy.isotropic_constant(base, m=200_000, seed=child_seed(seed, Purpose.CRITERION_AFFINE, 0))
    g = rng_for(seed, Purpose.CRITERION_AFFINE, rep=1)
    for j in range(20):
        while True:
            A = np.eye(3) + 0.5 * g.standard_normal((3, 3))
            if abs(np.linalg.det(A)) >= 0.2:
                break
        shift = g.standard_normal(3)
        Lj = isotropy.isotropic_constant(
            apply_affine(base, A, shift), m=200_000, seed=child_seed(seed, Purpose.CRITERION_AFFINE_L, j)
        )
        judge(f"affine-{j:02d}", 3, Lj, L0.value, abs(Lj.value / L0.value - 1.0), 0.02)
    run = RunReport(("body", "n", "L", "stderr", "reference", "rel_err", "verdict"), rows, violations)
    detail = f"{len(rows) - len(violations)}/{len(rows)} estimates within tolerance"
    return _criterion(5, "isotropic-constant", run, detail, limit=180.0)


_TLSI_DOMAINS = ("interval", "square", "disk", "lshape")
_TLSI_PS = (1, 2, 3)


def criterion_6(seed: int, ts: float) -> CriterionResult:
    """1200-instance trace log-Sobolev corpus plus tolerance halving: on a
    30-instance subsample, a tolerance that does not halve from resolution
    24 to 48 is a violation."""
    run = tlsi_corpus(ts, _TLSI_DOMAINS, corpora.TRIG_SEEDS, _TLSI_PS, 24)
    # the runner's rows follow this (domain, function, exponent) order
    keys = itertools.product(_TLSI_DOMAINS, range(corpora.TRIG_SEEDS), _TLSI_PS)
    domains = corpora.domain_set()
    halving = []
    for (dn, i, p), row in list(zip(keys, run.rows))[::40][:30]:
        fine = functional.tlsi_verify(domains[dn], corpora.trig_function(domains[dn].dim, i), p, 48)
        coarse = row[run.header.index("tolerance")]
        if not fine.tolerance <= 0.5 * coarse:
            halving.append({"domain": dn, "p": p, "f_id": row[2], "tolerance": coarse, "fine": fine.tolerance})
    detail = (
        f"{len(run.violations)} violations in {len(run.rows)} instances; "
        f"{len(halving)} halving failures on the 30-instance subsample"
    )
    run = replace(run, violations=run.violations + halving)
    return _criterion(6, "tlsi-corpus", run, detail, limit=600.0)


def criterion_7(seed: int, ts: float) -> CriterionResult:
    """Dirichlet comparison sharp on the disk, 0.9549 on the square."""
    run = dirichlet_corpus(ts, 256)
    detail = "; ".join(f"{r[0]} ratio {r[3]:.5f} vs {r[4]}" for r in run.rows)
    return _criterion(7, "dirichlet-sharpness", run, detail, limit=60.0)


def criterion_8(seed: int, ts: float) -> CriterionResult:
    """1-D chain audit: f = 1 hits analytic slacks; random trig f all pass."""
    run = brenier_corpus(ts, 20, (1.5, 2.0, 3.0), 2049)
    detail = (
        f"{len(run.violations)} step failures over {len(run.rows)} step records "
        f"({run.payload['audits']} audits)"
    )
    return _criterion(8, "brenier-1d", run, detail, limit=60.0)


def criterion_9(seed: int, ts: float) -> CriterionResult:
    """Spectral quotients of near-eigenfunctions on the unit interval."""
    dom = interval(0.0, 1.0)
    pi2 = math.pi**2
    f = functional.trigonometric(0.0, [(1.0, 0.0, (1,))], 1, label="cos(pi x)")
    g = functional.trigonometric(1.0, [(0.01, 0.0, (1,))], 1, label="1+0.01cos(pi x)")
    r = functional.rayleigh_quotient(f, dom, ("grid", 2048))
    l = functional.lsi_quotient(g, dom, ("grid", 2048))
    rel_r = abs(r.value - pi2) / pi2
    rel_l = abs(l.value - pi2) / pi2
    rows, violations = [], []
    for name, fn, q, rel, limit in (("rayleigh", f, r, rel_r, 0.01), ("lsi", g, l, rel_l, 0.05)):
        row = (name, fn.label, q.value, pi2, rel)
        _judge(rows, violations, rel <= limit * ts, row, {"quotient": name, "rel_err": rel, "limit": limit * ts})
    run = RunReport(("quotient", "f_id", "value", "target", "rel_err", "verdict"), rows, violations)
    detail = f"rayleigh rel err {rel_r:.2e}, lsi rel err {rel_l:.2e} against pi^2"
    return _criterion(9, "spectral-quotient", run, detail, limit=10.0)


def criterion_10(seed: int, ts: float) -> CriterionResult:
    """Mean-norm audit chain on both reference pairs, three seeds each."""
    run = lemma1_corpus(ts, seed, "both", 3, 1024)
    detail = f"{len(run.violations)} failures across 6 audits and 2 stability checks"
    return _criterion(10, "lemma1-audit", run, detail, limit=300.0)


def criterion_11(seed: int, ts: float) -> CriterionResult:
    """Tail-proxy trend: decay on l1 balls, stability on cubes and balls."""
    rows, violations = [], []
    l1 = {}
    for j, n in enumerate((4, 8, 16)):
        tau_seed = child_seed(seed, Purpose.CRITERION_TAU, j)
        res = concentration.tau1_proxy(l1_ball_volume_one(n), m=200_000, seed=tau_seed)
        l1[n] = res.estimate.value
        rows.append(("l1", n, res.estimate.value, res.estimate.stderr, res.argmin))
    for a, b in ((4, 8), (8, 16)):
        ratio = l1[b] / l1[a]
        ok = abs(ratio - 0.55) <= 0.25 * ts
        _judge(rows, violations, ok, ("l1-ratio", b, ratio, 0.0), {"family": "l1-ratio", "n": b, "ratio": ratio})
    for j, (fam, make) in enumerate((("cube", lambda n: Cube(1.0, n)), ("ball", ball_volume_one))):
        taus = []
        for k, n in enumerate((2, 4, 8)):
            tau_seed = child_seed(seed, Purpose.CRITERION_TAU, 10 + 3 * j + k)
            res = concentration.tau1_proxy(make(n), m=200_000, seed=tau_seed)
            taus.append(res.estimate.value)
            rows.append((fam, n, res.estimate.value, res.estimate.stderr, res.argmin))
        spread = max(taus) / min(taus)
        ok = spread <= 1.0 + 1.0 * ts
        _judge(rows, violations, ok, (f"{fam}-spread", 0, spread, 0.0), {"family": fam, "spread": spread})
    run = RunReport(("family", "n", "value", "stderr", "note"), rows, violations)
    detail = f"{len(violations)} trend failures; l1 ratios " + ", ".join(
        f"{l1[b] / l1[a]:.3f}" for a, b in ((4, 8), (8, 16))
    )
    return _criterion(11, "tau1-trend", run, detail, limit=300.0)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


@dataclass(frozen=True)
class SuiteResult:
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def combined_csv(self) -> str:
        return "".join(r.csv() for r in self.results if r.index <= 11)


def _run_all(seed: int, tolerance_scale: float, echo) -> list[CriterionResult]:
    out = []
    for fn in CRITERIA:
        t0 = perf_counter()
        res = fn(seed, tolerance_scale)
        res = replace(res, elapsed=perf_counter() - t0)
        if res.elapsed >= res.limit:
            res = replace(res, passed=False, detail=res.detail + "; over runtime budget")
        if echo:
            echo(res.line())
        out.append(res)
    return out


def run_suite(seed: int = 0, tolerance_scale: float = 1.0, echo=None) -> SuiteResult:
    """Run criteria 1..11, then re-run them to check that the combined CSV
    bodies are byte-identical, which is criterion 12."""
    t0 = perf_counter()
    results = _run_all(seed, tolerance_scale, echo)
    first = SuiteResult(tuple(results)).combined_csv()
    second = SuiteResult(tuple(_run_all(seed, tolerance_scale, None))).combined_csv()
    identical = first == second
    elapsed = perf_counter() - t0
    res12 = CriterionResult(
        index=12,
        name="determinism",
        passed=identical and elapsed < 1800.0,
        detail=(
            f"second run {'byte-identical' if identical else 'DIFFERS'} "
            f"({len(first)} CSV bytes); suite wall time {elapsed:.0f}s"
        ),
        header=("check", "value"),
        rows=(("identical_bytes", 1 if identical else 0), ("csv_bytes", len(first))),
        limit=1800.0,
        elapsed=elapsed,
    )
    if echo:
        echo(res12.line())
    results.append(res12)
    return SuiteResult(results=tuple(results))
