"""Span tracing of the library's layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each layer module
(geometry, sampling, isotropy, transport, functional, concentration) with
wrappers that record one span per call: name, start, end, parent span and the
benchmark instance id.  Every other ``convexineq`` module that imported the
same function object (``concentration.sample_uniform``, the package
namespace, ...) gets the wrapper too, so calls between layers are caught.  The
scipy kernels that ``transport`` imported (``linear_sum_assignment``,
``linprog``, ``logsumexp``) are wrapped in the ``transport`` namespace only.
``Tracer.uninstall`` puts every original object back.

Spans stay in memory; ``write_spans`` dumps them when the run ends, and
``layer_metrics`` folds them into the per-layer metrics that BENCHMARK.json
lists under ``per_layer``.  Self time is a span's duration minus the time its
direct children cover; because calls nest on one thread, the self times of
all spans add up to the duration of the top-level spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("geometry", "sampling", "isotropy", "transport", "functional", "concentration")

# public functions whose calls become spans named "<module>.<function>"
_FUNCTIONS = {
    "geometry": (
        "volume_with_error",
        "interior_quadrature",
        "boundary_quadrature",
        "fingerprint",
        "apply_affine",
        "normalize_to_volume_one",
        "support",
    ),
    "sampling": ("sample_uniform", "hit_and_run", "estimate_mean_norm_p"),
    "isotropy": (
        "isotropic_constant",
        "isotropic_position",
        "covariance",
        "relative_entropy_uniform",
        "volume_ratio",
        "inscribe_scale",
    ),
    "transport": (
        "cost_matrix",
        "exact_ot",
        "permutation_oracle",
        "sinkhorn",
        "wasserstein_empirical",
        "wasserstein_1d",
        "w1_to_point_mass",
        "tci_tau_records",
        "tci_tau_upper_bound",
    ),
    "functional": (
        "tlsi_verify",
        "dirichlet_lsi_constants",
        "brenier_chain_check_1d",
        "random_trig",
        "entropy_functional",
        "variance_functional",
        "rayleigh_quotient",
        "lsi_quotient",
    ),
    "concentration": ("tau1_proxy", "concentration_profile", "lemma1_audit"),
}

# third-party kernels, wrapped only where the named module looks them up
_IMPORTED = {
    "transport": ("linear_sum_assignment", "linprog", "logsumexp"),
}

# methods: (module, class, method, span name)
_METHODS = (
    ("geometry", "AffineMap", "apply", "geometry.affine_apply"),
    ("transport", "DiscreteMeasure", "__post_init__", "transport.discrete_measure"),
    ("functional", "TestFunction", "value", "functional.test_function.value"),
    ("functional", "TestFunction", "gradient", "functional.test_function.gradient"),
)

# one chord evaluation per lockstep step of the hit-and-run chains; counted,
# not timed, so the count of chain steps costs no span per step
_STEP_COUNTER = ("sampling", "_chord")


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent_id, instance, child_s, extra]
        self.instance = None
        self.installs = 0  # one install per traced pass
        self.chain_rows = 0
        self._stack = []
        self._restore = []
        self._quad_keys = []
        self._quad_domains = {}

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every traced function and method; idempotent per tracer."""
        if self._restore:
            return
        self.installs += 1
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "convexineq" or name.startswith("convexineq."))]
        for layer, names in _FUNCTIONS.items():
            mod = sys.modules[f"convexineq.{layer}"]
            for attr in names:
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapper = self._wrap(orig, f"{layer}.{attr}")
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._swap(m, key, wrapper)
        for layer, names in _IMPORTED.items():
            mod = sys.modules[f"convexineq.{layer}"]
            for attr in names:
                orig = getattr(mod, attr, None)
                if orig is not None:
                    self._swap(mod, attr, self._wrap(orig, f"{layer}.{attr}"))
        for layer, cls_name, meth, span_name in _METHODS:
            cls = getattr(sys.modules[f"convexineq.{layer}"], cls_name, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is not None:
                self._swap(cls, meth, self._wrap(orig, span_name))
        mod = sys.modules[f"convexineq.{_STEP_COUNTER[0]}"]
        orig = getattr(mod, _STEP_COUNTER[1], None)
        if orig is not None:
            self._swap(mod, _STEP_COUNTER[1], self._count_rows(orig))

    def uninstall(self):
        """Restore every original object, newest first."""
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def _swap(self, owner, key, new):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def _wrap(self, orig, name):
        tracer = self
        spans = self.spans
        stack = self._stack
        note = _NOTES.get(name)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [len(spans), name, 0.0, 0.0, None if parent is None else parent[0],
                   tracer.instance, 0.0, None]
            spans.append(rec)
            stack.append(rec)
            rec[2] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[3] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[6] += end - rec[2]
            if note is not None:
                try:
                    rec[7] = note(tracer, args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed return type loses the counter, not the call
            return result

        return wrapper

    def _count_rows(self, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            lo, hi = result = orig(*args, **kwargs)
            tracer.chain_rows += len(lo)
            return result

        return wrapper

    # -- output -----------------------------------------------------------------

    def write_spans(self, path):
        """One JSON array per span: id, name, start, end, parent id, instance."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:6], separators=(",", ":")) + "\n")


def _quad_note(kind):
    def note(tracer, args, kwargs, result):
        domain = args[0] if args else kwargs.get("domain", kwargs.get("body"))
        resolution = args[1] if len(args) > 1 else kwargs.get("resolution")
        # keyed by traced pass and object identity, so that the distinct
        # share is per pass; holding the domain keeps its id from being
        # reused by a later object
        tracer._quad_domains[id(domain)] = domain
        tracer._quad_keys.append((tracer.installs, kind, id(domain), resolution))
        nodes = result[0] if kind == "interior" else result.nodes
        return {"nodes": int(nodes.shape[0])}

    return note


_NOTES = {
    "transport.sinkhorn": lambda t, a, k, r: {"iterations": int(r.iterations)},
    "transport.exact_ot": lambda t, a, k, r: {"fallback": r.solver != "exact"},
    "transport.cost_matrix": lambda t, a, k, r: {"entries": int(r.size)},
    "sampling.sample_uniform": lambda t, a, k, r: {"sampler": r.sampler, "points": r.count},
    "sampling.hit_and_run": lambda t, a, k, r: {"points": r.count},
    "geometry.interior_quadrature": _quad_note("interior"),
    "geometry.boundary_quadrature": _quad_note("boundary"),
    "functional.tlsi_verify": lambda t, a, k, r: {"violation": r.verdict != "PASS"},
    "functional.brenier_chain_check_1d": lambda t, a, k, r: {
        "step_failures": sum(s.verdict != "PASS" for s in r.steps)
    },
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [
        ("transport.sinkhorn.calls", "count"),
        ("transport.sinkhorn.self_s", "s"),
        ("transport.sinkhorn.iterations", "count"),
        ("transport.sinkhorn.us_per_iter", "us"),
        ("transport.sinkhorn.logsumexp_s", "s"),
        ("transport.exact_ot.calls", "count"),
        ("transport.exact_ot.self_s", "s"),
        ("transport.exact_ot.assignment_s", "s"),
        ("transport.exact_ot.lp_calls", "count"),
        ("transport.exact_ot.lp_s", "s"),
        ("transport.exact_ot.fallbacks", "count"),
        ("transport.cost_matrix.calls", "count"),
        ("transport.cost_matrix.s", "s"),
        ("transport.cost_matrix.entries", "count"),
        ("transport.permutation_oracle.s", "s"),
        ("transport.discrete_measure.s", "s"),
        ("transport.wasserstein_empirical.s", "s"),
        ("transport.tci_tau_records.s", "s"),
        ("sampling.direct.calls", "count"),
        ("sampling.direct.points", "count"),
        ("sampling.direct.s", "s"),
        ("sampling.direct.points_per_s", "1/s"),
        ("sampling.hit_and_run.calls", "count"),
        ("sampling.hit_and_run.points", "count"),
        ("sampling.hit_and_run.s", "s"),
        ("sampling.hit_and_run.steps_computed", "count"),
        ("sampling.hit_and_run.points_per_step", "ratio"),
        ("sampling.estimate_mean_norm_p.s", "s"),
        ("isotropy.isotropic_constant.s", "s"),
        ("isotropy.isotropic_position.s", "s"),
        ("isotropy.covariance.s", "s"),
        ("isotropy.relative_entropy_uniform.s", "s"),
        ("geometry.volume_with_error.calls", "count"),
        ("geometry.volume_with_error.s", "s"),
        ("geometry.affine_apply.s", "s"),
        ("geometry.interior_quadrature.calls", "count"),
        ("geometry.interior_quadrature.s", "s"),
        ("geometry.interior_quadrature.nodes", "count"),
        ("geometry.boundary_quadrature.calls", "count"),
        ("geometry.boundary_quadrature.s", "s"),
        ("geometry.boundary_quadrature.nodes", "count"),
        ("geometry.quadrature.distinct_share", "ratio"),
        ("geometry.fingerprint.calls", "count"),
        ("geometry.fingerprint.s", "s"),
        ("functional.tlsi_verify.calls", "count"),
        ("functional.tlsi_verify.self_s", "s"),
        ("functional.tlsi_verify.violations", "count"),
        ("functional.test_function.value_calls", "count"),
        ("functional.test_function.value_s", "s"),
        ("functional.test_function.gradient_calls", "count"),
        ("functional.test_function.gradient_s", "s"),
        ("functional.dirichlet_lsi_constants.s", "s"),
        ("functional.brenier_chain_check_1d.s", "s"),
        ("functional.brenier_chain_check_1d.step_failures", "count"),
        ("concentration.tau1_proxy.calls", "count"),
        ("concentration.tau1_proxy.self_s", "s"),
        ("concentration.lemma1_audit.calls", "count"),
        ("concentration.lemma1_audit.self_s", "s"),
    ]
    names += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    names += [
        ("trace.run_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.spans", "count"),
    ]
    return names


def layer_metrics(tracer, passes, traced_wall_s):
    """Per-pass per-layer metrics from the spans of ``passes`` traced passes.

    ``traced_wall_s`` is the summed wall time of those passes; the coverage
    metric is the share of it that top-level library spans account for.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    notes = defaultdict(float)
    by_id = tracer.spans
    for rec in by_id:
        _, name, start, end, parent, _, child_s, extra = rec
        dur = end - start
        own = dur - child_s
        calls[name] += 1
        total[name] += dur
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "sampling.sample_uniform" and extra is not None:
            # hit-and-run draws are counted from their own spans below
            if extra["sampler"] == "direct":
                calls["sampling.direct"] += 1
                notes["sampling.direct.points"] += extra["points"]
                total["sampling.direct"] += dur
        elif name == "sampling.hit_and_run" and extra is not None:
            if parent is None or by_id[parent][1] != "sampling.hit_and_run":
                calls["sampling.hit_and_run.outer"] += 1
                notes["sampling.hit_and_run.points"] += extra["points"]
                total["sampling.hit_and_run.outer"] += dur
        elif extra is not None:
            for key, value in extra.items():
                notes[f"{name}.{key}"] += float(value)
    quad_calls = len(tracer._quad_keys)
    distinct = len(set(tracer._quad_keys))

    def per(v):
        return v / passes

    iters = notes["transport.sinkhorn.iterations"]
    direct_pts = notes["sampling.direct.points"]
    har_pts = notes["sampling.hit_and_run.points"]
    steps = tracer.chain_rows
    top = sum(layer_self.values())
    out = {
        "transport.sinkhorn.calls": per(calls["transport.sinkhorn"]),
        "transport.sinkhorn.self_s": per(self_s["transport.sinkhorn"]),
        "transport.sinkhorn.iterations": per(iters),
        "transport.sinkhorn.us_per_iter": 1e6 * total["transport.sinkhorn"] / iters if iters else 0.0,
        "transport.sinkhorn.logsumexp_s": per(total["transport.logsumexp"]),
        "transport.exact_ot.calls": per(calls["transport.exact_ot"]),
        "transport.exact_ot.self_s": per(self_s["transport.exact_ot"]),
        "transport.exact_ot.assignment_s": per(total["transport.linear_sum_assignment"]),
        "transport.exact_ot.lp_calls": per(calls["transport.linprog"]),
        "transport.exact_ot.lp_s": per(total["transport.linprog"]),
        "transport.exact_ot.fallbacks": per(notes["transport.exact_ot.fallback"]),
        "transport.cost_matrix.calls": per(calls["transport.cost_matrix"]),
        "transport.cost_matrix.s": per(total["transport.cost_matrix"]),
        "transport.cost_matrix.entries": per(notes["transport.cost_matrix.entries"]),
        "transport.permutation_oracle.s": per(total["transport.permutation_oracle"]),
        "transport.discrete_measure.s": per(total["transport.discrete_measure"]),
        "transport.wasserstein_empirical.s": per(total["transport.wasserstein_empirical"]),
        "transport.tci_tau_records.s": per(total["transport.tci_tau_records"]),
        "sampling.direct.calls": per(calls["sampling.direct"]),
        "sampling.direct.points": per(direct_pts),
        "sampling.direct.s": per(total["sampling.direct"]),
        "sampling.direct.points_per_s": (
            direct_pts / total["sampling.direct"] if total["sampling.direct"] else 0.0
        ),
        "sampling.hit_and_run.calls": per(calls["sampling.hit_and_run.outer"]),
        "sampling.hit_and_run.points": per(har_pts),
        "sampling.hit_and_run.s": per(total["sampling.hit_and_run.outer"]),
        "sampling.hit_and_run.steps_computed": per(steps),
        "sampling.hit_and_run.points_per_step": har_pts / steps if steps else 0.0,
        "sampling.estimate_mean_norm_p.s": per(total["sampling.estimate_mean_norm_p"]),
        "isotropy.isotropic_constant.s": per(total["isotropy.isotropic_constant"]),
        "isotropy.isotropic_position.s": per(total["isotropy.isotropic_position"]),
        "isotropy.covariance.s": per(total["isotropy.covariance"]),
        "isotropy.relative_entropy_uniform.s": per(total["isotropy.relative_entropy_uniform"]),
        "geometry.volume_with_error.calls": per(calls["geometry.volume_with_error"]),
        "geometry.volume_with_error.s": per(total["geometry.volume_with_error"]),
        "geometry.affine_apply.s": per(total["geometry.affine_apply"]),
        "geometry.interior_quadrature.calls": per(calls["geometry.interior_quadrature"]),
        "geometry.interior_quadrature.s": per(total["geometry.interior_quadrature"]),
        "geometry.interior_quadrature.nodes": per(notes["geometry.interior_quadrature.nodes"]),
        "geometry.boundary_quadrature.calls": per(calls["geometry.boundary_quadrature"]),
        "geometry.boundary_quadrature.s": per(total["geometry.boundary_quadrature"]),
        "geometry.boundary_quadrature.nodes": per(notes["geometry.boundary_quadrature.nodes"]),
        "geometry.quadrature.distinct_share": distinct / quad_calls if quad_calls else 0.0,
        "geometry.fingerprint.calls": per(calls["geometry.fingerprint"]),
        "geometry.fingerprint.s": per(total["geometry.fingerprint"]),
        "functional.tlsi_verify.calls": per(calls["functional.tlsi_verify"]),
        "functional.tlsi_verify.self_s": per(self_s["functional.tlsi_verify"]),
        "functional.tlsi_verify.violations": per(notes["functional.tlsi_verify.violation"]),
        "functional.test_function.value_calls": per(calls["functional.test_function.value"]),
        "functional.test_function.value_s": per(total["functional.test_function.value"]),
        "functional.test_function.gradient_calls": per(calls["functional.test_function.gradient"]),
        "functional.test_function.gradient_s": per(total["functional.test_function.gradient"]),
        "functional.dirichlet_lsi_constants.s": per(total["functional.dirichlet_lsi_constants"]),
        "functional.brenier_chain_check_1d.s": per(total["functional.brenier_chain_check_1d"]),
        "functional.brenier_chain_check_1d.step_failures": per(
            notes["functional.brenier_chain_check_1d.step_failures"]
        ),
        "concentration.tau1_proxy.calls": per(calls["concentration.tau1_proxy"]),
        "concentration.tau1_proxy.self_s": per(self_s["concentration.tau1_proxy"]),
        "concentration.lemma1_audit.calls": per(calls["concentration.lemma1_audit"]),
        "concentration.lemma1_audit.self_s": per(self_s["concentration.lemma1_audit"]),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = per(layer_self[layer])
    out["trace.coverage"] = top / traced_wall_s if traced_wall_s else 0.0
    out["trace.spans"] = per(len(by_id))
    return out
