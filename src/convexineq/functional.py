"""Test functions, spectral quotients, and the trace log-Sobolev
machinery.

Quotient conventions (mu is the uniform probability law on the body):

* Rayleigh quotient  integral |grad f|^2 dmu / Var_mu(f), an upper bound for
  the spectral gap.
* LSI quotient       2 integral |grad f|^2 dmu / Ent_mu(f^2), an upper bound
  for the log-Sobolev constant.

Both quotients, like the Dirichlet-comparison constants, are means under
the body's interior quadrature, so they carry no sampling error (stderr 0,
no seed); a body without interior quadrature raises
QuadratureUnsupportedError.

The trace log-Sobolev verifier checks, for p >= 1 with conjugate q,

    Ent_O(|f|^p) <= ((p-1)/(n+q))^(p-1) / (w_n^(p/n) |O|^(1-p/n)) * I_grad
                    + 1 / (w_n^(1/n) |O|^(1-1/n)) * I_bdry

where Ent_O is the entropy with respect to the uniform probability measure
on O, I_grad = integral over O of |grad f|^p (Lebesgue), I_bdry = integral
over the boundary of |f|^p (surface measure), and w_n is the unit-ball
volume.  The prefactor is 1 at p = 1.  Both sides share one homogeneity in
(f, O): replacing f by c f and O by s O multiplies all three terms by the
same factor, so evaluating directly in the given frame is equivalent to
evaluating in the normalized frame the proof of the inequality works in
(average of |f|^p equal to one, fixed volume); the verifier exploits this
and evaluates in the given frame.  Quadrature tolerances are estimated by
comparing against the half-resolution evaluation, so they shrink with the
actual convergence rate of the rule.

The one-dimensional chain audit discretizes the proof itself: it builds the
monotone (quantile) transport map T pushing f^p dm_O to the uniform law of
equal mass in the proof's normalized frame, where T' = f^p is the 1-D
Monge-Ampere identity, and numerically verifies each step: the pointwise
logarithm bound log T' <= T' - 1 in integrated form, the integration by
parts identity, the boundary bound through |T| <= R, and the Holder/Young
chain using the pushforward identity for the q-th moment of T.

This module needs only numpy.  The chain's running integrals use a private
trapezoid sum with the arithmetic of scipy.integrate.cumulative_trapezoid,
bit for bit, so that importing the package does not import scipy.integrate,
which pulls in scipy.optimize and takes over half a second.
"""

from __future__ import annotations

import functools
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from ._rng import Purpose, rng_for
from .errors import (
    DimensionMismatchError,
    FunctionalDomainError,
    QuadratureUnsupportedError,
)
from .estimate import Estimate
from .geometry import Domain, interval_bounds, unit_ball_volume
from .reporting import Record, canonical_hash, jsonable

# -- test functions ----------------------------------------------------------

# points per block of a trigonometric evaluation: a (terms x block) table of
# six terms is 96 KiB, small enough to be reused from the heap; tables of
# many thousand points are mapped fresh and page-faulted in on every call
_TRIG_BLOCK = 2048

_CONTAINERS = (dict, types.MappingProxyType, list, tuple, np.ndarray)


def _frozen(value):
    """``value`` with every dict made read-only and every list, tuple and
    array made a tuple, all the way down."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return tuple([_frozen(v) if isinstance(v, _CONTAINERS) else v for v in value])
    if isinstance(value, (dict, types.MappingProxyType)):
        return types.MappingProxyType({k: _frozen(v) for k, v in value.items()})
    return value


@dataclass(frozen=True)
class TestFunction(Record):
    """A scalar test function with an analytic gradient.

    Kinds:
        polynomial:     params["terms"] = [(coef, exponent tuple)], value
                        sum of coef * prod x_i^e_i.
        trigonometric:  params["const"] plus params["terms"] =
                        [(a, b, freq vector k)], value sum of
                        a cos(pi k.x) + b sin(pi k.x).
        radial:         params["coeffs"] = c_0..c_d over t = |x|^2.

    ``params`` is read-only from construction on: a mapping proxy whose
    lists are tuples, so the fingerprint and the trigonometric coefficient
    arrays, each computed once per object, cannot go stale.  The
    trigonometric kind evaluates all terms at once on a (terms x points)
    table of phases and adds its rows in term order, so every value and
    gradient is bit for bit the one a per-term loop gives.  Nothing that
    depends on the evaluation points is kept between calls.
    """

    kind: str
    dim: int
    params: Mapping
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("polynomial", "trigonometric", "radial"):
            raise FunctionalDomainError(f"unknown test function kind {self.kind!r}")
        object.__setattr__(self, "params", _frozen(self.params))

    def _pts(self, x) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.dim == 1 and pts.shape[0] != self.dim else pts[None, :]
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"points of dimension {pts.shape[1]} against function of dimension {self.dim}"
            )
        return pts

    def value(self, x) -> np.ndarray:
        pts = self._pts(x)
        if self.kind == "polynomial":
            out = np.zeros(pts.shape[0])
            for coef, expo in self.params["terms"]:
                out += coef * np.prod(pts ** np.asarray(expo, dtype=float), axis=1)
            return out
        if self.kind == "trigonometric":
            return self._trig(pts, value=True, gradient=False)[0]
        t = (pts**2).sum(axis=1)  # radial
        return np.polynomial.polynomial.polyval(t, np.asarray(self.params["coeffs"]))

    def gradient(self, x) -> np.ndarray:
        pts = self._pts(x)
        if self.kind == "polynomial":
            out = np.zeros_like(pts)
            for coef, expo in self.params["terms"]:
                expo = np.asarray(expo, dtype=float)
                base = pts ** expo
                for i in range(self.dim):
                    if expo[i] == 0:
                        continue
                    partial = np.prod(np.delete(base, i, axis=1), axis=1)
                    out[:, i] += coef * expo[i] * pts[:, i] ** (expo[i] - 1.0) * partial
            return out
        if self.kind == "trigonometric":
            return self._trig(pts, value=False, gradient=True)[1]
        t = (pts**2).sum(axis=1)  # radial
        deriv = np.polynomial.polynomial.polyval(
            t, np.polynomial.polynomial.polyder(np.asarray(self.params["coeffs"]))
        )
        return 2.0 * deriv[:, None] * pts

    def value_and_gradient(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(value(x), gradient(x)), bit for bit; the trigonometric kind takes
        both from one (terms x points) table of phases, cosines and sines."""
        if self.kind != "trigonometric":
            return self.value(x), self.gradient(x)
        return self._trig(self._pts(x), value=True, gradient=True)

    @functools.cached_property
    def _trig_coefficients(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """(const, a, b, K): a and b as (terms, 1) columns, the frequency
        vectors as the rows of the (terms, dim) matrix K."""
        terms = self.params["terms"]
        n = len(terms)
        a = np.array([t[0] for t in terms], dtype=float).reshape(n, 1)
        b = np.array([t[1] for t in terms], dtype=float).reshape(n, 1)
        K = np.array([t[2] for t in terms], dtype=float).reshape(n, self.dim)
        for arr in (a, b, K):
            arr.setflags(write=False)
        return float(self.params.get("const", 0.0)), a, b, K

    def _trig(self, pts, value: bool, gradient: bool):
        """(value or None, gradient or None) of the trigonometric kind.

        Row j of the table is the phase pi k_j.x at every point, from one
        matrix-vector product per term, which rounds as ``pts @ k_j`` does;
        cosine, sine and the coefficients then act on the whole table.  The
        rows are added with an explicit ``+=`` in term order: ``np.add.reduce``
        over axis 0 sums pairwise when the table has one column.  The points
        go through in blocks of ``_TRIG_BLOCK``, so that the temporaries stay
        small however many points there are; no point's result depends on
        which block it is in.
        """
        const, a, b, K = self._trig_coefficients
        n = pts.shape[0]
        val = np.full(n, const) if value else None
        grad_t = np.zeros((self.dim, n)) if gradient else None
        for start in range(0, n, _TRIG_BLOCK):
            block = slice(start, start + _TRIG_BLOCK)
            x = pts[block]
            phase = np.empty((K.shape[0], x.shape[0]))
            for k, row in zip(K, phase):
                np.matmul(x, k, out=row)
            phase *= math.pi
            cos, sin = np.cos(phase), np.sin(phase)
            if value:
                terms = a * cos
                terms += b * sin
                for row in terms:
                    val[block] += row
            if gradient:
                radial = -a * sin
                radial += b * cos
                radial *= math.pi
                # laid out (dim, terms, points), so that every product and sum
                # runs along contiguous points rather than along the short dim axis
                parts = K.T[:, :, None] * radial
                for j in range(K.shape[0]):
                    grad_t[:, block] += parts[:, j]
        return val, None if grad_t is None else grad_t.T.copy()

    def __call__(self, x) -> np.ndarray:
        return self.value(x)

    @functools.cached_property
    def _fingerprint(self) -> str:
        return canonical_hash(self)[:16]

    def fingerprint(self) -> str:
        return self._fingerprint


def polynomial(terms, dim: int, label: str = "") -> TestFunction:
    return TestFunction("polynomial", dim, {"terms": list(terms)}, label)


def linear(a, label: str = "") -> TestFunction:
    a = np.asarray(a, dtype=float)
    terms = [
        (float(a[i]), tuple(1 if j == i else 0 for j in range(a.shape[0])))
        for i in range(a.shape[0])
        if a[i] != 0
    ]
    return TestFunction("polynomial", a.shape[0], {"terms": terms}, label)


def trigonometric(const: float, terms, dim: int, label: str = "") -> TestFunction:
    return TestFunction("trigonometric", dim, {"const": float(const), "terms": list(terms)}, label)


def radial(coeffs, dim: int, label: str = "") -> TestFunction:
    return TestFunction("radial", dim, {"coeffs": list(map(float, coeffs))}, label)


def random_trig(
    dim: int, seed: int, n_terms: int = 6, max_freq: int = 4, label: str = ""
) -> TestFunction:
    """Seeded random trigonometric polynomial of frequency degree <= max_freq.

    Coefficients are standard normal damped by 1/(1 + |k|^2) so the family
    stays smooth at the scale of the acceptance domains.
    """
    g = rng_for(seed, Purpose.TRIG)
    terms = []
    for _ in range(n_terms):
        while True:
            k = g.integers(-max_freq, max_freq + 1, size=dim)
            if np.any(k != 0):
                break
        damp = 1.0 / (1.0 + float(k @ k))
        a, b = g.standard_normal(2) * damp
        terms.append((float(a), float(b), tuple(int(v) for v in k)))
    const = float(g.standard_normal()) * 0.5
    return trigonometric(const, terms, dim, label or f"trig-{seed}")


def shift_positive(values: np.ndarray, margin: float = 0.1) -> np.ndarray:
    """Shift grid values up so the minimum clears zero by a relative margin."""
    v = np.asarray(values, dtype=float)
    spread = float(v.max() - v.min())
    return v - v.min() + margin * (spread if spread > 0 else 1.0)


# -- spectral quotients -------------------------------------------------------


def _xlogx(v: np.ndarray) -> np.ndarray:
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] * np.log(v[pos])
    return out


def _resolution(resolution) -> int:
    """The grid resolution r of ``r`` or ``("grid", r)``."""
    if isinstance(resolution, tuple):
        mode, value = resolution
        if mode != "grid":
            raise FunctionalDomainError(f"unknown evaluation mode {mode!r}; only 'grid' is supported")
        return int(value)
    return int(resolution)


def _grid(f: TestFunction, body: Domain, resolution) -> tuple[np.ndarray, np.ndarray, int]:
    """Interior quadrature nodes, their probability weights and the node
    count for the quotients."""
    if f.dim != body.dim:
        raise DimensionMismatchError(
            f"function of dimension {f.dim} against body of dimension {body.dim}"
        )
    nodes, w = geometry.interior_quadrature(body, _resolution(resolution))
    return nodes, w / w.sum(), nodes.shape[0]


def rayleigh_quotient(f: TestFunction, body: Domain, resolution=64) -> Estimate:
    """E|grad f|^2 / Var(f), an upper bound for the spectral gap of the body,
    by interior quadrature at ``resolution`` (``r`` or ``("grid", r)``)."""
    nodes, probs, count = _grid(f, body, resolution)
    v, grad = f.value_and_gradient(nodes)
    g2 = (grad**2).sum(axis=1)
    num = float(probs @ g2)
    ev = float(probs @ v)
    den = float(probs @ (v - ev) ** 2)
    scale = float(probs @ v**2) + 1e-300
    if den <= 1e-12 * scale:
        raise FunctionalDomainError("Rayleigh quotient undefined: Var(f) vanishes")
    return Estimate(value=num / den, stderr=0.0, count=count)


def lsi_quotient(f: TestFunction, body: Domain, resolution=64) -> Estimate:
    """2 E|grad f|^2 / Ent(f^2), an upper bound for the log-Sobolev constant,
    by interior quadrature at ``resolution`` (``r`` or ``("grid", r)``)."""
    nodes, probs, count = _grid(f, body, resolution)
    v, grad = f.value_and_gradient(nodes)
    v = v**2
    g2 = (grad**2).sum(axis=1)
    num = float(probs @ (2.0 * g2))
    ev = float(probs @ v)
    if ev <= 1e-300:
        raise FunctionalDomainError("LSI quotient undefined: E[f^2] = 0")
    h = _xlogx(v) - (math.log(ev) + 1.0) * v
    den = float(probs @ h) + ev
    if den <= 1e-12 * ev:
        raise FunctionalDomainError("LSI quotient undefined: Ent(f^2) vanishes")
    return Estimate(value=num / den, stderr=0.0, count=count)


# -- trace log-Sobolev verification -------------------------------------------


@dataclass(frozen=True)
class TLSIReport(Record):
    """One verified trace log-Sobolev instance.

    slack = grad_term + bdry_term - lhs must be >= -tolerance for the
    inequality to hold at this resolution; ``tolerance`` is a refinement
    drift measured once at a fixed coarse anchor pair and rescaled by the
    rule's quadratic convergence rate, so doubling the resolution divides
    it by exactly four.  ``verdict`` is ``holds()`` as PASS or VIOLATION.
    """

    p: float
    q: float
    lhs: float
    grad_coeff: float
    grad_term: float
    bdry_coeff: float
    bdry_term: float
    slack: float
    tolerance: float
    verdict: str = field(init=False)
    resolution: int
    interior_nodes: int
    boundary_nodes: int
    volume: float
    dim: int
    f_fingerprint: str
    domain_fingerprint: str

    def __post_init__(self):
        object.__setattr__(self, "verdict", "PASS" if self.holds() else "VIOLATION")

    def holds(self, ts: float = 1.0) -> bool:
        """slack >= -tolerance * ts: the verdict at ts = 1, the bare
        inequality at ts = 0."""
        return self.slack >= -self.tolerance * ts

    def to_json(self) -> dict:
        # q is infinite at p = 1: null, with a flag saying so
        q_infinite = math.isinf(self.q)
        return {**super().to_json(), "q": None if q_infinite else self.q, "q_infinite": q_infinite}


def _check_exponent(p: float) -> None:
    # nan fails every comparison and inf gives nan terms, so both are refused
    if not (math.isfinite(p) and p >= 1):
        raise FunctionalDomainError(f"exponent must be finite with p >= 1, got {p}")


def tlsi_coefficients(p: float, n: int, volume: float) -> tuple[float, float, float]:
    """(q, grad_coeff, bdry_coeff) for the trace log-Sobolev inequality.

    The gradient prefactor ((p-1)/(n+q))^(p-1) is 1 by convention at p = 1,
    and the full coefficient is continuous as p decreases to 1.
    """
    _check_exponent(p)
    omega = unit_ball_volume(n)
    if p == 1:
        q = math.inf
        prefactor = 1.0
    else:
        q = p / (p - 1.0)
        prefactor = ((p - 1.0) / (n + q)) ** (p - 1.0)
    grad_coeff = prefactor / (omega ** (p / n) * volume ** (1.0 - p / n))
    bdry_coeff = 1.0 / (omega ** (1.0 / n) * volume ** (1.0 - 1.0 / n))
    return q, grad_coeff, bdry_coeff


def _tlsi_nodes(domain: Domain, f: TestFunction, resolutions: tuple[int, ...]) -> tuple:
    """The p-independent node table of f on the domain: for each resolution,
    (interior weights, |f| and |grad f| at the interior nodes, boundary
    weights, |f| at the boundary nodes), all read-only.

    f and its gradient come from one ``value_and_gradient`` call on the
    stacked nodes of every mesh.  The domain's ``_meshes`` cache keeps the
    last table under one fixed key, for the function object itself (compared
    with ``is``, not by fingerprint) and these resolutions, so checks of one
    f at several exponents evaluate it once.  The meshes are requested on
    every call, so the quadrature a check asks for does not depend on what
    earlier checks left in the memo.
    """
    interior = [geometry.interior_quadrature(domain, r) for r in resolutions]
    boundary = [geometry.boundary_quadrature(domain, r) for r in resolutions]
    hit = domain._meshes.get("tlsi_nodes")
    if hit is not None and hit[0] is f and hit[1] == resolutions:
        return hit[2]
    parts = [nodes for nodes, _ in interior] + [mesh.nodes for mesh in boundary]
    values, grads = f.value_and_gradient(np.concatenate(parts))
    f_abs = geometry._read_only(np.abs(values))
    grad_abs = geometry._read_only(np.linalg.norm(grads, axis=1))
    cuts = np.cumsum([part.shape[0] for part in parts])[:-1]
    f_parts = np.split(f_abs, cuts)
    grad_parts = np.split(grad_abs, cuts)
    k = len(resolutions)
    table = tuple(
        (w, f_parts[i], grad_parts[i], mesh.weights, f_parts[k + i])
        for i, ((_, w), mesh) in enumerate(zip(interior, boundary))
    )
    domain._meshes["tlsi_nodes"] = (f, resolutions, table)
    return table


def _tlsi_terms(p: float, dim: int, nodes: tuple) -> dict:
    w, f_abs, grad_abs, bdry_w, bdry_abs = nodes
    vol = float(w.sum())
    q, grad_coeff, bdry_coeff = tlsi_coefficients(p, dim, vol)
    fp = f_abs**p
    probs = w / vol
    mean_fp = float(probs @ fp)
    if mean_fp <= 1e-300:
        raise FunctionalDomainError("entropy side undefined: |f|^p integrates to 0")
    lhs = float(probs @ _xlogx(fp)) - mean_fp * math.log(mean_fp)
    grad_int = float(w @ grad_abs**p)
    bdry_int = float(bdry_w @ bdry_abs**p)
    return {
        "q": q,
        "vol": vol,
        "lhs": lhs,
        "grad_coeff": grad_coeff,
        "grad_term": grad_coeff * grad_int,
        "bdry_coeff": bdry_coeff,
        "bdry_term": bdry_coeff * bdry_int,
        "interior_nodes": w.shape[0],
        "boundary_nodes": bdry_w.shape[0],
    }


def tlsi_verify(
    domain: Domain, f: TestFunction, p: float = 2.0, grid_resolution: int = 24
) -> TLSIReport:
    """Verify the trace log-Sobolev inequality for one (domain, f, p).

    Evaluates entropy, gradient, and boundary terms at the requested
    resolution and reports slack with a PASS/VIOLATION verdict.  Negative
    slack beyond tolerance is flagged, never silently accepted.  p enters
    only through |f|^p and |grad f|^p, so the check runs in two steps.  The
    first evaluates f and its gradient once on the stacked nodes of every
    mesh it needs (for a trigonometric f, one terms x nodes table of phases,
    cosines and sines) and keeps |f| and |grad f| there in a one-entry memo
    in the domain object's mesh cache, keyed by the function object itself
    and the resolutions; checking the same f at another exponent reuses it,
    and any other function or resolution replaces it.  The second step raises to the
    power p and forms the terms, coefficients, tolerance and verdict on
    every call.  The meshes are the domain's cached ones.

    The tolerance is calibrated once per instance at a fixed coarse anchor:
    the term drift between resolutions 16 and 8 (plus a small relative
    cushion) is rescaled by the midpoint rule's quadratic convergence rate,
    (16 / grid_resolution)^2.  Anchoring at a fixed pair keeps the decay
    structural: successive drifts can oscillate when |f|^p has kinks, but
    the rescaled tolerance shrinks by exactly 4x per doubling.
    """
    if grid_resolution < 16:
        raise QuadratureUnsupportedError(
            f"grid_resolution must be >= 16 so the anchor calibration "
            f"stays coarser than the evaluation, got {grid_resolution}"
        )
    if f.dim != domain.dim:
        raise DimensionMismatchError(
            f"function of dimension {f.dim} against domain of dimension {domain.dim}"
        )
    _check_exponent(p)
    r = int(grid_resolution)
    resolutions = (16, 8) if r == 16 else (r, 16, 8)
    terms = [_tlsi_terms(p, domain.dim, nodes) for nodes in _tlsi_nodes(domain, f, resolutions)]
    fine, anchor_hi, anchor_lo = terms[0], terms[-2], terms[-1]
    drift = (
        abs(anchor_hi["lhs"] - anchor_lo["lhs"])
        + abs(anchor_hi["grad_term"] - anchor_lo["grad_term"])
        + abs(anchor_hi["bdry_term"] - anchor_lo["bdry_term"])
    )
    scale = 1.0 + abs(fine["lhs"]) + fine["grad_term"] + fine["bdry_term"]
    tolerance = (drift + 1e-4 * scale) * (16.0 / grid_resolution) ** 2 + 1e-12 * scale
    slack = fine["grad_term"] + fine["bdry_term"] - fine["lhs"]
    return TLSIReport(
        p=float(p),
        q=fine["q"],
        lhs=fine["lhs"],
        grad_coeff=fine["grad_coeff"],
        grad_term=fine["grad_term"],
        bdry_coeff=fine["bdry_coeff"],
        bdry_term=fine["bdry_term"],
        slack=float(slack),
        tolerance=float(tolerance),
        resolution=int(grid_resolution),
        interior_nodes=fine["interior_nodes"],
        boundary_nodes=fine["boundary_nodes"],
        volume=fine["vol"],
        dim=domain.dim,
        f_fingerprint=f.fingerprint(),
        domain_fingerprint=geometry.fingerprint(domain),
    )


# -- Dirichlet comparison ------------------------------------------------------


@dataclass(frozen=True)
class DirichletConstants(Record):
    """Both sides of the moment comparison behind the Dirichlet corollary.

    prop_constant = |O|^(2/n) / ((n+2) w_n^(2/n)) and classical_bound =
    (1/(n|O|)) integral |x|^2; prop_constant <= classical_bound always, with
    ratio = 1 exactly when the domain is a centered Euclidean ball.  Both
    come from quadrature, so stderr is always 0.
    """

    prop_constant: float
    classical_bound: float
    ratio: float
    stderr: float
    count: int


def dirichlet_lsi_constants(domain: Domain, resolution=64) -> DirichletConstants:
    """Shape term, second-moment term, and their ratio for a centered domain,
    by interior quadrature at ``resolution`` (``r`` or ``("grid", r)``)."""
    n = domain.dim
    lo, hi = domain.bounding_box()
    diam = float(np.linalg.norm(hi - lo))
    nodes, w = geometry.interior_quadrature(domain, _resolution(resolution))
    vol = float(w.sum())
    probs = w / vol
    centroid = probs @ nodes
    if float(np.linalg.norm(centroid)) > 1e-6 * diam:
        raise FunctionalDomainError(
            f"domain must be centered at its centroid; quadrature centroid "
            f"norm {float(np.linalg.norm(centroid)):.3e}"
        )
    classical = float(probs @ (nodes**2).sum(axis=1)) / n
    prop = vol ** (2.0 / n) / ((n + 2) * unit_ball_volume(n) ** (2.0 / n))
    return DirichletConstants(
        prop_constant=float(prop),
        classical_bound=float(classical),
        ratio=float(prop / classical),
        stderr=0.0,
        count=nodes.shape[0],
    )


# -- one-dimensional Brenier chain audit ---------------------------------------


@dataclass(frozen=True)
class StepRecord(Record):
    """One verified step: an inequality (slack = rhs - lhs) or an identity
    (slack = lhs - rhs).  Slack and verdict are derived from the other
    fields: the verdict is ``holds()`` as PASS or VIOLATION."""

    name: str
    kind: str
    lhs: float
    rhs: float
    slack: float = field(init=False)
    tolerance: float
    verdict: str = field(init=False)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        slack = self.lhs - self.rhs if self.kind == "identity" else self.rhs - self.lhs
        object.__setattr__(self, "slack", float(slack))
        object.__setattr__(self, "verdict", "PASS" if self.holds() else "VIOLATION")

    def holds(self, ts: float = 1.0) -> bool:
        """An inequality's slack is at least -tolerance * ts, an identity's
        |slack| at most tolerance * ts; at ts = 0 the bare relation."""
        if self.kind == "identity":
            return abs(self.slack) <= self.tolerance * ts
        return self.slack >= -self.tolerance * ts

    def to_json(self) -> dict:
        # the extras sit beside the other fields
        out = super().to_json()
        out.update(out.pop("extras"))
        return out


@dataclass(frozen=True)
class BrenierChain1D(Record):
    """The discretized 1-D proof chain for one (f, p).

    Everything is reported in the proof's normalized frame: the domain is
    centered with half-length R, f is scaled so the average of f^p is one,
    and T is the quantile map pushing f^p dm onto the uniform law, so T' =
    f^p and T(-R) = -R, T(R) = R.
    """

    bounds: tuple[float, float]
    p: float
    q: float
    R: float
    f_grid: np.ndarray
    transport_map: np.ndarray
    steps: tuple
    tv_error: float
    grid_points: int

    def passed(self) -> bool:
        return all(s.holds() for s in self.steps)

    def to_json(self) -> dict:
        # a summary: the grids f_grid and transport_map are left out
        return jsonable(
            {
                "bounds": self.bounds,
                "p": self.p,
                "q": None if math.isinf(self.q) else self.q,
                "R": self.R,
                "grid_points": self.grid_points,
                "tv_error": self.tv_error,
                "steps": self.steps,
                "passed": self.passed(),
            }
        )


def brenier_target_length(p: float, n: int = 1) -> float:
    """Domain length fixed by the proof's normalization.

    ((n+q)/(p-1))^(n/q) * w_n for p > 1; the p -> 1 limit is w_n itself.
    """
    omega = unit_ball_volume(n)
    if p == 1:
        return omega
    q = p / (p - 1.0)
    return ((n + q) / (p - 1.0)) ** (n / q) * omega


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0.

    The arithmetic of scipy.integrate.cumulative_trapezoid(y, x, initial=0),
    operation for operation, so the result is bit-identical to it without
    importing scipy.integrate.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _chain_values(x: np.ndarray, f: np.ndarray, p: float) -> dict:
    """All chain quantities on one grid, in the normalized frame."""
    L = x[-1] - x[0]
    R = L / 2.0
    fp = f**p

    def avg(h):
        return float(np.trapezoid(h, x)) / L

    total = avg(fp)
    # normalize f so the average of f^p is exactly one on this grid
    f = f / total ** (1.0 / p)
    fp = f**p
    cum = _cumulative_trapezoid(fp, x)
    F = cum / cum[-1]
    T = -R + 2.0 * R * F
    if np.any(np.diff(T) < 0):
        raise FunctionalDomainError("computed transport map is not monotone")
    dfp = np.gradient(fp, x)
    df = np.gradient(f, x)
    vals = {"R": R, "f": f, "T": T}
    # integrated log bound: avg f^p log f^p <= avg f^p T' - 1 with T' = f^p
    vals["e1_lhs"] = avg(_xlogx(fp))
    vals["e1_rhs"] = avg(fp * fp) - 1.0
    # integration by parts: avg f^p T' = -avg T (f^p)' + boundary/L
    vals["boundary_exact"] = (T[-1] * fp[-1] - T[0] * fp[0]) / L
    vals["e2_lhs"] = avg(fp * fp)
    vals["e2_rhs"] = -avg(T * dfp) + vals["boundary_exact"]
    # boundary bound via |T| <= R
    vals["e3_lhs"] = vals["boundary_exact"]
    vals["e3_rhs"] = R * (fp[-1] + fp[0]) / L
    # Holder/Young chain on -avg T (f^p)' = -p avg f^(p-1) f' T
    vals["e4_lhs"] = -avg(T * dfp)
    if p > 1:
        q = p / (p - 1.0)
        A = avg(fp * np.abs(T) ** q)
        B = avg(np.abs(df) ** p)
        A_exact = R**q / (1.0 + q)  # pushforward of f^p dm is uniform on (-R, R)
        vals["e4_A"] = A
        vals["e4_A_exact"] = A_exact
        vals["e4_B"] = B
        vals["e4_holder_mid"] = p * A ** (1.0 / q) * B ** (1.0 / p)
        vals["e4_rhs"] = (p - 1.0) * A_exact + B
    else:
        vals["e4_rhs"] = R * avg(np.abs(df))
    return vals


def brenier_chain_check_1d(f_grid, domain, p: float = 2.0) -> BrenierChain1D:
    """Audit the 1-D transport proof chain for f given on a uniform grid.

    ``domain`` is a 1-D body or an (a, b) pair; it is mapped affinely onto
    the proof's normalized frame (f values carry over unchanged, then get
    scaled so the average of f^p is one).  Each step is checked against a
    tolerance estimated from the half-resolution grid.
    """
    _check_exponent(p)
    f0 = np.asarray(f_grid, dtype=float).ravel()
    if f0.shape[0] < 9:
        raise FunctionalDomainError(f"need at least 9 grid values, got {f0.shape[0]}")
    if np.any(f0 <= 0):
        raise FunctionalDomainError(
            f"f must be strictly positive on the grid; minimum {f0.min():.6g}"
        )
    # the original bounds only need to describe a valid interval: the affine
    # reparametrization onto the normalized frame leaves f values unchanged
    if isinstance(domain, tuple):
        a, b = float(domain[0]), float(domain[1])
    else:
        a, b = interval_bounds(domain)
    if not b > a:
        raise FunctionalDomainError(f"empty interval ({a}, {b})")
    L = brenier_target_length(p)
    R = L / 2.0
    x = np.linspace(-R, R, f0.shape[0])

    fine = _chain_values(x, f0, p)
    half = slice(None, None, 2) if f0.shape[0] % 2 == 1 else slice(None, -1, 2)
    xh = x[half]
    if f0.shape[0] % 2 == 0:
        xh = np.append(xh, x[-1])
        fh = np.append(f0[half], f0[-1])
    else:
        fh = f0[half]
    coarse = _chain_values(xh, fh, p)

    def tol(key):
        keys = (key + "_lhs", key + "_rhs")
        drift = sum(abs(fine[k] - coarse[k]) for k in keys)
        scale = 1.0 + sum(abs(fine[k]) for k in keys)
        return float(drift + 1e-9 * scale)

    extras = {}
    if p > 1:
        extras = {k: fine["e4_" + k] for k in ("A", "A_exact", "B", "holder_mid")}
    steps = tuple(
        StepRecord(name, kind, fine[key + "_lhs"], fine[key + "_rhs"], tol(key), extras if key == "e4" else {})
        for name, kind, key in (
            ("log_det_bound", "inequality", "e1"),
            ("integration_by_parts", "identity", "e2"),
            ("boundary_bound", "inequality", "e3"),
            ("holder_young", "inequality", "e4"),
        )
    )

    tv = _pushforward_tv(x, fine["f"], fine["T"], p, fine["R"])
    return BrenierChain1D(
        bounds=(-R, R),
        p=float(p),
        q=math.inf if p == 1 else p / (p - 1.0),
        R=R,
        f_grid=fine["f"],
        transport_map=fine["T"],
        steps=steps,
        tv_error=float(tv),
        grid_points=f0.shape[0],
    )


def _pushforward_tv(x, f, T, p, R):
    """Total-variation gap between T-pushforward of f^p dm and the uniform law.

    Measured on a 4x refined grid with 200 uniform bins, so it reflects the
    sub-grid interpolation error of the discrete quantile map rather than
    being zero by construction.
    """
    xf = np.linspace(x[0], x[-1], 4 * (x.shape[0] - 1) + 1)
    ff = np.interp(xf, x, f) ** p
    cum = _cumulative_trapezoid(ff, xf)
    F = cum / cum[-1]
    Tf = np.interp(xf, x, T)
    bins = np.linspace(-R, R, 201)
    # mass the pushforward assigns to each bin: F at the preimage of each edge
    Fedges = np.interp(bins, Tf, F)
    Fedges[0], Fedges[-1] = 0.0, 1.0
    mass = np.diff(Fedges)
    return 0.5 * float(np.abs(mass - 1.0 / 200).sum())
