import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexineq import (
    Ball,
    Cube,
    DimensionMismatchError,
    FunctionalDomainError,
    QuadratureUnsupportedError,
    corpora,
    functional,
    geometry,
)

INTERVAL = geometry.interval(0.0, 1.0)
SQUARE = Cube(1.0, 2)


def _positive_trig(seed, dim=2, bump=3.0):
    g = functional.random_trig(dim, seed)
    return functional.trigonometric(g.params["const"] + bump, g.params["terms"], dim)


# -- test function kinds -------------------------------------------------------


def test_polynomial_value_and_gradient():
    f = functional.polynomial([(1.0, (2, 1)), (0.5, (0, 3))], 2)  # x^2 y + y^3 / 2
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert np.allclose(f.value(pts), [6.0, -0.75])
    assert np.allclose(f.gradient(pts), [[4.0, 7.0], [-1.0, 1.75]])


def test_linear_factory():
    f = functional.linear([2.0, -3.0])
    pts = np.array([[1.0, 1.0]])
    assert f.value(pts)[0] == pytest.approx(-1.0)
    assert np.allclose(f.gradient(pts), [[2.0, -3.0]])


def test_radial_gradient_points_outward():
    f = functional.radial([0.0, 1.0], 2)  # |x|^2
    pts = np.array([[0.3, -0.4]])
    assert f.value(pts)[0] == pytest.approx(0.25)
    assert np.allclose(f.gradient(pts), 2.0 * pts)


def test_unknown_kind_is_refused_at_construction():
    # not first when the function is evaluated, after it was fingerprinted
    with pytest.raises(FunctionalDomainError, match="unknown test function kind 'bogus'"):
        functional.TestFunction("bogus", 1, {})


def test_dimension_mismatch_detected():
    f = functional.linear([1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        f.value(np.zeros((4, 3)))


def test_random_trig_is_seed_deterministic():
    a = functional.random_trig(2, 42)
    b = functional.random_trig(2, 42)
    c = functional.random_trig(2, 43)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_shift_positive_margin():
    v = functional.shift_positive(np.array([-2.0, 0.0, 3.0]), margin=0.1)
    assert v.min() == pytest.approx(0.5)  # 0.1 * spread of 5


@pytest.mark.parametrize(
    "f",
    [
        functional.polynomial([(1.0, (2, 1)), (0.5, (0, 3)), (-0.25, (1, 1))], 2),
        functional.random_trig(2, 3),
        functional.radial([1.0, 2.0, 0.5], 2),
    ],
)
def test_gradient_against_finite_differences(f):
    """Analytic gradients agree with central differences at 1e-6 relative."""
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.4, 0.4, size=(100, 2))
    h = 1e-5
    analytic = f.gradient(pts)
    numeric = np.zeros_like(analytic)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        numeric[:, i] = (f.value(pts + e) - f.value(pts - e)) / (2.0 * h)
    scale = np.abs(analytic).max() + 1.0
    assert np.abs(analytic - numeric).max() / scale <= 1e-6


def _per_term_reference(f, pts):
    """Value and gradient of a trigonometric f by the per-term loop."""
    ref_v = np.full(pts.shape[0], f.params["const"])
    ref_g = np.zeros_like(pts)
    for a, b, k in f.params["terms"]:
        k = np.asarray(k, dtype=float)
        phase = math.pi * (pts @ k)
        ref_v += a * np.cos(phase) + b * np.sin(phase)
        ref_g += math.pi * (-a * np.sin(phase) + b * np.cos(phase))[:, None] * k[None, :]
    return ref_v, ref_g


@pytest.mark.parametrize(
    "f",
    [
        functional.polynomial([(1.0, (2, 1)), (0.5, (0, 3)), (-0.25, (1, 1))], 2),
        functional.random_trig(2, 3),
        functional.random_trig(3, 8),
        functional.trigonometric(0.5, [(1.0, -0.5, (1,))], 1),
        functional.radial([1.0, 2.0, 0.5], 2),
    ]
    + [
        pytest.param(
            functional.random_trig(dim, 70 + dim, n_terms=n), id=f"trigonometric-{n}terms-{dim}d"
        )
        for n in (1, 12)
        for dim in (1, 2, 3)
    ],
    ids=lambda f: f"{f.kind}-{f.dim}d",
)
def test_value_and_gradient_match_separate_calls_bitwise(f):
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.9, 0.9, size=(2 * functional._TRIG_BLOCK + 3, f.dim))
    # points over three evaluation blocks, one point, and non-contiguous views
    for x in (pts, pts[:1], pts[:257:3], pts[::-5]):
        value, grad = f.value_and_gradient(x)
        for fused, alone in ((value, f.value(x)), (grad, f.gradient(x))):
            assert fused.dtype == alone.dtype and fused.shape == alone.shape
            assert fused.tobytes() == alone.tobytes()
        if f.kind == "trigonometric":
            # the per-term expressions the table evaluation must reproduce exactly
            ref_v, ref_g = _per_term_reference(f, x)
            assert value.tobytes() == ref_v.tobytes() and grad.tobytes() == ref_g.tobytes()


def test_evaluation_keeps_nothing_from_earlier_points():
    f = functional.random_trig(2, 12)
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, size=(40, 2))
    f.value_and_gradient(pts)
    f.value(pts)
    pts[::2] *= -0.5
    pts[5] = [0.25, 0.75]
    ref_v, ref_g = _per_term_reference(f, pts.copy())
    value, grad = f.value_and_gradient(pts)
    assert value.tobytes() == ref_v.tobytes() and grad.tobytes() == ref_g.tobytes()
    assert f.value(pts).tobytes() == ref_v.tobytes()
    assert f.gradient(pts).tobytes() == ref_g.tobytes()


def test_params_are_read_only():
    f = corpora.trig_function(2, 3)
    with pytest.raises(TypeError):
        f.params["const"] = 9.0
    with pytest.raises(TypeError):
        f.params["terms"][0] = (1.0, 1.0, (1, 1))
    assert isinstance(f.params["terms"], tuple) and isinstance(f.params["terms"][0][2], tuple)
    # arrays and lists freeze to the form the pinned fingerprint was taken on
    g = functional.polynomial([(0.5, np.array([0])), [0.2, [1]]], 1)
    assert g.params["terms"] == ((0.5, (0,)), (0.2, (1,)))
    assert g.fingerprint() == "de0a326faaf41720"


# -- scalar functionals --------------------------------------------------------


def test_rayleigh_quotient_polynomial_oracles():
    # E|f'|^2 / Var f: 1 / (1/12) for x on (0, 1), (1/3) / (1/180) for x^2 on (-1/2, 1/2)
    est = functional.rayleigh_quotient(functional.linear([1.0]), INTERVAL, ("grid", 4096))
    assert est.value == pytest.approx(12.0, rel=1e-6)
    square = functional.polynomial([(1.0, (2,))], 1)
    est = functional.rayleigh_quotient(square, geometry.interval(-0.5, 0.5), ("grid", 4096))
    assert est.value == pytest.approx(60.0, rel=1e-5)


def test_rayleigh_first_dirichlet_neumann_mode():
    # cos(pi x) on (0,1) is the first nonconstant Neumann mode, quotient pi^2
    f = functional.trigonometric(0.0, [(1.0, 0.0, (1,))], 1)
    est = functional.rayleigh_quotient(f, INTERVAL, ("grid", 2048))
    assert est.value == pytest.approx(math.pi**2, rel=1e-6)


def test_rayleigh_rejects_constants():
    with pytest.raises(FunctionalDomainError, match="Var"):
        functional.rayleigh_quotient(functional.polynomial([(1.0, (0,))], 1), INTERVAL, ("grid", 64))


def test_lsi_quotient_near_constant_matches_rayleigh():
    f = functional.trigonometric(1.0, [(0.01, 0.0, (1,))], 1)
    est = functional.lsi_quotient(f, INTERVAL, ("grid", 2048))
    assert est.value == pytest.approx(math.pi**2, rel=0.05)


@pytest.mark.parametrize("c", [1e-3, 1e-6, 1e-100])
def test_lsi_quotient_is_invariant_under_scaling_f(c):
    # an entropy guard of 1e-12 * (E f^2 + 1) called Ent(f^2) zero from c = 1e-6 on
    def quotient(scale):
        f = functional.trigonometric(scale, [(0.01 * scale, 0.0, (1,))], 1)
        return functional.lsi_quotient(f, INTERVAL, ("grid", 2048)).value

    assert quotient(c) == pytest.approx(quotient(1.0), rel=1e-9)


@pytest.mark.parametrize("c", [1.0, 1e-100])
def test_lsi_quotient_rejects_constants(c):
    with pytest.raises(FunctionalDomainError, match="Ent"):
        functional.lsi_quotient(functional.polynomial([(c, (0,))], 1), INTERVAL, ("grid", 64))


def test_min_lsi_below_min_rayleigh():
    """Linearized perturbations keep the optimal quotients ordered."""
    lsis, rays = [], []
    for i in range(5):
        g = functional.random_trig(2, 200 + i)
        rays.append(functional.rayleigh_quotient(g, SQUARE, ("grid", 128)).value)
        f = functional.trigonometric(
            1.0 + 0.01 * g.params["const"],
            [(0.01 * a, 0.01 * b, k) for (a, b, k) in g.params["terms"]],
            2,
        )
        lsis.append(functional.lsi_quotient(f, SQUARE, ("grid", 128)).value)
    assert min(lsis) <= min(rays)


@pytest.mark.parametrize("quotient", [functional.rayleigh_quotient, functional.lsi_quotient])
def test_quotients_are_deterministic(quotient):
    # grid quadrature draws nothing: no sampling error and no seed
    est = quotient(functional.random_trig(2, 1), SQUARE, ("grid", 32))
    assert (est.stderr, est.seed, est.count) == (0.0, None, 32 * 32)
    assert quotient(functional.random_trig(2, 1), SQUARE, 32) == est


GRID_ONLY = {
    "rayleigh": lambda b, r: functional.rayleigh_quotient(functional.random_trig(b.dim, 1), b, r),
    "lsi": lambda b, r: functional.lsi_quotient(functional.random_trig(b.dim, 1), b, r),
    "dirichlet": functional.dirichlet_lsi_constants,
}


@pytest.mark.parametrize("call", GRID_ONLY.values(), ids=GRID_ONLY.keys())
def test_grid_only_functionals_refuse_to_sample(call):
    # no silent switch to sampling where the body has no interior quadrature
    with pytest.raises(QuadratureUnsupportedError):
        call(Ball(1.0, 4), 2000)
    with pytest.raises(FunctionalDomainError, match="mode"):
        call(Ball(1.0, 2), ("mc", 1000))


# -- trace log-Sobolev reports --------------------------------------------------


def test_tlsi_constant_function():
    """f = 1 zeroes the entropy and gradient, leaving the boundary term."""
    one = functional.polynomial([(1.0, (0,))], 1)
    rep = functional.tlsi_verify(INTERVAL, one, 2.0, 24)
    assert rep.verdict == "PASS"
    assert abs(rep.lhs) <= 1e-12
    assert rep.grad_term == 0.0
    assert rep.bdry_term == pytest.approx(1.0, rel=1e-12)
    assert rep.slack == pytest.approx(1.0, rel=1e-9)


def test_tlsi_entropy_side_oracle():
    # Ent(|f|) for f = x on (0, 1): E[x log x] - E[x] log E[x] = (log 2 - 1/2) / 2
    rep = functional.tlsi_verify(INTERVAL, functional.linear([1.0]), 1.0, 4096)
    assert rep.lhs == pytest.approx((math.log(2.0) - 0.5) / 2.0, abs=1e-7)
    assert rep.grad_term == pytest.approx(rep.grad_coeff, rel=1e-12)
    assert rep.bdry_term == pytest.approx(rep.bdry_coeff, rel=1e-12)


def test_tlsi_rejects_zero_function():
    with pytest.raises(FunctionalDomainError, match="integrates to 0"):
        functional.tlsi_verify(INTERVAL, functional.polynomial([], 1), 2.0, 24)


def test_tlsi_boundary_vanishes_exactly():
    # x - x^2 is exactly zero at both endpoints in floating point
    f = functional.polynomial([(1.0, (1,)), (-1.0, (2,))], 1)
    rep = functional.tlsi_verify(INTERVAL, f, 2.0, 24)
    assert rep.bdry_term == 0.0
    assert rep.verdict == "PASS"


def test_tlsi_prefactor_continuity_at_p1():
    q, g1, b1 = functional.tlsi_coefficients(1.0, 2, 3.0)
    assert math.isinf(q)
    assert g1 == b1  # prefactor is exactly 1 at p = 1
    _, g2, b2 = functional.tlsi_coefficients(1.0001, 2, 3.0)
    assert abs(g2 - g1) / g1 <= 0.01
    assert b2 == b1


def test_tlsi_scaling_in_f():
    # every term is homogeneous of degree p in f
    f = _positive_trig(9)
    c = 7.5
    fc = functional.trigonometric(
        c * f.params["const"], [(c * a, c * b, k) for (a, b, k) in f.params["terms"]], 2
    )
    r1 = functional.tlsi_verify(SQUARE, f, 2.0, 24)
    r2 = functional.tlsi_verify(SQUARE, fc, 2.0, 24)
    assert r2.lhs / r1.lhs == pytest.approx(c**2, rel=1e-6)
    assert r2.grad_term / r1.grad_term == pytest.approx(c**2, rel=1e-6)
    assert r2.bdry_term / r1.bdry_term == pytest.approx(c**2, rel=1e-6)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(c=st.floats(0.01, 100.0))
def test_tlsi_entropy_side_scale_homogeneity(c):
    """Ent(|c f|^p) = c^p Ent(|f|^p) for c > 0."""
    g = _positive_trig(9)
    gc = functional.trigonometric(
        c * g.params["const"], [(c * a, c * b, k) for (a, b, k) in g.params["terms"]], 2
    )
    e1 = functional.tlsi_verify(SQUARE, g, 1.5, 16).lhs
    e2 = functional.tlsi_verify(SQUARE, gc, 1.5, 16).lhs
    assert e2 == pytest.approx(c**1.5 * e1, rel=1e-9)


def test_tlsi_scaling_in_domain():
    # dilating the domain and composing f with the inverse dilation leaves
    # every term unchanged
    f = functional.radial([1.0, 1.0], 2)
    f_half = functional.radial([1.0, 0.25], 2)
    r1 = functional.tlsi_verify(Cube(1.0, 2), f, 2.0, 24)
    r2 = functional.tlsi_verify(Cube(2.0, 2), f_half, 2.0, 24)
    assert r2.lhs == pytest.approx(r1.lhs, rel=1e-6)
    assert r2.grad_term == pytest.approx(r1.grad_term, rel=1e-6)
    assert r2.bdry_term == pytest.approx(r1.bdry_term, rel=1e-6)


def test_tlsi_tolerance_halves_when_resolution_doubles():
    f = _positive_trig(9)
    for p in (1.0, 2.0):
        t24 = functional.tlsi_verify(SQUARE, f, p, 24).tolerance
        t48 = functional.tlsi_verify(SQUARE, f, p, 48).tolerance
        assert t48 <= 0.5 * t24


def test_tlsi_resolution_floor_and_dim_check():
    f = _positive_trig(9)
    with pytest.raises(QuadratureUnsupportedError):
        functional.tlsi_verify(SQUARE, f, 2.0, 8)
    with pytest.raises(DimensionMismatchError):
        functional.tlsi_verify(INTERVAL, f, 2.0, 24)


class _PerTermFunction(functional.TestFunction):
    """A trigonometric test function evaluated by the per-term loop; its
    fields, and so its fingerprint, are those of the function it copies."""

    def value(self, x):
        return _per_term_reference(self, self._pts(x))[0]

    def value_and_gradient(self, x):
        return _per_term_reference(self, self._pts(x))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", ["interval", "square", "disk", "lshape"])
def test_tlsi_matches_per_term_reference(name, p):
    """Every report field equals the one the per-term loop gives."""
    dom = corpora.domain_set()[name]
    f = corpora.trig_function(dom.dim, 7)
    ref = _PerTermFunction(f.kind, f.dim, f.params, f.label)
    # the reference runs on its own domain object, so no node table of f
    # can stand in for its evaluation
    ref_dom = corpora.domain_set()[name]
    assert functional.tlsi_verify(dom, f, p, 24) == functional.tlsi_verify(ref_dom, ref, p, 24)


def test_tlsi_memo_is_keyed_by_function_object():
    """A distinct function with equal fields and fingerprint is evaluated on
    its own, once for all its exponents."""
    evaluated = []

    class Twin(functional.TestFunction):
        def value_and_gradient(self, x):
            evaluated.append(len(x))
            return super().value_and_gradient(x)

    dom = corpora.domain_set()["square"]
    f = corpora.trig_function(2, 7)
    twin = Twin(f.kind, f.dim, f.params, f.label)
    assert twin.fingerprint() == f.fingerprint()
    rep = functional.tlsi_verify(dom, f, 2.0, 24)
    assert functional.tlsi_verify(dom, twin, 2.0, 24) == rep
    assert len(evaluated) == 1
    functional.tlsi_verify(dom, twin, 1.0, 24)
    functional.tlsi_verify(dom, twin, 3.0, 24)
    assert len(evaluated) == 1


@pytest.mark.parametrize("order", ["other_p", "other_resolution", "interleaved_g"])
@pytest.mark.parametrize("name", ["interval", "square", "disk", "lshape"])
def test_tlsi_memo_reports_equal_fresh_domain(name, order):
    """A check on a domain that has seen other checks reports exactly what a
    fresh domain object reports: after f at another exponent, after f at
    another resolution (16 uses the (16, 8) set; 24 -> 48 -> 24 is the
    halving pattern) and after another function g."""
    dom = corpora.domain_set()[name]
    f = corpora.trig_function(dom.dim, 11)
    g = corpora.trig_function(dom.dim, 12)
    other_p = {1.0: 2.0, 1.5: 1.0, 2.0: 3.0, 3.0: 1.5}
    other_r = {16: 24, 24: 48, 48: 16}
    for r in (16, 24, 48):
        for p in (1.0, 1.5, 2.0, 3.0):
            expected = functional.tlsi_verify(corpora.domain_set()[name], f, p, r)
            if order == "other_p":
                functional.tlsi_verify(dom, f, other_p[p], r)
            elif order == "other_resolution":
                functional.tlsi_verify(dom, f, p, r)
                functional.tlsi_verify(dom, f, p, other_r[r])
            else:
                functional.tlsi_verify(dom, f, p, r)
                functional.tlsi_verify(dom, g, p, r)
            assert functional.tlsi_verify(dom, f, p, r) == expected


def test_tlsi_zero_function_fails_on_every_exponent():
    zero = functional.polynomial([], 1)
    dom = geometry.interval(0.0, 1.0)
    for p in (2.0, 1.0, 1.5, 3.0, 2.0):
        with pytest.raises(FunctionalDomainError, match="integrates to 0"):
            functional.tlsi_verify(dom, zero, p, 24)
        assert dom._meshes["tlsi_nodes"][0] is zero


class _UnreadableEntry:
    def __getitem__(self, i):
        raise AssertionError("memo read")


@pytest.mark.parametrize(
    "args, error",
    [
        ((SQUARE.dim, math.nan, 24), FunctionalDomainError),
        ((SQUARE.dim, math.inf, 24), FunctionalDomainError),
        ((1, 2.0, 24), DimensionMismatchError),
        ((SQUARE.dim, 2.0, 8), QuadratureUnsupportedError),
    ],
    ids=["nan", "inf", "dimension", "resolution"],
)
def test_tlsi_rejects_bad_arguments_before_the_memo(args, error):
    dim, p, r = args
    dom = Cube(1.0, 2)
    f = corpora.trig_function(dim, 3)
    dom._meshes["tlsi_nodes"] = _UnreadableEntry()
    with pytest.raises(error):
        functional.tlsi_verify(dom, f, p, r)


def test_tlsi_memo_holds_one_table():
    dom = Cube(1.0, 2)
    fs = [corpora.trig_function(2, i) for i in range(50)]
    for f in fs:
        functional.tlsi_verify(dom, f, 2.0, 24)
    meshes = {(kind, r) for kind in ("interior", "boundary") for r in (24, 16, 8)}
    assert set(dom._meshes) == meshes | {"tlsi_nodes"}
    assert dom._meshes["tlsi_nodes"][0] is fs[-1]


def test_tlsi_requests_the_same_meshes_with_a_warm_memo(monkeypatch):
    """A check asks for the same quadrature whether or not the memo already
    holds its function, so what it requests does not depend on earlier
    checks."""
    requested = []
    for kind in ("interior", "boundary"):
        build = getattr(geometry, f"{kind}_quadrature")

        def record(domain, r, kind=kind, build=build):
            requested.append((kind, r))
            return build(domain, r)

        monkeypatch.setattr(geometry, f"{kind}_quadrature", record)
    dom = Cube(1.0, 2)
    f = corpora.trig_function(2, 3)
    functional.tlsi_verify(dom, f, 2.0, 24)
    cold = list(requested)
    for p in (2.0, 1.0):
        requested.clear()
        functional.tlsi_verify(dom, f, p, 24)
        assert requested == cold


def test_tlsi_json_handles_infinite_q():
    one = functional.polynomial([(1.0, (0,))], 1)
    obj = functional.tlsi_verify(INTERVAL, one, 1.0, 16).to_json()
    assert obj["q"] is None
    assert obj["q_infinite"] is True


# -- Dirichlet comparison --------------------------------------------------------


def test_dirichlet_ball_is_sharp():
    c = functional.dirichlet_lsi_constants(Ball(1.0, 2), ("grid", 256))
    assert c.ratio == pytest.approx(1.0, abs=1e-3)


def test_dirichlet_square_ratio():
    c = functional.dirichlet_lsi_constants(Cube(1.0, 2), ("grid", 256))
    assert c.ratio == pytest.approx(3.0 / math.pi, abs=1e-3)


def test_dirichlet_flat_rectangle_is_far_from_sharp():
    rect = geometry.apply_affine(Cube(1.0, 2), np.diag([4.0, 0.25]))
    c = functional.dirichlet_lsi_constants(rect, ("grid", 128))
    assert c.ratio < 0.2


def test_dirichlet_cube3_matches_closed_form():
    # cube in dimension 3: ratio = 12 / (5 omega_3^(2/3))
    target = 12.0 / (5.0 * geometry.unit_ball_volume(3) ** (2.0 / 3.0))
    c = functional.dirichlet_lsi_constants(Cube(1.0, 3), ("grid", 64))
    assert c.ratio == pytest.approx(target, rel=1e-3)
    assert (c.stderr, c.count) == (0.0, 64**3)


def test_dirichlet_rejects_off_center_domain():
    shifted = geometry.apply_affine(Cube(1.0, 2), np.eye(2), [0.3, 0.0])
    with pytest.raises(FunctionalDomainError, match="centered"):
        functional.dirichlet_lsi_constants(shifted, ("grid", 64))


# -- one-dimensional chain audit --------------------------------------------------


def test_brenier_target_length():
    assert functional.brenier_target_length(1.0) == pytest.approx(2.0)
    assert functional.brenier_target_length(2.0) == pytest.approx(2.0 * math.sqrt(3.0))


def test_brenier_constant_function_is_exact():
    """f = 1 makes three steps identities and leaves the Young term slack."""
    chain = functional.brenier_chain_check_1d(np.ones(4097), (0.0, 1.0), p=2.0)
    assert chain.passed()
    by_name = {s.name: s for s in chain.steps}
    assert by_name["log_det_bound"].slack == 0.0
    assert by_name["integration_by_parts"].slack == 0.0
    assert by_name["boundary_bound"].slack == 0.0
    # (p-1) R^q / (1+q) with R = sqrt(3), q = 2
    assert by_name["holder_young"].slack == pytest.approx(1.0, rel=1e-9)
    assert chain.tv_error <= 1e-12


def test_brenier_exponential_regression():
    xs = np.linspace(0.0, 1.0, 2049)
    chain = functional.brenier_chain_check_1d(np.exp(xs), (0.0, 1.0), p=2.0)
    assert chain.passed()
    by_name = {s.name: s for s in chain.steps}
    assert by_name["log_det_bound"].slack == pytest.approx(0.16143949079962253, rel=1e-9)
    assert by_name["holder_young"].slack == pytest.approx(1.08333332009104, rel=1e-9)
    assert by_name["log_det_bound"].slack > 0
    assert by_name["holder_young"].slack > 0
    assert chain.tv_error <= 1e-4


def test_brenier_p1_branch():
    xs = np.linspace(0.0, 1.0, 2049)
    chain = functional.brenier_chain_check_1d(np.exp(xs), (0.0, 1.0), p=1.0)
    assert chain.passed()
    assert math.isinf(chain.q)
    assert chain.to_json()["q"] is None
    assert chain.R == pytest.approx(1.0)


def test_brenier_pushforward_tv_small_on_fine_grids():
    xs = np.linspace(0.0, 1.0, 2049)
    vals = functional.shift_positive(np.sin(3.0 * xs) + 0.2 * np.cos(9.0 * xs))
    chain = functional.brenier_chain_check_1d(vals, (0.0, 1.0), p=1.5)
    assert chain.passed()
    assert chain.tv_error <= 1e-3


def test_brenier_input_validation():
    with pytest.raises(FunctionalDomainError, match="at least 9"):
        functional.brenier_chain_check_1d(np.ones(5), (0.0, 1.0))
    with pytest.raises(FunctionalDomainError, match="strictly positive"):
        functional.brenier_chain_check_1d(np.concatenate([np.ones(8), [-1.0]]), (0.0, 1.0))
    with pytest.raises(FunctionalDomainError, match="p >= 1"):
        functional.brenier_chain_check_1d(np.ones(33), (0.0, 1.0), p=0.5)
    with pytest.raises(FunctionalDomainError, match="empty interval"):
        functional.brenier_chain_check_1d(np.ones(33), (1.0, 1.0))


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_non_finite_exponents_are_rejected(p):
    # nan passes a bare p < 1 test and used to give four VIOLATION steps;
    # inf gave nan slacks
    with pytest.raises(FunctionalDomainError, match="finite"):
        functional.brenier_chain_check_1d(np.ones(33), (0.0, 1.0), p=p)
    with pytest.raises(FunctionalDomainError, match="finite"):
        functional.tlsi_verify(SQUARE, corpora.trig_function(2, 3), p, 24)
    with pytest.raises(FunctionalDomainError, match="finite"):
        functional.tlsi_coefficients(p, 2, 1.0)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("points", [1, 2, 9, 2049, 8193])
def test_cumulative_trapezoid_is_scipys_byte_for_byte(points, uniform):
    from scipy.integrate import cumulative_trapezoid

    g = np.random.default_rng(points)
    x = np.linspace(-1.3, 2.7, points)
    if not uniform:
        x = np.sort(g.uniform(-1.3, 2.7, points))
    y = np.exp(np.sin(5.0 * x)) + g.uniform(0.0, 1e-3, points)
    ours = functional._cumulative_trapezoid(y, x)
    ref = cumulative_trapezoid(y, x, initial=0.0)
    assert ours.dtype == ref.dtype and ours.shape == ref.shape == (points,)
    assert ours.tobytes() == ref.tobytes()


def test_brenier_accepts_body_domain():
    chain = functional.brenier_chain_check_1d(np.ones(33), INTERVAL, p=2.0)
    assert chain.passed()


def test_test_function_fingerprint_pinned():
    """16 hex digits of the SHA-256 of the canonical JSON form."""
    assert corpora.trig_function(2, 3).fingerprint() == "d103f7835b6b74b3"
    assert functional.polynomial([(0.5, (0,)), (0.2, (1,))], 1).fingerprint() == "de0a326faaf41720"
