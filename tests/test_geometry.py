import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexineq import (
    AffineMap,
    Ball,
    Cube,
    DegenerateBodyError,
    HPolytope,
    L1Ball,
    QuadratureUnsupportedError,
    RectUnion,
    SamplingError,
    UnboundedBodyError,
    geometry,
    sampling,
)

LSHAPE = RectUnion((((0.0, 0.0), (2.0, 1.0)), ((0.0, 1.0), (1.0, 2.0))))


def test_unit_ball_volume_closed_forms():
    assert geometry.unit_ball_volume(1) == pytest.approx(2.0)
    assert geometry.unit_ball_volume(2) == pytest.approx(math.pi)
    assert geometry.unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert geometry.unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


def test_ball_volume_and_surface():
    b = Ball(1.5, 3)
    assert b.volume_closed_form() == pytest.approx(4.0 / 3.0 * math.pi * 1.5**3)
    assert b.surface_area_closed_form() == pytest.approx(4.0 * math.pi * 1.5**2)


def test_cube_volume_and_surface():
    c = Cube(2.0, 3)
    assert c.volume_closed_form() == pytest.approx(8.0)
    assert c.surface_area_closed_form() == pytest.approx(24.0)


def test_l1_ball_volume():
    # 2^n r^n / n!
    l1 = L1Ball(2.0, 3)
    assert l1.volume_closed_form() == pytest.approx(2**3 * 2.0**3 / 6.0)


def test_volume_with_error_uses_closed_form():
    v = geometry.volume_with_error(Ball(1.0, 2))
    assert v.value == pytest.approx(math.pi, abs=1e-12)
    assert v.stderr == 0.0


def test_volume_mc_mode_agrees_with_closed_form():
    """Forced rejection sampling lands within 4 stderr of the exact area."""
    v = geometry.volume_with_error(Ball(1.0, 2), mc_samples=200_000, seed=3, method="mc")
    assert v.stderr > 0
    assert abs(v.value - math.pi) <= 4.0 * v.stderr


def test_volume_unknown_method_rejected():
    with pytest.raises(SamplingError):
        geometry.volume_with_error(Ball(1.0, 2), method="exactly")


def test_support_functions():
    u = np.array([3.0, 4.0])
    assert geometry.support(Ball(2.0, 2), u) == pytest.approx(10.0)
    assert geometry.support(Cube(2.0, 2), u) == pytest.approx(7.0)
    assert geometry.support(L1Ball(2.0, 2), u) == pytest.approx(8.0)


def test_membership_and_bounding_box():
    c = Cube(1.0, 2)
    assert c.contains_many(np.array([[0.49, -0.49], [0.51, 0.0]])).tolist() == [True, False]
    lo, hi = c.bounding_box()
    assert np.allclose(lo, [-0.5, -0.5]) and np.allclose(hi, [0.5, 0.5])


def test_hpolytope_cube_matches_cube():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = 0.5 * np.ones(4)
    hp = HPolytope(A, b)
    v = geometry.volume_with_error(hp, mc_samples=100_000, seed=5)
    assert abs(v.value - 1.0) <= 4.0 * v.stderr
    assert np.allclose(hp.chebyshev_center, 0.0, atol=1e-9)
    assert hp.inscribed_radius == pytest.approx(0.5, rel=1e-6)


def test_hpolytope_unbounded_rejected():
    # half-plane only: no upper bound in x
    with pytest.raises(UnboundedBodyError):
        HPolytope(np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.ones(3))


def test_hpolytope_empty_rejected():
    with pytest.raises(DegenerateBodyError):
        HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-2.0, 1.0]))


@pytest.mark.parametrize("half", [5e-12, 1e6])
def test_hpolytope_tiny_and_huge_boxes_build(half):
    # an absolute 1e-10 radius floor called the 1e-11-wide box empty
    hp = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.full(4, half))
    assert hp.inscribed_radius == pytest.approx(half, rel=1e-9)


@pytest.mark.parametrize("half", [1.0, 1e3, 1e6])
def test_hpolytope_flat_strip_rejected_at_any_scale(half):
    # 1e-11 of the box's width thick: the absolute floor let it through from
    # a half-width of about 20 on
    with pytest.raises(DegenerateBodyError, match="empty interior"):
        HPolytope(np.vstack([np.eye(2), -np.eye(2)]), half * np.array([1.0, 1e-11, 1.0, 0.0]))


def test_hpolytope_programs_solve_at_the_body_scale():
    # HiGHS's absolute tolerances built this 5e-23-thick strip with its centre
    # outside it; solved on b over a power of two, it is refused at any scale
    with pytest.raises(DegenerateBodyError, match="empty interior"):
        HPolytope(np.vstack([np.eye(2), -np.eye(2)]), 5e-12 * np.array([1.0, 1e-11, 1.0, 0.0]))
    box = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 5e-12))
    assert np.all(box.chebyshev_center == 0.0) and box.inscribed_radius == 5e-12


def test_hpolytope_unbounded_in_one_of_three_coordinates_rejected():
    # a unit square in (x, y) times a half-line in z
    A = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, -1]])
    with pytest.raises(UnboundedBodyError):
        HPolytope(A, np.ones(5))


def _cube_rows(n):
    eye = np.eye(n)
    return np.vstack([eye, -eye]), np.full(2 * n, 0.5)


def _cross_rows(n):
    signs = np.array(np.meshgrid(*[[-1.0, 1.0]] * n)).reshape(n, -1).T
    return signs, np.ones(signs.shape[0])


def _random_rows(n, seed, box=True):
    # unit normals at offsets in [1/2, 1], and with ``box`` the faces of [-1, 1]^n
    g = np.random.default_rng(seed)
    normals = g.standard_normal((3 * n if box else 20 * n, n))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    b = g.uniform(0.5, 1.0, normals.shape[0])
    if not box:
        return normals, b
    return np.vstack([normals, np.eye(n), -np.eye(n)]), np.concatenate([b, np.ones(2 * n)])


def _per_coordinate_bbox(P):
    # the 2n support programs max x_i and min x_i, one linprog call each
    from scipy.optimize import linprog

    n = P.dim
    lo, hi = np.empty(n), np.empty(n)
    for i in range(n):
        for sign, out in ((1.0, hi), (-1.0, lo)):
            c = np.zeros(n)
            c[i] = -sign
            res = linprog(c, A_ub=P.A, b_ub=P.b, bounds=[(None, None)] * n, method="highs")
            assert res.status == 0
            out[i] = sign * (-res.fun)
    return lo, hi


@pytest.mark.parametrize("n", [2, 5, 8])
def test_hpolytope_construction_makes_two_linear_programs(n, monkeypatch):
    import scipy.optimize

    calls = []
    real = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    for rows in (_cube_rows(n), _cross_rows(n), _random_rows(n, 0)):
        calls.clear()
        HPolytope(*rows)
        assert len(calls) == 2


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("shape", ["cube", "cross", "random-0", "random-1", "random-2"])
def test_hpolytope_bounding_box_is_bit_equal_on_the_benchmark_shapes(shape, n):
    # the cube, cross-polytope and boxed random polytopes the montecarlo
    # benchmark builds: the block program reads the same bits as 2n programs
    if shape == "cube":
        rows = _cube_rows(n)
    elif shape == "cross":
        rows = _cross_rows(n)
    else:
        rows = _random_rows(n, int(shape[-1]))
    P = HPolytope(*rows)
    lo, hi = P.bounding_box()
    want_lo, want_hi = _per_coordinate_bbox(P)
    assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()


@pytest.mark.parametrize("n", [2, 5, 12])
def test_hpolytope_bounding_box_matches_support_programs(n):
    # without the box faces the two solves may end on different last bits
    P = HPolytope(*_random_rows(n, 4, box=False))
    lo, hi = P.bounding_box()
    want_lo, want_hi = _per_coordinate_bbox(P)
    assert np.all(lo < hi)
    np.testing.assert_allclose(lo, want_lo, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(hi, want_hi, rtol=0.0, atol=1e-12)


def _masked_chord(P, x, d):
    # the chord rule that HPolytope._chord must reproduce bit for bit: the
    # nearest row ahead of and behind each point, by masking every row's t
    num = P.b[None, :] - x @ P.A.T
    den = d @ P.A.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / den
    hi = np.where(den > 1e-300, t, np.inf).min(axis=1)
    lo = np.where(den < -1e-300, t, -np.inf).max(axis=1)
    return lo, hi


def _assert_chord_is_masked_chord(P, x, seed):
    d = np.random.default_rng(seed).standard_normal(x.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    # the batch, then each point alone: one point off the interior sends its
    # whole batch to the masked rule
    for rows in [slice(None)] + [slice(i, i + 1) for i in range(len(x))]:
        lo, hi = P._chord(x[rows], d[rows], 1.0)
        want_lo, want_hi = _masked_chord(P, x[rows], d[rows])
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("shape", ["cube", "cross", "random"])
def test_hpolytope_chord_is_the_masked_chord_on_the_benchmark_shapes(shape, n):
    rows = {"cube": _cube_rows, "cross": _cross_rows, "random": lambda n: _random_rows(n, 0)}[shape](n)
    P = HPolytope(*rows)
    x = sampling.sample_uniform(P, 64, seed=n).points
    assert np.all(P.b - x @ P.A.T > 0.0)  # strictly inside: the binding-row path
    _assert_chord_is_masked_chord(P, x, n)


@pytest.mark.parametrize(
    "edge", [0.5, np.nextafter(0.5, 1.0), 0.9], ids=["on-facet", "one-ulp-outside", "outside"]
)
def test_hpolytope_chord_falls_back_off_the_interior(edge):
    # a zero or negative slack breaks the order of den / num that the
    # binding-row path reads, so the masked rule answers for such points
    P = HPolytope(*_cube_rows(3))
    x = sampling.sample_uniform(P, 64, seed=8).points.copy()
    x[::2, 0] = edge
    assert (P.b - x @ P.A.T).min() == 0.5 - edge
    _assert_chord_is_masked_chord(P, x, 9)


def test_hpolytope_chord_skips_a_row_within_1e_300_of_parallel():
    # x lies 1e-306 inside the facet -x <= 0 and d = (-1e-305, 1) runs along
    # it: that row has the largest ratio den / num (10), but the masked rule
    # counts no row with |den| <= 1e-300, so the chord ends on x + y <= 1
    P = HPolytope(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0]))
    x, d = np.array([[1e-306, 0.01]]), np.array([[-1e-305, 1.0]])
    lo, hi = P._chord(x, d, 1.0)
    want_lo, want_hi = _masked_chord(P, x, d)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert hi[0] == pytest.approx(0.99)


def test_affine_image_volume_scales_by_determinant():
    img = geometry.apply_affine(Ball(1.0, 2), np.diag([2.0, 1.0]))
    v = geometry.volume_with_error(img, mc_samples=200_000, seed=7)
    assert abs(v.value - 2.0 * math.pi) <= 4.0 * v.stderr


def test_lshape_volume_and_quadrature():
    v = geometry.volume_with_error(LSHAPE)
    assert v.value == pytest.approx(3.0)
    nodes, w = geometry.interior_quadrature(LSHAPE, 32)
    assert w.sum() == pytest.approx(3.0, rel=1e-12)
    assert np.all(LSHAPE.contains_many(nodes))


def test_lshape_boundary_weight_is_perimeter():
    mesh = geometry.boundary_quadrature(LSHAPE, 64)
    assert mesh.total_weight == pytest.approx(8.0, rel=1e-12)


# x + y <= 1, x >= 0, y >= 0, x - 2y <= 1/2: vertices (0, 0), (1/2, 0),
# (5/6, 1/6) and (0, 1), area 11/24
QUAD_A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -2.0]])
QUAD_B = np.array([1.0, 0.0, 0.0, 0.5])
QUAD_PERIMETER = 0.5 + math.sqrt(5.0) / 6.0 + 5.0 * math.sqrt(2.0) / 6.0 + 1.0


@pytest.mark.parametrize("lam", [1e-13, 1e-10, 1e-8, 1.0, 1e8])
def test_planar_measures_scale_with_the_body(lam):
    # length tolerances are relative to the body, so a dilation by lam scales
    # every length by lam and every area by lam^2, at any lam
    lshape = RectUnion([(lam * lo, lam * hi) for lo, hi in LSHAPE.rects])
    assert lshape.volume_closed_form() == pytest.approx(3.0 * lam**2, rel=1e-12)
    assert lshape.surface_area_closed_form() == pytest.approx(8.0 * lam, rel=1e-12)
    assert geometry.boundary_quadrature(lshape, 8).total_weight == pytest.approx(8.0 * lam, rel=1e-12)
    quad = HPolytope(QUAD_A, lam * QUAD_B)
    _, weights = geometry.interior_quadrature(quad, 8)
    assert weights.sum() == pytest.approx(11.0 / 24.0 * lam**2, rel=1e-12)
    boundary = geometry.boundary_quadrature(quad, 8).total_weight
    assert boundary == pytest.approx(QUAD_PERIMETER * lam, rel=1e-12)
    with pytest.raises(DegenerateBodyError, match="overlapping"):
        RectUnion((((0.0, 0.0), (lam, lam)), ((lam / 2, lam / 2), (1.5 * lam, 1.5 * lam))))


# the middle of each edge of the L-shape and of the quadrilateral, with its
# outward unit normal
_EDGES_L = np.array([[2.0, 0.5], [0.5, 2.0], [1.5, 1.0], [0.0, 1.5]])
_NORMALS_L = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [-1.0, 0.0]])
_EDGES_Q = np.array([[5.0 / 12.0, 7.0 / 12.0], [0.0, 0.5], [0.25, 0.0], [2.0 / 3.0, 1.0 / 12.0]])
_NORMALS_Q = QUAD_A / np.linalg.norm(QUAD_A, axis=1, keepdims=True)


@pytest.mark.parametrize("lam", [1e-13, 1e-8, 1.0, 1e8])
def test_membership_pad_scales_with_the_body(lam):
    # the tol pad is relative to the body, so a dilation by lam leaves every
    # answer alone; an absolute pad of tol accepted the points just outside
    # the small bodies, and (5e-10, 0) outside the L-shape 1e-13 wide
    lshape = RectUnion([(lam * lo, lam * hi) for lo, hi in LSHAPE.rects])
    quad = HPolytope(QUAD_A, lam * QUAD_B)
    for body, edges, normals in ((lshape, _EDGES_L, _NORMALS_L), (quad, _EDGES_Q, _NORMALS_Q)):
        pts = np.vstack([edges - 1e-6 * normals, edges + 1e-6 * normals, [[5e3, 0.0]]])
        want = [True] * len(edges) + [False] * (len(edges) + 1)
        assert body.contains_many(lam * pts, tol=1e-9).tolist() == want
    # nor does the pad reach across the thin side of a long body: (0, 9e-4)
    # lies 0.4 widths outside this box
    half = np.array([5e5, 5e-4])
    signs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    box_rect = RectUnion([(-lam * half, lam * half)])
    box_poly = HPolytope(signs, lam * np.repeat(half, 2))
    facets = signs * half
    pts = np.vstack([facets * (1 - 1e-6), facets * (1 + 1e-6), [[0.0, 9e-4]]])
    want = [True] * 4 + [False] * 5
    for body in (box_rect, box_poly):
        assert body.contains_many(lam * pts, tol=1e-9).tolist() == want


def test_interior_quadrature_weight_sums_converge():
    for body, vol in ((Ball(1.0, 2), math.pi), (Cube(1.0, 2), 1.0), (L1Ball(1.0, 2), 2.0)):
        _, w = geometry.interior_quadrature(body, 64)
        assert w.sum() == pytest.approx(vol, rel=5e-3)


def test_boundary_quadrature_weight_is_surface_area():
    for body in (Ball(1.0, 2), Cube(1.0, 2), L1Ball(1.0, 2)):
        mesh = geometry.boundary_quadrature(body, 128)
        assert mesh.total_weight == pytest.approx(body.surface_area_closed_form(), rel=1e-6)


@pytest.mark.parametrize("resolution", [8, 2048])
def test_every_one_dimensional_body_has_the_interval_meshes(resolution):
    # [-0.5, 0.5] four ways: one midpoint rule inside, the two endpoints on the boundary
    mids = ((np.arange(resolution) + 0.5) / resolution - 0.5)[:, None]
    for body in (Ball(0.5, 1), Cube(1.0, 1), L1Ball(0.5, 1), HPolytope([[1.0], [-1.0]], [0.5, 0.5])):
        nodes, w = body._interior_quadrature(resolution)
        assert np.allclose(nodes, mids, rtol=0, atol=1e-15) and np.all(w == 1.0 / resolution)
        nodes, normals, w = body._boundary_quadrature(resolution)
        assert nodes.tolist() == [[-0.5], [0.5]] and normals.tolist() == [[-1.0], [1.0]] and w.tolist() == [1, 1]


def test_quadrature_resolution_floor():
    with pytest.raises(QuadratureUnsupportedError):
        geometry.interior_quadrature(Cube(1.0, 2), 1)
    with pytest.raises(QuadratureUnsupportedError):
        geometry.boundary_quadrature(Cube(1.0, 2), 4)


def test_named_volume_one_constructors():
    assert geometry.ball_volume_one(3).volume_closed_form() == pytest.approx(1.0)
    assert geometry.cube_volume_one(3).volume_closed_form() == pytest.approx(1.0)
    assert geometry.l1_ball_volume_one(3).volume_closed_form() == pytest.approx(1.0)


def test_interval_roundtrip():
    iv = geometry.interval(0.25, 1.75)
    a, b = geometry.interval_bounds(iv)
    assert (a, b) == pytest.approx((0.25, 1.75))
    assert geometry.volume_with_error(iv).value == pytest.approx(1.5)


def test_json_roundtrip_preserves_fingerprint():
    bodies = [
        Ball(1.25, 3),
        Cube(0.75, 2),
        L1Ball(2.0, 4),
        LSHAPE,
        geometry.apply_affine(Ball(1.0, 2), [[2.0, 0.3], [0.0, 1.0]], [0.1, -0.2]),
    ]
    for body in bodies:
        again = geometry.body_from_json(body.to_json())
        assert geometry.fingerprint(again) == geometry.fingerprint(body)


def test_affine_image_leaves_the_callers_arrays_writeable():
    L, shift = 2.0 * np.eye(2), np.zeros(2)
    img = geometry.apply_affine(Cube(1.0, 2), L, shift)
    L[0, 0] = 3.0
    shift[0] = 1.0
    assert not img.map.linear.flags.writeable
    assert img.map.linear[0, 0] == 2.0 and img.map.shift[0] == 0.0


def test_affine_map_compose_and_inverse():
    m = AffineMap([[2.0, 1.0], [0.0, 1.0]], [1.0, -1.0])
    pts = np.array([[0.3, -0.4], [1.0, 2.0]])
    assert np.allclose(m.inverse().apply(m.apply(pts)), pts, atol=1e-12)
    both = m.compose(m.inverse())
    assert np.allclose(both.apply(pts), pts, atol=1e-12)


@pytest.mark.parametrize("linear", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))])
def test_affine_map_rejects_a_rank_deficient_linear_part(linear):
    with pytest.raises(DegenerateBodyError, match="singular"):
        AffineMap(linear, np.zeros(len(linear)))


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_affine_map_conditioning_is_blind_to_scale(scale):
    # |det| of these maps is 1e-300 and 1e300
    m = AffineMap(scale * np.eye(2), np.zeros(2))
    assert np.allclose(m.inverse().apply(m.apply([[1.0, -2.0]])), [[1.0, -2.0]])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    a=st.floats(-2.0, 2.0),
    b=st.floats(-2.0, 2.0),
    c=st.floats(-2.0, 2.0),
    sx=st.floats(-1.0, 1.0),
    sy=st.floats(-1.0, 1.0),
)
def test_affine_image_membership_roundtrip(a, b, c, sx, sy):
    """Points of the base body map into the image body and back out."""
    linear = np.array([[1.0 + abs(a), b], [0.0, 1.0 + abs(c)]])
    img = geometry.apply_affine(Ball(1.0, 2), linear, [sx, sy])
    base_pts = np.array([[0.0, 0.0], [0.5, 0.5], [-0.7, 0.1], [0.0, 0.99]])
    mapped = img.map.apply(base_pts)
    assert np.all(img.contains_many(mapped, tol=1e-9))
    assert np.allclose(img.map.inverse().apply(mapped), base_pts, atol=1e-9)


CACHED_BODIES = [
    Ball(1.5, 1),
    Ball(1.0, 2),
    Ball(0.8, 3),
    Ball(1.0, 5),
    Cube(1.5, 2),
    Cube(1.0, 3),
    L1Ball(1.0, 2),
    L1Ball(1.0, 3),
    HPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.array([1.0, 1.0, 0.5])),
    geometry.apply_affine(Ball(1.0, 2), [[2.0, 0.3], [0.0, 1.0]], [0.1, -0.2]),
    geometry.interval(0.25, 1.75),
    LSHAPE,
]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("body", CACHED_BODIES, ids=lambda b: f"{b.to_json()['variant']}-{b.dim}d")
def test_cached_meshes_equal_fresh_builds(body):
    """A cached mesh is bit-for-bit the mesh the variant builds, read-only and
    returned again by every later call on the same object."""
    for resolution in (8, 16):
        try:
            fresh = body._interior_quadrature(resolution)
        except QuadratureUnsupportedError:
            with pytest.raises(QuadratureUnsupportedError):
                geometry.interior_quadrature(body, resolution)
        else:
            cached = geometry.interior_quadrature(body, resolution)
            assert all(_same_bits(c, np.asarray(f, float)) for c, f in zip(cached, fresh))
            assert geometry.interior_quadrature(body, resolution) is cached
            for arr in cached:
                with pytest.raises(ValueError):
                    arr[0] = 0.0
        mesh = geometry.boundary_quadrature(body, resolution)
        fresh = body._boundary_quadrature(resolution)
        for arr, f in zip((mesh.nodes, mesh.normals, mesh.weights), fresh):
            assert _same_bits(arr, np.asarray(f, float))
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert mesh.body_fingerprint == geometry.fingerprint(body)
        assert geometry.boundary_quadrature(body, resolution) is mesh


def test_fingerprint_computed_once_per_object():
    body = Ball(1.25, 3)
    fp = geometry.fingerprint(body)
    assert body.fingerprint() is fp
    assert fp == geometry.fingerprint(Ball(1.25, 3))
    assert body == Ball(1.25, 3) and hash(body) == hash(Ball(1.25, 3))
    assert LSHAPE == RectUnion(LSHAPE.rects) and LSHAPE != Ball(1.0, 2)


def test_body_attributes_are_read_only_once_set():
    """A body cached meshes and a fingerprint on first use, so changing it
    afterwards would leave both stale; every attribute is read-only."""
    b = Ball(1.0, 2)
    geometry.interior_quadrature(b, 8)
    with pytest.raises(AttributeError):
        b.radius = 2.0
    with pytest.raises(AttributeError):
        del b.radius
    assert b.volume_closed_form() == pytest.approx(math.pi)
    with pytest.raises(AttributeError):
        LSHAPE.dim = 3
    poly = CACHED_BODIES[8]
    image = CACHED_BODIES[9]
    for arr in (poly.A, poly.b, image.map.linear, image.map.shift, LSHAPE.rects[0][0]):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(AttributeError):
        image.base = Ball(3.0, 2)


def test_rect_union_does_not_freeze_the_caller_arrays():
    lo, hi = np.zeros(2), np.ones(2)
    RectUnion([(lo, hi)])
    lo[0] = -1.0


# SHA-256 of the canonical JSON form, pinned so the hash stays bit-identical
PINNED_FINGERPRINTS = [
    (Ball(1.0, 2), "dfccdc30e25b057ae287fd10f01de71c1df6f37cb20aa573471ce3e7b600f9b8"),
    (Cube(1.0, 3), "1561af9dc1fc609f6ba13f06086c1cb0e8055d47fe35e91416cd55ba555d96bc"),
    (
        HPolytope([[1, 0], [0, 1], [-1, -1]], [1, 1, 0.5]),
        "bc58ad186319a74332f226e7037e59d8e2e6f7b11ca1769e529b1be5b19f6d25",
    ),
    (
        geometry.apply_affine(Cube(1.0, 2), np.array([[2.0, 0.3], [0.1, 0.5]]), np.array([0.1, -0.2])),
        "9b46bed2122f63cddfab774f9d38d5174f35ee419d31305c41bbba3638b431d9",
    ),
]


@pytest.mark.parametrize("body,digest", PINNED_FINGERPRINTS, ids=["ball", "cube", "hpolytope", "affine"])
def test_fingerprint_digest_pinned(body, digest):
    assert geometry.fingerprint(body) == digest
