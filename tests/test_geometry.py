import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexineq import (
    AffineImage,
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
    assert geometry.contains(c, [0.49, -0.49])
    assert not geometry.contains(c, [0.51, 0.0])
    lo, hi = geometry.bounding_box(c)
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


def test_interior_quadrature_weight_sums_converge():
    for body, vol in ((Ball(1.0, 2), math.pi), (Cube(1.0, 2), 1.0), (L1Ball(1.0, 2), 2.0)):
        _, w = geometry.interior_quadrature(body, 64)
        assert w.sum() == pytest.approx(vol, rel=5e-3)


def test_boundary_quadrature_weight_is_surface_area():
    for body in (Ball(1.0, 2), Cube(1.0, 2), L1Ball(1.0, 2)):
        mesh = geometry.boundary_quadrature(body, 128)
        assert mesh.total_weight == pytest.approx(body.surface_area_closed_form(), rel=1e-6)


def test_quadrature_resolution_floor():
    with pytest.raises(QuadratureUnsupportedError):
        geometry.interior_quadrature(Cube(1.0, 2), 1)
    with pytest.raises(QuadratureUnsupportedError):
        geometry.boundary_quadrature(Cube(1.0, 2), 4)


def test_normalize_to_volume_one():
    body = geometry.normalize_to_volume_one(Cube(3.0, 2))
    assert isinstance(body, AffineImage)
    v = geometry.volume_with_error(body)
    assert v.value == pytest.approx(1.0, rel=1e-9)


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
        again = geometry.body_from_json(geometry.body_to_json(body))
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
