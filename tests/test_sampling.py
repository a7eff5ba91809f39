import hashlib
import math

import numpy as np
import pytest

from convexineq import (
    Ball,
    Cube,
    HPolytope,
    L1Ball,
    RectUnion,
    SamplingError,
    geometry,
    sampling,
)

LSHAPE = RectUnion((((0.0, 0.0), (2.0, 1.0)), ((0.0, 1.0), (1.0, 2.0))))


def test_sample_uniform_deterministic():
    a = sampling.sample_uniform(Ball(1.0, 2), 512, seed=11)
    b = sampling.sample_uniform(Ball(1.0, 2), 512, seed=11)
    c = sampling.sample_uniform(Ball(1.0, 2), 512, seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


@pytest.mark.parametrize(
    "body",
    [
        Ball(1.0, 3),
        Cube(1.0, 3),
        L1Ball(1.0, 3),
        LSHAPE,
        HPolytope(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0])),
        geometry.apply_affine(Ball(1.0, 2), np.diag([2.0, 0.5]), [0.3, 0.1]),
    ],
)
def test_samples_stay_inside(body):
    cloud = sampling.sample_uniform(body, 2000, seed=4)
    assert cloud.count == 2000
    assert np.all(body.contains_many(cloud.points, tol=1e-9))
    assert cloud.weights.sum() == pytest.approx(1.0)


TRIANGLE = HPolytope(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0]))

# SHA-256 of sample_uniform(body, 1000, seed=3).points.tobytes(): a change to
# a sampler, a chord or the dispatch between them changes the bytes
PINNED = [
    (Ball(1.0, 3), "direct", "53143ac9cb3c9764a8c4686df288185cbc12ef0cf46deb6c8dfadb085e373cf8"),
    (Cube(1.0, 2), "direct", "0d92a8ff638f1d3f082514a9d0963c084d42bfc5a1b1cdc59c5133b1b80a6201"),
    (L1Ball(1.0, 4), "direct", "825afaeb7fb6b2c702f977262b2cf10f16dfc982205f7d49e158abe3ae7f67af"),
    (LSHAPE, "direct", "ec398f53b60a5e645b7281adafc590c2fdec5de1cc25973b128ed6014b6b13e6"),
    (
        geometry.apply_affine(Cube(1.0, 2), [[2.0, 0.5], [0.0, 1.0]], [0.3, -0.2]),
        "direct",
        "7883ba85e908c203c52de1a7dba1d0f7d3c836245e3250ac8b870b65037d40c0",
    ),
    (TRIANGLE, "hit_and_run", "bc10d93bd6fd7fc4dcfb3793653fcdc0b0600a111be54a9975c585411a736af9"),
    (
        geometry.apply_affine(TRIANGLE, [[1.5, 0.2], [0.1, 0.8]], [0.1, 0.2]),
        "hit_and_run",
        "438fe90df4ac8082c7bc5004cce2e1928f106d487df06a29888c133bc533b349",
    ),
]


@pytest.mark.parametrize(
    "body,sampler,digest",
    PINNED,
    ids=["ball", "cube", "l1ball", "lshape", "affine-cube", "triangle", "affine-triangle"],
)
def test_samples_are_pinned(body, sampler, digest):
    cloud = sampling.sample_uniform(body, 1000, seed=3)
    assert cloud.sampler == sampler
    assert hashlib.sha256(cloud.points.tobytes()).hexdigest() == digest


def test_sample_count_must_be_positive():
    with pytest.raises(SamplingError):
        sampling.sample_uniform(Ball(1.0, 2), 0, seed=0)


def test_chunked_sampling_extends_prefix():
    # the box kernel consumes draws at a fixed rate per point, so with
    # counter-based streams a longer request extends a shorter one
    small = sampling.sample_uniform(Cube(1.0, 2), 1000, seed=9)
    large = sampling.sample_uniform(Cube(1.0, 2), 2000, seed=9)
    assert np.array_equal(large.points[:1000], small.points)


def test_hit_and_run_zero_burnin_returns_start():
    # burn_in=0, thinning=1, m=1 retains the deterministic start state,
    # which for a ball is the origin
    cloud = sampling.hit_and_run(Ball(1.0, 2), 1, seed=5, burn_in=0, thinning=1)
    assert np.allclose(cloud.points, 0.0, atol=1e-12)


def test_hit_and_run_inside_polytope():
    tri = HPolytope(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0]))
    cloud = sampling.hit_and_run(tri, 500, seed=6)
    assert np.all(tri.contains_many(cloud.points, tol=1e-9))


def test_hit_and_run_rejects_rect_union():
    with pytest.raises(SamplingError):
        sampling.hit_and_run(LSHAPE, 16, seed=0)


def test_hit_and_run_matches_direct_moments():
    """MCMC second moment on a cube agrees with the exact sampler at 5 sigma."""
    direct = sampling.sample_uniform(Cube(1.0, 2), 20_000, seed=2)
    mcmc = sampling.hit_and_run(Cube(1.0, 2), 20_000, seed=2)
    sm_d = (direct.points**2).sum(axis=1)
    sm_m = (mcmc.points**2).sum(axis=1)
    se = math.hypot(sm_d.std() / math.sqrt(sm_d.size), sm_m.std() / math.sqrt(sm_m.size))
    assert abs(sm_d.mean() - sm_m.mean()) <= 5.0 * se


def test_mean_norm_disk():
    # E|x| over the unit disk is 2/3
    est = sampling.estimate_mean_norm_p(Ball(1.0, 2), 1, 200_000, seed=7)
    assert abs(est.value - 2.0 / 3.0) <= 4.0 * est.stderr


def test_mean_norm_interval():
    # E|x| over (-1/2, 1/2) is 1/4
    est = sampling.estimate_mean_norm_p(geometry.interval(-0.5, 0.5), 1, 200_000, seed=7)
    assert abs(est.value - 0.25) <= 4.0 * est.stderr


def test_point_cloud_validation():
    with pytest.raises(SamplingError):
        sampling.PointCloud(
            points=np.zeros((3, 2)),
            weights=np.array([0.5, 0.5]),  # wrong length
            seed=0,
            sampler="direct",
            body_fingerprint="",
        )


def test_purpose_codes_unique_and_in_byte_range():
    from convexineq._rng import Purpose

    codes = [int(p) for p in Purpose.__members__.values()]
    assert len(codes) == len(set(codes))
    assert all(0 <= c < 256 for c in codes)
