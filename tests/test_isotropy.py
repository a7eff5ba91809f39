import math

import numpy as np
import pytest

from convexineq import (
    Ball,
    ContainmentError,
    Cube,
    SamplingError,
    geometry,
    isotropy,
    sampling,
)


def test_covariance_of_volume_one_disk():
    """The volume-one disk has covariance L^2 I with L = 1/(2 sqrt(pi))."""
    cloud = sampling.sample_uniform(geometry.ball_volume_one(2), 200_000, seed=11)
    mu, cov = isotropy.covariance(cloud)
    target = 1.0 / (4.0 * math.pi)
    # each diagonal entry has relative stderr about sqrt(2/m)
    se = target * math.sqrt(2.0 / cloud.count)
    assert np.abs(mu).max() <= 5.0 * math.sqrt(target / cloud.count) * 2
    assert abs(cov[0, 0] - target) <= 5.0 * se
    assert abs(cov[1, 1] - target) <= 5.0 * se
    assert abs(cov[0, 1]) <= 5.0 * se


def test_covariance_needs_enough_points():
    cloud = sampling.sample_uniform(Ball(1.0, 3), 3, seed=0)
    with pytest.raises(SamplingError):
        isotropy.covariance(cloud)


def test_isotropic_constant_cube():
    # L of any cube is 1/sqrt(12)
    est = isotropy.isotropic_constant(Cube(2.5, 3), m=200_000, seed=1)
    assert est.value == pytest.approx(1.0 / math.sqrt(12.0), rel=0.01)


def test_isotropic_constant_disk():
    est = isotropy.isotropic_constant(Ball(1.0, 2), m=200_000, seed=2)
    assert est.value == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=0.01)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_isotropic_constant_is_blind_to_the_cube_scale(n):
    # the whitening map of a large cube has a tiny determinant
    base = isotropy.isotropic_constant(Cube(1.0, n), m=20_000, seed=3)
    for scale in (1e-8, 1e-3, 1e3, 1e8):
        got = isotropy.isotropic_constant(Cube(scale, n), m=20_000, seed=3)
        assert got.value == pytest.approx(base.value, rel=1e-12)
        assert got.stderr == pytest.approx(base.stderr, rel=1e-12)


def test_isotropic_constant_counts_a_monte_carlo_volume():
    # a cube's volume is closed form, an H-polytope's a Monte Carlo estimate
    est = isotropy.isotropic_constant(Cube(1.0, 2), m=2_000, seed=4)
    assert est.count == 2_000 and est.seed is not None
    hexagon = geometry.HPolytope(
        [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)], [1.0] * 6
    )
    est = isotropy.isotropic_constant(hexagon, m=2_000, seed=4)
    assert est.count == 2_000 + 100_000 and est.seed is None


def test_isotropic_position_normalizes():
    skew = geometry.apply_affine(Cube(1.0, 2), [[3.0, 1.0], [0.0, 0.5]], [2.0, -1.0])
    report = isotropy.isotropic_position(skew, m=100_000, seed=3)
    assert report.isotropy_defect <= 0.05
    mapped = geometry.apply_affine(skew, report.transform.linear, report.transform.shift)
    vol = geometry.volume_with_error(mapped, mc_samples=200_000, seed=4)
    assert abs(vol.value - 1.0) <= max(4.0 * vol.stderr, 0.01)
    cloud = sampling.sample_uniform(mapped, 100_000, seed=5)
    mu, cov = isotropy.covariance(cloud)
    assert np.abs(mu).max() <= 0.01
    # covariance should be close to L^2 I with L near 1/sqrt(12)
    assert abs(cov[0, 0] / cov[1, 1] - 1.0) <= 0.05
    assert abs(cov[0, 1]) <= 0.05 * cov[0, 0]


def test_relative_entropy_nested_balls():
    # log(|B(2)| / |B(1)|) = 2 log 2 in the plane
    h = isotropy.relative_entropy_uniform(Ball(1.0, 2), Ball(2.0, 2), seed=8)
    assert h == pytest.approx(math.log(4.0), rel=1e-9)


def test_relative_entropy_requires_containment():
    with pytest.raises(ContainmentError, match="witness"):
        isotropy.relative_entropy_uniform(Ball(2.0, 2), Ball(1.0, 2), seed=8)
