import hashlib
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from convexineq import (
    Ball,
    ChainStuckError,
    Cube,
    HPolytope,
    L1Ball,
    RectUnion,
    SamplingError,
    geometry,
    sampling,
)
from convexineq import _rng
from convexineq._rng import CHUNK, Purpose, chunked, rng_for

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


@pytest.mark.parametrize("total", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("kind", ["points", "integers"])
def test_chunked_equals_the_concatenated_chunks(total, kind):
    counts = []

    def make(g, count):
        counts.append(count)
        return g.random((count, 3)) if kind == "points" else g.integers(0, 1000, size=count)

    takes = [min(CHUNK, total - start) for start in range(0, total, CHUNK)]
    expect = np.concatenate(
        [make(rng_for(4, Purpose.SAMPLE_DIRECT, 2, i), take) for i, take in enumerate(takes)]
    )
    counts.clear()
    out = chunked(4, Purpose.SAMPLE_DIRECT, 2, total, make)
    # each chunk is made once with its size; the order is the pool's
    assert sorted(counts) == sorted(takes)
    assert out.shape == expect.shape and out.dtype == expect.dtype
    assert np.array_equal(out, expect)


def test_chunked_returns_a_single_chunk_as_made():
    made = []

    def make(g, count):
        made.append(g.random((count, 2)))
        return made[-1]

    assert chunked(4, Purpose.SAMPLE_DIRECT, 0, CHUNK, make) is made[0]


@pytest.fixture
def fast_switching():
    # threads switch every microsecond, so chunks finish in shuffled order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _chunk_index(g) -> int:
    # the low 32 bits of the Philox key's tag are the chunk index
    return int(g.bit_generator.state["state"]["key"][1]) & 0xFFFFFFFF


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("kind", ["points", "integers"])
def test_chunked_does_not_depend_on_the_pool_size(monkeypatch, fast_switching, cpus, kind):
    total = 3 * CHUNK + 5
    makers = set()

    def make(g, count):
        makers.add(threading.get_ident())
        return g.random((count, 3)) if kind == "points" else g.integers(0, 1000, size=count)

    takes = [min(CHUNK, total - start) for start in range(0, total, CHUNK)]
    expect = np.concatenate(
        [make(rng_for(4, Purpose.SAMPLE_DIRECT, 2, i), take) for i, take in enumerate(takes)]
    )
    makers.clear()
    monkeypatch.setattr(_rng, "usable_cpus", lambda: cpus)
    out = chunked(4, Purpose.SAMPLE_DIRECT, 2, total, make)
    assert out.shape == expect.shape and out.dtype == expect.dtype
    assert np.array_equal(out, expect)
    if cpus == 1:
        assert makers == {threading.get_ident()}


def test_chunked_makes_two_chunks_on_the_calling_thread(monkeypatch):
    makers = []

    def make(g, count):
        makers.append(threading.get_ident())
        return g.random(count)

    monkeypatch.setattr(_rng, "usable_cpus", lambda: 8)
    chunked(4, Purpose.SAMPLE_DIRECT, 0, CHUNK + 1, make)
    assert makers == [threading.get_ident()] * 2


@pytest.mark.parametrize("cpus", [1, 8])
def test_chunked_reraises_the_first_error_and_leaves_no_thread(monkeypatch, fast_switching, cpus):
    made = []

    def make(g, count):
        idx = _chunk_index(g)
        if idx == 2:
            raise SamplingError("chunk 2 failed")
        made.append(idx)
        return g.random(count)

    monkeypatch.setattr(_rng, "usable_cpus", lambda: cpus)
    before = threading.active_count()
    with pytest.raises(SamplingError, match="chunk 2 failed"):
        chunked(4, Purpose.SAMPLE_DIRECT, 0, 12 * CHUNK, make)
    assert threading.active_count() == before
    if cpus == 1:
        # the serial order stops at the failing chunk
        assert made == [0, 1]


@pytest.mark.parametrize(
    "body",
    [
        Ball(1.0, 3),
        Cube(1.0, 3),
        L1Ball(1.0, 3),
        LSHAPE,
        geometry.apply_affine(Cube(1.0, 3), [[1.0, 0.3, 0.0], [0.0, 2.0, 0.1], [0.2, 0.0, 0.5]], [1.0, -1.0, 0.5]),
    ],
    ids=["ball", "cube", "l1ball", "lshape", "affine-cube"],
)
def test_direct_samples_do_not_depend_on_the_pool_size(monkeypatch, fast_switching, body):
    m = 2 * CHUNK + 7
    clouds = {}
    for cpus in (1, 2, 8):
        monkeypatch.setattr(_rng, "usable_cpus", lambda cpus=cpus: cpus)
        clouds[cpus] = sampling.sample_uniform(body, m, seed=21).points
    assert np.array_equal(clouds[2], clouds[1])
    assert np.array_equal(clouds[8], clouds[1])


def _box_polytope():
    A = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]])
    return HPolytope(A, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5])


@pytest.mark.parametrize(
    "build",
    [lambda: Ball(1.0, 3), _box_polytope, lambda: geometry.apply_affine(_box_polytope(), np.diag([1.0, 2.0, 0.5]))],
    ids=["ball", "hpolytope", "affine-hpolytope"],
)
def test_mc_volume_does_not_depend_on_the_pool_size(monkeypatch, fast_switching, build):
    # a new body per pool size, so whatever it builds lazily is first built
    # while the helpers run
    values = {}
    for cpus in (1, 2, 8):
        monkeypatch.setattr(_rng, "usable_cpus", lambda cpus=cpus: cpus)
        est = geometry.volume_with_error(build(), mc_samples=5 * CHUNK + 3, seed=13, method="mc")
        values[cpus] = (est.value, est.stderr, est.count)
    assert values[2] == values[1]
    assert values[8] == values[1]


def test_hit_and_run_zero_burnin_returns_start():
    # burn_in=0, thinning=1, m=1 retains the deterministic start state,
    # which for a ball is the origin
    cloud = sampling.hit_and_run(Ball(1.0, 2), 1, seed=5, burn_in=0, thinning=1)
    assert np.allclose(cloud.points, 0.0, atol=1e-12)


def test_hit_and_run_inside_polytope():
    tri = HPolytope(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0]))
    cloud = sampling.hit_and_run(tri, 500, seed=6)
    assert np.all(tri.contains_many(cloud.points, tol=1e-9))


@pytest.mark.parametrize(
    "empty,raises",
    [
        (lambda step: slice(None), True),
        (lambda step: slice(None) if step < 100 else [], True),
        (lambda step: slice(None) if step < 99 else [], False),
        (lambda step: [0], True),
        (lambda step: [0] if step % 2 else [], False),
        (lambda step: [step % 2], False),
    ],
    ids=["always", "100-steps", "99-steps", "one-chain", "every-other-step", "two-chains-in-turn"],
)
def test_hit_and_run_stops_after_100_empty_chords_in_a_row(monkeypatch, empty, raises):
    # the chains that empty(step) names get a zero-width chord on that step;
    # a chain's count of empty chords in a row ends at its next good chord
    real = HPolytope._chord
    steps = itertools.count()

    def chord(self, x, d, diam):
        lo, hi = real(self, x, d, diam)
        if x.shape[0] > 1:  # a lockstep step, not one of the start's axis chords
            rows = empty(next(steps))
            lo[rows] = hi[rows] = 0.0
        return lo, hi

    monkeypatch.setattr(HPolytope, "_chord", chord)
    if raises:
        with pytest.raises(ChainStuckError):
            sampling.hit_and_run(TRIANGLE, 64, seed=6, burn_in=300)
    else:
        cloud = sampling.hit_and_run(TRIANGLE, 64, seed=6, burn_in=300)
        assert np.all(TRIANGLE.contains_many(cloud.points, tol=1e-9))


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
