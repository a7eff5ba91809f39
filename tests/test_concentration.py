import dataclasses

import numpy as np
import pytest

from convexineq import (
    Cube,
    NotNormalizedError,
    SamplingError,
    concentration,
    corpora,
    geometry,
    sample_uniform,
)
from convexineq._rng import Purpose, child_seed


# a uniform grid over [-1/2, 1/2]: the share of points with |x| >= t is
# max(1 - 2t, 0) up to one grid step, so its tails and fitted exponent have
# closed forms
M = 100_001
UNIFORM = np.linspace(-0.5, 0.5, M)


def _fit(values):
    return concentration._fit_tails(values, values.shape[0], 0, "x[0]")


def test_profile_tail_oracle():
    fit = _fit(UNIFORM)
    # 2, 2.5 and 3 sigma lie past the edge 1/2 and are dropped: every
    # threshold is inside the range and is reached by some point
    assert np.all(fit.t_grid <= 0.5)
    assert np.all(fit.counts >= 1)
    assert np.allclose(fit.tails, np.maximum(1.0 - 2.0 * fit.t_grid, 0.0), rtol=0.0, atol=2.0 / M)


def test_exceedance_counts_equal_the_threshold_table():
    # symmetric values with 40 copies of each rim fraction of the edge 1:
    # nine thresholds sit exactly on sample values, where >= counts them
    rim = np.array([0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 1.0])
    bulk = np.random.default_rng(1).uniform(-1.0, 1.0, 5000)
    values = np.concatenate([bulk, -bulk, np.repeat(np.concatenate([rim, -rim]), 40)])
    fit = _fit(values)
    a = np.abs(values - values.mean())
    assert np.isin(fit.t_grid, a).sum() == 9
    table = (a[None, :] >= fit.t_grid[:, None]).sum(axis=1)
    assert fit.counts.dtype == table.dtype and np.array_equal(fit.counts, table)
    uniform = _fit(UNIFORM)
    a = np.abs(UNIFORM - UNIFORM.mean())
    assert np.array_equal(uniform.counts, (a[None, :] >= uniform.t_grid[:, None]).sum(axis=1))


def test_profile_envelope_monotone():
    fit = _fit(np.linalg.norm(np.random.default_rng(2).standard_normal((20_000, 2)), axis=1))
    assert np.all(np.diff(fit.envelope) <= 0.0)
    assert np.all(fit.envelope <= fit.tails)


def test_profile_bit_identical_across_calls():
    a, b = (concentration.tau1_proxy(Cube(1.0, 2), m=20_000, seed=7).to_json() for _ in range(2))
    assert a == b


def test_profile_rejects_small_samples():
    with pytest.raises(SamplingError, match="10\\^4"):
        concentration.tau1_proxy(Cube(1.0, 2), m=999, seed=0)


def test_profile_rejects_constant_functional():
    with pytest.raises(SamplingError, match="constant"):
        _fit(np.full(10_000, 0.25))


def test_profile_needs_enough_exceedances():
    # 29 values: no threshold can have 30 exceedances
    with pytest.raises(SamplingError, match="exceedances"):
        _fit(np.linspace(-0.5, 0.5, 29))


def test_alpha_hat_for_uniform_interval():
    # the fitted exponent is the minimum of -log((1 - 2t) / 2) / t^2 over the
    # usable thresholds
    fit = _fit(UNIFORM)
    t = fit.t_grid[fit.usable_points]
    expected = np.min(-np.log((1.0 - 2.0 * t) / 2.0) / t**2)
    assert fit.alpha_hat == pytest.approx(expected, rel=1e-3)


def test_tau1_proxy_probe_family():
    res = concentration.tau1_proxy(Cube(1.0, 2), m=20_000, seed=4)
    # n coordinates plus the norm
    assert len(res.fits) == 3
    assert res.argmin in {f.functional for f in res.fits}
    assert res.estimate.value == min(f.alpha_hat for f in res.fits)


@pytest.mark.parametrize("body", [Cube(1.0, 3), geometry.ball_volume_one(2)], ids=["cube3", "disk"])
@pytest.mark.parametrize("seed", [4, 11])
def test_tau1_proxy_fits_the_coordinates_then_the_norm_of_its_cloud(body, seed):
    m = 20_000
    pts = sample_uniform(body, m, child_seed(seed, Purpose.TAU)).points
    probes = [(np.array(pts[:, i]), f"x[{i}]") for i in range(body.dim)]
    probes.append((np.linalg.norm(pts, axis=1), "|x|"))
    got = concentration.tau1_proxy(body, m=m, seed=seed).fits
    assert len(got) == len(probes)
    for fit, (values, label) in zip(got, probes):
        want = concentration._fit_tails(values, m, seed, label)
        for f in dataclasses.fields(want):
            a, b = getattr(fit, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name


def test_lemma1_trivial_pair_passes():
    B = geometry.ball_volume_one(2)
    audit = concentration.lemma1_audit(B, B, m=256, seed=3, probe_m=20_000, tau_m=10_000)
    assert audit.passed()
    assert audit.entropy == pytest.approx(0.0, abs=1e-12)
    assert audit.v == pytest.approx(1.0)
    assert audit.quantities["tci_term"].value == 0.0
    names = [s.name for s in audit.steps]
    assert names == ["triangle", "entropy_vs_transport", "cauchy_schwarz", "borell_ratio", "final"]
    reported = {s.name: s.verdict for s in audit.steps}
    assert reported["entropy_vs_transport"] == "REPORTED"
    assert reported["borell_ratio"] == "REPORTED"
    assert reported["final"] == "REPORTED"


def test_lemma1_rejects_wrong_volume():
    with pytest.raises(NotNormalizedError, match="volume one"):
        concentration.lemma1_audit(Cube(1.0, 2), Cube(2.0, 2), m=64, probe_m=20_000, tau_m=10_000)


def test_lemma1_rejects_anisotropic_reference():
    stretched = geometry.apply_affine(geometry.cube_volume_one(2), np.diag([2.0, 0.5]))
    with pytest.raises(NotNormalizedError, match="isotropic"):
        concentration.lemma1_audit(stretched, stretched, m=64, probe_m=20_000, tau_m=10_000)


def test_lemma1_audit_pair_quantities():
    name, K, B = corpora.audit_pairs()[0]
    audit = concentration.lemma1_audit(K, B, m=512, seed=0, probe_m=50_000, tau_m=50_000)
    assert audit.passed()
    q = audit.quantities
    assert set(q) == {
        "mean_norm_K",
        "w1",
        "tci_term",
        "mean_norm_B",
        "sqrt_n_L_B",
        "borell_ratio",
        "tau_proxy",
        "L_K",
        "c_implied",
    }
    # the implied constant is of order one
    assert 0.05 <= q["c_implied"].value <= 20.0
    # a derived quantity counts every random input behind it
    assert q["c_implied"].count == q["L_K"].count + q["tau_proxy"].count
    assert q["borell_ratio"].count == q["mean_norm_K"].count + 50_000
    obj = audit.to_json()
    assert obj["passed"] is True
    assert len(obj["steps"]) == 5
