import numpy as np
import pytest

from freqtrack.likelihood import (
    alpha_coefficient,
    data_misfit,
    in_initial_band,
    log_beta_coefficient,
    map_objective,
    smoothing_weight,
)
from freqtrack.signal import DataSet, Hyperparameters
from oracles import dense_gaussian_log_density, log_likelihood_entry


def test_zero_record_gives_log_beta():
    hyper = Hyperparameters(1.0, 0.5, 1e-3)
    y = np.zeros(4, dtype=complex)
    assert log_likelihood_entry(y, 0.3, hyper) == pytest.approx(
        log_beta_coefficient(hyper, 4)
    )


def test_marginal_likelihood_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nu = rng.uniform(-2, 2)
        hyper = Hyperparameters(
            float(rng.uniform(0.2, 3)), float(rng.uniform(0.2, 3)), 1e-3
        )
        mine = log_likelihood_entry(y, nu, hyper)
        oracle = dense_gaussian_log_density(y, nu, hyper)
        assert mine == pytest.approx(oracle, rel=1e-10)


def test_marginal_likelihood_is_one_periodic():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    hyper = Hyperparameters(1.0, 1.0, 1e-3)
    assert log_likelihood_entry(y, 0.2, hyper) == pytest.approx(
        log_likelihood_entry(y, 3.2, hyper), rel=1e-12
    )


def test_data_misfit_single_bin():
    ds = DataSet(samples=np.array([[1, 1, 1, 1]], dtype=complex))
    assert data_misfit(ds.samples, [0.0]) == pytest.approx(-4.0)


def test_data_misfit_per_bin_shift_invariance():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    track = rng.uniform(-1, 1, 5)
    shifts = rng.integers(-3, 4, 5).astype(float)
    assert data_misfit(samples, track) == pytest.approx(
        data_misfit(samples, track + shifts), rel=1e-10
    )


def test_data_misfit_componentwise():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    track = np.array([0.1, -0.4])
    from freqtrack.spectral import periodogram

    expected = -periodogram(samples[0], 0.1) - periodogram(samples[1], -0.4)
    assert data_misfit(samples, track) == pytest.approx(expected)


def test_data_misfit_length_mismatch():
    samples = np.ones((3, 4), dtype=complex)
    with pytest.raises(ValueError):
        data_misfit(samples, [0.0, 0.1])


def test_initial_band_boundaries():
    assert in_initial_band(0.5, 1)
    assert not in_initial_band(-0.5, 1)
    assert in_initial_band(0.0, 1)
    assert in_initial_band(-1.4, 3)
    nus = np.array([-1.5, -0.5, -0.1, 0.5, 0.7, 1.5])
    assert np.array_equal(in_initial_band(nus, 1), [False, False, True, True, False, False])
    assert np.array_equal(in_initial_band(nus, 3), [False, True, True, True, True, True])


def test_map_objective_reduces_to_misfit_for_constant_track():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hyper = Hyperparameters(1.0, 0.5, 1e-2)
    track = np.zeros(4)
    obj = map_objective(DataSet(samples), track, hyper)
    assert obj.value == pytest.approx(data_misfit(samples, track))
    assert obj.weight == pytest.approx(smoothing_weight(hyper, 4))


def test_map_objective_global_integer_shift_invariance():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    hyper = Hyperparameters(1.0, 0.5, 1e-2)
    track = rng.uniform(-0.4, 0.4, 4)
    shifted = track + 1.0
    # wide band keeps both first frequencies admissible
    ds = DataSet(samples)
    a = map_objective(ds, track, hyper, band_width=3)
    b = map_objective(ds, shifted, hyper, band_width=3)
    assert a.value == pytest.approx(b.value, rel=1e-10)
    # narrow band: shifting the first frequency outside breaks the invariance
    c = map_objective(ds, shifted, hyper, band_width=1)
    assert c.value == np.inf


def test_map_objective_componentwise():
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    hyper = Hyperparameters(2.0, 0.3, 5e-3)
    track = np.array([0.2, 0.35])
    obj = map_objective(DataSet(samples), track, hyper)
    lam = smoothing_weight(hyper, 4)
    assert obj.value == pytest.approx(data_misfit(samples, track) + lam * 0.15**2)


def test_weight_monotone_in_r_nu_and_alpha():
    base = Hyperparameters(1.0, 0.5, 1e-3)
    more_smooth_prior = Hyperparameters(1.0, 0.5, 1e-2)
    assert smoothing_weight(more_smooth_prior, 4) < smoothing_weight(base, 4)
    higher_alpha = Hyperparameters(2.0, 0.25, 1e-3)
    assert alpha_coefficient(higher_alpha, 4) > alpha_coefficient(base, 4)
    assert smoothing_weight(higher_alpha, 4) < smoothing_weight(base, 4)
