import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from freqtrack.hmm import ObservationTable, observation_table
from freqtrack.hyperopt import (
    LINE_SEARCHES,
    STRATEGIES,
    empirical_init,
    estimate_ml,
    hyper_nll,
    hyper_nll_gradient,
)
from freqtrack.markov import FrequencyGrid, initial_distribution, transition_matrix
from freqtrack.signal import (DataSet, Hyperparameters, make_test_track, steering_vector,
                              synthesize_dataset)
from oracles import brute_force_joint


def small_problem(seed, n_bins=4, n_states=5):
    rng = np.random.default_rng(seed)
    track = np.cumsum(rng.normal(0, 0.05, n_bins))
    track -= track[0]
    hyper = Hyperparameters(
        float(rng.uniform(0.5, 2)), float(rng.uniform(0.2, 1)), float(rng.uniform(1e-3, 0.1))
    )
    ds = synthesize_dataset(track, hyper, 4, seed=seed + 1)
    grid = FrequencyGrid(-1.5, 1.5, n_states)
    return ds, hyper, grid


def test_hyper_nll_matches_brute_force():
    for seed in range(5):
        ds, hyper, grid = small_problem(seed, n_bins=3, n_states=4)
        obs = observation_table(ds, grid, hyper)
        trans = transition_matrix(grid, hyper.r_nu)
        init = initial_distribution(grid)
        bf = brute_force_joint(obs, trans, init)
        assert hyper_nll(ds, hyper, grid) == pytest.approx(-bf.log_likelihood, rel=1e-10)


def test_hyper_nll_sensitive_to_bin_order():
    track = make_test_track("sine", 32, (-0.4, 0.4))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=3)
    grid = FrequencyGrid(-1.0, 1.0, 32)
    value = hyper_nll(ds, hyper, grid)
    rng = np.random.default_rng(0)
    shuffled = type(ds)(samples=ds.samples[rng.permutation(32)])
    assert abs(hyper_nll(shuffled, hyper, grid) - value) > 1e-3


def test_hyper_nll_flat_transition_limit():
    ds, _, _ = small_problem(7, n_bins=4)
    hyper = Hyperparameters(1.0, 0.5, 1e6)
    grid = FrequencyGrid(-1.0, 1.0, 8)
    value = hyper_nll(ds, hyper, grid)
    obs = observation_table(ds, grid, hyper)
    scaled = np.exp(obs.log_prob - obs.row_shift[:, None])
    # a flat transition forgets the state: bin 0 carries the initial law,
    # every later bin the uniform one
    uniform = np.full((ds.n_bins - 1, grid.size), 1 / grid.size)
    weights = np.vstack([initial_distribution(grid), uniform])
    independent = -np.sum(np.log(np.sum(scaled * weights, axis=1)) + obs.row_shift)
    assert value == pytest.approx(independent, rel=1e-3)


def log_central_difference(ds, hyper, grid, i, h=1e-5):
    """Central difference of hyper_nll in log r_i with step h."""
    up, down = np.log(hyper.as_array()), np.log(hyper.as_array())
    up[i] += h
    down[i] -= h
    return (hyper_nll(ds, Hyperparameters.from_array(np.exp(up)), grid)
            - hyper_nll(ds, Hyperparameters.from_array(np.exp(down)), grid)) / (2 * h)


def test_gradient_matches_finite_differences():
    for seed in range(20):
        ds, hyper, grid = small_problem(seed)
        grad = hyper_nll_gradient(ds, hyper, grid)
        for i in range(3):
            fd = log_central_difference(ds, hyper, grid, i)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extreme", [{"r_b": 1e-160}, {"r_a": 1e160}],
                         ids=["r_b=1e-160", "r_a=1e160"])
def test_gradient_finite_where_criterion_is(extreme):
    # energy / r_b^2 and s^2 once overflowed here, though hyper_nll is finite
    ds, hyper, grid = small_problem(0, n_bins=3, n_states=16)
    hyper = replace(hyper, **extreme)
    grad = hyper_nll_gradient(ds, hyper, grid)
    assert np.isfinite(grad).all()
    for i in range(3):
        fd = log_central_difference(ds, hyper, grid, i)
        # 0 where the change is below the rounding of hyper_nll, about 1e160 at r_b = 1e-160
        if fd != 0.0:
            assert grad[i] == pytest.approx(fd, rel=1e-4)


def test_criterion_rejects_hyperparameters_whose_alpha_overflows():
    # r_b (N r_a + r_b) overflows to inf: alpha would be 0, every observation
    # row constant and the criterion a finite value that says nothing
    ds, _, grid = small_problem(0)
    with pytest.raises(ValueError, match=r"r_a=1e\+155, r_b=1e\+155"):
        hyper_nll(ds, Hyperparameters(1e155, 1e155, 1e-2), grid)


def test_gradient_memory_is_below_pair_tensor():
    # the EM gradient needs only the bin-summed pair marginals, never the
    # (T-1, P, P) tensor
    n_bins, n_states = 128, 384
    track = make_test_track("sine", n_bins, (-1.5, 1.5))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=0)
    grid = FrequencyGrid(-3.5, 3.5, n_states)
    tracemalloc.start()
    try:
        hyper_nll_gradient(ds, hyper, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n_bins - 1) * n_states**2 * 8 / 4


def test_observation_gradient_zero_crossing():
    # d log O / d r_a = -N/(N r_a + r_b) + N P/(N r_a + r_b)^2 vanishes
    # exactly when the periodogram equals N r_a + r_b
    n, r_a, r_b = 4, 1.3, 0.4
    s = n * r_a + r_b
    value = -n / s + n * s / s**2
    assert value == pytest.approx(0.0, abs=1e-15)


def test_gradient_small_at_minimizer():
    track = make_test_track("sine", 64, (-1.0, 1.0))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=9)
    grid = FrequencyGrid(-2.0, 2.0, 64)
    report = estimate_ml(ds, grid, strategy="coordinate_wise")
    grad_log = hyper_nll_gradient(ds, report.minimizer, grid)
    assert np.linalg.norm(grad_log) < 1e-3 * max(1.0, abs(report.reached_minimum))


def test_empirical_init_noiseless_cisoids():
    ds = DataSet(steering_vector(np.full(16, 0.2), 4))
    grid = FrequencyGrid(-2.5, 2.5, 128)
    est = empirical_init(ds, grid)
    assert est.r_a == pytest.approx(3 / 4, rel=1e-10)
    assert est.r_b == pytest.approx(1 / 4, rel=1e-10)


def test_empirical_init_pure_noise():
    hyper = Hyperparameters(1e-12, 1.0, 1e-3)
    track = np.zeros(2048)
    ds = synthesize_dataset(track, hyper, 4, seed=4)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    est = empirical_init(ds, grid)
    assert est.r_b == pytest.approx(1.0, rel=0.1)
    assert est.r_a < 0.1


def test_empirical_init_overestimates_step_variance_on_aliased_track():
    truth_r_nu = 1e-3
    rng = np.random.default_rng(12)
    steps = rng.normal(0, np.sqrt(truth_r_nu), 127)
    track = np.concatenate([[0.0], np.cumsum(steps)]) + np.linspace(0, 3.0, 128)
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, truth_r_nu), 4, seed=13)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    est = empirical_init(ds, grid)
    assert est.r_nu > truth_r_nu


def test_empirical_init_rejects_zero_data():
    from freqtrack.signal import DataSet

    ds = DataSet(samples=np.zeros((4, 4), dtype=complex))
    grid = FrequencyGrid(-2.5, 2.5, 128)
    with pytest.raises(ValueError):
        empirical_init(ds, grid)


def standard_dataset():
    track = make_test_track("sine", 128, (-1.5, 1.5))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    return synthesize_dataset(track, hyper, 4, seed=7), FrequencyGrid(-2.5, 2.5, 128)


def test_estimate_monotone_descent():
    ds, grid = standard_dataset()
    report = estimate_ml(ds, grid, strategy="polak_ribiere")
    values = [hyper_nll(ds, Hyperparameters.from_array(np.exp(x)), grid)
              for x in report.trajectory]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert report.reached_minimum == pytest.approx(values[-1])


def test_estimate_fixed_point():
    ds, grid = standard_dataset()
    first = estimate_ml(ds, grid, strategy="vignes")
    again = estimate_ml(ds, grid, strategy="vignes", init=first.minimizer)
    assert again.iterations <= 2
    drift = np.abs(np.log10(again.minimizer.as_array())
                   - np.log10(first.minimizer.as_array()))
    assert np.all(drift < 0.05)


@pytest.mark.parametrize("line_search", LINE_SEARCHES)
def test_line_searches_all_reach_same_minimum(line_search):
    ds, grid = standard_dataset()
    report = estimate_ml(ds, grid, strategy="polak_ribiere", line_search=line_search)
    baseline = estimate_ml(ds, grid, strategy="coordinate_wise")
    spread = abs(report.reached_minimum - baseline.reached_minimum)
    assert spread < 0.005 * abs(baseline.reached_minimum)


def test_unknown_strategy_rejected():
    ds, grid = standard_dataset()
    with pytest.raises(ValueError):
        estimate_ml(ds, grid, strategy="sgd")
    with pytest.raises(ValueError):
        estimate_ml(ds, grid, line_search="exact")
