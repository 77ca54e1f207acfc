import numpy as np
import pytest

from freqtrack import refine
from freqtrack.hmm import observation_table, viterbi
from freqtrack.likelihood import map_objective, smoothing_weight
from freqtrack.markov import FrequencyGrid
from freqtrack.refine import decimal_part, objective_gradient, refine_map
from freqtrack.signal import Hyperparameters, make_test_track, synthesize_dataset
from oracles import steps_within_half


def test_decimal_part_values():
    assert decimal_part(0.3) == pytest.approx(0.3)
    assert decimal_part(-0.3) == pytest.approx(-0.3)
    assert decimal_part(1.7) == pytest.approx(-0.3)
    assert decimal_part(-1.7) == pytest.approx(0.3)
    assert decimal_part(2.0) == 0.0
    # half-integers map to the lower endpoint
    assert decimal_part(0.5) == -0.5
    assert decimal_part(-0.5) == -0.5


def test_decimal_part_range_and_periodicity():
    rng = np.random.default_rng(0)
    x = rng.uniform(-10, 10, 200)
    d = decimal_part(x)
    assert np.all(d >= -0.5) and np.all(d < 0.5)
    assert np.allclose(x - d, np.round(x - d))
    assert np.allclose(decimal_part(x + 3), d)


def tracking_problem(seed=0, n_bins=24):
    track = make_test_track("sine", n_bins, (-0.4, 0.4))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=seed)
    return ds, track, hyper


def test_gradient_matches_finite_differences():
    ds, track, hyper = tracking_problem()
    grad = objective_gradient(ds, track, hyper)
    h = 1e-6
    for t in range(track.size):
        up, down = track.copy(), track.copy()
        up[t] += h
        down[t] -= h
        fd = (
            map_objective(ds, up, hyper) - map_objective(ds, down, hyper)
        ) / (2 * h)
        assert grad[t] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_refinement_decreases_objective_and_zeroes_gradient():
    ds, track, hyper = tracking_problem(seed=3)
    rng = np.random.default_rng(4)
    init = track + rng.normal(0, 0.02, track.size)
    result = refine_map(ds, init, hyper)
    trace = result.objective_trace
    assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
    assert trace[-1] <= map_objective(ds, init, hyper) + 1e-10
    assert result.converged
    grad = objective_gradient(ds, result.track, hyper)
    assert np.max(np.abs(grad)) < 1e-7


@pytest.mark.parametrize("seed", [0, 1])
def test_refinement_converges_below_rounding_level(seed):
    # default simulation: near the minimum the Newton decrease falls below
    # the rounding of the criterion (about -500), which must not stop descent
    truth = make_test_track("sine", 128, (-1.5, 1.5))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(truth, hyper, 4, seed=seed)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    path, _ = viterbi(observation_table(ds, grid, hyper), grid, smoothing_weight(hyper, 4))
    result = refine_map(ds, grid.states[path], hyper)
    assert result.converged
    assert np.max(np.abs(objective_gradient(ds, result.track, hyper))) < 1e-9


def test_stop_reason_gradient():
    ds, track, hyper = tracking_problem(seed=3)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    result = refine_map(ds, init, hyper)
    assert result.stop_reason == "gradient" and result.converged


def test_stop_reason_max_iter(monkeypatch):
    ds, track, hyper = tracking_problem(seed=3)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    monkeypatch.setattr(refine, "MAX_ITER", 1)
    result = refine_map(ds, init, hyper)
    assert result.stop_reason == "max_iter" and not result.converged
    assert result.iterations == 1


def test_stop_reason_no_decrease(monkeypatch):
    # at a Newton minimum a gradient step only meets rounding noise, and a
    # zero tolerance never accepts the gradient as small enough
    ds, track, hyper = tracking_problem(seed=3)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    minimum = refine_map(ds, init, hyper).track
    monkeypatch.setattr(refine, "GRAD_TOL", 0.0)
    result = refine_map(ds, minimum, hyper, method="gradient")
    assert result.stop_reason == "no_decrease" and not result.converged
    assert np.array_equal(result.track, minimum)


def test_refinement_is_local_minimum():
    ds, track, hyper = tracking_problem(seed=5)
    result = refine_map(ds, track, hyper)
    value = map_objective(ds, result.track, hyper)
    rng = np.random.default_rng(6)
    for _ in range(50):
        perturbed = result.track + rng.normal(0, 1e-4, track.size)
        assert map_objective(ds, perturbed, hyper) >= value - 1e-12


def test_gradient_method_agrees_with_newton(monkeypatch):
    ds, track, hyper = tracking_problem(seed=7, n_bins=12)
    rng = np.random.default_rng(8)
    init = track + rng.normal(0, 0.01, track.size)
    newton = refine_map(ds, init, hyper, method="newton")
    monkeypatch.setattr(refine, "MAX_ITER", 3000)
    monkeypatch.setattr(refine, "GRAD_TOL", 1e-9)
    grad = refine_map(ds, init, hyper, method="gradient")
    assert np.max(np.abs(newton.track - grad.track)) < 1e-4


def test_refinement_single_bin_reaches_periodogram_peak():
    hyper = Hyperparameters(1.0, 1e-6, 1e-2)
    ds = synthesize_dataset([0.21], hyper, 4, seed=9, fixed_amplitude=1.0)
    result = refine_map(ds, np.array([0.15]), hyper)
    from freqtrack.spectral import periodogram_deriv_many

    (first,), (second,) = periodogram_deriv_many(ds.samples, result.track)
    assert first == pytest.approx(0.0, abs=1e-8)
    assert second < 0
    assert result.track[0] == pytest.approx(0.21, abs=0.05)


def test_strong_smoothing_flattens_track():
    track = np.array([0.1, 0.12, 0.9, 0.11])  # one outlying bin
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=10)
    flat_prior = Hyperparameters(1.0, 0.1, 1e-9)  # near-zero step variance
    result = refine_map(ds, np.full(4, 0.1), flat_prior)
    assert np.max(np.abs(np.diff(result.track))) < 1e-3


def test_unknown_method_rejected():
    ds, track, hyper = tracking_problem()
    with pytest.raises(ValueError):
        refine_map(ds, track, hyper, method="bfgs")
