"""Metamorphic tests: transformations of the data that the model maps to a
known transformation of every answer."""

import functools

import numpy as np
import pytest

from freqtrack.cli import compute_tracks
from freqtrack.hyperopt import STRATEGIES, estimate_ml
from freqtrack.markov import FrequencyGrid
from freqtrack.refine import refine_map
from freqtrack.signal import DataSet, Hyperparameters, make_test_track, synthesize_dataset

# the track_long workload's input shape and the CLI's default simulation
INPUTS = {
    "long": (4096, (-3.0, 3.0), 1e-4, FrequencyGrid(-4.0, 4.0, 512)),
    "default": (128, (-1.5, 1.5), 1e-3, FrequencyGrid(-2.5, 2.5, 128)),
}


def tracks_and_refinement(dataset, grid, hyper):
    """The four tracks and refine_map's result on the Viterbi track."""
    tracks = compute_tracks(dataset, grid, hyper)
    return tracks, refine_map(dataset, tracks["viterbi_map"], hyper)


@pytest.fixture(scope="module", params=sorted(INPUTS))
def tracked(request):
    """(dataset, grid, hyper, tracks, refinement) on one input."""
    n_bins, track_range, r_nu, grid = INPUTS[request.param]
    hyper = Hyperparameters(1.0, 0.1, r_nu)
    dataset = synthesize_dataset(make_test_track("sine", n_bins, track_range), hyper, 4, seed=1)
    return (dataset, grid, hyper) + tracks_and_refinement(dataset, grid, hyper)


def scaled(dataset, hyper, c):
    """The same model in another amplitude unit: samples times c, the
    amplitude and noise variances times c^2, r_nu unchanged."""
    return DataSet(dataset.samples * c), Hyperparameters(hyper.r_a * c * c, hyper.r_b * c * c,
                                                         hyper.r_nu)


@pytest.mark.parametrize("c", [2.0**-20, 2.0**20])
def test_tracks_are_identical_in_a_power_of_two_amplitude_unit(tracked, c):
    # a power of two scales every sum of the criterion exactly
    dataset, grid, hyper, tracks, result = tracked
    other_data, other_hyper = scaled(dataset, hyper, c)
    other, other_result = tracks_and_refinement(other_data, grid, other_hyper)
    for name, track in tracks.items():
        assert other[name].tobytes() == track.tobytes(), name
    assert (other_result.stop_reason, other_result.iterations) == (result.stop_reason,
                                                                   result.iterations)


@pytest.mark.parametrize("c", [1e-5, 1e-3, 1e3])
def test_tracks_agree_in_any_amplitude_unit(tracked, c):
    dataset, grid, hyper, tracks, result = tracked
    other_data, other_hyper = scaled(dataset, hyper, c)
    other, other_result = tracks_and_refinement(other_data, grid, other_hyper)
    for name, track in tracks.items():
        assert np.max(np.abs(other[name] - track)) <= 1e-12, name
    assert result.stop_reason == "converged"
    assert (other_result.stop_reason, other_result.iterations) == (result.stop_reason,
                                                                   result.iterations)


@functools.cache
def fit_in_unit(seed, strategy, c):
    """estimate_ml on the default simulation with the samples times c, and
    its minimizer's log-parameters back in the unit c = 1: log r_a and
    log r_b less 2 log c."""
    n_bins, track_range, r_nu, grid = INPUTS["default"]
    hyper = Hyperparameters(1.0, 0.1, r_nu)
    dataset = synthesize_dataset(make_test_track("sine", n_bins, track_range), hyper, 4, seed=seed)
    report = estimate_ml(DataSet(dataset.samples * c), grid, strategy=strategy)
    return report, np.log(report.minimizer.as_array()) - 2.0 * np.log(c) * np.array([1, 1, 0])


@pytest.mark.parametrize("c", [2.0**-20, 1e3])
def test_the_default_fit_is_the_same_in_any_amplitude_unit(c):
    # the fit stops on its decrement, which a change of unit does not move;
    # a stop relative to |f|, which holds the constant 2 T N log c, made
    # other evaluations on 2 or 3 of these 5 seeds
    for seed in range(5000, 5005):
        report, x = fit_in_unit(seed, "bfgs", 1.0)
        other, other_x = fit_in_unit(seed, "bfgs", c)
        assert ((other.function_evals, other.gradient_evals, other.iterations, other.stop_reason)
                == (report.function_evals, report.gradient_evals, report.iterations,
                    report.stop_reason)), seed
        assert np.max(np.abs(other_x - x)) <= 1e-12, seed


@pytest.mark.parametrize("c", [2.0**-20, 1e3])
def test_every_strategy_stops_alike_in_any_amplitude_unit(c):
    for strategy in STRATEGIES:
        report, x = fit_in_unit(5000, strategy, 1.0)
        other, other_x = fit_in_unit(5000, strategy, c)
        assert other.stop_reason == report.stop_reason, strategy
        assert np.max(np.abs(other_x - x)) <= 1e-5, strategy


@pytest.mark.parametrize("seed", range(10))
def test_conjugate_samples_negate_every_track_and_keep_the_fit(seed):
    # conj(samples) is the same model at -nu: the grid (-2.5, 2.5, 128) and
    # its start band are symmetric up to rounding, and the variances hold
    truth = make_test_track("sine", 128, (-1.5, 1.5))
    dataset = synthesize_dataset(truth, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=seed)
    mirrored = DataSet(np.conj(dataset.samples))
    grid = FrequencyGrid(-2.5, 2.5, 128)
    fit = estimate_ml(dataset, grid).minimizer
    mirrored_fit = estimate_ml(mirrored, grid).minimizer
    assert np.allclose(mirrored_fit.as_array(), fit.as_array(), rtol=1e-12, atol=0.0)
    tracks = compute_tracks(dataset, grid, fit)
    mirrored_tracks = compute_tracks(mirrored, grid, fit)
    for name, track in tracks.items():
        assert np.max(np.abs(mirrored_tracks[name] + track)) <= 1e-12, name
