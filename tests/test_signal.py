import numpy as np
import pytest

from freqtrack.signal import (
    DataSet,
    Hyperparameters,
    make_test_track,
    steering_vector,
    synthesize_dataset,
)


def test_linear_ramp_values():
    assert np.allclose(make_test_track("linear_ramp", 3, (0, 1)), [0, 0.5, 1])
    assert np.allclose(make_test_track("linear_ramp", 2, (0.2, 0.2)), [0.2, 0.2])


def test_sine_track_is_smooth():
    track = make_test_track("sine", 128, (-1.5, 1.5))
    assert track.size == 128
    assert np.max(np.abs(np.diff(track))) < 0.5
    assert track.min() < -1.4 and track.max() > 1.4


def test_piecewise_track_spans_range():
    track = make_test_track("piecewise", 30, (-1.0, 2.0))
    assert track[0] == -1.0 and track[-1] == 2.0
    assert np.all(np.diff(track) >= 0)


def test_track_argument_errors():
    with pytest.raises(ValueError):
        make_test_track("linear_ramp", 0, (0, 1))
    with pytest.raises(ValueError):
        make_test_track("linear_ramp", 5, (1, 0))
    with pytest.raises(ValueError):
        make_test_track("nope", 5, (0, 1))


def test_hyperparameters_must_be_positive():
    with pytest.raises(ValueError):
        Hyperparameters(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Hyperparameters(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        Hyperparameters(1.0, 1.0, np.inf)


def test_steering_vector_unit_modulus_and_periodic():
    z = steering_vector(0.37, 6)
    assert np.allclose(np.abs(z), 1.0)
    assert np.allclose(z, steering_vector(1.37, 6))


def test_noiseless_cisoid():
    hyper = Hyperparameters(1.0, 1e-300, 1e-3)
    ds = synthesize_dataset([0.25], hyper, 4, seed=0)
    assert np.allclose(ds.samples[0] / ds.samples[0, 0], [1, 1j, -1, -1j], atol=1e-12)


def test_noiseless_record_equals_steering_vector():
    track = make_test_track("sine", 8, (-0.4, 0.4))
    hyper = Hyperparameters(1.0, 1e-300, 1e-3)
    ds = synthesize_dataset(track, hyper, 5, seed=1)
    for t, nu in enumerate(track):
        assert np.allclose(ds.samples[t] / ds.samples[t, 0], steering_vector(nu, 5), atol=1e-12)


def test_second_moment_calibration():
    hyper = Hyperparameters(1.0, 1.0, 1e-3)
    track = make_test_track("linear_ramp", 4096, (-1.0, 1.0))
    ds = synthesize_dataset(track, hyper, 4, seed=11)
    second_moment = np.mean(np.abs(ds.samples) ** 2)
    assert abs(second_moment - 2.0) < 0.05 * 2.0


def test_determinism():
    track = make_test_track("sine", 32, (-1.0, 1.0))
    hyper = Hyperparameters(1.0, 0.5, 1e-3)
    a = synthesize_dataset(track, hyper, 4, seed=99)
    b = synthesize_dataset(track, hyper, 4, seed=99)
    assert np.array_equal(a.samples, b.samples)
    c = synthesize_dataset(track, hyper, 4, seed=100)
    assert not np.array_equal(a.samples, c.samples)


def test_dataset_metadata_and_shape_checks():
    track = [0.1, 0.2]
    hyper = Hyperparameters(1.0, 0.5, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=0)
    assert ds.n_bins == 2 and ds.n_samples == 4
    with pytest.raises(ValueError):
        DataSet(samples=np.ones((3,)))
    with pytest.raises(ValueError):
        DataSet(samples=np.array([[np.nan + 0j, 1], [1, 1]]))
