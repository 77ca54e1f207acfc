import numpy as np
import pytest

from freqtrack import baselines
from freqtrack.baselines import decimal_part, ml_periodogram_argmax, unwrap_track, wrap_to_band
from freqtrack.signal import Hyperparameters, make_test_track, synthesize_dataset
from freqtrack.spectral import ROW_BLOCK, periodogram
from oracles import steps_within_half


def test_wrap_to_band_values():
    assert wrap_to_band(0.3) == pytest.approx(0.3)
    assert wrap_to_band(0.7) == pytest.approx(-0.3)
    assert wrap_to_band(-0.7) == pytest.approx(0.3)
    assert wrap_to_band(1.0) == pytest.approx(0.0)
    # band is left-open, right-closed
    assert wrap_to_band(0.5) == 0.5
    assert wrap_to_band(-0.5) == 0.5


def test_wrap_to_band_range():
    rng = np.random.default_rng(0)
    x = rng.uniform(-10, 10, 500)
    w = wrap_to_band(x)
    assert np.all(w > -0.5) and np.all(w <= 0.5)
    assert np.allclose(x - w, np.round(x - w))


def test_argmax_estimator_recovers_in_band_frequencies():
    rng = np.random.default_rng(1)
    track = rng.uniform(-0.45, 0.45, 16)
    hyper = Hyperparameters(1.0, 1e-4, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=2)
    est = ml_periodogram_argmax(ds)
    assert np.max(np.abs(est - track)) < 0.01


def test_argmax_estimator_aliases_out_of_band_frequencies():
    track = np.full(8, 1.3)  # outside the principal band
    hyper = Hyperparameters(1.0, 1e-4, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=3)
    est = ml_periodogram_argmax(ds)
    assert np.max(np.abs(est - 0.3)) < 0.01
    assert np.all(est > -0.5) and np.all(est <= 0.5)


def test_argmax_estimator_is_per_bin_maximizer():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    from freqtrack.signal import DataSet

    ds = DataSet(samples=samples)
    est = ml_periodogram_argmax(ds)
    probe = np.linspace(-0.5, 0.5, 2048, endpoint=False)
    for t in range(6):
        best = np.max(periodogram(ds.lags[t], probe))
        assert periodogram(ds.lags[t], est[t]) >= best - 1e-8


def test_unwrap_recovers_smooth_ramp_from_aliases():
    track = np.linspace(0.0, 2.2, 64)  # crosses the band edge several times
    wrapped = wrap_to_band(track)
    assert not steps_within_half(wrapped) or np.allclose(wrapped, track)
    out = unwrap_track(wrapped)
    assert np.allclose(out, track, atol=1e-12)


def test_unwrap_cannot_fix_fast_tracks():
    # steps larger than half a period are inherently ambiguous
    track = np.array([0.0, 0.8, 1.6])
    out = unwrap_track(wrap_to_band(track))
    assert steps_within_half(out)
    assert not np.allclose(out, track)


def test_unwrap_track_keeps_first_value_and_small_steps():
    rng = np.random.default_rng(1)
    track = np.cumsum(rng.uniform(-0.3, 0.3, 20)) + 0.2
    # scramble each entry by a random integer; canonical form must undo it
    scrambled = track + rng.integers(-4, 5, 20)
    scrambled[0] = track[0]
    out = unwrap_track(scrambled)
    assert np.allclose(out, track, atol=1e-12)
    assert steps_within_half(out)
    assert not steps_within_half(scrambled) or np.allclose(scrambled, track)


def test_unwrap_track_is_idempotent():
    rng = np.random.default_rng(2)
    track = rng.uniform(-3, 3, 30)
    once = unwrap_track(track)
    assert np.allclose(unwrap_track(once), once)
    assert steps_within_half(once)


def _unwrap_on_numpy_scalars(track):
    """The unwrap recursion on numpy scalars, as the reference."""
    track = np.asarray(track, dtype=float)
    out = np.empty_like(track)
    out[0] = track[0]
    for t in range(track.size - 1):
        out[t + 1] = out[t] + decimal_part(track[t + 1] - out[t])
    return out


@pytest.mark.parametrize("track", [
    [0.3],
    [0.0, 0.5, 1.0, 0.5, -0.5, 0.0, 1.5],          # exact half-cycle steps: decimal_part(0.5) = -0.5
    [-0.25, 0.25, 0.75, 0.25, -0.25, -0.75],
    [1e-300, -0.0, 0.0, 4.5, -7.5, 1e15 + 0.5],
    [0.1, np.nan, 0.2, np.inf, 0.3],
    list(np.random.default_rng(5).uniform(-3, 3, 500)),
    list(np.cumsum(np.random.default_rng(6).choice([-0.5, 0.5, 0.25, 1.0], 200))),
])
def test_unwrap_track_equals_the_numpy_scalar_recursion(track):
    out = unwrap_track(track)
    ref = _unwrap_on_numpy_scalars(track)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(out), finite)
    assert out[finite].tobytes() == ref[finite].tobytes()


@pytest.mark.parametrize("n_bins", [16, 128, ROW_BLOCK + 1, 1000, 4096])
def test_argmax_estimator_in_row_blocks_matches_one_table(monkeypatch, n_bins):
    ds = synthesize_dataset(make_test_track("sine", n_bins, (-3.0, 3.0)),
                            Hyperparameters(1.0, 0.1, 1e-4), 4, seed=1)
    blocked = ml_periodogram_argmax(ds)
    monkeypatch.setattr(baselines, "row_blocks", lambda n_rows: [slice(0, n_rows)])
    assert np.array_equal(blocked, ml_periodogram_argmax(ds))
