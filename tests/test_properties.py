"""Property-based checks for the small algebraic helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from freqtrack.baselines import decimal_part, unwrap_track, wrap_to_band
from freqtrack.signal import steering_vector
from freqtrack.spectral import empirical_correlation, periodogram
from oracles import steps_within_half

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@given(finite)
def test_decimal_part_is_integer_residual(x):
    d = decimal_part(x)
    assert -0.5 <= d < 0.5
    assert abs((x - d) - round(x - d)) < 1e-9


@given(finite, st.integers(min_value=-20, max_value=20))
def test_decimal_part_periodicity(x, k):
    assert decimal_part(x + k) == np.float64(decimal_part(x)) or abs(
        decimal_part(x + k) - decimal_part(x)
    ) < 1e-9


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_decimal_part_removes_exactly_floor_of_x_plus_half(x):
    # the integer unwrap_track subtracts per step: both subtractions are
    # exact, so no rounding separates it from floor(x + 0.5)
    assert x - decimal_part(x) == np.floor(x + 0.5)


@given(finite)
def test_wrap_to_band_is_integer_shift(x):
    w = wrap_to_band(x)
    assert -0.5 < w <= 0.5
    assert abs((x - w) - round(x - w)) < 1e-9


@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=12))
def test_unwrap_track_output_has_half_steps(track):
    out = unwrap_track(np.array(track))
    assert steps_within_half(out)
    assert out[0] == track[0]
    assert np.allclose(decimal_part(out - np.array(track)), 0.0, atol=1e-9)


@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50)
def test_periodogram_of_pure_tone_peaks_at_tone(n, nu, seed):
    rng = np.random.default_rng(seed)
    amp = float(rng.uniform(0.5, 2.0))
    c = empirical_correlation(amp * steering_vector(nu, n))
    assert periodogram(c, nu) == np.float64(n * amp**2) or abs(
        periodogram(c, nu) - n * amp**2
    ) < 1e-9
    # no other frequency can exceed the on-tone value
    probe = rng.uniform(-0.5, 0.5, 32)
    assert np.all(periodogram(c, probe) <= n * amp**2 + 1e-9)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_zero_lag_is_mean_power(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = empirical_correlation(y)
    assert abs(c[0] - np.mean(np.abs(y) ** 2)) < 1e-12
    assert abs(c[0].imag) < 1e-12
    # lag magnitudes are bounded by the zero lag (Cauchy-Schwarz, biased weights)
    assert np.all(np.abs(c) <= c[0].real + 1e-12)
