import tracemalloc

import numpy as np
import pytest

from freqtrack import spectral
from freqtrack.spectral import (
    empirical_correlation,
    periodogram,
    periodogram_deriv_many,
    periodogram_table,
)


def random_record(rng, n=4):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_periodogram_known_values():
    assert periodogram([1, 1, 1, 1], 0.0) == pytest.approx(4.0)
    assert periodogram([1, 1, 1, 1], 0.5) == pytest.approx(0.0, abs=1e-12)
    assert periodogram([1, 1j, -1, -1j], 0.25) == pytest.approx(4.0)


def test_periodogram_is_one_periodic_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = random_record(rng)
        nu = rng.uniform(-3, 3)
        k = rng.integers(-5, 6)
        assert periodogram(y, nu) >= 0.0
        assert abs(periodogram(y, nu) - periodogram(y, nu + k)) < 1e-12


def test_empirical_correlation_two_samples():
    c = empirical_correlation([1, 1])
    assert c[0] == pytest.approx(1.0)
    assert c[1] == pytest.approx(0.5)
    assert c[0].imag == 0.0 and c[0].real >= 0.0


def test_lag_sum_reconstructs_periodogram():
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = random_record(rng, n=int(rng.integers(2, 7)))
        c = empirical_correlation(y)
        ks = np.arange(1 - y.size, y.size)
        full = np.concatenate([np.conj(c[:0:-1]), c])
        for nu in rng.uniform(-2, 2, 20):
            recon = np.real(np.sum(full * np.exp(-2j * np.pi * nu * ks)))
            direct = periodogram(y, nu)
            assert abs(recon - direct) < 1e-12 * max(1.0, abs(direct))


def test_first_lag_of_pure_cisoid():
    n = 4
    amp = 1.7
    y = amp * np.exp(2j * np.pi * 0.3 * np.arange(n))
    c = empirical_correlation(y)
    assert abs(c[1]) == pytest.approx(amp**2 * (n - 1) / n)


def test_derivative_zero_at_symmetric_maximum():
    (first,), (second,) = periodogram_deriv_many([[1, 1, 1, 1]], [0.0])
    assert first == pytest.approx(0.0, abs=1e-12)
    assert second < 0.0


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = random_record(rng)
        nu = rng.uniform(-1, 1)
        (first,), (second,) = periodogram_deriv_many([y], [nu])
        h = 1e-6
        fd1 = (periodogram(y, nu + h) - periodogram(y, nu - h)) / (2 * h)
        assert first == pytest.approx(fd1, rel=1e-6, abs=1e-8)
        h = 1e-4
        fd2 = (periodogram(y, nu + h) - 2 * periodogram(y, nu) + periodogram(y, nu - h)) / h**2
        assert second == pytest.approx(fd2, rel=1e-4, abs=1e-6)


def test_second_derivative_nonpositive_at_grid_maximum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = random_record(rng)
        nus = np.linspace(-0.5, 0.5, 512, endpoint=False)
        peak = nus[np.argmax(periodogram(y, nus))]
        _, (second,) = periodogram_deriv_many([y], [peak])
        assert second <= 1e-9


def test_vectorized_helpers_match_scalar():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    nus = rng.uniform(-1, 1, 5)
    firsts, seconds = periodogram_deriv_many(samples, nus)
    table = periodogram_table(samples, nus)
    lags = empirical_correlation(samples)
    per_row = periodogram(samples, nus)
    ks = np.arange(-3, 4)
    for t in range(5):
        c = empirical_correlation(samples[t])
        assert np.array_equal(lags[t], c)
        # P'(nu) and P''(nu) from the signed lags of this row alone
        terms = np.concatenate([np.conj(c[:0:-1]), c]) * np.exp(-2j * np.pi * nus[t] * ks)
        f = np.real(np.sum(-2j * np.pi * ks * terms))
        s = np.real(np.sum(-4 * np.pi**2 * ks**2 * terms))
        assert firsts[t] == pytest.approx(f)
        assert seconds[t] == pytest.approx(s)
        assert table[t, t] == pytest.approx(periodogram(samples[t], nus[t]))
        assert per_row[t] == pytest.approx(table[t, t])

    # row blocks: several full ones plus a remainder, and fewer rows than one
    # block, give the bits of the one-matmul table
    n_states = 96
    per_block = spectral._BLOCK_ENTRIES // n_states
    nus = np.linspace(-2.0, 2.0, n_states)
    phase = np.exp(-2j * np.pi * np.outer(np.arange(4), nus))
    for n_bins in (1, per_block - 1, 3 * per_block + 5):
        samples = rng.standard_normal((n_bins, 4)) + 1j * rng.standard_normal((n_bins, 4))
        table = periodogram_table(samples, nus)
        assert np.array_equal(table, np.abs(samples @ phase) ** 2 / 4)


def test_periodogram_table_memory_is_its_result():
    # the complex products are made block by block, so the (T, P) result is
    # the only table-sized allocation
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((4096, 4)) + 1j * rng.standard_normal((4096, 4))
    nus = np.linspace(-2.0, 2.0, 1024)
    tracemalloc.start()
    try:
        table = periodogram_table(samples, nus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes
