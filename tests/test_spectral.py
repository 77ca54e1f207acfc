import tracemalloc

import numpy as np
import pytest

from freqtrack.signal import steering_vector
from freqtrack.spectral import (
    ROW_BLOCK,
    empirical_correlation,
    periodogram,
    periodogram_deriv_many,
    periodogram_table,
    row_blocks,
)
from oracles import dft_periodogram, dft_periodogram_derivatives


def random_record(rng, n=4):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def record_periodogram(y, nu):
    """The periodogram of the samples y, through their lags."""
    return periodogram(empirical_correlation(y), nu)


def test_periodogram_known_values():
    assert record_periodogram([1, 1, 1, 1], 0.0) == pytest.approx(4.0)
    assert record_periodogram([1, 1, 1, 1], 0.5) == pytest.approx(0.0, abs=1e-12)
    assert record_periodogram([1, 1j, -1, -1j], 0.25) == pytest.approx(4.0)


def test_periodogram_is_one_periodic_and_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = empirical_correlation(random_record(rng))
        nu = rng.uniform(-3, 3)
        k = rng.integers(-5, 6)
        assert periodogram(c, nu) >= 0.0
        assert abs(periodogram(c, nu) - periodogram(c, nu + k)) < 1e-12


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
            direct = dft_periodogram(y, nu)
            assert abs(recon - direct) < 1e-12 * max(1.0, abs(direct))
            assert abs(periodogram(c, nu) - direct) < 1e-12 * max(1.0, abs(direct))


def test_first_lag_of_pure_cisoid():
    n = 4
    amp = 1.7
    y = amp * np.exp(2j * np.pi * 0.3 * np.arange(n))
    c = empirical_correlation(y)
    assert abs(c[1]) == pytest.approx(amp**2 * (n - 1) / n)


def test_derivative_zero_at_symmetric_maximum():
    (first,), (second,) = periodogram_deriv_many(empirical_correlation([[1, 1, 1, 1]]), [0.0])
    assert first == pytest.approx(0.0, abs=1e-12)
    assert second < 0.0


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = empirical_correlation(random_record(rng))
        nu = rng.uniform(-1, 1)
        (first,), (second,) = periodogram_deriv_many([c], [nu])
        h = 1e-6
        fd1 = (periodogram(c, nu + h) - periodogram(c, nu - h)) / (2 * h)
        assert first == pytest.approx(fd1, rel=1e-6, abs=1e-8)
        h = 1e-4
        fd2 = (periodogram(c, nu + h) - 2 * periodogram(c, nu) + periodogram(c, nu - h)) / h**2
        assert second == pytest.approx(fd2, rel=1e-4, abs=1e-6)


def test_second_derivative_nonpositive_at_grid_maximum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = empirical_correlation(random_record(rng))
        nus = np.linspace(-0.5, 0.5, 512, endpoint=False)
        peak = nus[np.argmax(periodogram(c, nus))]
        _, (second,) = periodogram_deriv_many([c], [peak])
        assert second <= 1e-9


def test_vectorized_helpers_match_scalar():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    nus = rng.uniform(-1, 1, 5)
    lags = empirical_correlation(samples)
    firsts, seconds = periodogram_deriv_many(lags, nus)
    table = periodogram_table(lags, nus)
    per_row = periodogram(lags, nus)
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
        assert table[t, t] == pytest.approx(periodogram(c, nus[t]))
        assert per_row[t] == pytest.approx(table[t, t])


def lag_form_bound(n, nu, order):
    """The spectral docstring's bound on the lag form's error plus
    dft_periodogram's on the oracle's, in units of c(0), for the order-th
    derivative of the periodogram of N = n samples at nu."""
    eps = np.finfo(float).eps
    lag = (2 * np.pi * n) ** order * 10 * n**2 * (1 + np.abs(nu)) * eps
    dft = (4 * np.pi * n) ** order * 20 * n**2 * (1 + np.abs(nu)) * eps
    return lag + dft


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_lag_form_matches_the_dft_oracle(n):
    # random records, and cisoids whose periodograms have exact zeros, over
    # |nu| <= 4: the table, the per-bin values and both derivatives are
    # within the derived absolute bound of the DFT's, in units of c(0)
    rng = np.random.default_rng(100 + n)
    samples = np.concatenate([
        rng.standard_normal((40, n)) + 1j * rng.standard_normal((40, n)),
        rng.uniform(0.1, 10, (8, 1)) * steering_vector(rng.uniform(-4, 4, 8), n),
        np.ones((1, n)),
    ])
    lags = empirical_correlation(samples)
    c0 = lags[:, :1].real
    nus = np.concatenate([np.linspace(-4, 4, 161), rng.uniform(-4, 4, 40)])

    table = periodogram_table(lags, nus)
    assert np.all(np.abs(table - dft_periodogram(samples[:, None, :], nus))
                  <= lag_form_bound(n, nus, 0) * c0)

    track = rng.uniform(-4, 4, samples.shape[0])
    values = periodogram(lags, track)
    assert np.all(np.abs(values - dft_periodogram(samples, track))
                  <= lag_form_bound(n, track, 0) * c0[:, 0])
    for order, (got, want) in enumerate(zip(periodogram_deriv_many(lags, track),
                                            dft_periodogram_derivatives(samples, track)), 1):
        assert np.all(np.abs(got - want) <= lag_form_bound(n, track, order) * c0[:, 0])


def test_exact_zeros_are_zero_not_rounded_below():
    # [1, 1, 1, 1] vanishes at every nu = k/4 with k not a multiple of 4;
    # the raw lag sum at some of them rounds below 0 (-3.6e-15 at
    # nu = 3.75), and the table and the per-bin values return 0
    nus = np.array([k / 4 for k in range(-15, 16) if k % 4])
    assert 0.5 in nus
    lags = empirical_correlation(np.ones((1, 4)))
    assert np.all(periodogram_table(lags, nus) == 0.0)
    assert np.all(periodogram(lags[0], nus) == 0.0)
    assert periodogram(lags[0], 0.5) == 0.0


def test_periodogram_table_memory_is_its_result():
    # the lags' real coefficients meet the (2N - 1, P) basis in one product,
    # so the (T, P) result is the only table-sized allocation
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((4096, 4)) + 1j * rng.standard_normal((4096, 4))
    lags = empirical_correlation(samples)
    nus = np.linspace(-2.0, 2.0, 1024)
    tracemalloc.start()
    try:
        table = periodogram_table(lags, nus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes


@pytest.mark.parametrize("n_rows", [1, 16, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK - 1,
                                    2 * ROW_BLOCK, 1000, 4096])
def test_row_blocks_cover_the_rows_in_blocks_of_at_least_row_block(n_rows):
    blocks = row_blocks(n_rows)
    assert np.array_equal(np.concatenate([np.arange(n_rows)[rows] for rows in blocks]),
                          np.arange(n_rows))
    sizes = [rows.stop - rows.start for rows in blocks]
    assert sizes[:-1] == [ROW_BLOCK] * (len(sizes) - 1)
    assert ROW_BLOCK <= sizes[-1] < 2 * ROW_BLOCK or sizes == [n_rows]
