"""Periodogram of a short record and its derivatives via correlation lags."""

from __future__ import annotations

import numpy as np

# periodogram_table computes its complex products in row blocks of at most
# this many entries, so the only (T, P) array it allocates is its result.
_BLOCK_ENTRIES = 2**16


def periodogram(samples, nu):
    """P(nu) = (1/N) |sum_n y(n) e^{-2j pi nu n}|^2, nonnegative and 1-periodic.

    Records run along the last axis of samples and broadcast against nu:
    one record at an array of frequencies, or row t of a (T, N) array at
    nu[t].  The result has the broadcast shape, a float when it is scalar.
    """
    y = np.asarray(samples, dtype=complex)
    n = np.arange(y.shape[-1])
    nu = np.asarray(nu, dtype=float)
    phase = np.exp(-2j * np.pi * (nu[..., None] * n))
    out = np.abs(np.sum(y * phase, axis=-1)) ** 2 / y.shape[-1]
    return out if out.ndim else float(out)


def empirical_correlation(samples) -> np.ndarray:
    """Biased lag estimates c(k) = (1/N) sum_m y(m+k) conj(y(m)), k = 0..N-1.

    Records run along the last axis, and the lags replace it.  The biased
    normalization makes sum_{|k|<N} c(k) e^{-2j pi nu k} equal the
    periodogram exactly (negative lags by conjugate symmetry).
    """
    y = np.asarray(samples, dtype=complex)
    n = y.shape[-1]
    lags = [np.sum(y[..., k:] * np.conj(y[..., : n - k]), axis=-1) for k in range(n)]
    return np.stack(lags, axis=-1) / n


def periodogram_deriv_many(samples2d, nus) -> tuple[np.ndarray, np.ndarray]:
    """First and second periodogram derivatives per bin: row t at nus[t]."""
    c = empirical_correlation(samples2d)
    n = c.shape[1]
    lags = np.concatenate([np.conj(c[:, :0:-1]), c], axis=1)
    ks = np.arange(1 - n, n)
    phase = np.exp(-2j * np.pi * np.outer(np.asarray(nus, dtype=float), ks))
    first = np.real(np.sum(-2j * np.pi * ks * lags * phase, axis=1))
    second = np.real(np.sum(-4 * np.pi**2 * ks**2 * lags * phase, axis=1))
    return first, second


def periodogram_table(samples2d, nus) -> np.ndarray:
    """(T, P) table of per-bin periodograms over the frequencies nus.

    The same values as periodogram(samples2d[:, None, :], nus), as one
    matmul per block of rows that never allocates the (T, P, N) phase
    products.  Each block's magnitudes go straight into the float result,
    which is then squared and divided by N in place: the same per-element
    operations, and so the same bits, as np.abs(samples2d @ phase) ** 2 / N,
    with no (T, P) complex table.
    """
    samples2d = np.asarray(samples2d, dtype=complex)
    n = samples2d.shape[1]
    phase = np.exp(-2j * np.pi * np.outer(np.arange(n), np.asarray(nus, dtype=float)))
    out = np.empty((samples2d.shape[0], phase.shape[1]))
    step = max(1, _BLOCK_ENTRIES // max(1, phase.shape[1]))
    for start in range(0, out.shape[0], step):
        rows = slice(start, start + step)
        np.abs(samples2d[rows] @ phase, out=out[rows])
    out **= 2
    out /= n
    return out
