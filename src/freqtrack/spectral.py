"""Periodogram of a short record and its derivatives, from its correlation lags.

P(nu) = (1/N) |sum_n y(n) e^{-2j pi nu n}|^2 is a real sum over the biased
lags c(k) (empirical_correlation), held by DataSet.lags and read by every
function here, and its derivatives are sums over the basis' derivatives:

    P(nu) = c(0) + sum_{k=1}^{N-1} (a_k cos 2 pi k nu + b_k sin 2 pi k nu),  a_k + j b_k = 2 c(k).

Rounding, to first order with u = eps / 2 and |c(k)| <= c(0): a lag is within
(N + 2) u c(0); a phase theta = 2 pi k nu within 2 u |theta|, its cosine and
sine within 2 u |theta| + 2 u; the 2N - 1 products and their sum add
(2N - 1) u times their magnitudes' total, at most 3 N c(0).  So the error is
at most 10 N^2 (1 + |nu|) eps c(0), absolute since P may be 0, and (2 pi N)^d
times that for the d-th derivative.  A value that rounds below 0 is returned
as 0 ([1, 1, 1, 1] sums to -3.6e-15 at nu = 3.75).
"""

from __future__ import annotations

import numpy as np


def empirical_correlation(samples) -> np.ndarray:
    """Biased lags c(k) = (1/N) sum_m y(m+k) conj(y(m)), k = 0..N-1, which
    replace the last axis (the records) of samples; c(-k) = conj(c(k))."""
    y = np.asarray(samples, dtype=complex)
    n = y.shape[-1]
    lags = [np.sum(y[..., k:] * np.conj(y[..., : n - k]), axis=-1) for k in range(n)]
    return np.stack(lags, axis=-1) / n


def _terms(lags, nu):
    """a_k, b_k, cos and sin of 2 pi k nu (k = 1..N-1, a new last axis of nu), 2 pi k."""
    c = np.asarray(lags)
    omega = 2 * np.pi * np.arange(1, c.shape[-1])
    theta = np.multiply.outer(np.asarray(nu, dtype=float), omega)
    return 2 * c[..., 1:].real, 2 * c[..., 1:].imag, np.cos(theta), np.sin(theta), omega


def periodogram(lags, nu):
    """P(nu) >= 0 of one record at an array of frequencies, or of row t of (T, N)
    lags at nu[t]: lags run along the last axis and broadcast against nu.
    The result has the broadcast shape, a float when it is scalar."""
    a, b, cos, sin, _ = _terms(lags, nu)
    out = np.maximum(np.asarray(lags)[..., 0].real + np.sum(a * cos + b * sin, axis=-1), 0.0)
    return out if out.ndim else float(out)


def periodogram_deriv_many(lags, nus) -> tuple[np.ndarray, np.ndarray]:
    """First and second periodogram derivatives per bin: row t of the (T, N)
    lags at nus[t]."""
    a, b, cos, sin, omega = _terms(lags, nus)
    return (np.sum(omega * (b * cos - a * sin), axis=-1),
            -np.sum(omega**2 * (a * cos + b * sin), axis=-1))


def periodogram_table(lags, nus, out: np.ndarray | None = None) -> np.ndarray:
    """(T, P) periodograms of the (T, N) lags over the frequencies nus: per
    block of rows of row_blocks(T), one real (rows, 2N-1) @ (2N-1, P)
    product of the coefficients [c(0), a_k, b_k] with the basis
    [1, cos, sin], clamped at 0 in place.  The blocks are written into
    out, a (T, P) float array, where one is given, and otherwise into the
    only (T, P) array allocated; either way the result is returned.  So a
    T-row table is the same BLAS calls, and the same bits, whoever asks
    for it and wherever it is written, and holds one block's temporaries."""
    lags = np.asarray(lags)
    if out is None:
        out = np.empty((lags.shape[0], np.size(nus)))
    for rows in row_blocks(lags.shape[0]):
        a, b, cos, sin, _ = _terms(lags[rows], nus)
        coefficients = np.concatenate([lags[rows, :1].real, a, b], axis=1)
        basis = np.concatenate([np.ones((1, cos.shape[0])), cos.T, sin.T])
        block = np.matmul(coefficients, basis, out=out[rows])
        np.maximum(block, 0.0, out=block)
    return out


# Rows per block of periodogram_table, and per periodogram_table call of
# the argmax baseline, which keeps only each row's peak: a block bounds the
# memory a pass over a long table holds besides its result.  No block is
# shorter than ROW_BLOCK rows unless the table is, so every block is a
# matrix-matrix product, never a one-row matrix-vector one, which BLAS
# kernels round differently, and a table of fewer than 2 ROW_BLOCK rows,
# as a fit's at T=128, is one product.
ROW_BLOCK = 256


def row_blocks(n_rows: int) -> list[slice]:
    """Consecutive slices covering range(n_rows), ROW_BLOCK rows each but the
    last, which runs to n_rows: one slice where n_rows < 2 * ROW_BLOCK, and
    never one shorter than ROW_BLOCK where n_rows exceeds it."""
    starts = range(0, max(n_rows - ROW_BLOCK, 0) + 1, ROW_BLOCK)
    return [slice(start, start + ROW_BLOCK) for start in starts[:-1]] + [slice(starts[-1], n_rows)]
