"""Discrete frequency grid, the Gaussian-kernel transition (the one code
that cuts its kernel and applies it), initial law."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from freqtrack.likelihood import in_initial_band

# Kernel values at or below u^2 = 2^-106 (u = 2^-53) are cut from the
# transition's band: next to the diagonal entry 1 they lie below the
# rounding of its rounding error.
KERNEL_CUTOFF = 2.0**-106
# _lag_moment's Toeplitz block holds at most this many floats (128 KiB).
_MOMENT_BLOCK = 2**14


@dataclass(frozen=True)
class FrequencyGrid:
    """P equally spaced frequency states on the closed interval [nu_min, nu_max]."""

    nu_min: float
    nu_max: float
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("grid needs at least 2 states")
        if not np.isfinite([self.nu_min, self.nu_max]).all():
            raise ValueError(f"range [{self.nu_min}, {self.nu_max}] is not finite")
        if not self.nu_min < self.nu_max:
            raise ValueError(f"degenerate range [{self.nu_min}, {self.nu_max}]")
        with np.errstate(over="ignore"):  # numpy float bounds would warn
            if not np.isfinite(self.spacing):
                raise ValueError(f"the spacing of [{self.nu_min}, {self.nu_max}] overflows")

    @cached_property
    def states(self) -> np.ndarray:
        states = np.linspace(self.nu_min, self.nu_max, self.size)
        states.flags.writeable = False
        return states

    @property
    def spacing(self) -> float:
        return (self.nu_max - self.nu_min) / (self.size - 1)

    def resolution(self, r_nu: float) -> float:
        """The spacing in units of the chain's step deviation sqrt(r_nu)."""
        return self.spacing / float(np.sqrt(r_nu))


@dataclass(frozen=True)
class GaussianTransition:
    """The Gaussian-kernel transition of a uniform grid in factored form,
    T[q, p] = kernel[|p - q|] / norm[q], row index the source state q: the
    one code that cuts its kernel and applies it.

    The band keeps lags up to h = half_width, the last whose value exceeds
    KERNEL_CUTOFF, and drops at most cut = k[h+1]; as kernel[0] = 1 and the
    kernel does not increase, h = 0 exactly when kernel[1] <= KERNEL_CUTOFF.
    Where 2h+1 taps would outnumber the P states all 2P - 1 are kept, with
    h = P - 1 and cut 0.  Each use of the band bounds from cut how far the
    dropped lags could move its result and redoes it with all 2P - 1 taps
    where that is not within eps: O(P h) per row, O(P^2) at worst.
    """

    kernel: np.ndarray  # (P,): exp(-(k h)^2 / 2 r_nu) at lag k; kernel[0] = 1
    norm: np.ndarray    # (P,): row sums of the kernel, each at least 1
    spacing: float
    r_nu: float

    @cached_property
    def taps(self) -> np.ndarray:
        """(2P - 1,): the kernel at lags -(P - 1) ... P - 1, so that
        norm[q] * T[q] is taps[P - 1 - q : 2P - 1 - q]."""
        return np.concatenate([self.kernel[:0:-1], self.kernel])

    @cached_property
    def half_width(self) -> int:
        half = int(np.count_nonzero(self.kernel > KERNEL_CUTOFF)) - 1
        return half if 2 * half + 1 <= self.kernel.size else self.kernel.size - 1

    @cached_property
    def cut(self) -> float:
        half = self.half_width
        return float(self.kernel[half + 1]) if half < self.kernel.size - 1 else 0.0

    @cached_property
    def _band_taps(self) -> np.ndarray:  # the kernel at lags -h ... h, a view of taps
        size, half = self.kernel.size, self.half_width
        return self.taps[size - 1 - half:size + half]

    def spread(self, values: np.ndarray, all_taps: bool = False) -> np.ndarray:
        """out[p] = sum_j values[p + j] k[|j|] over lags |j| <= h, or every lag
        when all_taps, off-grid values zero: spread(f / norm) is f @ T and
        spread(v) / norm is T @ v, less the terms of the dropped lags."""
        taps = self.taps if all_taps else self._band_taps
        return np.correlate(values, taps, "same" if taps.size <= values.size else "valid")

    def r_nu_score(self, head: np.ndarray, weighted: np.ndarray, visits: np.ndarray) -> float:
        """(sum_j k[|j|] (j spacing)^2 c[j] - e @ visits) / (2 r_nu), the
        transition's term of the EM-identity gradient in log r_nu, from the
        (T - 1, P) tables whose products head[t, q] k[|p - q|] weighted[t, p]
        are the pair marginals and their sums visits over t and p, with
        c[j] = sum_{t,q} head[t, q] weighted[t, q + j] the lag sums.  The
        first sum is _lag_moment's, over lags |j| <= h, O(T P h), a sum of
        nonnegative terms within gamma_n, n = 2h + 1 + (T - 1) P, of exact;
        e[q] = sum_p T[q, p] ((p - q) spacing)^2, the prior mean squared step
        from q, is (cum[q] + cum[P-1-q]) / norm[q], cum the running sum of
        k[d] (d spacing)^2.

        Certificate.  Beyond lag h the kernel is below KERNEL_CUTOFF, past the
        peak of k[d] d^2 at d^2 spacing^2 = 2 r_nu, so the dropped lags add at
        most cut ((h+1) spacing)^2 sum_t (sum head[t]) (sum weighted[t]) to the
        first sum; where that is not within eps of it (NaN fails) it is
        recomputed with all 2P - 1 taps.
        """
        spacing, n_states = self.spacing, self.kernel.size

        def moment(half):
            return _lag_moment(head, weighted,
                               self.kernel[:half + 1] * (np.arange(half + 1) * spacing) ** 2)

        step = moment(self.half_width)
        dropped = (self.cut * ((self.half_width + 1) * spacing) ** 2
                   * float(head.sum(axis=1) @ weighted.sum(axis=1)))
        if not dropped <= np.finfo(float).eps * step:  # NaN fails
            step = moment(n_states - 1)
        cum = np.cumsum(self.kernel * (np.arange(n_states) * spacing) ** 2)
        expected = (cum + cum[::-1]) / self.norm
        return (step - float(expected @ visits)) / (2.0 * self.r_nu)


def _lag_moment(head: np.ndarray, weighted: np.ndarray, weights: np.ndarray) -> float:
    """sum over t and |p - q| <= h of head[t, q] weights[|p - q|] weighted[t, p],
    h = weights.size - 1: vdot(head, weighted @ K) with K[p, q] the weight of
    lag |p - q| within h, else 0, taken in column blocks of W states.

    One contiguous (W + 2h, W) Toeplitz block is built per call, row i and
    column j holding the weight of lag |i - h - j|, W the widest power of
    two whose block holds at most _MOMENT_BLOCK floats (1 where none does).
    Columns q0 ... q0 + W - 1 of weighted @ K read only the source states
    within h of them, clamped to the grid, so each column block is one BLAS
    product of a window of weighted by a row slice of the block, read in
    place: no zero padding, and all taps (h = P - 1) is the same code.
    O(T P h) time, O(T W) memory beyond the block.

    Bound.  Every term is a product of nonnegative floats, so there is no
    cancellation: in whatever order the products and the blocks sum them,
    the result is within gamma_n = n u / (1 - n u) of the exact sum of the
    terms, relative, n = 2h + 1 + (T - 1) P and u = eps / 2 (Higham 2002,
    sections 3.1 and 4.2); the error of blocked and pairwise sums grows far
    more slowly than this worst case.
    """
    half = weights.size - 1
    n_states = weighted.shape[1]
    width = 1
    while (2 * width + 2 * half) * 2 * width <= _MOMENT_BLOCK:
        width *= 2
    # the weights at lags -(W - 1 + h) ... W - 1 + h, 0 beyond h
    taps = np.zeros(2 * (width + half) - 1)
    taps[width - 1:width + 2 * half] = np.concatenate([weights[:0:-1], weights])
    block = sliding_window_view(taps, width)[:, ::-1].copy()
    total = 0.0
    for start in range(0, n_states, width):
        stop = min(start + width, n_states)
        low, high = max(start - half, 0), min(stop + half, n_states)
        product = weighted[:, low:high] @ block[low - start + half:high - start + half,
                                                :stop - start]
        product *= head[:, start:stop]
        total += float(product.sum())
    return total


def gaussian_transition(grid: FrequencyGrid, r_nu: float) -> GaussianTransition:
    """Transition exp(-(nu^p - nu^q)^2 / 2 r_nu), normalized over destination
    states p, as P kernel values and P row normalizers, with spacing and r_nu.

    The grid is uniform, so the kernel depends only on k = |p - q|, and
    row q sums to cum[q] + cum[P-1-q] - kernel[0] with cum the running sum
    of the kernel.  The diagonal entry is exactly 1, so every row sum is at
    least 1 and no row underflows to zero.
    """
    if r_nu <= 0:
        raise ValueError("r_nu must be positive")
    with np.errstate(over="ignore"):  # a tiny r_nu: exp(-inf) = 0 is the kernel's limit
        kernel = np.exp(-((np.arange(grid.size) * grid.spacing) ** 2) / (2.0 * r_nu))
    cum = np.cumsum(kernel)
    return GaussianTransition(kernel, cum + cum[::-1] - kernel[0], grid.spacing, r_nu)


def transition_matrix(grid: FrequencyGrid, r_nu: float) -> np.ndarray:
    """Dense row-stochastic (P, P) matrix of gaussian_transition(grid, r_nu)."""
    trans = gaussian_transition(grid, r_nu)
    # divides a zero-copy Toeplitz view of the taps, so one P x P array is built
    return sliding_window_view(trans.taps, grid.size)[::-1] / trans.norm[:, None]


def initial_distribution(grid: FrequencyGrid) -> np.ndarray:
    """Uniform mass on grid states inside (-1/2, +1/2], zero elsewhere."""
    mask = in_initial_band(grid.states)
    if not mask.any():
        raise ValueError("no grid state falls inside the initial band")
    return mask / mask.sum()
