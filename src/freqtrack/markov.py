"""Discrete frequency grid, Gaussian-kernel transitions, initial law."""

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
    T[q, p] = kernel[|p - q|] / norm[q], row index the source state q."""

    kernel: np.ndarray  # (P,): exp(-(k h)^2 / 2 r_nu) at lag k; kernel[0] = 1
    norm: np.ndarray    # (P,): row sums of the kernel, each at least 1

    @cached_property
    def taps(self) -> np.ndarray:
        """(2P - 1,): the kernel at lags -(P - 1) ... P - 1, so that
        norm[q] * T[q] is taps[P - 1 - q : 2P - 1 - q]."""
        return np.concatenate([self.kernel[:0:-1], self.kernel])

    @cached_property
    def band(self) -> tuple[int, np.ndarray, float]:
        """(h, taps, k[h+1]): the 2h+1 kernel taps at lags -h ... h, h the last
        lag whose value exceeds KERNEL_CUTOFF, and the largest value cut.  As
        kernel[0] = 1 and the kernel does not increase, h = 0 exactly when
        kernel[1] <= KERNEL_CUTOFF.  When 2h+1 > P all 2P - 1 taps are kept,
        with h = P - 1 and bound 0."""
        size = self.kernel.size
        half = int(np.count_nonzero(self.kernel > KERNEL_CUTOFF)) - 1
        if 2 * half + 1 > size:
            return size - 1, self.taps, 0.0
        return half, self.taps[size - 1 - half:size + half], float(self.kernel[half + 1])


def gaussian_transition(grid: FrequencyGrid, r_nu: float) -> GaussianTransition:
    """Transition exp(-(nu^p - nu^q)^2 / 2 r_nu), normalized over destination
    states p, as P kernel values and P row normalizers.

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
    return GaussianTransition(kernel=kernel, norm=cum + cum[::-1] - kernel[0])


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
