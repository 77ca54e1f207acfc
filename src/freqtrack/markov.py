"""Discrete frequency grid, Gaussian-kernel transitions, initial law."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz


@dataclass(frozen=True)
class FrequencyGrid:
    """P equally spaced frequency states on the closed interval [nu_min, nu_max]."""

    nu_min: float
    nu_max: float
    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("grid needs at least 2 states")
        if not self.nu_min < self.nu_max:
            raise ValueError(f"degenerate range [{self.nu_min}, {self.nu_max}]")

    @cached_property
    def states(self) -> np.ndarray:
        states = np.linspace(self.nu_min, self.nu_max, self.size)
        states.flags.writeable = False
        return states

    @property
    def spacing(self) -> float:
        return (self.nu_max - self.nu_min) / (self.size - 1)


def make_grid(nu_min: float, nu_max: float, size: int) -> FrequencyGrid:
    return FrequencyGrid(nu_min, nu_max, size)


def transition_matrix(grid: FrequencyGrid, r_nu: float) -> np.ndarray:
    """Row-stochastic matrix exp(-(nu^p - nu^q)^2 / 2 r_nu), normalized over
    destination states p.  Row index is the source state q.

    The grid is uniform, so the kernel depends only on k = |p - q|: its P
    values exp(-(k h)^2 / 2 r_nu) fill a symmetric Toeplitz matrix, and
    row q sums to cum[q] + cum[P-1-q] - kernel[0] with cum the running sum
    of the kernel.  The diagonal entry is exactly 1, so every row sum is at
    least 1 and no row underflows to zero.
    """
    if r_nu <= 0:
        raise ValueError("r_nu must be positive")
    kernel = np.exp(-((np.arange(grid.size) * grid.spacing) ** 2) / (2.0 * r_nu))
    cum = np.cumsum(kernel)
    return toeplitz(kernel) / (cum + cum[::-1] - kernel[0])[:, None]


def initial_distribution(grid: FrequencyGrid, band_width: int = 1) -> np.ndarray:
    """Uniform mass on grid states inside (-K/2, +K/2], zero elsewhere."""
    half = band_width / 2.0
    mask = (grid.states > -half) & (grid.states <= half)
    if not mask.any():
        raise ValueError("no grid state falls inside the initial band")
    return mask / mask.sum()
