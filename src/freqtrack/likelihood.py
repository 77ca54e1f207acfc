"""Amplitude-marginalized likelihood, smoothness prior, and MAP criterion.

Marginalizing the Gaussian amplitude out of the per-bin likelihood leaves

    log f(y | nu) = log beta - gamma + alpha * P(nu)

with alpha = N r_a / (r_b (N r_a + r_b)), gamma = |y|^2 / r_b and P the
periodogram.  Summed over bins and combined with a Gauss-Markov prior on
frequency increments, the negative log posterior is a regularized least
squares criterion with weight lam = 1 / (2 alpha r_nu), plus a band
constraint on the first frequency that pins down the global integer shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from freqtrack.signal import DataSet, Hyperparameters
from freqtrack.spectral import periodogram


def alpha_coefficient(hyper: Hyperparameters, n_samples: int) -> float:
    n = n_samples
    return n * hyper.r_a / (hyper.r_b * (n * hyper.r_a + hyper.r_b))


def log_beta_coefficient(hyper: Hyperparameters, n_samples: int) -> float:
    n = n_samples
    return -n * np.log(np.pi) + (1 - n) * np.log(hyper.r_b) - np.log(n * hyper.r_a + hyper.r_b)


def smoothing_weight(hyper: Hyperparameters, n_samples: int) -> float:
    """Regularization weight lam = 1 / (2 alpha r_nu)."""
    return 1.0 / (2.0 * alpha_coefficient(hyper, n_samples) * hyper.r_nu)


def in_initial_band(nu, band_width: int = 1):
    """First-frequency constraint set (-K/2, +K/2], left-open right-closed.

    Elementwise: a scalar gives a bool, an array a boolean mask.
    """
    half = band_width / 2.0
    return (nu > -half) & (nu <= half)


def data_misfit(samples: np.ndarray, track) -> float:
    """Negative sum of per-bin periodograms of the (T, N) samples along the track (SIP)."""
    track = np.asarray(track, dtype=float)
    if track.size != samples.shape[0]:
        raise ValueError(f"track length {track.size} != number of bins {samples.shape[0]}")
    return -float(np.sum(periodogram(samples, track)))


@dataclass(frozen=True)
class MapObjective:
    """Value of the regularized tracking criterion and its weight lam."""

    value: float
    weight: float


def map_objective(dataset: DataSet, track, hyper: Hyperparameters,
                  band_width: int = 1) -> MapObjective:
    """-sum_t P_t(nu_t) + lam sum_t (nu_{t+1}-nu_t)^2 (+inf outside band)."""
    track = np.asarray(track, dtype=float)
    lam = smoothing_weight(hyper, dataset.n_samples)
    if not in_initial_band(track[0], band_width):
        return MapObjective(value=np.inf, weight=lam)
    value = data_misfit(dataset.samples, track) + lam * float(np.sum(np.diff(track) ** 2))
    return MapObjective(value=value, weight=lam)
