"""Amplitude-marginalized likelihood, smoothness prior, and MAP criterion.

Marginalizing the Gaussian amplitude out of the per-bin likelihood leaves

    log f(y | nu) = log beta - gamma + alpha * P(nu)

with alpha = N r_a / (r_b (N r_a + r_b)), gamma = |y|^2 / r_b and P the
periodogram.  Summed over bins and combined with a Gauss-Markov prior on
frequency increments, the negative log posterior is a regularized least
squares criterion with weight lam = 1 / (2 alpha r_nu).  It is equal on
every integer shift of a track (1-periodic likelihood, increment-only
prior); the start band (-1/2, +1/2] of the first frequency picks the copy
that is reported.
"""

from __future__ import annotations

import numpy as np

from freqtrack.signal import DataSet, HyperparameterError, Hyperparameters
from freqtrack.spectral import periodogram


def alpha_coefficient(hyper: Hyperparameters, n_samples: int) -> float:
    """alpha = N r_a / (r_b (N r_a + r_b)).

    Raises ValueError naming r_a and r_b when alpha is not positive and
    finite: the denominator underflows to zero at r_a = r_b = 1e-170 and
    overflows at r_a = r_b = 1e155, where alpha = 0 would make every
    observation row constant.
    """
    n = n_samples
    denominator = hyper.r_b * (n * hyper.r_a + hyper.r_b)
    alpha = n * hyper.r_a / denominator if denominator > 0 else np.inf
    if not 0 < alpha < np.inf:
        raise HyperparameterError(f"hyperparameters r_a={hyper.r_a!r}, r_b={hyper.r_b!r} make "
                                  f"the likelihood coefficient alpha {alpha!r}, not positive "
                                  "and finite")
    return alpha


def log_beta_coefficient(hyper: Hyperparameters, n_samples: int) -> float:
    n = n_samples
    return -n * np.log(np.pi) + (1 - n) * np.log(hyper.r_b) - np.log(n * hyper.r_a + hyper.r_b)


def smoothing_weight(hyper: Hyperparameters, n_samples: int) -> float:
    """Regularization weight lam = 1 / (2 alpha r_nu).

    Raises ValueError naming the hyperparameters when lam is not positive
    and finite, as when 2 alpha r_nu underflows to zero.
    """
    denominator = 2.0 * alpha_coefficient(hyper, n_samples) * hyper.r_nu
    lam = 1.0 / denominator if denominator > 0 else np.inf
    if not 0 < lam < np.inf:
        raise HyperparameterError(f"hyperparameters r_a={hyper.r_a!r}, r_b={hyper.r_b!r}, "
                                  f"r_nu={hyper.r_nu!r} make the smoothing weight lam {lam!r}, "
                                  "not positive and finite")
    return lam


ARMIJO = 1e-4  # backtrack's sufficient-decrease constant


def rounding_level(value: float) -> float:
    """16 eps |value|: the fit and the track refinement take a decrease of a
    criterion at value below this level for noise, in any amplitude unit."""
    return 16 * np.finfo(float).eps * abs(value)


def lowers(before: float, after: float) -> bool:
    """Whether after is below before by more than before's rounding_level."""
    return before - after > rounding_level(before)


def backtrack(phi, f0: float, slope: float):
    """(s, phi(s)) for the first step s of 1, s_1, s_2 ... that passes Armijo's
    test phi(s) <= f0 + ARMIJO s slope, slope = phi'(0) < 0, and lowers phi
    below f0, or None once a step falls below 1e-14 or the parabola below
    has no positive curvature (Armijo's test held, but no decrease lowers).

    Each next step is the vertex of the parabola through phi(0) = f0,
    phi'(0) = slope and phi(s), clamped to [s / 10, s / 2] (Nocedal & Wright
    2006, sec. 3.5); where phi(s) is +inf the vertex is 0 and the step s / 10.
    """
    s = 1.0
    while s >= 1e-14:  # a NaN step ends the search too
        fs = phi(s)
        if fs <= f0 + ARMIJO * s * slope and lowers(f0, fs):
            return s, fs
        curvature = fs - f0 - slope * s
        if not curvature > 0.0:
            return None
        s = min(max(-slope * s * s / (2.0 * curvature), 0.1 * s), 0.5 * s)
    return None


def in_initial_band(nu):
    """Start band (-1/2, +1/2] of the first frequency, elementwise: of the
    integer shifts of a track it holds one, the copy Viterbi starts in and
    refine_map reports.  A band three periods wide moved the default
    simulation's refined MAP by one cycle on seeds 1 and 3."""
    return (nu > -0.5) & (nu <= 0.5)


def data_misfit(lags: np.ndarray, track) -> float:
    """Negative sum of per-bin periodograms along the track (SIP), from DataSet.lags."""
    track = np.asarray(track, dtype=float)
    if track.size != lags.shape[0]:
        raise ValueError(f"track length {track.size} != number of bins {lags.shape[0]}")
    return -float(np.sum(periodogram(lags, track)))


def map_objective(dataset: DataSet, track, hyper: Hyperparameters) -> float:
    """-sum_t P_t(nu_t) + lam sum_t (nu_{t+1}-nu_t)^2, equal on every integer
    shift of the track."""
    track = np.asarray(track, dtype=float)
    lam = smoothing_weight(hyper, dataset.n_samples)
    return data_misfit(dataset.lags, track) + lam * float(np.sum(np.diff(track) ** 2))
