"""Continuous refinement of a discrete track by Newton steps.

The tracking criterion is smooth away from the band constraint, with a
cheap gradient (periodogram derivatives) and a tridiagonal Hessian, so
Newton steps solve in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from freqtrack.likelihood import in_initial_band, map_objective, smoothing_weight
from freqtrack.signal import DataSet, Hyperparameters
from freqtrack.spectral import periodogram_deriv_many

# refine_map stops after MAX_ITER iterations or once every component of
# the gradient is below GRAD_TOL in magnitude.
MAX_ITER = 100
GRAD_TOL = 1e-8


def objective_gradient(dataset: DataSet, track, hyper: Hyperparameters) -> np.ndarray:
    """Gradient of the tracking criterion: -P'_t plus the difference-penalty term."""
    track = np.asarray(track, dtype=float)
    if not in_initial_band(track[0]):
        raise ValueError("first frequency outside the initial band: criterion is infinite")
    lam = smoothing_weight(hyper, dataset.n_samples)
    first, _ = periodogram_deriv_many(dataset.samples, track)
    diffs = np.diff(track)
    pen = np.zeros_like(track)
    pen[1:] += 2.0 * diffs
    pen[:-1] -= 2.0 * diffs
    return -first + lam * pen


def _hessian_bands(dataset: DataSet, track, hyper: Hyperparameters) -> np.ndarray:
    """Upper banded (2, T) storage of diag(-P'') + 2 lam * second-difference matrix."""
    track = np.asarray(track, dtype=float)
    lam = smoothing_weight(hyper, dataset.n_samples)
    _, second = periodogram_deriv_many(dataset.samples, track)
    n = track.size
    diag = -second + 2.0 * lam * np.full(n, 2.0)
    if n >= 1:
        diag[0] -= 2.0 * lam
        diag[-1] -= 2.0 * lam
    bands = np.zeros((2, n))
    bands[1] = diag
    bands[0, 1:] = -2.0 * lam
    return bands


@dataclass
class RefinementResult:
    track: np.ndarray
    objective_trace: list
    iterations: int
    stop_reason: str  # "gradient", "no_decrease" or "max_iter"


def refine_map(dataset: DataSet, init_track, hyper: Hyperparameters) -> RefinementResult:
    """Locally minimize the tracking criterion from a feasible starting track.

    Newton solves the tridiagonal system directly, with step halving and a
    gradient fallback whenever the system is indefinite or the step fails
    to decrease the criterion.  Steps that push the first frequency out of
    the band are rejected by the same decrease test (infinite criterion).
    """
    track = np.asarray(init_track, dtype=float).copy()
    value = map_objective(dataset, track, hyper)
    if not np.isfinite(value):
        raise ValueError("infeasible starting track")
    trace = [value]
    stop_reason = "max_iter"
    iterations = 0

    def objective(candidate):
        return map_objective(dataset, candidate, hyper)

    for iterations in range(1, MAX_ITER + 1):
        grad = objective_gradient(dataset, track, hyper)
        if np.max(np.abs(grad)) < GRAD_TOL:
            stop_reason = "gradient"
            iterations -= 1
            break
        bands = _hessian_bands(dataset, track, hyper)
        if track.size == 1:
            step = -grad / bands[1] if bands[1, 0] > 0 else None
        else:
            try:
                step = scipy.linalg.solveh_banded(bands, -grad)
            except scipy.linalg.LinAlgError:
                step = None
        if step is not None and float(step @ grad) >= 0.0:
            step = None
        # A Newton step whose predicted decrease -g.step/2 is below the
        # rounding level of the criterion is taken in full: the decrease
        # test would only compare rounding noise.
        rounding = 16 * np.finfo(float).eps * max(1.0, abs(value))
        below_rounding = step is not None and -0.5 * float(grad @ step) < rounding
        if step is None:
            step = -grad / max(np.max(np.abs(grad)), 1.0)
        scale = 1.0
        new_value = objective(track + scale * step)
        below_rounding = below_rounding and np.isfinite(new_value)
        while not below_rounding and new_value >= value and scale > 1e-14:
            scale *= 0.5
            new_value = objective(track + scale * step)
        if not below_rounding and new_value >= value:
            stop_reason = "no_decrease"
            iterations -= 1
            break
        track = track + scale * step
        value = new_value
        trace.append(value)

    return RefinementResult(track=track, objective_trace=trace, iterations=iterations,
                            stop_reason=stop_reason)
