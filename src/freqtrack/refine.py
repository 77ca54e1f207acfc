"""Continuous refinement of a discrete track by Newton steps.

The tracking criterion is smooth away from the band constraint, with a
cheap gradient (periodogram derivatives) and a tridiagonal Hessian, so
Newton steps solve in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from freqtrack.likelihood import (in_initial_band, lowers, map_objective, rounding_level,
                                  smoothing_weight)
from freqtrack.signal import DataSet, Hyperparameters
from freqtrack.spectral import periodogram_deriv_many

# refine_map stops after MAX_ITER iterations or once every component of
# the gradient is below GRAD_TOL in magnitude.
MAX_ITER = 100
GRAD_TOL = 1e-8


def objective_gradient(dataset: DataSet, track,
                       hyper: Hyperparameters) -> tuple[np.ndarray, np.ndarray]:
    """Newton system of the tracking criterion from one derivative evaluation:
    the gradient, -P'_t plus the difference-penalty term, and the Hessian's
    diagonal, -P''_t plus 4 lam (2 lam at either end).  The off-diagonal is
    the constant -2 lam."""
    track = np.asarray(track, dtype=float)
    if not in_initial_band(track[0]):
        raise ValueError("first frequency outside the initial band: criterion is infinite")
    lam = smoothing_weight(hyper, dataset.n_samples)
    first, second = periodogram_deriv_many(dataset.lags, track)
    diffs = np.diff(track)
    pen = np.zeros_like(track)
    pen[1:] += 2.0 * diffs
    pen[:-1] -= 2.0 * diffs
    diag = -second + 4.0 * lam
    diag[0] -= 2.0 * lam
    diag[-1] -= 2.0 * lam
    return -first + lam * pen, diag


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve H x = rhs for the symmetric tridiagonal H with diagonal diag and
    off-diagonal off (one shorter), by an LDL^T sweep in O(T).

    Returns None when H is not positive definite (a pivot not > 0), and
    raises ValueError on a non-finite entry, so a NaN system never yields a
    step.  The sweep runs on Python floats: per element they are cheaper
    than numpy scalars.
    """
    if not (np.isfinite(diag).all() and np.isfinite(off).all() and np.isfinite(rhs).all()):
        raise ValueError("non-finite entry in the Newton system")
    diag, off, rhs = diag.tolist(), off.tolist(), rhs.tolist()
    # forward: H = L D L^T with unit lower bidiagonal L (ratios below the
    # diagonal) and D = diag(pivots); ys = L^-1 rhs
    pivot, y = diag[0], rhs[0]
    if not pivot > 0.0:
        return None
    pivots, ratios, ys = [pivot], [], [y]
    for e, d, b in zip(off, diag[1:], rhs[1:]):
        ratio = e / pivot
        pivot = d - ratio * e
        if not pivot > 0.0:
            return None
        y = b - ratio * y
        pivots.append(pivot)
        ratios.append(ratio)
        ys.append(y)
    # backward: x = L^-T D^-1 ys
    x = y / pivot
    xs = [x]
    for y, pivot, ratio in zip(ys[-2::-1], pivots[-2::-1], ratios[::-1]):
        x = y / pivot - ratio * x
        xs.append(x)
    return np.array(xs[::-1])


@dataclass
class RefinementResult:
    track: np.ndarray
    objective_trace: list
    stop_reason: str  # "gradient", "no_decrease" or "max_iter"

    @property
    def iterations(self) -> int:
        """Accepted Newton steps."""
        return len(self.objective_trace) - 1


def refine_map(dataset: DataSet, init_track, hyper: Hyperparameters) -> RefinementResult:
    """Locally minimize the tracking criterion from a feasible starting track.

    Each Newton step solves the tridiagonal system in O(T), with step
    halving and a gradient fallback whenever the system is indefinite or the
    step does not lower the criterion beyond its rounding level (lowers); a
    non-finite system raises ValueError.  Steps that push the first
    frequency out of the band are rejected by the same test (infinite
    criterion).
    """
    track = np.asarray(init_track, dtype=float).copy()
    value = map_objective(dataset, track, hyper)
    if not np.isfinite(value):
        raise ValueError("infeasible starting track")
    trace = [value]
    stop_reason = "max_iter"
    off = np.full(track.size - 1, -2.0 * smoothing_weight(hyper, dataset.n_samples))

    for _ in range(MAX_ITER):
        grad, diag = objective_gradient(dataset, track, hyper)
        if np.max(np.abs(grad)) < GRAD_TOL:
            stop_reason = "gradient"
            break
        step = _solve_tridiagonal(diag, off, -grad)
        if step is not None and float(step @ grad) >= 0.0:
            step = None
        # A Newton step whose predicted decrease -g.step/2 is below the
        # rounding level of the criterion is taken in full; any other step
        # must lower the criterion by more than that level.
        below_rounding = step is not None and -0.5 * float(grad @ step) < rounding_level(value)
        if step is None:
            step = -grad / max(np.max(np.abs(grad)), 1.0)
        scale = 1.0
        new_value = map_objective(dataset, track + scale * step, hyper)
        below_rounding = below_rounding and np.isfinite(new_value)
        while not below_rounding and not lowers(value, new_value) and scale > 1e-14:
            scale *= 0.5
            new_value = map_objective(dataset, track + scale * step, hyper)
        if not below_rounding and not lowers(value, new_value):
            stop_reason = "no_decrease"
            break
        track = track + scale * step
        value = new_value
        trace.append(value)

    return RefinementResult(track=track, objective_trace=trace, stop_reason=stop_reason)
