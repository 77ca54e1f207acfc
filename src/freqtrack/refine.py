"""Continuous refinement of a discrete track by Newton steps.

The tracking criterion is smooth away from the band constraint, with a
cheap gradient (periodogram derivatives) and a tridiagonal Hessian, so
Newton steps solve in linear time.  Refinement stops on the Newton
decrement (Boyd & Vandenberghe 2004, sec. 9.5.1), in any amplitude unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from freqtrack.likelihood import (backtrack, in_initial_band, map_objective, rounding_level,
                                  smoothing_weight)
from freqtrack.signal import DataSet, Hyperparameters
from freqtrack.spectral import periodogram_deriv_many

MAX_ITER = 100


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
    stop_reason: str  # "converged", "no_decrease" or "max_iter"

    @property
    def iterations(self) -> int:
        """Accepted steps."""
        return len(self.objective_trace) - 1


def refine_map(dataset: DataSet, init_track, hyper: Hyperparameters) -> RefinementResult:
    """Locally minimize the tracking criterion from a feasible starting track.

    Each iteration solves the tridiagonal Newton system in O(T), taking the
    step -g / max|g| where it is indefinite or its step does not descend.
    A zero gradient, or a Newton step whose predicted decrease -g.s/2 is
    within the criterion's rounding level (taken in full unless it leaves
    the band), stops as "converged".  Any other step goes through the fit's
    backtracking (likelihood.backtrack), which rejects a step out of the
    band (infinite criterion); where it finds none, "no_decrease".  It stops
    as "max_iter" after MAX_ITER iterations.  A non-finite system raises ValueError.
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
        if not grad.any():
            stop_reason = "converged"
            break
        step = _solve_tridiagonal(diag, off, -grad)
        slope = np.inf if step is None else float(grad @ step)
        if not slope < 0.0:
            step = -grad / np.max(np.abs(grad))
            slope = float(grad @ step)
        elif -0.5 * slope <= rounding_level(value):
            new_value = map_objective(dataset, track + step, hyper)
            if np.isfinite(new_value):
                track, value = track + step, new_value
                trace.append(value)
            stop_reason = "converged"
            break
        found = backtrack(lambda s: map_objective(dataset, track + s * step, hyper), value, slope)
        if found is None:
            stop_reason = "no_decrease"
            break
        s, value = found
        track = track + s * step
        trace.append(value)

    return RefinementResult(track=track, objective_trace=trace, stop_reason=stop_reason)
