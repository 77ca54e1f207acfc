"""Continuous refinement of a discrete track by Newton steps.

The tracking criterion is smooth, with a cheap gradient (periodogram
derivatives) and a tridiagonal Hessian, so Newton steps solve in linear
time.  Refinement stops on the Newton decrement (Boyd & Vandenberghe 2004,
sec. 9.5.1), in any amplitude unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from freqtrack.likelihood import backtrack, map_objective, rounding_level, smoothing_weight
from freqtrack.signal import DataSet, Hyperparameters
from freqtrack.spectral import periodogram_deriv_many

MAX_ITER = 100


def objective_gradient(dataset: DataSet, track,
                       hyper: Hyperparameters) -> tuple[np.ndarray, np.ndarray]:
    """Newton system of the tracking criterion from one derivative evaluation:
    the gradient, -P'_t plus the difference-penalty term, and the Hessian's
    diagonal, lam times the stencil [2, 4, ..., 4, 2] ([0] for one bin) minus
    P''_t.  The off-diagonal is the constant -2 lam."""
    track = np.asarray(track, dtype=float)
    lam = smoothing_weight(hyper, dataset.n_samples)
    first, second = periodogram_deriv_many(dataset.lags, track)
    diffs = np.diff(track)
    pen = np.zeros_like(track)
    pen[1:] += 2.0 * diffs
    pen[:-1] -= 2.0 * diffs
    stencil = 4.0 - 2.0 * np.bincount([0, track.size - 1], minlength=track.size)
    return -first + lam * pen, lam * stencil - second


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs by an LDL^T sweep in O(T), M the symmetric tridiagonal
    H with diagonal diag and off-diagonal off (one shorter) or, where H is
    not positive definite, its modified LDL^T (Gill & Murray 1974): a pivot
    not > 0 becomes max(|pivot|, delta), delta = sqrt(eps) times the largest
    |entry| of diag, off and rhs, at least the smallest normal float.  So x
    descends along rhs = -g; where H is 0, x = 2^26 rhs / max|rhs|.  Raises
    ValueError on a non-finite entry.  The sweep runs on Python floats: per
    element they are cheaper than numpy scalars.
    """
    if not (np.isfinite(diag).all() and np.isfinite(off).all() and np.isfinite(rhs).all()):
        raise ValueError("non-finite entry in the Newton system")
    scale = max(np.abs(diag).max(), np.abs(off).max(initial=0.0), np.abs(rhs).max())
    delta = float(max(np.finfo(float).eps ** 0.5 * scale, np.finfo(float).tiny))
    diag, off, rhs = diag.tolist(), off.tolist(), rhs.tolist()
    # forward: M = L D L^T with unit lower bidiagonal L (ratios below the
    # diagonal, a zero one before the first row) and D = diag(pivots); ys = L^-1 rhs
    pivots, ratios, ys = [], [], []
    pivot = y = 1.0
    for e, d, b in zip([0.0, *off], diag, rhs):
        ratio = e / pivot
        pivot = d - ratio * e
        if not pivot > 0.0:
            pivot = max(-pivot, delta)
        y = b - ratio * y
        pivots.append(pivot)
        ratios.append(ratio)
        ys.append(y)
    # backward: x = L^-T D^-1 ys
    x = y / pivot
    xs = [x]
    for y, pivot, ratio in zip(ys[-2::-1], pivots[-2::-1], ratios[:0:-1]):
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
    """Locally minimize the tracking criterion from a finite starting track.

    Each iteration solves the tridiagonal Newton system, modified where it
    is indefinite, in O(T), and scales the step to move no bin by more than
    1/(2N), half an N-sample record's main lobe: a small modified pivot
    near an inflection can carry a bin off its peak into a lower basin.
    A zero gradient, or a step whose predicted decrease -g.s/2 is within
    the criterion's rounding level (taken in full), stops as "converged"; a
    step that rounding keeps from descending, or that the fit's
    backtracking (likelihood.backtrack) finds no decrease along, as
    "no_decrease"; MAX_ITER iterations as "max_iter".  The criterion is
    equal on every integer shift of a track, so the result is shifted once,
    by an integer, to put its first frequency in the start band
    (-1/2, +1/2].  A non-finite system raises ValueError.
    """
    track = np.asarray(init_track, dtype=float)
    value = map_objective(dataset, track, hyper)
    if not np.isfinite(value):
        raise ValueError("infeasible starting track")
    trace = [value]
    stop_reason = "max_iter"
    off = np.full(track.size - 1, -2.0 * smoothing_weight(hyper, dataset.n_samples))
    cap = 0.5 / dataset.n_samples

    for _ in range(MAX_ITER):
        grad, diag = objective_gradient(dataset, track, hyper)
        if not grad.any():
            stop_reason = "converged"
            break
        step = _solve_tridiagonal(diag, off, -grad)
        step *= cap / max(np.abs(step).max(), cap)  # exactly 1.0 unless a bin moves beyond cap
        slope = float(grad @ step)
        if not slope < 0.0:
            stop_reason = "no_decrease"
            break
        if -0.5 * slope <= rounding_level(value):
            track = track + step
            value = map_objective(dataset, track, hyper)
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

    track = track + np.floor(0.5 - track[0])
    return RefinementResult(track=track, objective_trace=trace, stop_reason=stop_reason)
