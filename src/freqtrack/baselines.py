"""Per-bin reference estimators: aliased periodogram argmax and its unwrap."""

from __future__ import annotations

import numpy as np

from freqtrack.signal import DataSet
from freqtrack.spectral import periodogram_deriv_many, periodogram_table, row_blocks


def decimal_part(x):
    """Wrap to [-0.5, +0.5); 1-periodic, with decimal_part(0.5) == -0.5."""
    x = np.asarray(x, dtype=float)
    out = x - np.floor(x + 0.5)
    return out if out.ndim else float(out)


def wrap_to_band(x):
    """Wrap to (-0.5, +0.5]."""
    out = np.asarray(-decimal_part(-np.asarray(x, dtype=float)))
    return out if out.ndim else float(out)


# Frequencies searched per cycle by the argmax estimator before its Newton polish.
ARGMAX_GRID_SIZE = 1024


def ml_periodogram_argmax(dataset: DataSet) -> np.ndarray:
    """Per-bin periodogram maximizer over (-0.5, 0.5], independently per bin.

    An argmax over ARGMAX_GRID_SIZE frequencies is followed by one Newton
    polish step when the local curvature allows it.  The periodograms are
    computed in row blocks (spectral.row_blocks) and only each bin's peak is
    kept, so memory is one block, not a (T, ARGMAX_GRID_SIZE) table.
    """
    nus = -0.5 + np.arange(1, ARGMAX_GRID_SIZE + 1) / ARGMAX_GRID_SIZE
    peaks = np.concatenate([nus[np.argmax(periodogram_table(dataset.lags[rows], nus), axis=1)]
                            for rows in row_blocks(dataset.n_bins)])
    first, second = periodogram_deriv_many(dataset.lags, peaks)
    spacing = 1.0 / ARGMAX_GRID_SIZE
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(second < 0, -first / second, 0.0)
    step = np.where(np.abs(step) <= spacing, step, 0.0)
    return wrap_to_band(peaks + step)


def unwrap_track(track) -> np.ndarray:
    """Classical unwrap: shift each frequency by an integer so successive
    differences stay within half a cycle.

    The first frequency is kept.  Each output frequency differs from the
    input by an integer, so all per-bin periodograms are preserved; the
    smoothness penalty can only shrink, strictly so whenever the input
    violates the half-step bound.

    Closed form: out[t] = track[t] - sum over s < t of
    steps[s] - decimal_part(steps[s]), steps = np.diff(track).  Each term is
    floor(steps[s] + 0.5) exactly (both subtractions are exact by Sterbenz),
    so the sum is an exact integer and each entry is rounded once, with no
    error carried from bin to bin.  A non-finite step makes that entry and
    every later one NaN, without a warning.
    """
    out = np.array(track, dtype=float)
    with np.errstate(invalid="ignore"):  # a non-finite step gives inf - inf = NaN
        steps = np.diff(out)
        out[1:] -= np.cumsum(steps - decimal_part(steps))
    return out
