"""Viterbi, scaled forward/backward recursions, and posterior marginals.

Observation rows live in the log domain and are max-shifted before
exponentiation; the shifts are reinstated when the data log-likelihood is
reconstructed, so very peaked likelihoods (hundreds of nats) stay exact.

Viterbi's pair cost lam * (lag * spacing)^2 depends only on the lag
|p - q| between states and never decreases with it.  Each stage searches
the predecessors within BAND_HALF_WIDTH states of each target, keeps a
row's band minimum only where lag_cost[W + 1] proves that no state
outside the band reaches or ties it, and searches the other rows densely,
so path and cost match a dense search on that cost bit for bit, at worst
at the dense O(T P^2) cost plus the band.

Forward and backward apply the Gaussian transition T[q, p] =
k[|p - q|] / z[q] as a correlation with the kernel cut after lag h, the
last lag where k exceeds KERNEL_CUTOFF = 2^-106, and never build the P x P
matrix.  Each bin bounds how much the dropped entries could have moved its
result and is recomputed with all 2P - 1 kernel taps unless that bound is
within eps of it; a kernel whose 2h+1 taps would outnumber the P states
keeps all 2P - 1 from the start.  The cost is O(T P h), at worst O(T P^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from freqtrack.likelihood import alpha_coefficient, log_beta_coefficient
from freqtrack.markov import FrequencyGrid, GaussianTransition, initial_distribution
from freqtrack.signal import DataSet, HyperparameterError, Hyperparameters
from freqtrack.spectral import periodogram_table

# Predecessors searched per state before the dense fallback, on each side.
# On T=4096, P=512 tracking (lam = 512.5) 48 and 64 are fastest, 32 makes
# about 40% of the rows fall back and 96 costs 50% more.
BAND_HALF_WIDTH = 64

# Kernel values at or below u^2 = 2^-106 (u = 2^-53) are dropped from the
# forward-backward band: next to the diagonal entry 1 they lie below the
# rounding of its rounding error.
KERNEL_CUTOFF = 2.0**-106
_EPS = float(np.finfo(float).eps)


class NumericalError(RuntimeError):
    """Raised when a probability recursion underflows to exact zero."""


@dataclass(frozen=True)
class ObservationTable:
    """Per-bin state log-likelihoods log O_t(p), for forward-backward, and
    the periodograms that generated them, whose negation is Viterbi's local
    cost (read in place, never copied)."""

    log_prob: np.ndarray      # (T, P)
    periodograms: np.ndarray  # (T, P)

    @cached_property
    def row_shift(self) -> np.ndarray:
        """(T,) per-row max of log_prob, the shift used for rescaling."""
        return self.log_prob.max(axis=1)

    def scaled(self) -> np.ndarray:
        """exp(log O) with each row divided by its max; entries in (0, 1]."""
        return np.exp(self.log_prob - self.row_shift[:, None])

    @property
    def n_bins(self) -> int:
        return self.log_prob.shape[0]

    @property
    def n_states(self) -> int:
        return self.log_prob.shape[1]


def observation_table(dataset: DataSet, grid: FrequencyGrid, hyper: Hyperparameters) -> ObservationTable:
    """Entry (t, p) is the marginal log-likelihood of record t at state p.

    log_prob is built in place on alpha * periodograms, so the table holds
    two (T, P) float arrays; the sums are the same IEEE additions, and so
    the same bits, as log_beta + alpha * periodograms - energy / r_b.

    Raises ValueError naming r_a and r_b when alpha is not positive and
    finite (see alpha_coefficient), or when log beta or the largest record
    energy over r_b is not finite: the entries would then be constant,
    infinite or NaN.
    """
    n = dataset.n_samples
    alpha = alpha_coefficient(hyper, n)
    log_beta = log_beta_coefficient(hyper, n)
    if not np.isfinite([log_beta, float(dataset.energy.max()) / hyper.r_b]).all():
        raise HyperparameterError(f"hyperparameters r_a={hyper.r_a!r}, r_b={hyper.r_b!r} make "
                                  "the likelihood coefficient log beta or energy / r_b non-finite")
    p_table = periodogram_table(dataset.samples, grid.states)
    log_prob = alpha * p_table
    log_prob += log_beta
    log_prob -= (dataset.energy / hyper.r_b)[:, None]
    return ObservationTable(log_prob=log_prob, periodograms=p_table)


@dataclass
class ForwardBackwardResult:
    forward: np.ndarray       # (T, P), rows sum to 1
    normalizers: np.ndarray   # (T,), computed on shifted observation rows
    log_likelihood: float
    half_width: int           # kernel lags kept on each side; P - 1 for all of them
    truncation_bound: float   # largest dropped kernel value k[h+1]; 0 when none is dropped
    fallback_bins: int        # bins recomputed with all 2P - 1 taps, both passes
    backward: np.ndarray | None = None


def _kernel_band(trans: GaussianTransition) -> tuple[int, np.ndarray, float]:
    """(h, taps, k[h+1]): the 2h+1 kernel taps at lags -h ... h, h the last
    lag whose value exceeds KERNEL_CUTOFF.  When 2h+1 > P all 2P - 1 taps
    are kept, with h = P - 1 and bound 0."""
    kernel = trans.kernel
    size = kernel.size
    half = int(np.count_nonzero(kernel > KERNEL_CUTOFF)) - 1
    if 2 * half + 1 > size:
        return size - 1, trans.taps, 0.0
    return half, trans.taps[size - 1 - half:size + half], float(kernel[half + 1])


def _correlate(values: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """out[p] = sum_j values[p + j] taps[h + j] over the 2h+1 symmetric taps
    (off-grid values are zero): P outputs for h <= P - 1."""
    return np.correlate(values, taps, "same" if taps.size <= values.size else "valid")


def forward(obs: ObservationTable, trans: GaussianTransition,
            init: np.ndarray) -> ForwardBackwardResult:
    """Scaled forward recursion; log-likelihood includes the row shifts.

    Bin 0 is shifted by its maximum over the admissible states (init > 0):
    a peak on an inadmissible alias would scale all of them to zero.  Only
    the log-likelihood reads that shift, not backward or the posteriors.

    Each step f @ T is the correlation of f / norm with the 2h+1 kernel
    taps kept by _kernel_band, O(P h) instead of O(P^2).  The dropped
    entries are at most k[h+1], the scaled observation row at most 1 and
    sum(f / norm) at most sum(f) = 1, as every norm is at least 1, so they
    move the bin's normalizer by at most P k[h+1]; a bin where that is not
    within eps of the normalizer is recomputed with all 2P - 1 taps.  The
    cost is O(T P h), O(T P^2) at worst.
    """
    scaled = obs.scaled()
    n_bins, n_states = scaled.shape
    half, taps, bound = _kernel_band(trans)
    dropped = n_states * bound
    fwd = np.empty((n_bins, n_states))
    norms = np.empty(n_bins)
    source = np.empty(n_states)
    fallbacks = 0
    head = np.where(init > 0, obs.log_prob[0], -np.inf)
    shifts = np.append(head.max(), obs.row_shift[1:])
    np.multiply(np.exp(head - shifts[0]), init, out=fwd[0])
    norm = fwd[0].sum()
    for t in range(n_bins):
        row = fwd[t]
        if t > 0:
            np.divide(fwd[t - 1], trans.norm, out=source)
            np.multiply(scaled[t], _correlate(source, taps), out=row)
            norm = row.sum()
            if not dropped <= _EPS * norm:  # NaN fails
                fallbacks += 1
                np.multiply(scaled[t], _correlate(source, trans.taps), out=row)
                norm = row.sum()
        if norm == 0.0:
            raise NumericalError(f"forward probability underflowed to zero at bin {t}")
        norms[t] = norm
        row /= norm
    log_likelihood = float(np.sum(np.log(norms)) + np.sum(shifts))
    return ForwardBackwardResult(forward=fwd, normalizers=norms, log_likelihood=log_likelihood,
                                 half_width=half, truncation_bound=bound, fallback_bins=fallbacks)


def backward(obs: ObservationTable, trans: GaussianTransition,
             fwd: ForwardBackwardResult) -> ForwardBackwardResult:
    """Scaled backward recursion dividing by the forward normalizers.

    Returns a copy of fwd with the backward table set and the backward
    pass's fallbacks added to fallback_bins.  Each step T @ v is the
    correlation of v with the same taps as the forward pass, divided by
    norm.  The dropped terms move the posterior mass of bin t,
    sum_q f_t[q] b_t[q], by at most k[h+1] sum(v) sum(f_t / norm) / c_{t+1}
    <= k[h+1] sum(v) / c_{t+1}, c the forward normalizers; a bin where that
    is not within eps of the mass is recomputed with all 2P - 1 taps.
    """
    scaled = obs.scaled()
    n_bins, n_states = scaled.shape
    _, taps, bound = _kernel_band(trans)
    bwd = np.empty((n_bins, n_states))
    bwd[-1] = 1.0
    weights = np.empty(n_states)
    fallbacks = 0
    for t in range(n_bins - 2, -1, -1):
        np.multiply(scaled[t + 1], bwd[t + 1], out=weights)
        spread = _correlate(weights, taps)
        spread /= trans.norm
        mass = fwd.forward[t] @ spread
        if not bound * weights.sum() <= _EPS * mass:  # NaN fails
            fallbacks += 1
            spread = _correlate(weights, trans.taps)
            spread /= trans.norm
        np.divide(spread, fwd.normalizers[t + 1], out=bwd[t])
    return replace(fwd, backward=bwd, fallback_bins=fwd.fallback_bins + fallbacks)


def forward_backward(obs: ObservationTable, trans: GaussianTransition,
                     init: np.ndarray) -> ForwardBackwardResult:
    return backward(obs, trans, forward(obs, trans, init))


@dataclass
class PosteriorMarginals:
    """Posterior marginals of one forward-backward pass; the O(TP^2) tensor
    ``pairs`` is built from ``head`` and ``weighted`` only when read."""

    singles: np.ndarray   # (T, P)
    pair_sum: np.ndarray  # (P, P): pairs summed over bins
    trans: np.ndarray = field(repr=False)     # (P, P)
    head: np.ndarray = field(repr=False)      # (T-1, P): forward[:-1]
    weighted: np.ndarray = field(repr=False)  # (T-1, P): O[1:] * backward[1:] / c[1:]

    @cached_property
    def pairs(self) -> np.ndarray:
        """(T-1, P, P): pairs[i][q, p] = Pr[state q at i, p at i+1 | data]."""
        pairs = self.head[:, :, None] * self.trans
        pairs *= self.weighted[:, None, :]
        return pairs


def posterior_marginals(fb: ForwardBackwardResult, obs: ObservationTable,
                        trans: np.ndarray) -> PosteriorMarginals:
    """Single marginals and the bin-summed pair marginals of the chain.

    pair_sum = trans * (forward[:-1]^T @ W) with W = O[1:] * backward[1:] / c[1:]
    is one matmul; the (T-1, P, P) ``pairs`` tensor is built lazily on
    first access, so callers that only need the sum never allocate it.
    """
    if fb.backward is None:
        raise ValueError("run the backward pass before computing posteriors")
    head = fb.forward[:-1]
    weighted = obs.scaled()[1:] * fb.backward[1:] / fb.normalizers[1:, None]
    return PosteriorMarginals(singles=fb.forward * fb.backward,
                              pair_sum=trans * (head.T @ weighted),
                              trans=trans, head=head, weighted=weighted)


def viterbi(obs: ObservationTable, grid: FrequencyGrid, lam: float) -> tuple[np.ndarray, float]:
    """Minimum-cost state path for the regularized tracking criterion.

    Local cost is -P_t(nu^p), pair cost lam * (lag * spacing)^2 for states
    lag = |p - q| apart, and the first state is constrained to the initial
    band.  Ties break toward the lowest state index at every stage and at
    termination.  Each stage subtracts its row of obs.periodograms, read in
    place with no negated (T, P) copy: x - P is the same IEEE result as
    x + (-P).

    Each stage min-sums cost_{t-1}[q] + lag_cost[|p - q|] over the
    predecessors q within W = BAND_HALF_WIDTH states of each target p.
    Rounding is monotone and lag_cost never decreases with the lag, so a
    row's band minimum m[p] is certified when m[p] < min(cost_{t-1}) +
    lag_cost[W + 1] (or the row has no state beyond the band): no state
    outside the band can then reach or tie it.  The band is scanned in
    ascending order, so ties still go to the lowest index; rows without
    the certificate are searched densely.  The cost is O(T P W) plus O(P)
    per fallback row: at worst, when every row falls back (lam so small
    that the pair cost cannot separate states), the dense O(T P^2) search
    plus the band.  Every sum is the same IEEE addition as in a dense
    search on lag_cost, so path and cost equal its result bit for bit.

    A lag cost or a sum that overflows saturates to +inf without a
    warning: the constant path always has a finite cost, so no such pair
    can be on the minimum path.

    Raises ValueError naming the first bin whose row of the observation
    table is not finite: the local cost is then unusable, either itself
    or because a periodogram that large absorbs every pair cost in the
    sums and the path collapses onto the lowest-index tie.
    """
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    finite = np.isfinite(obs.periodograms).all(axis=1) & np.isfinite(obs.log_prob).all(axis=1)
    if not finite.all():
        raise ValueError(f"local cost is not finite at bin {int(np.argmin(finite))}")
    periodograms = obs.periodograms
    n_bins, n_states = periodograms.shape
    half = min(BAND_HALF_WIDTH, n_states - 1)
    rows = np.arange(n_states)
    with np.errstate(over="ignore"):
        lag_cost = lam * (rows * grid.spacing) ** 2
        # dense[p, q] = lag_cost[|p - q|], a zero-copy Toeplitz view of the 2P - 1 lags
        dense = sliding_window_view(np.concatenate([lag_cost[:0:-1], lag_cost]), n_states)[::-1]
        band_pair = np.tile(lag_cost[np.abs(np.arange(-half, half + 1))], (n_states, 1))
        beyond = np.where((rows > half) | (rows < n_states - 1 - half),
                          lag_cost[min(half + 1, n_states - 1)], np.inf)
        padded = np.full(n_states + 2 * half, np.inf)  # off-grid predecessors cost +inf
        windows = sliding_window_view(padded, 2 * half + 1)
        total = np.empty_like(band_pair)
        back = np.empty((n_bins, n_states), dtype=np.min_scalar_type(n_states - 1))
        cost = np.where(initial_distribution(grid) > 0, 0.0, np.inf) - periodograms[0]
        for t in range(1, n_bins):
            padded[half:half + n_states] = cost
            np.add(windows, band_pair, out=total)
            best = total.argmin(axis=1)
            low = total[rows, best]
            best += rows - half
            bad = np.flatnonzero(~(low < cost.min() + beyond))  # NaN rows fall back too
            if bad.size:
                fallback = dense[bad] + cost
                best[bad] = fallback.argmin(axis=1)
                low[bad] = fallback[np.arange(bad.size), best[bad]]
            back[t] = best
            cost = low - periodograms[t]
    path = np.empty(n_bins, dtype=int)
    path[-1] = int(np.argmin(cost))
    best_cost = float(cost[path[-1]])
    for t in range(n_bins - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, best_cost
