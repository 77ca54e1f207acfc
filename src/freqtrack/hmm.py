"""Viterbi, scaled forward/backward recursions, and posterior marginals.

Observation rows live in the log domain and are max-shifted before
exponentiation; the shifts are reinstated when the data log-likelihood is
reconstructed, so very peaked likelihoods (hundreds of nats) stay exact.

Each stage of Viterbi's min-sum loop searches only the predecessors
within BAND_HALF_WIDTH states of each target, which holds the argmin
whenever the pair cost grows away from the diagonal, as the quadratic
lam * (nu^p - nu^q)^2 does.  A row's band minimum is kept only if it is
strictly below min(cost) plus the cheapest pair cost outside the band,
which proves that no outside state can reach or tie it; the band is
scanned in ascending order, so ties still go to the lowest index.  Rows
without that certificate are searched densely, so the result is exact
for any pair cost, at worst the dense O(T P^2) plus the band.

Forward and backward apply the Gaussian transition T[q, p] =
k[|p - q|] / z[q] as a convolution with the kernel cut after lag h, the
last lag where k exceeds KERNEL_CUTOFF = 2^-106.  Each bin bounds how much
the dropped entries could have moved its result and is recomputed with the
dense product unless that bound is within eps of it; a kernel whose 2h+1
taps leave fewer than BAND_MIN_SKIPPED states out runs the whole pass
densely.  The cost is O(T P h), at worst the dense O(T P^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from freqtrack.likelihood import alpha_coefficient, log_beta_coefficient
from freqtrack.markov import FrequencyGrid, GaussianTransition, initial_distribution
from freqtrack.signal import DataSet, Hyperparameters
from freqtrack.spectral import periodogram_table

# Predecessors searched per state before the dense fallback, on each side.
# On T=4096, P=512 tracking (lam = 512.5) 48 and 64 are fastest, 32 makes
# about 40% of the rows fall back and 96 costs 50% more.
BAND_HALF_WIDTH = 64

# Kernel values at or below u^2 = 2^-106 (u = 2^-53) are dropped from the
# forward-backward band: next to the diagonal entry 1 they lie below the
# rounding of its rounding error.
KERNEL_CUTOFF = 2.0**-106
# The band is applied only while its 2h+1 taps leave at least this many of
# the P states out; a wider kernel runs the pass with the dense product.
# Forward passes over T=128 simulated bins: at P=128 the two tie at 2h+1
# near 64 (band 1.0 against dense 1.4 ms at 65 taps, 2.1 against 1.8 ms at
# 77); at P=384 and P=512 the band is still faster at 0.95 P taps.
BAND_MIN_SKIPPED = 64
_EPS = float(np.finfo(float).eps)


class NumericalError(RuntimeError):
    """Raised when a probability recursion underflows to exact zero."""


@dataclass(frozen=True)
class ObservationTable:
    """Per-bin state log-likelihoods log O_t(p), for forward-backward, and
    the periodograms that generated them, whose negation is Viterbi's local
    cost."""

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

    Raises ValueError naming r_a and r_b when alpha, log beta or the
    largest record energy over r_b is not finite: the entries would then
    be infinite or NaN.
    """
    n = dataset.n_samples
    alpha = alpha_coefficient(hyper, n)
    log_beta = log_beta_coefficient(hyper, n)
    if not np.isfinite([alpha, log_beta, float(dataset.energy.max()) / hyper.r_b]).all():
        raise ValueError(f"hyperparameters r_a={hyper.r_a!r}, r_b={hyper.r_b!r} make the "
                         "likelihood coefficients alpha, log beta or energy / r_b non-finite")
    p_table = periodogram_table(dataset.samples, grid.states)
    log_prob = log_beta + alpha * p_table - (dataset.energy / hyper.r_b)[:, None]
    return ObservationTable(log_prob=log_prob, periodograms=p_table)


@dataclass
class ForwardBackwardResult:
    forward: np.ndarray       # (T, P), rows sum to 1
    normalizers: np.ndarray   # (T,), computed on shifted observation rows
    log_likelihood: float
    half_width: int           # kernel lags kept on each side; P - 1 for the dense product
    truncation_bound: float   # largest dropped kernel value k[h+1]; 0 when none is dropped
    fallback_bins: int        # bins recomputed with the dense product, both passes
    backward: np.ndarray | None = None


def _kernel_band(trans: GaussianTransition) -> tuple[int, np.ndarray | None, float]:
    """(h, taps, k[h+1]) of the kernel cut after its last value above
    KERNEL_CUTOFF; taps is None, h = P - 1 and the bound 0 when the 2h+1
    taps would leave fewer than BAND_MIN_SKIPPED states out."""
    kernel = trans.kernel
    half = int(np.count_nonzero(kernel > KERNEL_CUTOFF)) - 1
    if 2 * half + 1 > kernel.size - BAND_MIN_SKIPPED:
        return kernel.size - 1, None, 0.0
    return half, np.concatenate([kernel[half:0:-1], kernel[:half + 1]]), float(kernel[half + 1])


def forward(obs: ObservationTable, trans: GaussianTransition,
            init: np.ndarray) -> ForwardBackwardResult:
    """Scaled forward recursion; log-likelihood includes the row shifts.

    Bin 0 is shifted by its maximum over the admissible states (init > 0):
    a peak on an inadmissible alias would scale all of them to zero.  Only
    the log-likelihood reads that shift, not backward or the posteriors.

    Each step f @ T is the convolution of f / norm with the 2h+1 kernel
    taps kept by _kernel_band, O(P h) instead of O(P^2) (a correlation,
    as the taps are symmetric).  The dropped entries are at most k[h+1]
    and the scaled observation row at most 1, so they move the bin's
    normalizer by at most P k[h+1] sum(f / norm); a bin where that is not
    within eps of the normalizer is recomputed with the dense product.  A
    kernel too wide for the band runs the whole pass densely, so the cost
    is O(T P h), O(T P^2) at worst.
    """
    scaled = obs.scaled()
    n_bins, n_states = scaled.shape
    half, taps, bound = _kernel_band(trans)
    fwd = np.empty((n_bins, n_states))
    norms = np.empty(n_bins)
    fallbacks = 0
    head = np.where(init > 0, obs.log_prob[0], -np.inf)
    shifts = np.append(head.max(), obs.row_shift[1:])
    probe = np.exp(head - shifts[0]) * init
    norm = probe.sum()
    for t in range(n_bins):
        if t > 0:
            certified = False
            if taps is not None:
                source = fwd[t - 1] / trans.norm
                probe = scaled[t] * np.correlate(source, taps, "same")
                norm = probe.sum()
                certified = n_states * bound * source.sum() <= _EPS * norm  # NaN fails
                fallbacks += not certified
            if not certified:
                probe = scaled[t] * (fwd[t - 1] @ trans.matrix)
                norm = probe.sum()
        if norm == 0.0:
            raise NumericalError(f"forward probability underflowed to zero at bin {t}")
        norms[t] = norm
        fwd[t] = probe / norm
    log_likelihood = float(np.sum(np.log(norms)) + np.sum(shifts))
    return ForwardBackwardResult(forward=fwd, normalizers=norms, log_likelihood=log_likelihood,
                                 half_width=half, truncation_bound=bound, fallback_bins=fallbacks)


def backward(obs: ObservationTable, trans: GaussianTransition,
             fwd: ForwardBackwardResult) -> ForwardBackwardResult:
    """Scaled backward recursion dividing by the forward normalizers.

    Returns a copy of fwd with the backward table set and the backward
    pass's fallbacks added to fallback_bins.  Each step T @ v is the
    convolution of v with the same taps as the forward pass, divided by
    norm.  The dropped terms move the posterior mass of bin t,
    sum_q f_t[q] b_t[q], by at most k[h+1] sum(v) sum(f_t / norm) / c_{t+1},
    c the forward normalizers; a bin where that is not within eps of the
    mass is recomputed with the dense product.
    """
    scaled = obs.scaled()
    n_bins, n_states = scaled.shape
    _, taps, bound = _kernel_band(trans)
    source_mass = (fwd.forward / trans.norm).sum(axis=1)
    bwd = np.empty((n_bins, n_states))
    bwd[-1] = 1.0
    fallbacks = 0
    for t in range(n_bins - 2, -1, -1):
        weights = scaled[t + 1] * bwd[t + 1]
        certified = False
        if taps is not None:
            spread = np.correlate(weights, taps, "same") / trans.norm
            mass = fwd.forward[t] @ spread
            certified = bound * weights.sum() * source_mass[t] <= _EPS * mass  # NaN fails
            fallbacks += not certified
        if not certified:
            spread = trans.matrix @ weights
        bwd[t] = spread / fwd.normalizers[t + 1]
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

    Local cost is -P_t(nu^p), pair cost lam * (nu^p - nu^q)^2, and the
    first state is constrained to the initial band.  Ties break toward the
    lowest state index at every stage and at termination.

    Each stage searches the predecessors within BAND_HALF_WIDTH states of
    each target and keeps that answer only where a certificate proves that
    no state outside the band reaches or ties it; the other rows are
    searched densely (see _min_cost_path).  The cost is O(T P W) plus O(P)
    per fallback row: at worst, when every row falls back (lam so small
    that the pair cost cannot separate states), the dense O(T P^2) search
    plus the band.  Path and cost equal the dense search's bit for bit.

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
    states = grid.states
    local = -obs.periodograms
    admissible = initial_distribution(grid) > 0
    pair_cost = lam * (states[None, :] - states[:, None]) ** 2  # [q, p]
    return _min_cost_path(local, pair_cost, np.where(admissible, 0.0, np.inf))


def _min_cost_path(local: np.ndarray, pair_cost: np.ndarray,
                   init_cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Min-sum recursion cost_t[p] = min_q cost_{t-1}[q] + pair_cost[q, p] + local[t, p].

    The band minimum m[p] over |q - p| <= W is certified when
    m[p] < min(cost) + min_{|q-p|>W} pair_cost[q, p]: rounded addition is
    monotone, so no q outside the band reaches or ties m[p].  Every sum is
    the same IEEE addition cost[q] + pair_cost[q, p] as in a dense search,
    so path and cost are identical to it for any pair cost.
    """
    n_bins, n_states = local.shape
    cost = local[0] + init_cost
    if not np.isfinite(cost).any():
        raise ValueError("no admissible initial state")
    into = np.ascontiguousarray(pair_cost.T)  # [p, q]
    half = min(BAND_HALF_WIDTH, n_states - 1)
    rows = np.arange(n_states)
    band_cols = rows[:, None] + np.arange(-half, half + 1)  # q, (P, 2W+1)
    on_grid = (band_cols >= 0) & (band_cols < n_states)
    band_cols = band_cols.clip(0, n_states - 1)  # off-grid columns land inside the band
    band_pair = np.where(on_grid, into[rows[:, None], band_cols], np.inf)
    outside = into.copy()
    outside[rows[:, None], band_cols] = np.inf
    out_min = outside.min(axis=1)
    del outside  # the loop below allocates no P x P array unless rows fall back
    padded = np.full(n_states + 2 * half, np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    total = np.empty_like(band_pair)
    back = np.empty((n_bins, n_states), dtype=np.min_scalar_type(n_states - 1))
    for t in range(1, n_bins):
        padded[half:half + n_states] = cost
        np.add(windows, band_pair, out=total)
        best = total.argmin(axis=1)
        low = total[rows, best]
        best += rows - half
        bad = np.flatnonzero(~(low < cost.min() + out_min))  # NaN rows fall back too
        if bad.size:
            dense = into[bad] + cost
            best[bad] = dense.argmin(axis=1)
            low[bad] = dense[np.arange(bad.size), best[bad]]
        back[t] = best
        cost = low + local[t]
    path = np.empty(n_bins, dtype=int)
    path[-1] = int(np.argmin(cost))
    best_cost = float(cost[path[-1]])
    for t in range(n_bins - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, best_cost
