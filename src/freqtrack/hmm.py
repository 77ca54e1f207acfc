"""Viterbi, scaled forward/backward recursions, and posterior marginals.

Observation rows log O = alpha P + log beta - gamma are max-shifted before
exponentiation; the shifts are reinstated when the data log-likelihood is
reconstructed, so very peaked likelihoods (hundreds of nats) stay exact.

Viterbi's pair cost lam * (lag * spacing)^2 depends only on the lag
|p - q| between states.  Each stage searches the predecessors within
W = BAND_HALF_WIDTH = 16 states of each target.  A row keeps its band
minimum only where a per-row lower bound on every state outside the band,
built from the tangent of the pair cost at lag W + 1 and two prefix minima
in O(P), exceeds it by a proven rounding margin; the other rows are
searched densely.  So path and cost match a dense search on that cost bit
for bit, in O(T P W), at worst at the dense O(T P^2) cost plus the band.

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
# On T=4096, P=512 tracking (lam = 512.5) 10 and 12 are fastest; 16, 10-20%
# slower there, sends 0.13% of the rows to the dense search.  On the
# default T=128, P=128 grid at lam = 12.8, 10 sends 17% of the rows and
# 16 sends 1.6%, and 16 to 20 are fastest.
BAND_HALF_WIDTH = 16

# Kernel values at or below u^2 = 2^-106 (u = 2^-53) are dropped from the
# forward-backward band: next to the diagonal entry 1 they lie below the
# rounding of its rounding error.
KERNEL_CUTOFF = 2.0**-106
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


class NumericalError(RuntimeError):
    """Raised when a probability recursion underflows to exact zero."""


@dataclass(frozen=True)
class ObservationTable:
    """The periodograms P_t(p), whose negation is Viterbi's local cost (read
    in place, never copied), and the coefficients of the per-bin state
    log-likelihoods log O_t(p) = alpha P_t(p) + log beta - gamma_t that
    forward-backward reads as the rescaled table ``scaled``."""

    periodograms: np.ndarray  # (T, P)
    alpha: float              # > 0
    log_beta: float
    gamma: np.ndarray         # (T,): record energy / r_b

    def _log_prob(self, periodograms, gamma):
        """log O at the given periodograms of bins with the given gamma."""
        return self.alpha * periodograms + self.log_beta - gamma

    @cached_property
    def row_shift(self) -> np.ndarray:
        """(T,) per-row max of log O, the shift used for rescaling.  alpha > 0
        and rounding is monotone, so it is log O at each row's largest
        periodogram, bit for bit."""
        return self._log_prob(self.periodograms.max(axis=1), self.gamma)

    @cached_property
    def scaled(self) -> np.ndarray:
        """exp(log O) with each row divided by its max; entries in (0, 1]."""
        scaled = self._log_prob(self.periodograms, self.gamma[:, None])
        scaled -= self.row_shift[:, None]
        return np.exp(scaled, out=scaled)

    @property
    def n_bins(self) -> int:
        return self.periodograms.shape[0]

    @property
    def n_states(self) -> int:
        return self.periodograms.shape[1]


def observation_table(dataset: DataSet, grid: FrequencyGrid, hyper: Hyperparameters,
                      periodograms: np.ndarray | None = None) -> ObservationTable:
    """Entry (t, p) is the marginal log-likelihood of record t at state p.

    periodograms, when given, is periodogram_table(dataset.samples,
    grid.states), computed once for many hyperparameters and read, not
    copied or recomputed.

    Raises ValueError naming r_a and r_b when alpha is not positive and
    finite (see alpha_coefficient), or when log beta or the largest record
    energy over r_b is not finite: the entries would then be constant,
    infinite or NaN.
    """
    n = dataset.n_samples
    alpha = alpha_coefficient(hyper, n)
    log_beta = log_beta_coefficient(hyper, n)
    gamma = dataset.energy / hyper.r_b
    if not np.isfinite([log_beta, gamma.max()]).all():
        raise HyperparameterError(f"hyperparameters r_a={hyper.r_a!r}, r_b={hyper.r_b!r} make "
                                  "the likelihood coefficient log beta or energy / r_b non-finite")
    if periodograms is None:
        periodograms = periodogram_table(dataset.samples, grid.states)
    return ObservationTable(periodograms, alpha, log_beta, gamma)


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
    scaled = obs.scaled
    n_bins, n_states = scaled.shape
    half, taps, bound = _kernel_band(trans)
    dropped = n_states * bound
    fwd = np.empty((n_bins, n_states))
    norms = np.empty(n_bins)
    source = np.empty(n_states)
    fallbacks = 0
    head = np.where(init > 0, obs._log_prob(obs.periodograms[0], obs.gamma[0]), -np.inf)
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
    scaled = obs.scaled
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


def forward_backward(obs: ObservationTable, trans: GaussianTransition, init: np.ndarray,
                     fwd: ForwardBackwardResult | None = None) -> ForwardBackwardResult:
    """The backward pass after the forward one; fwd, when given, is a
    forward pass already run on the same obs, trans and init, and is reused."""
    return backward(obs, trans, forward(obs, trans, init) if fwd is None else fwd)


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
    weighted = obs.scaled[1:] * fb.backward[1:] / fb.normalizers[1:, None]
    return PosteriorMarginals(singles=fb.forward * fb.backward,
                              pair_sum=trans * (head.T @ weighted),
                              trans=trans, head=head, weighted=weighted)


def viterbi(obs: ObservationTable, grid: FrequencyGrid, lam: float) -> tuple[np.ndarray, float]:
    """Minimum-cost state path for the regularized tracking criterion.

    Local cost is -P_t(nu^p), pair cost lag_cost[d] = lam * (d * spacing)^2
    for states d = |p - q| apart, and the first state is constrained to the
    initial band.  Ties break toward the lowest state index at every stage
    and at termination.  Each stage subtracts its row of obs.periodograms,
    read in place with no negated (T, P) copy: x - P is the same IEEE
    result as x + (-P).

    Band.  Each stage min-sums cost[q] + lag_cost[|p - q|] over the
    predecessors q within W = BAND_HALF_WIDTH states of each target p, as a
    (2W+1, P) array whose row j holds q = p + j - W.  Its column minimum m
    is taken by np.minimum.reduce; the back-pointer is the lowest row that
    equals it, read from the mask [total == m] as one [j; 1] @ mask
    product.  The mask is float32 and still exact: where a column's count
    is 1 its index is a single product j * 1, and a column with more (a
    tie, or +inf) is re-resolved by argmin.  Every sum is the same IEEE
    addition as in a dense search on lag_cost, so a row whose band holds
    its dense minimum gets the dense path and cost bit for bit.

    Certificate.  Let k = W + 1 and c = lag_cost[1]; the line 2kc d - ck^2
    is the tangent of c d^2 at d = k, below it everywhere.  With
    r_i = fl(2kc * i) and h = max(0, max over d >= k of fl(r_d - lag_cost[d])),
    r_d - h is a lower bound on lag_cost[d] for every lag d >= k, however
    lag_cost was rounded.  So a state q beyond the band of p has
    cost[q] + lag_cost[|p - q|] >= cost[q] -+ r_q +- r_p - h (upper signs
    for q < p), and

        B(p) = min(min_{q <= p-k} (cost[q] - r_q) + r_p,
                   min_{q >= p+k} (cost[q] - r'_q) + r'_p) - h,   r'_i = r_{P-1-i},

    bounds every such sum from below.  Both prefix minima come from one
    np.minimum.accumulate over a (2, P + k) array holding cost - r and
    cost[::-1] - r behind k entries of +inf.  Row p keeps its band minimum
    m when m < B(p) - mu, the rounding margin below, and is otherwise
    searched densely; NaN fails the test and goes to the dense search.

    Margin.  Let u = eps/2, M = 2T(max |P_t(p)| + lag_cost[P-1]),
    S = M + r_{P-1} + h and mu = 16 eps S + 2^-1022, with the test
    m < fl(A + fl(r_p - (h + mu))) for the prefix minimum A.  Every cost is
    +inf or at most M in size: each stage's minima lie between the previous
    min(cost) and fl(min(cost) + lag_cost[P-1]) before its row of P_t is
    subtracted, and the two roundings a stage adds grow that bound by a
    factor below 2 over T < 2^50 stages.  A row is certified only when
    S <= 2^1021 (mu is +inf otherwise), so no value below exceeds
    3S < 2^1023 and none overflows.  Take q beyond the band of p.  If
    cost[q] > m, the rounded sum is at least cost[q] > m, as lag_cost >= 0
    and rounding is monotone.  Otherwise cost[q] is finite, |cost[q]| <= M,
    |m| <= 1.01 S, and q's own term bounds B(p) from above.  Between that
    term and cost[q] + lag_cost[d] lie eight roundings (r_p, r_q, r_d, h's
    difference, cost[q] - r_q, r_p - (h + mu), their sum and h + mu), each
    moving its value v by at most u |v| + 2^-1075, where |v| <= 1.01 S but
    for r_p - (h + mu) (2.01 S) and the sum (3.01 S): at most
    11.1 u S + 2^-1072 in all, and mu's own rounding takes at most u mu.
    So cost[q] + lag_cost[d] > m + mu - 11.2 u S - 2^-1072
    > m + 10 eps S + 2^-1023 > m + eps |m| + 2^-1074, which is above the
    float next to m: q's rounded sum neither reaches nor ties m, and the
    dense search would keep the band's answer.

    The cost is O(T P W) plus O(P) per row that fails, W = 16: at worst,
    when every row fails (lam so small that the pair cost cannot separate
    states, or so large that S overflows), the dense O(T P^2) search plus
    the band.  A lag cost or a sum that overflows saturates to +inf
    without a warning: the constant path always has a finite cost, so no
    such pair can be on the minimum path.

    Raises ValueError naming the first bin whose row of periodograms is
    not finite: the local cost is then unusable, either itself or because
    a periodogram that large absorbs every pair cost in the sums and the
    path collapses onto the lowest-index tie.
    """
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    finite = np.isfinite(obs.periodograms).all(axis=1)
    if not finite.all():
        raise ValueError(f"local cost is not finite at bin {int(np.argmin(finite))}")
    periodograms = obs.periodograms
    n_bins, n_states = periodograms.shape
    half = min(BAND_HALF_WIDTH, n_states - 1)
    reach = BAND_HALF_WIDTH + 1
    rows = np.arange(n_states)
    with np.errstate(over="ignore", invalid="ignore"):
        lag_cost = lam * (rows * grid.spacing) ** 2
        # dense[p, q] = lag_cost[|p - q|], a zero-copy Toeplitz view of the 2P - 1 lags
        dense = sliding_window_view(np.concatenate([lag_cost[:0:-1], lag_cost]), n_states)[::-1]
        ramp = 2 * reach * lag_cost[1] * rows
        lift = np.max(ramp[reach:] - lag_cost[reach:], initial=0.0)
        extent = max(periodograms.max(), -periodograms.min())
        scale = 2 * n_bins * (extent + lag_cost[-1]) + ramp[-1] + lift
        margin = 16 * _EPS * scale + _TINY if scale <= 2.0**1021 else np.inf
        lowered = ramp - (lift + margin)
        padded = np.full(n_states + 2 * half, np.inf)  # off-grid predecessors cost +inf
        windows = sliding_window_view(padded, n_states)  # (2W+1, P): row j holds q = p + j - W
        cost = padded[half:half + n_states]
        band_pair = np.repeat(lag_cost[np.abs(np.arange(-half, half + 1)), None], n_states, axis=1)
        total = np.empty_like(band_pair)
        mask = np.empty(total.shape, dtype=np.float32)
        counter = np.stack([np.arange(2 * half + 1), np.ones(2 * half + 1)]).astype(np.float32)
        shift = (rows - half).astype(np.float32)
        sweep = np.full((2, n_states + reach), np.inf)
        bound = np.empty((2, n_states))
        back = np.empty((n_bins, n_states), dtype=np.min_scalar_type(n_states - 1))
        np.subtract(np.where(initial_distribution(grid) > 0, 0.0, np.inf), periodograms[0],
                    out=cost)
        for t in range(1, n_bins):
            np.add(windows, band_pair, out=total)
            low = np.minimum.reduce(total, axis=0)
            np.equal(total, low, out=mask, casting="unsafe")
            index, count = counter @ mask
            if count.max() > 1:  # a NaN column counts 0 and fails the certificate
                tied = np.flatnonzero(count > 1)
                index[tied] = total[:, tied].argmin(axis=0)
            index += shift
            np.subtract(cost, ramp, out=sweep[0, reach:])
            np.subtract(cost[::-1], ramp, out=sweep[1, reach:])
            np.minimum.accumulate(sweep, axis=1, out=sweep)
            np.add(sweep[:, :n_states], lowered, out=bound)
            np.minimum(bound[0], bound[1, ::-1], out=bound[0])
            certified = low < bound[0]
            if not certified.all():
                bad = np.flatnonzero(~certified)
                fallback = dense[bad] + cost
                index[bad] = fallback.argmin(axis=1)
                low[bad] = fallback.min(axis=1)
            back[t] = index
            np.subtract(low, periodograms[t], out=cost)
    path = np.empty(n_bins, dtype=int)
    path[-1] = int(np.argmin(cost))
    best_cost = float(cost[path[-1]])
    for t in range(n_bins - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, best_cost
