"""Viterbi, scaled forward/backward recursions, and posterior marginals.

Observation rows enter the recursions as exp(alpha (P_t - m_t)), O_t over
its largest entry (m_t = max P_t, alpha > 0), so log beta and gamma_t
cancel; forward adds alpha sum_t m_t + T log beta - sum_t gamma_t back
once, and rows peaked by thousands of nats stay exact.  The exponent is
x (1 + theta), x = alpha (P - m) <= 0, |theta| <= 2u + u^2 (u = eps/2), and
|x| exp(x) <= 1/e, so each entry is within 0.74u + rho of exp(x), rho the
relative error of np.exp, however large alpha P and gamma_t are, where
forming log O first would lose u (alpha |P| + |log beta| + gamma_t).

Viterbi searches the predecessors within W states of each target, W
derived per call from lam, the spacing and the median range of a row of
periodograms.  A row keeps its band minimum only where a per-row lower
bound on every state beyond the band exceeds it by a proven rounding
margin, and is searched densely otherwise, so path and cost match a dense
search bit for bit, in O(T P W), at worst O(T P^2).  Viterbi has the
periodograms written once into its kept cost rows, copied from the fit's
table or computed from the records' lags straight into them, so those
rows are its only (T, P) table.

Forward and backward apply the Gaussian transition through its band
(markov.GaussianTransition) and never build the P x P matrix; a bin whose
truncation bound fails is recomputed with all 2P - 1 kernel taps.
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

# Viterbi folds its band and searches rows densely in blocks of at most
# this many pair sums (512 KiB of floats).
_BLOCK = 2**16
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


class NumericalError(RuntimeError):
    """Raised when a probability recursion underflows to exact zero."""


@dataclass(frozen=True)
class ObservationTable:
    """The per-bin state log-likelihoods
    log O_t(p) = alpha P_t(p) + log beta - gamma_t, from one of two sources
    of the periodograms P_t(p), whose negation is Viterbi's local cost.

    The fit gives its table ``periodograms`` and their row maxima
    ``row_max`` (hyperopt.FitCriterion), read in place; forward-backward
    reads them as the rescaled table ``scaled``, the one array built on
    first read.  The track path gives the records' ``lags`` and the
    ``states`` instead, and holds no (T, P) array: ``write_periodograms``
    alone reads them, computing the periodograms straight into an array
    its caller holds, into which it copies a given table instead."""

    periodograms: np.ndarray | None  # (T, P) P_t(p), or None: computed from lags
    row_max: np.ndarray | None       # (T,) m_t = max P_t, given with periodograms
    alpha: float                     # > 0
    log_beta: float
    gamma: np.ndarray                # (T,): record energy / r_b
    lags: np.ndarray | None = None   # (T, N), read where periodograms is None
    states: np.ndarray | None = None  # (P,), read where periodograms is None

    def write_periodograms(self, out: np.ndarray) -> np.ndarray:
        """Write the (T, P) periodograms into out and return it: the given
        table copied, or periodogram_table(lags, states, out=out)."""
        if self.periodograms is None:
            return periodogram_table(self.lags, self.states, out=out)
        np.copyto(out, self.periodograms)
        return out

    @cached_property
    def scaled(self) -> np.ndarray:
        """exp(alpha (P_t - m_t)), O_t over its largest entry; entries in (0, 1]."""
        scaled = self.periodograms - self.row_max[:, None]
        scaled *= self.alpha
        return np.exp(scaled, out=scaled)

    @property
    def n_bins(self) -> int:
        return self.gamma.shape[0]

    @property
    def n_states(self) -> int:
        return self.states.size if self.periodograms is None else self.periodograms.shape[1]


def observation_table(dataset: DataSet, grid: FrequencyGrid, hyper: Hyperparameters,
                      periodograms: np.ndarray | None = None,
                      row_max: np.ndarray | None = None) -> ObservationTable:
    """Entry (t, p) is the marginal log-likelihood of record t at state p.

    periodograms, when given, is periodogram_table(dataset.lags,
    grid.states), computed once for many hyperparameters, and row_max its
    row maxima periodograms.max(axis=1); forward-backward reads both, in
    place, not copied or recomputed.  Without them the periodograms'
    source is dataset.lags over grid.states, which only Viterbi reads, and
    no table is built here or on any read (ObservationTable).

    Raises ValueError naming r_a and r_b when alpha is not positive and
    finite (see alpha_coefficient), or when log beta or the largest record
    energy over r_b is not finite: the entries would then be constant,
    infinite or NaN.
    """
    n = dataset.n_samples
    alpha = alpha_coefficient(hyper, n)
    log_beta = log_beta_coefficient(hyper, n)
    with np.errstate(over="ignore"):  # an overflow is the non-finite gamma named below
        gamma = dataset.energy / hyper.r_b
    if not np.isfinite([log_beta, gamma.max()]).all():
        raise HyperparameterError(f"hyperparameters r_a={hyper.r_a!r}, r_b={hyper.r_b!r} make "
                                  "the likelihood coefficient log beta or energy / r_b non-finite")
    return ObservationTable(periodograms, row_max, alpha, log_beta, gamma, dataset.lags,
                            grid.states)


@dataclass
class ForwardBackwardResult:
    forward: np.ndarray       # (T, P), rows sum to 1
    normalizers: np.ndarray   # (T,), computed on shifted observation rows
    log_likelihood: float
    fallback_bins: int        # bins recomputed with all 2P - 1 taps, both passes
    backward: np.ndarray | None = None


def forward(obs: ObservationTable, trans: GaussianTransition,
            init: np.ndarray) -> ForwardBackwardResult:
    """Scaled forward recursion; the log-likelihood adds back
    alpha sum_t m_t + T log beta - sum_t gamma_t, with m_0 bin 0's largest
    periodogram over the admissible states (init > 0): a peak on an
    inadmissible alias would scale all of them to zero.  Only the
    log-likelihood reads m_0, not backward or the posteriors.

    Each step f @ T is trans.spread(f / norm), O(P h) instead of O(P^2).
    The dropped entries are at most trans.cut, the scaled observation row
    at most 1 and sum(f / norm) at most sum(f) = 1, as every norm is at
    least 1, so they move the bin's normalizer by at most P trans.cut; a
    bin where that is not within eps of the normalizer is recomputed with
    all 2P - 1 taps.  The cost is O(T P h), O(T P^2) at worst.
    """
    scaled = obs.scaled
    n_bins, n_states = scaled.shape
    dropped = n_states * trans.cut
    fwd = np.empty((n_bins, n_states))
    norms = np.empty(n_bins)
    source = np.empty(n_states)
    fallbacks = 0
    head = np.where(init > 0, obs.periodograms[0], -np.inf)
    top = head.max()
    np.multiply(np.exp(obs.alpha * (head - top)), init, out=fwd[0])
    # the stage loop's ufuncs and methods, bound once; row sums are
    # np.add.reduce, which ndarray.sum calls
    divide, multiply, total = np.divide, np.multiply, np.add.reduce
    spread, kernel_norm = trans.spread, trans.norm
    norm = total(fwd[0])
    previous = None
    for t, (row, obs_row) in enumerate(zip(fwd, scaled)):
        if t > 0:
            divide(previous, kernel_norm, out=source)
            multiply(obs_row, spread(source), out=row)
            norm = total(row)
            if not dropped <= _EPS * norm:  # NaN fails
                fallbacks += 1
                multiply(obs_row, spread(source, all_taps=True), out=row)
                norm = total(row)
        if norm == 0.0:
            raise NumericalError(f"forward probability underflowed to zero at bin {t}")
        norms[t] = norm
        divide(row, norm, out=row)
        previous = row
    offset = obs.alpha * (top + obs.row_max[1:].sum()) + n_bins * obs.log_beta - obs.gamma.sum()
    log_likelihood = float(np.sum(np.log(norms)) + offset)
    return ForwardBackwardResult(forward=fwd, normalizers=norms, log_likelihood=log_likelihood,
                                 fallback_bins=fallbacks)


def backward(obs: ObservationTable, trans: GaussianTransition,
             fwd: ForwardBackwardResult) -> ForwardBackwardResult:
    """Scaled backward recursion dividing by the forward normalizers.

    Returns a copy of fwd with the backward table set and the backward
    pass's fallbacks added to fallback_bins.  Each step T @ v is
    trans.spread(v) / norm, whose dropped terms move bin t's posterior mass
    sum_q f_t[q] b_t[q] by at most trans.cut sum(v) sum(f_t / norm) / c_{t+1}
    <= trans.cut sum(v) / c_{t+1}, c the forward normalizers; a bin where
    that is not within eps of the mass is recomputed with all 2P - 1 taps.
    """
    scaled = obs.scaled
    n_bins, n_states = scaled.shape
    bwd = np.empty((n_bins, n_states))
    bwd[-1] = 1.0
    weights = np.empty(n_states)
    fallbacks = 0
    divide, multiply, total = np.divide, np.multiply, np.add.reduce
    spread, kernel_norm, cut = trans.spread, trans.norm, trans.cut
    # bin t = T - 2 ... 0: its row, then bin t + 1's rows and forward normalizer
    stages = zip(fwd.forward[-2::-1], bwd[-2::-1], bwd[:0:-1], scaled[:0:-1],
                 fwd.normalizers[:0:-1])
    for fwd_row, row, later, obs_later, normalizer in stages:
        multiply(obs_later, later, out=weights)
        step = spread(weights)
        divide(step, kernel_norm, out=step)
        mass = fwd_row @ step
        if not cut * total(weights) <= _EPS * mass:  # NaN fails
            fallbacks += 1
            step = spread(weights, all_taps=True)
            divide(step, kernel_norm, out=step)
        divide(step, normalizer, out=row)
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


def _band_half_width(spread: float, lam: float, grid: FrequencyGrid) -> int:
    """Viterbi's band half-width W = ceil(2 sqrt(spread / lam) / spacing),
    clamped to [1, P - 1]: the least lag whose pair cost lam (W spacing)^2
    reaches 4 spread, spread the median range of a row of periodograms.  A
    longer jump costs more than four typical rows of local cost can repay,
    so it is rare, and a row whose minimum needs one is searched densely."""
    with np.errstate(over="ignore"):
        width = np.ceil(2.0 * np.sqrt(spread / lam) / grid.spacing)
    return int(min(max(width, 1.0), grid.size - 1))


def _dense_minima(low: np.ndarray, bad: np.ndarray, cost: np.ndarray,
                  dense: np.ndarray) -> None:
    """low[p] = min_q cost[q] + dense[p, q] for each row p in bad, in blocks
    of at most _BLOCK sums."""
    step = max(1, _BLOCK // cost.size)
    for start in range(0, bad.size, step):
        rows = bad[start:start + step]
        sums = dense[rows]
        sums += cost
        low[rows] = sums.min(axis=1)


def viterbi(obs: ObservationTable, grid: FrequencyGrid, lam: float) -> tuple[np.ndarray, float]:
    """Minimum-cost state path for the regularized tracking criterion.

    Local cost is -P_t(nu^p), pair cost lag_cost[d] = lam * (d * spacing)^2
    for states d = |p - q| apart, and the first state is constrained to the
    initial band.  Ties break toward the lowest state index at every stage
    and at termination.  obs.write_periodograms writes the periodograms
    into the (T, P) table of cost rows, whose maximum and minimum are then
    taken per row; row t holds P_t until stage t subtracts it from its
    minima, with no negated copy: x - P is the same IEEE result as
    x + (-P).  The views, buffers and ufuncs of the stage loop are bound
    once before it, so each stage runs only its arithmetic.

    Band.  W = _band_half_width(median range of a row of P_t, lam, grid):
    the band covers 2 sqrt(2 R) steps sqrt(r_nu) of the chain on each side,
    R the median range of a row of log-likelihoods in nats, as
    lam = 1 / (2 alpha r_nu).  Each stage takes, for every target p,

        low[p] = min over d <= W of fl(min(cost[p - d], cost[p + d]) + lag_cost[d]),

    off-grid states costing +inf, as one (W + 1, P) array folded from the
    (2W + 1, P) windows of the previous cost row.  Rounding is monotone, so
    fl(min(a, b) + c) = min(fl(a + c), fl(b + c)): low[p] is the least of
    the IEEE sums cost[q] + lag_cost[|p - q|] a dense search forms, over
    the q in the band, and a row whose band holds its dense minimum gets it
    bit for bit.

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
    np.fmin.accumulate over a (2, P) array holding the first P - k entries
    of cost - r and cost[::-1] - r behind k entries of +inf.  It equals
    np.minimum.accumulate, which would carry a NaN on to every later
    entry, wherever the margin mu below is finite: each cost is finite or
    +inf and then so is every r_i (r_{P-1} <= S), so cost - r holds no
    NaN.  Where r holds a NaN (0 * inf in r_0 where fl(2kc) overflows) or
    an inf, S and mu are not finite, lowered is NaN or -inf, and every row
    fails the test whichever accumulate ran.  Row p keeps its band minimum
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

    Path.  No stage records where its minima lie.  Every cost row is kept,
    in one (T, P) array; each stage copies the previous one between W
    entries of +inf on each side, the off-grid predecessors the windows
    read.  By the above each row equals the dense search's bit for bit.
    The path ends at the lowest-index minimum of the last row, and each bin
    t > 0 then sets path[t - 1] to the lowest-index argmin over all q of
    cost_{t-1}[q] + lag_cost[|path[t] - q|]: the same IEEE sums over the
    same row as the dense search's back-pointer of path[t], hence the same
    state.  Where row path[t] of stage t was certified, every sum beyond
    its band is strictly above its minimum (Margin), so that state lies in
    the band and is the one the band's minimum came from.

    Cost.  O(T P W) for the bands and certificates, plus O(P) per row that
    fails the certificate, searched in blocks of at most _BLOCK sums, plus
    O(T P) to read the path back.
    The dense search can still dominate.  Where W reaches P - 1 (a grid
    at most 2 sqrt(2 R) chain steps wide on each side of a state, or lam
    small against the spread) the band itself is the dense O(T P^2)
    search.  Where every row fails (lam so large that S overflows, or rows
    so flat that W = 1 while the path jumps) each stage is dense too.  A
    row also fails while its cost comes from a jump far longer than W: the
    tangent bound grows only linearly with the lag.  So on a grid much
    wider than the start band, whose states alone are finite at stage 0,
    stage 1 fails on most rows, and rows about t W states beyond it at
    stage t fail until band moves reach them: 0.6% of the rows of a
    T=4096, P=512 track over (-4, 4) at lam = 512.5, W = 10, but most rows
    where W = 1 and T is short.  Memory: the kept cost rows, one (T, P)
    float table, into which obs.write_periodograms copies the fit's table
    or computes the periodograms from the lags, one block of
    spectral.row_blocks at a time, plus O(P) and blocks of at most _BLOCK
    floats.  A lag cost or a sum that overflows saturates to +inf without
    a warning: the constant path always has a finite cost, so no such pair
    can be on the minimum path.

    Raises ValueError naming the first bin whose row of periodograms is
    not finite: the local cost is then unusable, either itself or because
    a periodogram that large absorbs every pair cost in the sums and the
    path collapses onto the lowest-index tie.
    """
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    n_bins, n_states = obs.n_bins, obs.n_states
    # row t holds P_t until stage t overwrites it with its cost row
    costs = obs.write_periodograms(np.empty((n_bins, n_states)))
    top, bottom = costs.max(axis=1), costs.min(axis=1)  # NaN propagates
    finite = np.isfinite(top) & np.isfinite(bottom)
    if not finite.all():
        raise ValueError(f"local cost is not finite at bin {int(np.argmin(finite))}")
    # the upper median of the row ranges (np.median imports numpy.ma on first use, 30 ms)
    half = _band_half_width(np.partition(top - bottom, n_bins // 2)[n_bins // 2], lam, grid)
    reach = half + 1
    rows = np.arange(n_states)
    with np.errstate(over="ignore", invalid="ignore"):
        lag_cost = lam * (rows * grid.spacing) ** 2
        # dense[p, q] = lag_cost[|p - q|], a zero-copy Toeplitz view of the 2P - 1 lags
        dense = sliding_window_view(np.concatenate([lag_cost[:0:-1], lag_cost]), n_states)[::-1]
        ramp = 2 * reach * lag_cost[1] * rows
        lift = np.max(ramp[reach:] - lag_cost[reach:], initial=0.0)
        extent = max(top.max(), -bottom.min())
        scale = 2 * n_bins * (extent + lag_cost[-1]) + ramp[-1] + lift
        margin = 16 * _EPS * scale + _TINY if scale <= 2.0**1021 else np.inf
        lowered = ramp - (lift + margin)
        # the previous stage's cost row between W entries of +inf on each side
        padded = np.full(n_states + 2 * half, np.inf)
        cost = padded[half:half + n_states]
        # windows[j] holds the cost at q = p + j - W for each target p;
        # row d of below and above holds the predecessors d states from p
        windows = sliding_window_view(padded, n_states)
        below, above = windows[half::-1], windows[half:]
        chunk = min(reach, max(1, _BLOCK // n_states))
        fold = np.empty((chunk, n_states))
        fold_head = fold[0]
        spans = [slice(lo, min(lo + chunk, reach)) for lo in range(0, reach, chunk)]
        # the lag costs of each chunk of lags; full rows, which add faster
        # than a broadcast column, where one chunk holds every lag
        pairs = ([np.repeat(lag_cost[:reach, None], n_states, axis=1)] if len(spans) == 1
                 else [lag_cost[span, None] for span in spans])
        # each chunk's rows of below and above, its part of fold and its lag costs
        folds = [(below[span], above[span], fold[:span.stop - span.start], pair)
                 for span, pair in zip(spans, pairs)]
        # the first P - k entries of cost - r and cost[::-1] - r behind k = W + 1 of +inf
        head = n_states - reach
        cost_head, reversed_head = cost[:head], padded[::-1][half:half + head]
        ramp_head = ramp[:head]
        sweep = np.full((2, n_states), np.inf)
        sweep_below, sweep_above = sweep[0, reach:], sweep[1, reach:]
        bound = np.empty((2, n_states))
        bound_below, bound_above = bound[0], bound[1, ::-1]
        certified = np.empty(n_states, dtype=bool)
        low = np.empty(n_states)
        # the stage loop's ufuncs, bound once like its views and buffers
        copyto, add, subtract, minimum, less = (np.copyto, np.add, np.subtract, np.minimum,
                                                np.less)
        min_reduce, prefix_min = np.minimum.reduce, np.fmin.accumulate
        np.subtract(np.where(initial_distribution(grid) > 0, 0.0, np.inf), costs[0],
                    out=costs[0])
        for previous, row in zip(costs, costs[1:]):
            copyto(cost, previous)
            for i, (near, far, part, pair) in enumerate(folds):
                minimum(near, far, out=part)
                add(part, pair, out=part)
                if i:
                    minimum(fold_head, low, out=fold_head)
                min_reduce(part, axis=0, out=low)
            subtract(cost_head, ramp_head, out=sweep_below)
            subtract(reversed_head, ramp_head, out=sweep_above)
            prefix_min(sweep, axis=1, out=sweep)
            add(sweep, lowered, out=bound)
            minimum(bound_below, bound_above, out=bound_below)
            less(low, bound_below, out=certified)
            if not certified.all():
                _dense_minima(low, np.flatnonzero(~certified), cost, dense)
            subtract(low, row, out=row)
        path = np.empty(n_bins, dtype=int)
        state = path[-1] = int(np.argmin(costs[-1]))
        sums = np.empty(n_states)
        for t, row in zip(range(n_bins - 2, -1, -1), costs[-2::-1]):
            add(row, dense[state], out=sums)
            state = path[t] = sums.argmin()
    return path, float(costs[-1, path[-1]])
