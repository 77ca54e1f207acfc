"""Viterbi, scaled forward/backward recursions, and brute-force oracles.

Observation rows live in the log domain and are max-shifted before
exponentiation; the shifts are reinstated when the data log-likelihood is
reconstructed, so very peaked likelihoods (hundreds of nats) stay exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from freqtrack.likelihood import alpha_coefficient, log_beta_coefficient
from freqtrack.markov import FrequencyGrid, initial_distribution
from freqtrack.signal import DataSet, Hyperparameters
from freqtrack.spectral import periodogram_table


class NumericalError(RuntimeError):
    """Raised when a probability recursion underflows to exact zero."""


@dataclass
class ObservationTable:
    """Per-bin state log-likelihoods log O_t(p), plus the periodograms that
    generated them and the per-row max shifts used for rescaling."""

    log_prob: np.ndarray      # (T, P)
    periodograms: np.ndarray  # (T, P)
    row_shift: np.ndarray     # (T,)

    @classmethod
    def from_log_prob(cls, log_prob) -> "ObservationTable":
        log_prob = np.asarray(log_prob, dtype=float)
        return cls(log_prob=log_prob, periodograms=log_prob.copy(),
                   row_shift=log_prob.max(axis=1))

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
    """Entry (t, p) is the marginal log-likelihood of record t at state p."""
    n = dataset.n_samples
    p_table = periodogram_table(dataset.samples, grid.states)
    gamma = np.sum(np.abs(dataset.samples) ** 2, axis=1) / hyper.r_b
    log_prob = (log_beta_coefficient(hyper, n)
                + alpha_coefficient(hyper, n) * p_table
                - gamma[:, None])
    return ObservationTable(log_prob=log_prob, periodograms=p_table,
                            row_shift=log_prob.max(axis=1))


@dataclass
class ForwardBackwardResult:
    forward: np.ndarray       # (T, P), rows sum to 1
    normalizers: np.ndarray   # (T,), computed on shifted observation rows
    log_likelihood: float
    backward: np.ndarray | None = None


def forward(obs: ObservationTable, trans: np.ndarray, init: np.ndarray) -> ForwardBackwardResult:
    """Scaled forward recursion; log-likelihood includes the row shifts."""
    scaled = obs.scaled()
    n_bins, n_states = scaled.shape
    fwd = np.empty((n_bins, n_states))
    norms = np.empty(n_bins)
    probe = scaled[0] * init
    for t in range(n_bins):
        if t > 0:
            probe = scaled[t] * (fwd[t - 1] @ trans)
        norms[t] = probe.sum()
        if norms[t] == 0.0:
            raise NumericalError(f"forward probability underflowed to zero at bin {t}")
        fwd[t] = probe / norms[t]
    log_likelihood = float(np.sum(np.log(norms)) + np.sum(obs.row_shift))
    return ForwardBackwardResult(forward=fwd, normalizers=norms, log_likelihood=log_likelihood)


def backward(obs: ObservationTable, trans: np.ndarray, normalizers: np.ndarray) -> np.ndarray:
    """Scaled backward recursion dividing by the forward normalizers."""
    scaled = obs.scaled()
    n_bins, n_states = scaled.shape
    bwd = np.empty((n_bins, n_states))
    bwd[-1] = 1.0
    for t in range(n_bins - 2, -1, -1):
        bwd[t] = (trans @ (scaled[t + 1] * bwd[t + 1])) / normalizers[t + 1]
    return bwd


def forward_backward(obs: ObservationTable, trans: np.ndarray, init: np.ndarray) -> ForwardBackwardResult:
    result = forward(obs, trans, init)
    result.backward = backward(obs, trans, result.normalizers)
    return result


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


def viterbi(obs: ObservationTable, grid: FrequencyGrid, lam: float,
            band_width: int = 1) -> tuple[np.ndarray, float]:
    """Minimum-cost state path for the regularized tracking criterion.

    Local cost is -P_t(nu^p), pair cost lam * (nu^p - nu^q)^2, and the
    first state is constrained to the initial band.  Ties break toward the
    lowest state index at every stage and at termination.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    states = grid.states
    local = -obs.periodograms
    admissible = initial_distribution(grid, band_width) > 0
    pair_cost = lam * (states[None, :] - states[:, None]) ** 2  # [q, p]
    return _min_cost_path(local, pair_cost, np.where(admissible, 0.0, np.inf))


def map_path(obs: ObservationTable, trans: np.ndarray, init: np.ndarray) -> tuple[np.ndarray, float]:
    """Most probable state path of the discrete chain; returns (path, log joint)."""
    with np.errstate(divide="ignore"):
        init_cost = -np.log(init)
        pair_cost = -np.log(trans)
    path, cost = _min_cost_path(-obs.log_prob, pair_cost, init_cost)
    return path, -cost


def _min_cost_path(local: np.ndarray, pair_cost: np.ndarray,
                   init_cost: np.ndarray) -> tuple[np.ndarray, float]:
    n_bins, n_states = local.shape
    cost = local[0] + init_cost
    if not np.isfinite(cost).any():
        raise ValueError("no admissible initial state")
    back = np.empty((n_bins, n_states), dtype=int)
    for t in range(1, n_bins):
        total = cost[:, None] + pair_cost  # [q, p]
        back[t] = np.argmin(total, axis=0)
        cost = total[back[t], np.arange(n_states)] + local[t]
    path = np.empty(n_bins, dtype=int)
    path[-1] = int(np.argmin(cost))
    best = float(cost[path[-1]])
    for t in range(n_bins - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, best


@dataclass
class BruteForceResult:
    log_likelihood: float
    singles: np.ndarray
    pairs: np.ndarray
    best_path: np.ndarray
    best_log_joint: float


def brute_force_joint(obs: ObservationTable, trans: np.ndarray, init: np.ndarray,
                      max_paths: int = 10**6) -> BruteForceResult:
    """Exact P^T enumeration of the chain, for oracle comparisons only."""
    scaled = obs.scaled()
    n_bins, n_states = scaled.shape
    if n_states**n_bins > max_paths:
        raise ValueError(f"instance too large: {n_states}^{n_bins} paths")
    singles = np.zeros((n_bins, n_states))
    pairs = np.zeros((n_bins - 1, n_states, n_states))
    total = 0.0
    best_path = None
    best_weight = -np.inf
    for path in itertools.product(range(n_states), repeat=n_bins):
        weight = init[path[0]] * scaled[0, path[0]]
        for t in range(1, n_bins):
            weight *= trans[path[t - 1], path[t]] * scaled[t, path[t]]
        if weight == 0.0:
            continue
        total += weight
        for t in range(n_bins):
            singles[t, path[t]] += weight
        for t in range(n_bins - 1):
            pairs[t, path[t], path[t + 1]] += weight
        if weight > best_weight:
            best_weight = weight
            best_path = np.array(path)
    if total == 0.0:
        raise NumericalError("all joint path probabilities are zero")
    shift_total = float(np.sum(obs.row_shift))
    return BruteForceResult(
        log_likelihood=float(np.log(total)) + shift_total,
        singles=singles / total,
        pairs=pairs / total,
        best_path=best_path,
        best_log_joint=float(np.log(best_weight)) + shift_total,
    )
