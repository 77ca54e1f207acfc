"""Reference implementations the tests compare the package against.

Exhaustive enumeration of the chain's paths and of the tracking
criterion's grid paths, the half-step test of a track and the dense
complex Gaussian density of one record: slow forms the pipeline never
runs.
log_likelihood_entry reads the package's own value for one record at one
frequency, for comparison with the dense density; table and log_prob build
observation tables from log-likelihood rows and read them back.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from freqtrack.hmm import NumericalError, ObservationTable, observation_table
from freqtrack.likelihood import in_initial_band
from freqtrack.markov import FrequencyGrid
from freqtrack.signal import DataSet, Hyperparameters, steering_vector


def dense_gaussian_log_density(y, nu, hyper):
    """Independent oracle: complex Gaussian with covariance r_a z z^H + r_b I."""
    n = y.size
    z = steering_vector(nu, n)
    cov = hyper.r_a * np.outer(z, z.conj()) + hyper.r_b * np.eye(n)
    quad = np.vdot(y, np.linalg.solve(cov, y)).real
    _, logdet = np.linalg.slogdet(cov)
    return -n * np.log(np.pi) - logdet - quad


def log_likelihood_entry(y, nu: float, hyper: Hyperparameters) -> float:
    """observation_table's entry for the single record y at frequency nu,
    read from a two-state grid whose first state is nu exactly."""
    dataset = DataSet(samples=np.asarray(y, dtype=complex)[None, :])
    return float(log_prob(observation_table(dataset, FrequencyGrid(nu, nu + 1, 2), hyper))[0, 0])


def table(rows) -> ObservationTable:
    """The observation table whose log-likelihoods, and periodograms, are
    rows: alpha 1, log beta 0 and gamma 0 leave every entry's value."""
    rows = np.asarray(rows, dtype=float)
    return ObservationTable(rows, 1.0, 0.0, np.zeros(rows.shape[0]))


def log_prob(obs: ObservationTable) -> np.ndarray:
    """The (T, P) log-likelihoods alpha P + log beta - gamma of obs."""
    return obs.alpha * obs.periodograms + obs.log_beta - obs.gamma[:, None]


def exhaustive_min_cost(local, grid: FrequencyGrid, lam: float) -> tuple[np.ndarray, float]:
    """Minimizer of sum_t local[t, p_t] + lam * (|p_{t+1} - p_t| * spacing)^2
    over every path that starts in the initial band; first one on ties."""
    n_bins, n_states = local.shape
    admissible = in_initial_band(grid.states)
    best, best_cost = None, np.inf
    for path in itertools.product(range(n_states), repeat=n_bins):
        if not admissible[path[0]]:
            continue
        cost = sum(local[t, path[t]] for t in range(n_bins))
        cost += sum(lam * (abs(path[t + 1] - path[t]) * grid.spacing) ** 2
                    for t in range(n_bins - 1))
        if cost < best_cost:
            best, best_cost = np.array(path), cost
    return best, best_cost


def steps_within_half(track) -> bool:
    """True iff all successive absolute frequency differences are <= 1/2."""
    track = np.asarray(track, dtype=float)
    return bool(np.all(np.abs(np.diff(track)) <= 0.5))


@dataclass
class BruteForceResult:
    log_likelihood: float
    singles: np.ndarray
    pairs: np.ndarray


def brute_force_joint(obs: ObservationTable, trans: np.ndarray, init: np.ndarray,
                      max_paths: int = 10**6) -> BruteForceResult:
    """Exact P^T enumeration of the chain, for oracle comparisons only."""
    scaled = obs.scaled
    n_bins, n_states = scaled.shape
    if n_states**n_bins > max_paths:
        raise ValueError(f"instance too large: {n_states}^{n_bins} paths")
    singles = np.zeros((n_bins, n_states))
    pairs = np.zeros((n_bins - 1, n_states, n_states))
    total = 0.0
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
    if total == 0.0:
        raise NumericalError("all joint path probabilities are zero")
    return BruteForceResult(
        log_likelihood=float(np.log(total)) + float(np.sum(obs.row_shift)),
        singles=singles / total,
        pairs=pairs / total,
    )
