"""Reference implementations the tests compare the package against.

Exhaustive path enumeration, the generic min-sum MAP path of a discrete
chain, the half-step test of a track and the dense complex Gaussian
density of one record: slow or general forms the pipeline never runs.
log_likelihood_entry reads the package's own value for one record at one
frequency, for comparison with the dense density.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from freqtrack.hmm import NumericalError, ObservationTable, _min_cost_path, observation_table
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
    return float(observation_table(dataset, FrequencyGrid(nu, nu + 1, 2), hyper).log_prob[0, 0])


def map_path(obs: ObservationTable, trans: np.ndarray, init: np.ndarray) -> tuple[np.ndarray, float]:
    """Most probable state path of the discrete chain; returns (path, log joint)."""
    with np.errstate(divide="ignore"):
        init_cost = -np.log(init)
        pair_cost = -np.log(trans)
    path, cost = _min_cost_path(-obs.log_prob, pair_cost, init_cost)
    return path, -cost


def steps_within_half(track) -> bool:
    """True iff all successive absolute frequency differences are <= 1/2."""
    track = np.asarray(track, dtype=float)
    return bool(np.all(np.abs(np.diff(track)) <= 0.5))


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
