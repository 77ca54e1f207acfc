"""Reference implementations the tests compare the package against.

Exhaustive enumeration of the chain's paths and of the tracking
criterion's grid paths, the half-step test of a track, the dense
complex Gaussian density of one record, the periodogram and its
derivatives by the direct DFT, the r_nu gradient from dense pair
marginals and row-by-row csv-module readers of the dataset and track
files: slow forms the pipeline never runs.
log_likelihood_entry reads the package's own value for one record at one
frequency, for comparison with the dense density; table and fit_table
build observation tables from log-likelihood rows and as the fit does,
log_prob reads them back, and scaled_rows rescales the read-back rows in
the log-table form.
"""

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from freqtrack.hmm import (NumericalError, ObservationTable, forward_backward,
                           observation_table, posterior_marginals)
from freqtrack.hyperopt import FitCriterion
from freqtrack.io import DataFormatError
from freqtrack.likelihood import in_initial_band
from freqtrack.markov import (FrequencyGrid, gaussian_transition, initial_distribution,
                              transition_matrix)
from freqtrack.signal import DataSet, Hyperparameters, steering_vector
from freqtrack.spectral import periodogram_table


def dense_gaussian_log_density(y, nu, hyper):
    """Independent oracle: complex Gaussian with covariance r_a z z^H + r_b I."""
    n = y.size
    z = steering_vector(nu, n)
    cov = hyper.r_a * np.outer(z, z.conj()) + hyper.r_b * np.eye(n)
    quad = np.vdot(y, np.linalg.solve(cov, y)).real
    _, logdet = np.linalg.slogdet(cov)
    return -n * np.log(np.pi) - logdet - quad


def dft_periodogram(samples, nu):
    """P(nu) = (1/N) |Y(nu)|^2, Y(nu) = sum_n y(n) e^{-2j pi nu n}, by the
    direct DFT of the samples.  Records run along the last axis and
    broadcast against nu, as in spectral.periodogram.

    To first order (u = eps / 2, Cauchy-Schwarz for sum |y| <= sqrt(N sum |y|^2)):
    Y is within u sum|y| (6 pi |nu| N + N + 6) of its exact value, so P is
    within 20 N^2 (1 + |nu|) eps c(0), c(0) = sum |y|^2 / N.
    """
    y = np.asarray(samples, dtype=complex)
    n = np.arange(y.shape[-1])
    phase = np.exp(-2j * np.pi * (np.asarray(nu, dtype=float)[..., None] * n))
    out = np.abs(np.sum(y * phase, axis=-1)) ** 2 / y.shape[-1]
    return out if out.ndim else float(out)


def dft_periodogram_derivatives(samples2d, nus) -> tuple[np.ndarray, np.ndarray]:
    """P'(nu) = 2 Re(conj(Y) Y') / N and P''(nu) = 2 (|Y'|^2 + Re(conj(Y) Y'')) / N
    per record, row t at nus[t], with Y' and Y'' the DFT's terms times
    -2j pi n and its square.  Each derivative multiplies term n by at most
    2 pi N, and the products double it, so the d-th derivative is within
    (4 pi N)^d times dft_periodogram's bound."""
    y = np.asarray(samples2d, dtype=complex)
    w = -2j * np.pi * np.arange(y.shape[-1])
    terms = y * np.exp(np.multiply.outer(np.asarray(nus, dtype=float), w))
    dft, first, second = (np.sum(w**d * terms, axis=-1) for d in range(3))
    n = y.shape[-1]
    return (2 * np.real(np.conj(dft) * first) / n,
            2 * (np.abs(first) ** 2 + np.real(np.conj(dft) * second)) / n)


def log_likelihood_entry(y, nu: float, hyper: Hyperparameters) -> float:
    """observation_table's entry for the single record y at frequency nu,
    read from a two-state grid whose first state is nu exactly."""
    dataset = DataSet(samples=np.asarray(y, dtype=complex)[None, :])
    grid = FrequencyGrid(nu, nu + 1, 2)
    periodograms = periodogram_table(dataset.lags, grid.states)
    obs = observation_table(dataset, grid, hyper, periodograms, periodograms.max(axis=1))
    return float(log_prob(obs)[0, 0])


def table(rows) -> ObservationTable:
    """The observation table whose log-likelihoods, and periodograms, are
    rows, with their row maxima: alpha 1, log beta 0 and gamma 0 leave
    every entry's value."""
    rows = np.asarray(rows, dtype=float)
    return ObservationTable(rows, rows.max(axis=1), 1.0, 0.0, np.zeros(rows.shape[0]))


def fit_table(dataset: DataSet, grid: FrequencyGrid, hyper: Hyperparameters) -> ObservationTable:
    """observation_table as hyper_nll reads it: on FitCriterion's periodogram
    table and row maxima."""
    criterion = FitCriterion(dataset, grid)
    return observation_table(dataset, grid, hyper, criterion.periodograms, criterion.row_max)


def log_prob(obs: ObservationTable) -> np.ndarray:
    """The (T, P) log-likelihoods alpha P + log beta - gamma of obs."""
    return obs.alpha * obs.periodograms + obs.log_beta - obs.gamma[:, None]


def scaled_rows(obs: ObservationTable) -> tuple[np.ndarray, np.ndarray]:
    """(exp(log O - max log O), max log O): the log table log_prob(obs),
    each row shifted by its maximum before exponentiation, and the shifts."""
    rows = log_prob(obs)
    shifts = rows.max(axis=1)
    return np.exp(rows - shifts[:, None]), shifts


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
    """Exact P^T enumeration of the chain, for oracle comparisons only, on
    the rescaled rows of the log table, scaled_rows(obs)."""
    scaled, shifts = scaled_rows(obs)
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
        log_likelihood=float(np.log(total)) + float(np.sum(shifts)),
        singles=singles / total,
        pairs=pairs / total,
    )


def dense_r_nu_gradient(dataset: DataSet, hyper: Hyperparameters,
                        grid: FrequencyGrid) -> tuple[float, float]:
    """(d, scale): d = sum_{q,p} pair_sum[q, p] (d2[q, p] - e[q]) / (2 r_nu),
    hyper_nll's derivative in log r_nu negated, from the dense (P, P) pair
    marginals of posterior_marginals on transition_matrix, with
    d2[q, p] = (nu_p - nu_q)^2 and e[q] = sum_p T[q, p] d2[q, p]; scale is
    the sum of the two terms' sizes."""
    obs = fit_table(dataset, grid, hyper)
    fb = forward_backward(obs, gaussian_transition(grid, hyper.r_nu), initial_distribution(grid))
    trans = transition_matrix(grid, hyper.r_nu)
    pair_sum = posterior_marginals(fb, obs, trans).pair_sum
    d2 = (grid.states[None, :] - grid.states[:, None]) ** 2
    steps = np.sum(pair_sum * d2) / (2.0 * hyper.r_nu)
    prior = np.sum(pair_sum * np.sum(trans * d2, axis=1)[:, None]) / (2.0 * hyper.r_nu)
    return float(steps - prior), float(abs(steps) + abs(prior))


def _csv_rows(path, header: list[str], parse) -> list:
    """parse(row) for every non-blank row of a CSV file with this header.

    A wrong header, a row with the wrong column count and any ValueError
    raised by parse all become DataFormatError.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found != header:
                raise ValueError(f"expected header {','.join(header)}, got {found}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(f"bad row {row}")
                rows.append(parse(row))
    except (ValueError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return rows


def _parse_sample(row) -> tuple[int, int, complex]:
    t, n = int(row[0]), int(row[1])
    if t < 1 or n < 1:
        raise ValueError(f"indices must be at least 1, got t={t}, n={n}")
    return t, n, complex(float(row[2]), float(row[3]))


def csv_read_dataset(path) -> DataSet:
    """The dataset file read row by row with the csv module."""
    rows = _csv_rows(path, ["t", "n", "re", "im"], _parse_sample)
    if not rows:
        raise DataFormatError(f"{path}: no sample rows")
    n_bins = max(r[0] for r in rows)
    n_samples = max(r[1] for r in rows)
    if len(rows) != n_bins * n_samples:
        raise DataFormatError(f"{path}: expected {n_bins * n_samples} rows, got {len(rows)}")
    samples = np.full((n_bins, n_samples), np.nan + 0j)
    for t, n, value in rows:
        samples[t - 1, n - 1] = value
    if np.any(np.isnan(samples.real)):
        raise DataFormatError(f"{path}: missing (t, n) entries")
    return DataSet(samples=samples)


def csv_read_track(path) -> np.ndarray:
    """The track file read row by row with the csv module."""
    rows = _csv_rows(path, ["t", "nu"], lambda row: (int(row[0]), float(row[1])))
    values = {}
    for t, nu in rows:
        if t in values:
            raise DataFormatError(f"{path}: duplicate bin index {t}")
        if not np.isfinite(nu):
            raise DataFormatError(f"{path}: non-finite nu {nu!r} at bin {t}")
        values[t] = nu
    if not values or sorted(values) != list(range(1, len(values) + 1)):
        raise DataFormatError(f"{path}: bin indices must be 1..T")
    return np.array([values[t] for t in sorted(values)])
