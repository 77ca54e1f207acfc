"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them)
and then asserts, so the suite doubles as a human-readable report.
"""

import time

import numpy as np
import pytest

from freqtrack.baselines import ml_periodogram_argmax, unwrap_track
from freqtrack.cli import compute_tracks, rmse
from freqtrack.hmm import posterior_marginals, viterbi
from freqtrack.hyperopt import (
    STRATEGIES,
    FitCriterion,
    empirical_init,
    estimate_ml,
    hyper_nll,
    hyper_nll_gradient,
)
from freqtrack.likelihood import map_objective, smoothing_weight
from freqtrack.markov import (FrequencyGrid, gaussian_transition, initial_distribution,
                              transition_matrix)
from freqtrack.refine import objective_gradient, refine_map
from freqtrack.signal import DataSet, Hyperparameters, make_test_track, synthesize_dataset
from freqtrack.spectral import (empirical_correlation, periodogram, periodogram_deriv_many,
                                periodogram_table)
from oracles import (brute_force_joint, dense_gaussian_log_density, exhaustive_min_cost,
                     fit_table, forward_backward, log_likelihood_entry, steps_within_half,
                     table)

GRID = FrequencyGrid(-2.5, 2.5, 128)
TRUE_HYPER = Hyperparameters(1.0, 0.1, 1e-3)


def report(number, label, ok):
    print(f"\ncriterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def standard_dataset(seed=7):
    track = make_test_track("sine", 128, (-1.5, 1.5))
    return synthesize_dataset(track, TRUE_HYPER, 4, seed=seed), track


def test_criterion_1_hmm_oracle_equivalence():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        n_bins = int(rng.integers(1, 6))
        n_states = int(rng.integers(3, 7))
        grid = FrequencyGrid(-1.0, 1.0, n_states)
        r_nu = float(rng.uniform(0.01, 1.0))
        transition = gaussian_transition(grid, r_nu)
        trans = transition_matrix(grid, r_nu)
        init = initial_distribution(grid)
        obs = table(rng.normal(0, 5, (n_bins, n_states)))
        bf = brute_force_joint(obs, trans, init)
        fb = forward_backward(obs, transition, init)
        post = posterior_marginals(fb, obs, trans)
        lam = 1.0 / (2.0 * r_nu)  # the chain's own smoothing weight
        path, cost = viterbi(obs, grid, lam)
        best, best_cost = exhaustive_min_cost(-obs.periodograms, grid, lam)
        ok &= abs(fb.log_likelihood - bf.log_likelihood) < 1e-10 * max(
            1.0, abs(bf.log_likelihood)
        )
        ok &= np.max(np.abs(post.singles - bf.singles)) < 1e-10
        if n_bins > 1:
            ok &= np.max(np.abs(post.pairs - bf.pairs)) < 1e-10
        ok &= np.array_equal(path, best)
        ok &= abs(cost - best_cost) < 1e-12 * max(1.0, abs(best_cost))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(1, f"HMM oracle equivalence, {elapsed:.2f} s", ok)


def test_criterion_2_marginal_likelihood_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nu = float(rng.uniform(-2, 2))
        hyper = Hyperparameters(
            float(rng.uniform(0.2, 3)), float(rng.uniform(0.2, 3)), 1e-3
        )
        oracle = dense_gaussian_log_density(y, nu, hyper)
        mine = log_likelihood_entry(y, nu, hyper)
        worst = max(worst, abs(mine - oracle) / abs(oracle))
    report(2, f"marginal likelihood vs dense oracle, max rel err {worst:.2e}",
           worst < 1e-10)


def test_criterion_3_gradient_suites():
    rng = np.random.default_rng(102)
    ok = True

    # (a) hyperparameter criterion gradient vs central differences, 20 cases
    for seed in range(20):
        srng = np.random.default_rng(200 + seed)
        track = np.cumsum(srng.normal(0, 0.05, 4))
        hyper = Hyperparameters(
            float(srng.uniform(0.5, 2)), float(srng.uniform(0.2, 1)),
            float(srng.uniform(1e-3, 0.1))
        )
        ds = synthesize_dataset(track - track[0], hyper, 4, seed=300 + seed)
        grid = FrequencyGrid(-1.5, 1.5, 5)
        criterion = FitCriterion(ds, grid)
        grad = hyper_nll_gradient(criterion, hyper)  # in log r
        x = np.log(hyper.as_array())
        for i in range(3):
            h = 1e-5
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            fd = (hyper_nll(criterion, Hyperparameters.from_array(np.exp(up)))
                  - hyper_nll(criterion, Hyperparameters.from_array(np.exp(down)))) / (2 * h)
            ok &= abs(grad[i] - fd) < 1e-4 * max(1.0, abs(fd))

    # (b) tracking criterion gradient and tridiagonal Hessian vs finite differences
    track = make_test_track("sine", 12, (-0.4, 0.4))
    ds = synthesize_dataset(track, TRUE_HYPER, 4, seed=4)
    grad, diag = objective_gradient(ds, track, TRUE_HYPER)
    off = -2.0 * smoothing_weight(TRUE_HYPER, ds.n_samples)
    h = 1e-6
    for t in range(12):
        up, down = track.copy(), track.copy()
        up[t] += h
        down[t] -= h
        fd = (map_objective(ds, up, TRUE_HYPER)
              - map_objective(ds, down, TRUE_HYPER)) / (2 * h)
        ok &= abs(grad[t] - fd) < 1e-6 * max(1.0, abs(fd))
    h = 1e-5
    for t in range(12):
        up, down = track.copy(), track.copy()
        up[t] += h
        down[t] -= h
        col = (objective_gradient(ds, up, TRUE_HYPER)[0]
               - objective_gradient(ds, down, TRUE_HYPER)[0]) / (2 * h)
        ok &= abs(diag[t] - col[t]) < 1e-4 * max(1.0, abs(col[t]))
        if t + 1 < 12:
            ok &= abs(off - col[t + 1]) < 1e-4 * max(1.0, abs(col[t + 1]))

    # (c) periodogram first and second derivatives vs finite differences
    for _ in range(20):
        c = empirical_correlation(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        nu = float(rng.uniform(-1, 1))
        (first,), (second,) = periodogram_deriv_many([c], [nu])
        h = 1e-6
        fd1 = (periodogram(c, nu + h) - periodogram(c, nu - h)) / (2 * h)
        ok &= abs(first - fd1) < 1e-6 * max(1.0, abs(fd1))
        h = 1e-4
        fd2 = (periodogram(c, nu + h) - 2 * periodogram(c, nu)
               + periodogram(c, nu - h)) / h**2
        ok &= abs(second - fd2) < 1e-4 * max(1.0, abs(fd2))

    report(3, "gradient suites vs finite differences", ok)


def test_criterion_4_periodicity_invariants():
    rng = np.random.default_rng(103)
    ok = True
    # per-bin marginal likelihood is 1-periodic in the frequency
    for _ in range(20):
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        nu = float(rng.uniform(-1, 1))
        k = int(rng.integers(-5, 6))
        a = log_likelihood_entry(y, nu, TRUE_HYPER)
        b = log_likelihood_entry(y, nu + k, TRUE_HYPER)
        ok &= abs(a - b) < 1e-10 * max(1.0, abs(a))
    # the tracking criterion is invariant under shifting every frequency by
    # the same integer
    ds = DataSet(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
    track = rng.uniform(-0.4, 0.4, 8)
    a = map_objective(ds, track, TRUE_HYPER)
    for k in (-2, -1, 1, 3):
        b = map_objective(ds, track + k, TRUE_HYPER)
        ok &= abs(a - b) < 1e-10 * max(1.0, abs(a))
    report(4, "periodicity invariants", ok)


def test_criterion_5_half_step_property_of_minimizers():
    rng = np.random.default_rng(104)
    ok = True
    for seed in range(10):
        track = make_test_track("sine", 16, (-0.4, 0.4))
        ds = synthesize_dataset(track, TRUE_HYPER, 4, seed=seed)
        init = track + rng.normal(0, 0.02, 16)
        result = refine_map(ds, init, TRUE_HYPER)
        ok &= steps_within_half(result.track)
    # rewrapping a track with an oversized step strictly lowers the criterion
    # and leaves every per-bin periodogram value unchanged
    track = make_test_track("sine", 16, (-0.4, 0.4))
    ds = synthesize_dataset(track, TRUE_HYPER, 4, seed=42)
    violating = track.copy()
    violating[8:] += 1.0  # insert a full-cycle jump mid-track
    fixed = unwrap_track(violating)
    ok &= not steps_within_half(violating)
    ok &= steps_within_half(fixed)
    before = map_objective(ds, violating, TRUE_HYPER)
    after = map_objective(ds, fixed, TRUE_HYPER)
    ok &= after < before
    for t in range(16):
        ok &= periodogram(ds.lags[t], fixed[t]) == pytest.approx(
            periodogram(ds.lags[t], violating[t]), rel=1e-12
        )
    report(5, "refined tracks keep steps within half a cycle", ok)


def test_criterion_6_beyond_nyquist_tracking():
    start = time.perf_counter()
    truth = make_test_track("sine", 128, (-1.5, 1.5))
    both_ok = 0
    for rep in range(20):
        ds = synthesize_dataset(truth, TRUE_HYPER, 4, seed=1000 + rep)
        est = estimate_ml(ds, GRID, strategy="vignes").minimizer
        tracks = compute_tracks(ds, GRID, est)
        good_map = rmse(tracks["hessian_map"], truth) < 0.05
        bad_alias = rmse(tracks["ml_aliased"], truth) > 0.3
        both_ok += int(good_map and bad_alias)
    elapsed = time.perf_counter() - start
    ok = both_ok >= 18 and elapsed < 60.0
    report(6, f"beyond-Nyquist tracking {both_ok}/20 replicates, {elapsed:.1f} s", ok)


def test_criterion_7_optimizer_consensus():
    ds, _ = standard_dataset()
    minima, minimizers = [], []
    for strategy in STRATEGIES:
        result = estimate_ml(ds, GRID, strategy=strategy)
        minima.append(result.reached_minimum)
        minimizers.append(np.log10(result.minimizer.as_array()))
    minima = np.array(minima)
    spread = (minima.max() - minima.min()) / abs(minima.min())
    log_spread = np.max(np.ptp(np.array(minimizers), axis=0))
    ok = spread < 0.005 and log_spread < 0.1
    report(7, f"{len(STRATEGIES)}-strategy consensus, minima spread {spread:.2e}, "
              f"minimizer spread {log_spread:.3f} log10", ok)


def test_criterion_8_hyperparameter_recovery():
    truth = Hyperparameters(1.0, 0.1, 2e-3)
    hits = 0
    for rep in range(20):
        rng = np.random.default_rng(2000 + rep)
        track = np.concatenate(
            [[0.0], np.cumsum(rng.normal(0, np.sqrt(truth.r_nu), 127))]
        )
        ds = synthesize_dataset(track, truth, 4, seed=3000 + rep)
        est = estimate_ml(ds, GRID, strategy="vignes").minimizer
        err = np.abs(np.log10(est.as_array()) - np.log10(truth.as_array()))
        hits += int(np.all(err < 0.3))
    # the initializer's r_nu is the robust variance (1.4826 MAD)^2 of the
    # steps of the unwrapped argmax track: a wrap of the aliased track on
    # these drifts through several alias bands adds no cycle-sized jump
    band = GRID.states[initial_distribution(GRID) > 0]
    unwrapped = 0
    for rep in range(20):
        rng = np.random.default_rng(4000 + rep)
        track = (np.concatenate([[0.0], np.cumsum(rng.normal(0, np.sqrt(truth.r_nu), 127))])
                 + np.linspace(0, 3.0, 128))
        ds = synthesize_dataset(track, truth, 4, seed=5000 + rep)
        argmax = band[np.argmax(periodogram_table(ds.lags, band), axis=1)]
        steps = (1.4826 * np.median(np.abs(np.diff(unwrap_track(argmax))))) ** 2
        start = empirical_init(FitCriterion(ds, GRID))
        unwrapped += int(start.r_nu == pytest.approx(steps, rel=1e-12))
    ok = hits >= 15 and unwrapped == 20
    report(8, f"hyperparameter recovery {hits}/20 within 0.3 log10, "
              f"initializer r_nu the unwrapped argmax steps' robust variance {unwrapped}/20", ok)


def test_criterion_9_probability_hygiene():
    ds, _ = standard_dataset()
    transition = gaussian_transition(GRID, TRUE_HYPER.r_nu)
    trans = transition_matrix(GRID, TRUE_HYPER.r_nu)
    init = initial_distribution(GRID)
    obs = fit_table(ds, GRID, TRUE_HYPER)
    fb = forward_backward(obs, transition, init)
    post = posterior_marginals(fb, obs, trans)
    ok = np.max(np.abs(trans.sum(axis=1) - 1.0)) < 1e-10
    ok &= np.max(np.abs(fb.forward.sum(axis=1) - 1.0)) < 1e-10
    ok &= np.max(np.abs(post.singles.sum(axis=1) - 1.0)) < 1e-10
    ok &= np.max(np.abs(post.pairs.sum(axis=2) - post.singles[:-1])) < 1e-10
    ok &= np.max(np.abs(post.pairs.sum(axis=1) - post.singles[1:])) < 1e-10
    report(9, "probability hygiene on the standard pipeline", ok)
