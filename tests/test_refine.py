import warnings

import numpy as np
import pytest

from freqtrack import refine
from freqtrack.baselines import decimal_part, wrap_to_band
from freqtrack.hmm import observation_table, viterbi
from freqtrack.hyperopt import estimate_ml
from freqtrack.likelihood import in_initial_band, map_objective, rounding_level, smoothing_weight
from freqtrack.markov import FrequencyGrid
from freqtrack.refine import objective_gradient, refine_map
from freqtrack.signal import (DataSet, Hyperparameters, make_test_track, steering_vector,
                              synthesize_dataset)
from freqtrack.spectral import periodogram_deriv_many
from oracles import steps_within_half


def test_decimal_part_values():
    assert decimal_part(0.3) == pytest.approx(0.3)
    assert decimal_part(-0.3) == pytest.approx(-0.3)
    assert decimal_part(1.7) == pytest.approx(-0.3)
    assert decimal_part(-1.7) == pytest.approx(0.3)
    assert decimal_part(2.0) == 0.0
    # half-integers map to the lower endpoint
    assert decimal_part(0.5) == -0.5
    assert decimal_part(-0.5) == -0.5


def test_decimal_part_range_and_periodicity():
    rng = np.random.default_rng(0)
    x = rng.uniform(-10, 10, 200)
    d = decimal_part(x)
    assert np.all(d >= -0.5) and np.all(d < 0.5)
    assert np.allclose(x - d, np.round(x - d))
    assert np.allclose(decimal_part(x + 3), d)


def tracking_problem(seed=0, n_bins=24):
    track = make_test_track("sine", n_bins, (-0.4, 0.4))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=seed)
    return ds, track, hyper


def test_gradient_matches_finite_differences():
    ds, track, hyper = tracking_problem()
    grad, _ = objective_gradient(ds, track, hyper)
    h = 1e-6
    for t in range(track.size):
        up, down = track.copy(), track.copy()
        up[t] += h
        down[t] -= h
        fd = (
            map_objective(ds, up, hyper) - map_objective(ds, down, hyper)
        ) / (2 * h)
        assert grad[t] == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_refinement_decreases_objective_and_zeroes_gradient():
    ds, track, hyper = tracking_problem(seed=3)
    rng = np.random.default_rng(4)
    init = track + rng.normal(0, 0.02, track.size)
    result = refine_map(ds, init, hyper)
    trace = result.objective_trace
    assert all(b <= a + 1e-10 for a, b in zip(trace, trace[1:]))
    assert trace[-1] <= map_objective(ds, init, hyper) + 1e-10
    assert result.stop_reason == "converged"
    grad, _ = objective_gradient(ds, result.track, hyper)
    assert np.max(np.abs(grad)) < 1e-7


@pytest.mark.parametrize("seed", [0, 1])
def test_refinement_converges_below_rounding_level(seed):
    # default simulation: near the minimum the Newton decrease falls within
    # the rounding level of the criterion (about -500); that step is taken
    # in full, so the stop leaves no gradient a further step could remove
    truth = make_test_track("sine", 128, (-1.5, 1.5))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(truth, hyper, 4, seed=seed)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    path, _ = viterbi(observation_table(ds, grid, hyper), grid, smoothing_weight(hyper, 4))
    result = refine_map(ds, grid.states[path], hyper)
    assert result.stop_reason == "converged"
    grad, _ = objective_gradient(ds, result.track, hyper)
    assert np.max(np.abs(grad)) < 1e-9


def test_stop_reason_converged(monkeypatch):
    # one periodogram_deriv_many call gives the gradient and the Hessian
    # diagonal at each iterate; the Newton step that predicts a decrease
    # within the rounding level is taken and stops without another call
    ds, track, hyper = tracking_problem(seed=3)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    calls = 0
    deriv_many = refine.periodogram_deriv_many

    def counted(*args):
        nonlocal calls
        calls += 1
        return deriv_many(*args)
    monkeypatch.setattr(refine, "periodogram_deriv_many", counted)
    result = refine_map(ds, init, hyper)
    assert result.stop_reason == "converged"
    assert result.iterations >= 2 and calls == result.iterations


def test_stop_reason_max_iter(monkeypatch):
    ds, track, hyper = tracking_problem(seed=3)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    monkeypatch.setattr(refine, "MAX_ITER", 1)
    result = refine_map(ds, init, hyper)
    assert result.stop_reason == "max_iter"
    assert result.iterations == 1


def _with_diagonal(change):
    """objective_gradient with change applied to the Hessian diagonal it returns."""
    objective_gradient = refine.objective_gradient

    def patched(*args):
        grad, diag = objective_gradient(*args)
        return grad, change(diag)
    return patched


@pytest.mark.parametrize("seed", range(40))
def test_stop_reason_no_decrease(monkeypatch, seed):
    # a negated Hessian diagonal makes the system indefinite everywhere; the
    # modified factorization still gives a descent step, and at a Newton
    # minimum that step predicts only rounding noise, so refinement finds no
    # decrease there: it stops without leaving the minimum beyond rounding
    ds, track, hyper = tracking_problem(seed=seed)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    minimum = refine_map(ds, init, hyper).track
    value = map_objective(ds, minimum, hyper)
    monkeypatch.setattr(refine, "objective_gradient", _with_diagonal(lambda diag: -diag))
    result = refine_map(ds, minimum, hyper)
    assert result.stop_reason in ("converged", "no_decrease") and result.iterations <= 1
    assert abs(map_objective(ds, result.track, hyper) - value) <= rounding_level(value)
    assert np.max(np.abs(result.track - minimum)) < 1e-12


def test_stop_reason_no_decrease_where_rounding_flattens_the_slope():
    # a subnormal lag makes the gradient subnormal: the Newton step is too,
    # and its slope g.s underflows to 0, so refinement stops without moving
    ds = DataSet(np.array([[1.0, 1e-310, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]], dtype=complex))
    grad, _ = objective_gradient(ds, [0.1, 0.1], Hyperparameters(1.0, 0.1, 1e-3))
    assert grad.any()
    result = refine_map(ds, np.array([0.1, 0.1]), Hyperparameters(1.0, 0.1, 1e-3))
    assert result.stop_reason == "no_decrease" and result.iterations == 0
    assert np.array_equal(result.track, [0.1, 0.1])


def test_zero_gradient_at_an_indefinite_hessian_is_converged(monkeypatch):
    # on all-zero samples a constant track has the gradient 0 exactly, which
    # stops refinement before any Newton system is solved
    ds = DataSet(np.zeros((6, 4), dtype=complex))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    monkeypatch.setattr(refine, "objective_gradient", _with_diagonal(lambda diag: -diag))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = refine_map(ds, np.full(6, 0.2), hyper)
    assert result.stop_reason == "converged" and result.iterations == 0
    assert np.array_equal(result.track, np.full(6, 0.2))


def test_refinement_is_local_minimum():
    ds, track, hyper = tracking_problem(seed=5)
    result = refine_map(ds, track, hyper)
    value = map_objective(ds, result.track, hyper)
    rng = np.random.default_rng(6)
    for _ in range(50):
        perturbed = result.track + rng.normal(0, 1e-4, track.size)
        assert map_objective(ds, perturbed, hyper) >= value - 1e-12


def test_refinement_single_bin_reaches_periodogram_peak():
    hyper = Hyperparameters(1.0, 1e-6, 1e-2)
    ds = DataSet(steering_vector([0.21], 4))
    result = refine_map(ds, np.array([0.15]), hyper)
    (first,), (second,) = periodogram_deriv_many(ds.lags, result.track)
    assert first == pytest.approx(0.0, abs=1e-8)
    assert second < 0
    assert result.track[0] == pytest.approx(0.21, abs=0.05)


def test_one_bin_hessian_is_the_periodogram_curvature_alone():
    # one bin has no penalty term: its stencil is 0, so the diagonal is
    # -P'' exactly, where (-P'' + 4 lam) - 2 lam - 2 lam rounded it away
    hyper = Hyperparameters(1.0, 0.1, 1e-6)
    ds = DataSet(np.array([[1j, 1e-200]]))
    track = np.array([1.375])
    _, (second,) = periodogram_deriv_many(ds.lags, track)
    _, diag = objective_gradient(ds, track, hyper)
    assert second != 0.0 and diag.tolist() == [-second]


def test_a_converged_newton_step_out_of_the_band_is_taken_and_shifted():
    # one bin whose periodogram peaks 1e-9 beyond the band's closed end: from
    # 1e-9 inside it the Newton step predicts a decrease within the rounding
    # level and is taken; the track is then reported one cycle down
    hyper = Hyperparameters(1.0, 1e-6, 1e-2)
    ds = DataSet(steering_vector([0.5 + 1e-9], 4))
    result = refine_map(ds, np.array([0.5 - 1e-9]), hyper)
    assert result.stop_reason == "converged" and result.iterations == 1
    assert result.track[0] == pytest.approx(-0.5 + 1e-9, abs=1e-15)
    assert result.objective_trace[-1] <= result.objective_trace[0]


@pytest.mark.parametrize("first", [-0.5, 0.75])
def test_refinement_from_a_start_outside_the_band_reports_its_band_copy(first):
    # the criterion is equal on every integer shift of a track, so any
    # finite start is feasible; the result's first frequency is in the band
    ds, track, hyper = tracking_problem(seed=5)
    track = track.copy()
    track[0] = first
    result = refine_map(ds, track, hyper)
    assert result.stop_reason == "converged" and in_initial_band(result.track[0])
    assert result.objective_trace[-1] < map_objective(ds, track, hyper)
    assert map_objective(ds, result.track, hyper) == pytest.approx(result.objective_trace[-1],
                                                                   rel=1e-12)


@pytest.mark.parametrize("first", [np.nan])
def test_refinement_rejects_a_non_finite_start(first):
    ds, track, hyper = tracking_problem(seed=5)
    track = track.copy()
    track[0] = first
    with pytest.raises(ValueError, match="infeasible starting track"):
        refine_map(ds, track, hyper)


_EDGES = [np.nextafter(-0.5, -1.0), -0.5, np.nextafter(-0.5, 0.0),
          np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]


@pytest.mark.parametrize("start", _EDGES)
def test_a_step_across_the_band_edge_reports_the_band_copy(start):
    # one bin whose periodogram peaks 0.01 beyond the nearer band edge, from
    # a start at that edge or a neighbouring float: the descent crosses the
    # edge and the peak is reported one cycle away, inside the band
    peak = 0.51 if start > 0 else -0.51
    result = refine_map(DataSet(steering_vector([peak], 4)), np.array([start]),
                        Hyperparameters(1.0, 1e-6, 1e-2))
    assert result.stop_reason == "converged" and in_initial_band(result.track[0])
    assert result.track[0] == pytest.approx(wrap_to_band(peak), abs=1e-12)


@pytest.mark.parametrize("start", [*_EDGES, 1.5, -2.5, 7.25])
def test_the_reported_track_is_shifted_by_the_band_rule(start):
    # all-zero samples: the gradient is 0 at any constant track, so the start
    # is the minimum, reported shifted by the integer floor(1/2 - start)
    ds = DataSet(np.zeros((3, 4), dtype=complex))
    result = refine_map(ds, np.full(3, start), Hyperparameters(1.0, 0.1, 1e-3))
    assert result.iterations == 0 and in_initial_band(result.track[0])
    assert np.array_equal(result.track, np.full(3, start + np.floor(0.5 - start)))
    assert result.track[0] == wrap_to_band(start)


def _default_viterbi_start(truth, seed, hyper=None, n_samples=4, n_states=128):
    """Dataset, hyperparameters (fitted where hyper is None) and Viterbi track
    of one replicate of the default simulation, T=128, by default at N=4 on
    the default grid."""
    ds = synthesize_dataset(truth, Hyperparameters(1.0, 0.1, 1e-3), n_samples, seed=seed)
    grid = FrequencyGrid(-2.5, 2.5, n_states)
    hyper = hyper or estimate_ml(ds, grid).minimizer
    path, _ = viterbi(observation_table(ds, grid, hyper), grid,
                      smoothing_weight(hyper, n_samples))
    return ds, hyper, grid.states[path]


def test_refinement_of_the_default_seed_3016_takes_newton_iterations():
    # the Hessian diagonal is -0.49 on the last bin against about 1000
    # elsewhere; a steepest-descent step there took 96 iterations
    ds, hyper, start = _default_viterbi_start(make_test_track("sine", 128, (-1.5, 1.5)), 3016)
    result = refine_map(ds, start, hyper)
    assert result.stop_reason == "converged" and result.iterations <= 10


@pytest.mark.parametrize("seed", range(40))
def test_refinement_near_the_band_edge_converges(seed):
    # the default sine with its first frequency 0.5 + (k - 4) 0.002: a
    # descent that met the band as a wall crept to it for up to 74 iterations
    nu0 = 0.5 + (seed % 8 - 4) * 0.002
    truth = make_test_track("sine", 128, (nu0 - 1.5, nu0 + 1.5))
    ds, hyper, start = _default_viterbi_start(truth, seed, Hyperparameters(1.0, 0.1, 1e-3))
    result = refine_map(ds, start, hyper)
    assert result.stop_reason == "converged" and result.iterations <= 24
    assert in_initial_band(result.track[0])


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_refinement_at_16_samples_stays_on_its_peak(seed):
    # the main lobe is about 1/16 cycle wide at N = 16; a Newton step from a
    # small modified pivot near an inflection carried bins into a
    # neighbouring basin, RMSE 0.0142, 0.0140 and 0.0208 on these seeds
    # before steps were capped at 1/(2N), 0.0043, 0.0053 and 0.0043 after
    truth = make_test_track("sine", 128, (-1.5, 1.5))
    ds, hyper, start = _default_viterbi_start(truth, seed, n_samples=16, n_states=126)
    result = refine_map(ds, start, hyper)
    assert np.sqrt(np.mean((result.track - truth) ** 2)) < 0.01


def test_a_refinement_step_moves_no_bin_beyond_half_the_main_lobe(monkeypatch):
    # Newton steps lengthened a hundredfold and taken in full are cut back
    # to 1/(2N) = 1/8 at N = 4
    ds, track, hyper = tracking_problem(seed=3)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    solve, derivatives = refine._solve_tridiagonal, refine.periodogram_deriv_many
    iterates = []

    def at(lags, nus):
        iterates.append(nus.copy())
        return derivatives(lags, nus)

    monkeypatch.setattr(refine, "_solve_tridiagonal", lambda *args: 100.0 * solve(*args))
    monkeypatch.setattr(refine, "backtrack", lambda phi, f0, slope: (1.0, phi(1.0)))
    monkeypatch.setattr(refine, "periodogram_deriv_many", at)
    monkeypatch.setattr(refine, "MAX_ITER", 4)
    refine_map(ds, init, hyper)
    moves = [np.abs(b - a).max() for a, b in zip(iterates, iterates[1:])]
    assert moves == pytest.approx([0.125] * 3, rel=1e-12)


def test_strong_smoothing_flattens_track():
    track = np.array([0.1, 0.12, 0.9, 0.11])  # one outlying bin
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=10)
    flat_prior = Hyperparameters(1.0, 0.1, 1e-9)  # near-zero step variance
    result = refine_map(ds, np.full(4, 0.1), flat_prior)
    assert np.max(np.abs(np.diff(result.track))) < 1e-3


def _dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_solve_tridiagonal_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    off = rng.normal(size=n - 1)
    # diagonally dominant with a positive diagonal, hence positive definite
    dominance = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
    diag = dominance + rng.uniform(0.1, 1.0, n)
    rhs = rng.normal(size=n)
    x = refine._solve_tridiagonal(diag, off, rhs)
    assert x.shape == (n,)
    assert np.allclose(x, np.linalg.solve(_dense(diag, off), rhs), rtol=1e-12, atol=1e-12)


_DELTA = np.finfo(float).eps ** 0.5  # times max|entry|, which is 1 in every case below


@pytest.mark.parametrize("diag, off, modified", [
    ([-1.0], [], [1.0]),
    ([0.0], [], [_DELTA]),                          # the pivot 0 becomes delta
    ([1.0, 1.0], [1.0], [1.0, 1.0 + _DELTA]),       # singular: the second pivot is 0
    ([2.0, -1.0, 2.0], [0.5, 0.5], [2.0, 1.25, 2.0]),   # pivot -1.125 becomes 1.125
    ([2.0, 2.0, 0.5], [1.0, 1.0], [2.0, 2.0, 5 / 6]),   # only the last, 0.5 - 2/3, is negative
], ids=["negative", "zero", "singular", "middle_pivot", "last_pivot"])
def test_solve_tridiagonal_rejects_an_indefinite_matrix(diag, off, modified):
    # an indefinite matrix is not solved as given: each pivot p <= 0 of its
    # LDL^T becomes max(|p|, delta), which adds that less p to its diagonal
    # entry, so the solve is that of a positive definite matrix and
    # descends along rhs = -g
    diag, off, modified = np.array(diag), np.array(off), np.array(modified)
    assert np.linalg.eigvalsh(_dense(diag, off))[0] <= 0.0
    assert np.linalg.eigvalsh(_dense(modified, off))[0] > 0.0
    rhs = np.ones(len(diag))
    x = refine._solve_tridiagonal(diag, off, rhs)
    assert rhs @ x > 0.0
    assert np.allclose(x, np.linalg.solve(_dense(modified, off), rhs), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("where", ["diagonal", "off_diagonal", "rhs"])
def test_solve_tridiagonal_rejects_a_nan(where):
    diag, off, rhs = np.full(3, 2.0), np.ones(2), np.ones(3)
    {"diagonal": diag, "off_diagonal": off, "rhs": rhs}[where][-1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        refine._solve_tridiagonal(diag, off, rhs)


def test_nan_hessian_raises_instead_of_returning_a_track(monkeypatch):
    ds, track, hyper = tracking_problem(seed=3)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    monkeypatch.setattr(refine, "objective_gradient", _with_diagonal(lambda diag: diag * np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        refine_map(ds, init, hyper)
