import numpy as np
import pytest

from freqtrack import refine
from freqtrack.baselines import decimal_part
from freqtrack.hmm import observation_table, viterbi
from freqtrack.likelihood import map_objective, smoothing_weight
from freqtrack.markov import FrequencyGrid
from freqtrack.refine import objective_gradient, refine_map
from freqtrack.signal import (DataSet, Hyperparameters, make_test_track, steering_vector,
                              synthesize_dataset)
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
    assert result.stop_reason == "gradient"
    grad, _ = objective_gradient(ds, result.track, hyper)
    assert np.max(np.abs(grad)) < 1e-7


@pytest.mark.parametrize("seed", [0, 1])
def test_refinement_converges_below_rounding_level(seed):
    # default simulation: near the minimum the Newton decrease falls below
    # the rounding of the criterion (about -500), which must not stop descent
    truth = make_test_track("sine", 128, (-1.5, 1.5))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(truth, hyper, 4, seed=seed)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    path, _ = viterbi(observation_table(ds, grid, hyper), grid, smoothing_weight(hyper, 4))
    result = refine_map(ds, grid.states[path], hyper)
    assert result.stop_reason == "gradient"
    grad, _ = objective_gradient(ds, result.track, hyper)
    assert np.max(np.abs(grad)) < 1e-9


def test_stop_reason_gradient(monkeypatch):
    # one periodogram_deriv_many call gives the gradient and the Hessian
    # diagonal at each iterate, including the one where the gradient test stops
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
    assert result.stop_reason == "gradient"
    assert result.iterations >= 2 and calls == result.iterations + 1


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
    # at a Newton minimum a gradient step only meets rounding noise, and a
    # zero tolerance never accepts the gradient as small enough; a negated
    # Hessian diagonal makes the system indefinite, so every step is the
    # gradient fallback.  A "decrease" at the criterion's rounding level is
    # no decrease, so the minimum does not move
    ds, track, hyper = tracking_problem(seed=seed)
    init = track + np.random.default_rng(4).normal(0, 0.02, track.size)
    minimum = refine_map(ds, init, hyper).track
    monkeypatch.setattr(refine, "GRAD_TOL", 0.0)
    monkeypatch.setattr(refine, "objective_gradient", _with_diagonal(lambda diag: -diag))
    result = refine_map(ds, minimum, hyper)
    assert result.stop_reason == "no_decrease"
    assert np.array_equal(result.track, minimum)


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
    from freqtrack.spectral import periodogram_deriv_many

    (first,), (second,) = periodogram_deriv_many(ds.lags, result.track)
    assert first == pytest.approx(0.0, abs=1e-8)
    assert second < 0
    assert result.track[0] == pytest.approx(0.21, abs=0.05)


@pytest.mark.parametrize("first", [-0.5, 0.75, np.nan])
def test_refinement_rejects_a_start_outside_the_initial_band(first):
    # the objective is +inf unless the first frequency lies in (-1/2, 1/2]
    ds, track, hyper = tracking_problem(seed=5)
    track = track.copy()
    track[0] = first
    with pytest.raises(ValueError, match="infeasible starting track"):
        refine_map(ds, track, hyper)


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


@pytest.mark.parametrize("diag, off", [
    ([-1.0], []),
    ([0.0], []),
    ([1.0, 1.0], [1.0]),               # singular: the second pivot is 0
    ([2.0, -1.0, 2.0], [0.5, 0.5]),
    ([2.0, 2.0, 0.5], [1.0, 1.0]),     # only the last pivot, 0.5 - 2/3, is negative
], ids=["negative", "zero", "singular", "middle_pivot", "last_pivot"])
def test_solve_tridiagonal_rejects_an_indefinite_matrix(diag, off):
    diag, off = np.array(diag), np.array(off)
    assert np.linalg.eigvalsh(_dense(diag, off))[0] <= 0.0
    assert refine._solve_tridiagonal(diag, off, np.ones(len(diag))) is None


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
