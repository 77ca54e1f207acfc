import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from freqtrack import hyperopt
from freqtrack.hmm import KERNEL_CUTOFF, ObservationTable, observation_table
from freqtrack.hyperopt import (
    LINE_SEARCHES,
    STRATEGIES,
    empirical_init,
    estimate_ml,
    hyper_nll,
    hyper_nll_gradient,
)
from freqtrack.markov import (FrequencyGrid, gaussian_transition, initial_distribution,
                              transition_matrix)
from freqtrack.signal import (DataSet, Hyperparameters, make_test_track, steering_vector,
                              synthesize_dataset)
from oracles import brute_force_joint


def small_problem(seed, n_bins=4, n_states=5):
    rng = np.random.default_rng(seed)
    track = np.cumsum(rng.normal(0, 0.05, n_bins))
    track -= track[0]
    hyper = Hyperparameters(
        float(rng.uniform(0.5, 2)), float(rng.uniform(0.2, 1)), float(rng.uniform(1e-3, 0.1))
    )
    ds = synthesize_dataset(track, hyper, 4, seed=seed + 1)
    grid = FrequencyGrid(-1.5, 1.5, n_states)
    return ds, hyper, grid


def test_hyper_nll_matches_brute_force():
    for seed in range(5):
        ds, hyper, grid = small_problem(seed, n_bins=3, n_states=4)
        obs = observation_table(ds, grid, hyper)
        trans = transition_matrix(grid, hyper.r_nu)
        init = initial_distribution(grid)
        bf = brute_force_joint(obs, trans, init)
        assert hyper_nll(ds, hyper, grid) == pytest.approx(-bf.log_likelihood, rel=1e-10)


def test_hyper_nll_sensitive_to_bin_order():
    track = make_test_track("sine", 32, (-0.4, 0.4))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=3)
    grid = FrequencyGrid(-1.0, 1.0, 32)
    value = hyper_nll(ds, hyper, grid)
    rng = np.random.default_rng(0)
    shuffled = type(ds)(samples=ds.samples[rng.permutation(32)])
    assert abs(hyper_nll(shuffled, hyper, grid) - value) > 1e-3


def test_hyper_nll_flat_transition_limit():
    ds, _, _ = small_problem(7, n_bins=4)
    hyper = Hyperparameters(1.0, 0.5, 1e6)
    grid = FrequencyGrid(-1.0, 1.0, 8)
    value = hyper_nll(ds, hyper, grid)
    obs = observation_table(ds, grid, hyper)
    scaled = np.exp(obs.log_prob - obs.row_shift[:, None])
    # a flat transition forgets the state: bin 0 carries the initial law,
    # every later bin the uniform one
    uniform = np.full((ds.n_bins - 1, grid.size), 1 / grid.size)
    weights = np.vstack([initial_distribution(grid), uniform])
    independent = -np.sum(np.log(np.sum(scaled * weights, axis=1)) + obs.row_shift)
    assert value == pytest.approx(independent, rel=1e-3)


def log_central_difference(ds, hyper, grid, i, h=1e-5):
    """Central difference of hyper_nll in log r_i with step h."""
    up, down = np.log(hyper.as_array()), np.log(hyper.as_array())
    up[i] += h
    down[i] -= h
    return (hyper_nll(ds, Hyperparameters.from_array(np.exp(up)), grid)
            - hyper_nll(ds, Hyperparameters.from_array(np.exp(down)), grid)) / (2 * h)


def test_gradient_matches_finite_differences():
    for seed in range(20):
        ds, hyper, grid = small_problem(seed)
        grad = hyper_nll_gradient(ds, hyper, grid)
        for i in range(3):
            fd = log_central_difference(ds, hyper, grid, i)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extreme", [{"r_b": 1e-160}, {"r_a": 1e160}],
                         ids=["r_b=1e-160", "r_a=1e160"])
def test_gradient_finite_where_criterion_is(extreme):
    # energy / r_b^2 and s^2 once overflowed here, though hyper_nll is finite
    ds, hyper, grid = small_problem(0, n_bins=3, n_states=16)
    hyper = replace(hyper, **extreme)
    grad = hyper_nll_gradient(ds, hyper, grid)
    assert np.isfinite(grad).all()
    for i in range(3):
        fd = log_central_difference(ds, hyper, grid, i)
        # 0 where the change is below the rounding of hyper_nll, about 1e160 at r_b = 1e-160
        if fd != 0.0:
            assert grad[i] == pytest.approx(fd, rel=1e-4)


def test_criterion_rejects_hyperparameters_whose_alpha_overflows():
    # r_b (N r_a + r_b) overflows to inf: alpha would be 0, every observation
    # row constant and the criterion a finite value that says nothing
    ds, _, grid = small_problem(0)
    with pytest.raises(ValueError, match=r"r_a=1e\+155, r_b=1e\+155"):
        hyper_nll(ds, Hyperparameters(1e155, 1e155, 1e-2), grid)


def test_gradient_memory_is_below_pair_tensor():
    # the EM gradient needs only the bin-summed pair marginals, never the
    # (T-1, P, P) tensor
    n_bins, n_states = 128, 384
    track = make_test_track("sine", n_bins, (-1.5, 1.5))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=0)
    grid = FrequencyGrid(-3.5, 3.5, n_states)
    tracemalloc.start()
    try:
        hyper_nll_gradient(ds, hyper, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n_bins - 1) * n_states**2 * 8 / 4


def test_observation_gradient_zero_crossing():
    # d log O / d r_a = -N/(N r_a + r_b) + N P/(N r_a + r_b)^2 vanishes
    # exactly when the periodogram equals N r_a + r_b
    n, r_a, r_b = 4, 1.3, 0.4
    s = n * r_a + r_b
    value = -n / s + n * s / s**2
    assert value == pytest.approx(0.0, abs=1e-15)


def test_gradient_small_at_minimizer():
    track = make_test_track("sine", 64, (-1.0, 1.0))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=9)
    grid = FrequencyGrid(-2.0, 2.0, 64)
    report = estimate_ml(ds, grid, strategy="coordinate_wise")
    grad_log = hyper_nll_gradient(ds, report.minimizer, grid)
    assert np.linalg.norm(grad_log) < 1e-3 * max(1.0, abs(report.reached_minimum))


def test_empirical_init_noiseless_cisoids():
    ds = DataSet(steering_vector(np.full(16, 0.2), 4))
    grid = FrequencyGrid(-2.5, 2.5, 128)
    est = empirical_init(ds, grid)
    assert est.r_a == pytest.approx(3 / 4, rel=1e-10)
    assert est.r_b == pytest.approx(1 / 4, rel=1e-10)


def test_empirical_init_pure_noise():
    hyper = Hyperparameters(1e-12, 1.0, 1e-3)
    track = np.zeros(2048)
    ds = synthesize_dataset(track, hyper, 4, seed=4)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    est = empirical_init(ds, grid)
    assert est.r_b == pytest.approx(1.0, rel=0.1)
    assert est.r_a < 0.1


def test_empirical_init_overestimates_step_variance_on_aliased_track():
    truth_r_nu = 1e-3
    rng = np.random.default_rng(12)
    steps = rng.normal(0, np.sqrt(truth_r_nu), 127)
    track = np.concatenate([[0.0], np.cumsum(steps)]) + np.linspace(0, 3.0, 128)
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, truth_r_nu), 4, seed=13)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    est = empirical_init(ds, grid)
    assert est.r_nu > truth_r_nu


def test_empirical_init_rejects_zero_data():
    from freqtrack.signal import DataSet

    ds = DataSet(samples=np.zeros((4, 4), dtype=complex))
    grid = FrequencyGrid(-2.5, 2.5, 128)
    with pytest.raises(ValueError):
        empirical_init(ds, grid)


def standard_dataset():
    track = make_test_track("sine", 128, (-1.5, 1.5))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    return synthesize_dataset(track, hyper, 4, seed=7), FrequencyGrid(-2.5, 2.5, 128)


def test_estimate_monotone_descent():
    ds, grid = standard_dataset()
    report = estimate_ml(ds, grid, strategy="polak_ribiere")
    values = [hyper_nll(ds, Hyperparameters.from_array(np.exp(x)), grid)
              for x in report.trajectory]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert report.reached_minimum == pytest.approx(values[-1])


def test_estimate_fixed_point(monkeypatch):
    ds, grid = standard_dataset()
    first = estimate_ml(ds, grid, strategy="vignes")
    monkeypatch.setattr(hyperopt, "empirical_init", lambda *args: first.minimizer)
    again = estimate_ml(ds, grid, strategy="vignes")
    assert again.iterations <= 2
    drift = np.abs(np.log10(again.minimizer.as_array())
                   - np.log10(first.minimizer.as_array()))
    assert np.all(drift < 0.05)


def test_default_strategy_reaches_the_minimum():
    # 16 sine bins on a wide P=384 grid: the fit drifts to r_nu near e^13.7,
    # where polak_ribiere stopped 0.07 nats above coordinate_wise's 75.497882
    track = make_test_track("sine", 16, (-1.5, 1.5))
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=0)
    grid = FrequencyGrid(-3.5, 3.5, 384)
    baseline = estimate_ml(ds, grid, strategy="coordinate_wise")
    assert baseline.reached_minimum == pytest.approx(75.497882, abs=1e-6)
    assert estimate_ml(ds, grid).reached_minimum == pytest.approx(baseline.reached_minimum,
                                                                   abs=1e-6)


def test_default_fit_evaluation_budget():
    # the line searches stop on the criterion; shrinking every bracket to
    # LINE_SEARCH_TOL in the step takes 109 evaluations here
    report = estimate_ml(*standard_dataset())
    assert report.function_evals <= 70


@pytest.mark.parametrize("line_search", LINE_SEARCHES)
def test_coordinate_wise_reaches_the_vignes_minimum_on_a_wide_grid(line_search):
    # coordinate_wise stops each search early too, so it must not take a
    # rounding-level decrease as a step: with that, dichotomy stops 0.016
    # nats high here
    track = make_test_track("sine", 128, (-1.5, 1.5))
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=201)
    grid = FrequencyGrid(-3.5, 3.5, 384)
    vignes = estimate_ml(ds, grid).reached_minimum
    report = estimate_ml(ds, grid, strategy="coordinate_wise", line_search=line_search)
    assert report.reached_minimum <= vignes + 1e-7 * abs(vignes)


@pytest.mark.parametrize("line_search", LINE_SEARCHES)
def test_line_searches_all_reach_same_minimum(line_search):
    ds, grid = standard_dataset()
    report = estimate_ml(ds, grid, strategy="polak_ribiere", line_search=line_search)
    baseline = estimate_ml(ds, grid, strategy="coordinate_wise")
    spread = abs(report.reached_minimum - baseline.reached_minimum)
    assert spread < 0.005 * abs(baseline.reached_minimum)


@pytest.mark.parametrize("line_search", LINE_SEARCHES)
def test_line_search_evaluates_each_point_once(line_search):
    # phi(0) is the f0 the search is given, and the bracket's values travel
    # with its points: no point is evaluated twice
    points = []

    def curve(s):
        return (s - 0.7) ** 2 + 0.1 * np.sin(3.0 * s)

    def phi(s):
        points.append(s)
        return curve(s)

    f0 = phi(0.0)
    s, fs = hyperopt._line_search(phi, f0, 0.1, line_search)
    assert len(set(points)) == len(points)
    # the search stops on the criterion, not on the step: it is within
    # SETTLE_RATIO of its own decrease of the minimum at s = 0.8151
    assert fs < f0 and fs - curve(0.8151) <= hyperopt.SETTLE_RATIO * (f0 - fs)


@pytest.mark.parametrize("line_search", LINE_SEARCHES)
@pytest.mark.parametrize("minimizer", [0.37, 2.9, 150.0])
def test_line_search_on_a_parabola_stops_within_settle_ratio(line_search, minimizer):
    def phi(s):
        return 2910.0 + 3.0 * (s - minimizer) ** 2

    f0 = phi(0.0)
    s, fs = hyperopt._line_search(phi, f0, 0.1, line_search)
    assert 0.0 <= fs - 2910.0 <= hyperopt.SETTLE_RATIO * (f0 - fs)


def test_settled_needs_finite_ends_and_a_lowest_middle():
    assert hyperopt._settled(10.0, 0.0, 1.0, 2.0, 10.0, 1.0, 10.0)
    assert not hyperopt._settled(10.0, 0.0, 1.0, 2.0, 10.0, 1.0, np.inf)
    assert not hyperopt._settled(10.0, 0.0, 1.0, 2.0, np.nan, 1.0, 10.0)
    assert not hyperopt._settled(10.0, 0.0, 1.0, 2.0, 10.0, 1.0, 1.0)
    # the parabola through (0, 10), (1, 1), (3, 2) bottoms out 2.7 below
    # phi(b), more than SETTLE_RATIO of the decrease 9
    assert not hyperopt._settled(10.0, 0.0, 1.0, 3.0, 10.0, 1.0, 2.0)


def test_bracket_rejects_a_decrease_at_rounding_level():
    # 1e-13 below f0 = 1000 is below 16 eps |f0|: noise, not descent
    def phi(s):
        return 1000.0 - 1e-13 if s <= 1e-6 else 1000.0 + s

    assert hyperopt._bracket(phi, 1000.0, 0.1) is None


def test_bracket_stopped_at_its_cap_returns_the_value_at_c():
    a, b, c, fa, fb, fc = hyperopt._bracket(lambda s: -s, 0.0, 0.1)
    assert c > 1e6 and (fa, fb, fc) == (-a, -b, -c)


@pytest.mark.filterwarnings("error")
def test_criterion_is_inf_where_the_hyperparameters_are_rejected():
    ds, grid = standard_dataset()
    nll = hyperopt._Counted(lambda hyper: hyper_nll(ds, hyper, grid))
    fun = hyperopt._total(nll)
    # alpha overflows: hyper_nll is called and rejects the point
    assert fun(np.log([1e155, 1e155, 1e-2])) == np.inf and nll.count == 1
    # exp overflows, or underflows to 0: no hyper_nll call
    assert fun(np.array([800.0, 0.0, 0.0])) == np.inf and nll.count == 1
    assert fun(np.array([0.0, -800.0, 0.0])) == np.inf and nll.count == 1
    # r_nu = 1e-316 and r_b = 1e-300: the forward probability underflows
    assert fun(np.array([0.0, -690.0, -727.0])) == np.inf and nll.count == 2
    assert np.isfinite(fun(np.log([1.0, 0.1, 1e-2]))) and nll.count == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("unbounded", [
    lambda hyper: -np.log(hyper.r_a),   # toward r_a = inf, where exp overflows
    lambda hyper: np.log(hyper.r_b),    # toward r_b = 0, where exp underflows
], ids=["r_a_up", "r_b_down"])
def test_fit_of_an_unbounded_criterion_stays_total(monkeypatch, unbounded):
    # _bracket expands toward its 1e6 cap: the probes past the float range
    # are +inf, so the fit ends instead of raising on the overflowed point,
    # and function_evals still counts the hyper_nll calls
    calls = []

    def criterion(dataset, hyper, grid):
        calls.append(hyper)
        return unbounded(hyper)

    monkeypatch.setattr(hyperopt, "hyper_nll", criterion)
    report = estimate_ml(*small_fit_problem(), strategy="coordinate_wise")
    assert np.isfinite(report.reached_minimum) and report.reached_minimum < -600.0
    assert report.function_evals == len(calls)


def test_unknown_strategy_rejected():
    ds, grid = standard_dataset()
    with pytest.raises(ValueError):
        estimate_ml(ds, grid, strategy="sgd")
    with pytest.raises(ValueError):
        estimate_ml(ds, grid, line_search="exact")


def test_gradient_strategies_part_after_the_shared_first_step(monkeypatch):
    # every gradient strategy starts along -g, so the first iterate is shared;
    # from the second on each follows its own direction rule
    monkeypatch.setattr(hyperopt, "MAX_ITER", 2)
    ds, grid = standard_dataset()
    trajectories = [estimate_ml(ds, grid, strategy=strategy).trajectory
                    for strategy in STRATEGIES if strategy != "coordinate_wise"]
    assert all(np.array_equal(t[1], trajectories[0][1]) for t in trajectories)
    for a, b in itertools.combinations([t[2] for t in trajectories], 2):
        assert not np.array_equal(a, b)


def small_fit_problem():
    track = make_test_track("sine", 32, (-0.5, 0.5))
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=5)
    return ds, FrequencyGrid(-1.0, 1.0, 32)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stop_reason_relative_decrease(monkeypatch, strategy):
    monkeypatch.setattr(hyperopt, "REL_TOL", np.inf)
    report = estimate_ml(*small_fit_problem(), strategy=strategy)
    assert report.stop_reason == "relative_decrease" and report.converged
    assert report.iterations == 1 and len(report.trajectory) == 2


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stop_reason_max_iter(monkeypatch, strategy):
    monkeypatch.setattr(hyperopt, "MAX_ITER", 1)
    monkeypatch.setattr(hyperopt, "REL_TOL", 0.0)
    report = estimate_ml(*small_fit_problem(), strategy=strategy)
    assert report.stop_reason == "max_iter" and not report.converged
    assert report.iterations == 1 and len(report.trajectory) == 2


def test_stop_reason_zero_gradient(monkeypatch):
    monkeypatch.setattr(hyperopt, "hyper_nll_gradient", lambda *args: np.zeros(3))
    report = estimate_ml(*small_fit_problem(), strategy="vignes")
    assert report.stop_reason == "zero_gradient" and report.converged
    assert (report.iterations, report.gradient_evals, report.function_evals) == (1, 1, 1)
    assert len(report.trajectory) == 1


@pytest.mark.parametrize("strategy", ["coordinate_wise", "polak_ribiere"])
def test_stop_reason_no_decrease(monkeypatch, strategy):
    # a negated gradient points uphill, so the gradient strategies find no
    # decrease; a zero tolerance keeps coordinate_wise going until none of
    # its six directions lowers the criterion
    monkeypatch.setattr(hyperopt, "REL_TOL", 0.0)
    gradient = hyperopt.hyper_nll_gradient
    monkeypatch.setattr(hyperopt, "hyper_nll_gradient", lambda *args: -gradient(*args))
    report = estimate_ml(*small_fit_problem(), strategy=strategy)
    assert report.stop_reason == "no_decrease" and report.converged
    assert report.iterations == len(report.trajectory)


def test_unresolvable_r_nu_is_not_converged():
    # a constant track on the default grid: empirical_init floors r_nu at
    # 1e-8, where kernel[1] is 0 and hyper_nll is flat in r_nu
    ds = synthesize_dataset(np.full(32, 0.2), Hyperparameters(1.0, 1e-6, 1e-3), 4, seed=0)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    report = estimate_ml(ds, grid)
    assert gaussian_transition(grid, report.minimizer.r_nu).kernel[1] <= KERNEL_CUTOFF
    assert report.stop_reason == "r_nu_below_resolution" and not report.converged
