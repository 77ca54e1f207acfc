import functools
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from freqtrack import hmm, hyperopt, likelihood, markov
from freqtrack.baselines import unwrap_track
from freqtrack.hmm import ObservationTable, observation_table
from freqtrack.hyperopt import (
    DECREMENT_TOL,
    LINE_SEARCH_TOL,
    LINE_SEARCHES,
    STRATEGIES,
    FitCriterion,
    empirical_init,
    estimate_ml,
    hyper_nll,
    hyper_nll_gradient,
)
from freqtrack.markov import (KERNEL_CUTOFF, FrequencyGrid, GaussianTransition,
                              gaussian_transition, initial_distribution, transition_matrix)
from freqtrack.signal import (DataSet, Hyperparameters, make_test_track, steering_vector,
                              synthesize_dataset)
from freqtrack.spectral import empirical_correlation, periodogram_table
from oracles import brute_force_joint, dense_r_nu_gradient, fit_table, scaled_rows


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
        obs = fit_table(ds, grid, hyper)
        trans = transition_matrix(grid, hyper.r_nu)
        init = initial_distribution(grid)
        bf = brute_force_joint(obs, trans, init)
        value = hyper_nll(FitCriterion(ds, grid), hyper)
        assert value == pytest.approx(-bf.log_likelihood, rel=1e-10)


def test_hyper_nll_sensitive_to_bin_order():
    track = make_test_track("sine", 32, (-0.4, 0.4))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    ds = synthesize_dataset(track, hyper, 4, seed=3)
    grid = FrequencyGrid(-1.0, 1.0, 32)
    value = hyper_nll(FitCriterion(ds, grid), hyper)
    rng = np.random.default_rng(0)
    shuffled = type(ds)(samples=ds.samples[rng.permutation(32)])
    assert abs(hyper_nll(FitCriterion(shuffled, grid), hyper) - value) > 1e-3


def test_hyper_nll_flat_transition_limit():
    ds, _, _ = small_problem(7, n_bins=4)
    hyper = Hyperparameters(1.0, 0.5, 1e6)
    grid = FrequencyGrid(-1.0, 1.0, 8)
    value = hyper_nll(FitCriterion(ds, grid), hyper)
    scaled, shifts = scaled_rows(fit_table(ds, grid, hyper))
    # a flat transition forgets the state: bin 0 carries the initial law,
    # every later bin the uniform one
    uniform = np.full((ds.n_bins - 1, grid.size), 1 / grid.size)
    weights = np.vstack([initial_distribution(grid), uniform])
    independent = -np.sum(np.log(np.sum(scaled * weights, axis=1)) + shifts)
    assert value == pytest.approx(independent, rel=1e-3)


def log_central_difference(ds, hyper, grid, i, h=1e-5):
    """Central difference of hyper_nll in log r_i with step h."""
    up, down = np.log(hyper.as_array()), np.log(hyper.as_array())
    up[i] += h
    down[i] -= h
    criterion = FitCriterion(ds, grid)
    return (hyper_nll(criterion, Hyperparameters.from_array(np.exp(up)))
            - hyper_nll(criterion, Hyperparameters.from_array(np.exp(down)))) / (2 * h)


def test_gradient_matches_finite_differences():
    for seed in range(20):
        ds, hyper, grid = small_problem(seed)
        grad = hyper_nll_gradient(FitCriterion(ds, grid), hyper)
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
    grad = hyper_nll_gradient(FitCriterion(ds, grid), hyper)
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
        hyper_nll(FitCriterion(ds, grid), Hyperparameters(1e155, 1e155, 1e-2))


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
        hyper_nll_gradient(FitCriterion(ds, grid), hyper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n_bins - 1) * n_states**2 * 8 / 4


def r_nu_problem(n_bins, n_states, r_nu):
    track = make_test_track("sine", n_bins, (-1.5, 1.5))
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=n_bins)
    # both states of a two-state grid on [-2.5, 2.5] would lie outside the start band
    grid = FrequencyGrid(-2.5, 2.5, n_states) if n_states > 2 else FrequencyGrid(0.0, 0.5, 2)
    return ds, Hyperparameters(1.0, 0.1, r_nu), grid


def test_gradient_at_a_wide_grid_builds_no_state_by_state_array():
    # one P x P float array is 32 MiB at P = 2048; the gradient built six
    # of them (172 MiB) when it summed dense pair marginals.  r_nu = 3.9e5
    # keeps all 2P - 1 kernel taps
    for r_nu in (4e-3, 3.9e5):
        ds, hyper, grid = r_nu_problem(128, 2048, r_nu)
        tracemalloc.start()
        try:
            hyper_nll_gradient(FitCriterion(ds, grid), hyper)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.size**2 * 8, r_nu


@pytest.mark.parametrize("r_nu", [4e-3, 3.9e5], ids=["narrow", "all-taps"])
@pytest.mark.parametrize("n_states", [384, 2048])
def test_fresh_gradient_peaks_at_five_tables(n_states, r_nu):
    # the forward, backward, singles and rescaled observation tables, with
    # head and weighted written over two of them and the lag moment taken in
    # column blocks; a separate head, weighted and zero-padded table peaked
    # at 7.3 to 9.1 tables
    ds, hyper, grid = r_nu_problem(128, n_states, r_nu)
    criterion = FitCriterion(ds, grid)
    tracemalloc.start()
    try:
        hyper_nll_gradient(criterion, hyper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * ds.n_bins * grid.size * 8


def test_gradient_at_the_lowest_point_leaves_its_forward_pass_alone():
    # the gradient writes head and weighted over its own tables, never over
    # the forward pass criterion.lowest holds for the next gradient
    ds, hyper, grid = r_nu_problem(128, 384, 4e-3)
    criterion = FitCriterion(ds, grid)
    hyper_nll(criterion, hyper)
    held = criterion.lowest[3]
    before = held.forward.copy(), held.normalizers.copy()
    first = hyper_nll_gradient(criterion, hyper)
    assert criterion.lowest[3] is held and held.backward is None
    assert np.array_equal(held.forward, before[0]) and np.array_equal(held.normalizers, before[1])
    assert np.array_equal(hyper_nll_gradient(criterion, hyper), first)


@pytest.mark.parametrize("r_nu", [4e-3, 3.9e5], ids=["narrow", "all-taps"])
@pytest.mark.parametrize("n_bins", [2, 16, 128])
@pytest.mark.parametrize("n_states", [2, 3, 65, 128, 131, 384, 1026])
def test_r_nu_gradient_equals_the_dense_pair_marginals(n_states, n_bins, r_nu):
    # the lag sums of the pair marginals against the dense (P, P) ones; at
    # r_nu = 3.9e5, where a T=16 fit ends, the band keeps all 2P - 1 taps.
    # The lag moment's column blocks are 4 to 128 states wide here: P = 2
    # and 3 lie within one block, 65 is one past a block, 131 and 1026 end
    # on a partial block, at both r_nu
    ds, hyper, grid = r_nu_problem(n_bins, n_states, r_nu)
    expected, scale = dense_r_nu_gradient(ds, hyper, grid)
    assert abs(-hyper_nll_gradient(FitCriterion(ds, grid), hyper)[2] - expected) <= 1e-12 * scale


def recorded_spans(monkeypatch):
    """The lag span h of each of the gradient's lag-moment passes over the
    weighted table: the band's half width, then P - 1 for all taps."""
    spans = []
    lag_moment = markov._lag_moment

    def recorded(head, weighted, weights):
        spans.append(weights.size - 1)
        return lag_moment(head, weighted, weights)

    monkeypatch.setattr(markov, "_lag_moment", recorded)
    return spans


def test_r_nu_gradient_recomputes_a_band_that_fails_its_certificate(monkeypatch):
    # cut after lag 2, the band drops kernel values far above the cutoff:
    # the dropped lags' bound is not within eps of the term, which is then
    # recomputed with all 2P - 1 taps and again equals the dense one
    ds, hyper, grid = r_nu_problem(128, 128, 4e-3)
    expected, scale = dense_r_nu_gradient(ds, hyper, grid)
    spans = recorded_spans(monkeypatch)
    half = gaussian_transition(grid, hyper.r_nu).half_width
    assert abs(-hyper_nll_gradient(FitCriterion(ds, grid), hyper)[2] - expected) <= 1e-12 * scale
    assert spans == [half] and half < grid.size - 1
    spans.clear()
    monkeypatch.setattr(GaussianTransition, "half_width", property(lambda trans: 2))
    monkeypatch.setattr(GaussianTransition, "cut", property(lambda trans: float(trans.kernel[3])))
    assert abs(-hyper_nll_gradient(FitCriterion(ds, grid), hyper)[2] - expected) <= 1e-12 * scale
    assert spans == [2, grid.size - 1]


@pytest.mark.parametrize("n_states, r_nu", [(128, 5e-6), (384, 1e-6)])
def test_r_nu_gradient_where_the_band_keeps_lag_zero_alone(monkeypatch, n_states, r_nu):
    # kernel[1] is below the cutoff, so the band's moment is exactly 0 and
    # the term is recomputed with all 2P - 1 taps
    ds, hyper, grid = r_nu_problem(128, n_states, r_nu)
    assert gaussian_transition(grid, r_nu).half_width == 0
    expected, scale = dense_r_nu_gradient(ds, hyper, grid)
    spans = recorded_spans(monkeypatch)
    assert abs(-hyper_nll_gradient(FitCriterion(ds, grid), hyper)[2] - expected) <= 1e-12 * scale
    assert spans == [0, n_states - 1]


def test_fit_builds_no_transition_matrix_or_pair_marginals(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fit built a dense transition or pair marginals")

    monkeypatch.setattr(hyperopt, "transition_matrix", refuse)
    monkeypatch.setattr(hyperopt, "posterior_marginals", refuse)
    assert estimate_ml(*standard_dataset()).stop_reason == "decrement"


@pytest.mark.parametrize("grid, hyper", [
    ((-2.5, 2.5, 128), Hyperparameters(1.0, 0.1, 1e-3)),
    ((-2.5, 2.5, 128), Hyperparameters(0.3, 2.0, 0.2)),
    ((-3.5, 3.5, 384), Hyperparameters(1.0, 0.1, 4e-3)),
], ids=["P=128", "P=128-broad", "P=384"])
def test_gradient_reusing_the_criterion_pass_is_bit_identical(monkeypatch, grid, hyper):
    # the observation table and forward pass hyper_nll holds are the ones a
    # fresh gradient computes, so the gradient runs only the backward pass
    ds, _ = standard_dataset()
    criterion = FitCriterion(ds, FrequencyGrid(*grid))
    value = hyper_nll(criterion, hyper)
    assert criterion.lowest[:2] == (hyper, value)
    assert value == hyper_nll(FitCriterion(ds, criterion.grid), hyper)
    fresh = hyper_nll_gradient(FitCriterion(ds, criterion.grid), hyper)
    monkeypatch.setattr(hmm, "forward", None)
    monkeypatch.setattr(hmm, "periodogram_table", None)
    assert np.array_equal(hyper_nll_gradient(criterion, hyper), fresh)


def test_gradient_runs_a_forward_pass_only_away_from_the_lowest_evaluation(monkeypatch):
    # after evaluations at a lower point a and a higher point b the
    # criterion holds a's pass: the gradient at a reuses it, the one at b
    # runs its own, and both equal a fresh criterion's bit for bit
    ds, grid = standard_dataset()
    a, b = Hyperparameters(1.0, 0.1, 1e-3), Hyperparameters(0.3, 2.0, 0.2)
    criterion = FitCriterion(ds, grid)
    assert hyper_nll(criterion, a) < hyper_nll(criterion, b)
    fresh = [hyper_nll_gradient(FitCriterion(ds, grid), point) for point in (a, b)]
    passes = []
    run = hmm.forward
    monkeypatch.setattr(hmm, "forward", lambda *args: passes.append(args) or run(*args))
    assert np.array_equal(hyper_nll_gradient(criterion, a), fresh[0]) and len(passes) == 0
    assert np.array_equal(hyper_nll_gradient(criterion, b), fresh[1]) and len(passes) == 1


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fit_gradients_equal_fresh_gradients(monkeypatch, strategy):
    # a fit's gradient reuses the pass of its lowest evaluation only where
    # that evaluation's point is the gradient's own
    gradient = hyper_nll_gradient
    reused = []

    def checked(criterion, hyper):
        reused.append(criterion.lowest[0] == hyper)
        out = gradient(criterion, hyper)
        assert np.array_equal(out, gradient(FitCriterion(criterion.dataset, criterion.grid), hyper))
        return out

    monkeypatch.setattr(hyperopt, "hyper_nll_gradient", checked)
    estimate_ml(*standard_dataset(), strategy=strategy)
    # every gradient, the start's too: each is taken at the lowest evaluation
    assert reused == [True] * len(reused)


def test_observation_table_from_a_cached_periodogram_table_is_bit_identical():
    # a cached table is read in place, and it, its row maxima and its
    # rescaled rows equal those of the rows the lag source writes
    ds, grid = standard_dataset()
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    periodograms = periodogram_table(ds.lags, grid.states)
    cached = observation_table(ds, grid, hyper, periodograms, periodograms.max(axis=1))
    fresh = observation_table(ds, grid, hyper)
    assert cached.periodograms is periodograms and fresh.periodograms is None
    written = fresh.write_periodograms(np.full(periodograms.shape, np.nan))
    rewritten = observation_table(ds, grid, hyper, written, written.max(axis=1))
    for name in ("periodograms", "alpha", "log_beta", "gamma", "row_max", "scaled"):
        assert np.array_equal(getattr(cached, name), getattr(rewritten, name)), name


def test_criterion_takes_the_row_maxima_of_its_table_once():
    # every evaluation's observation table reads the criterion's row maxima,
    # which equal a fresh table's bit for bit, and none recomputes them
    ds, grid = standard_dataset()
    criterion = FitCriterion(ds, grid)
    assert np.array_equal(criterion.row_max, criterion.periodograms.max(axis=1))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    periodograms = periodogram_table(ds.lags, grid.states)
    fresh = observation_table(ds, grid, hyper, periodograms, periodograms.max(axis=1))
    value = hyper_nll(criterion, hyper)
    obs = criterion.lowest[2]
    assert obs.row_max is criterion.row_max
    assert np.array_equal(obs.scaled, fresh.scaled)
    assert value == -hmm.forward(fresh, gaussian_transition(grid, hyper.r_nu),
                                 initial_distribution(grid)).log_likelihood


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
    grad_log = hyper_nll_gradient(FitCriterion(ds, grid), report.minimizer)
    assert np.linalg.norm(grad_log) < 1e-3 * max(1.0, abs(report.reached_minimum))


def test_empirical_init_noiseless_cisoids():
    # the lag-1 magnitude of a unit cisoid is (N - 1) / N: r_a is its power
    # exactly, r_b is left at its floor and r_nu, with every argmax step 0,
    # at the grid spacing squared
    ds = DataSet(steering_vector(np.full(16, 0.2), 4))
    grid = FrequencyGrid(-2.5, 2.5, 128)
    est = empirical_init(FitCriterion(ds, grid))
    assert est.r_a == pytest.approx(1.0, rel=1e-12)
    assert est.r_b == pytest.approx(1e-6, rel=1e-10)
    assert est.r_nu == grid.spacing ** 2


def test_empirical_init_pure_noise():
    hyper = Hyperparameters(1e-12, 1.0, 1e-3)
    track = np.zeros(2048)
    ds = synthesize_dataset(track, hyper, 4, seed=4)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    est = empirical_init(FitCriterion(ds, grid))
    # r_a = N / (N - 1) mean_t |c_t(1)| and r_a + r_b = r(0).  On noise the
    # mean lag-1 magnitude is not 0: its mean square is r_b^2 / (N - 1) for
    # the true r_b = 1, so r_a is below 1 / sqrt(3) at N = 4 (about 0.47 by
    # simulation)
    lags = empirical_correlation(ds.samples)
    assert est.r_a == pytest.approx(4 / 3 * np.mean(np.abs(lags[:, 1])), rel=1e-12)
    assert est.r_a + est.r_b == pytest.approx(np.mean(lags[:, 0].real), rel=1e-12)
    assert 0.4 < est.r_a < 1 / np.sqrt(3)


def test_empirical_init_r_nu_is_the_unwrapped_argmax_step_variance():
    # a drift through several alias bands: the start r_nu is the robust
    # variance (1.4826 MAD)^2 of the steps of the unwrapped argmax track, to
    # which a wrap adds nothing; differencing the aliased track would add a
    # cycle-sized jump at each wrap, 7.5 times the plain variance here
    truth_r_nu = 1e-3
    rng = np.random.default_rng(12)
    steps = rng.normal(0, np.sqrt(truth_r_nu), 127)
    track = np.concatenate([[0.0], np.cumsum(steps)]) + np.linspace(0, 3.0, 128)
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, truth_r_nu), 4, seed=13)
    grid = FrequencyGrid(-2.5, 2.5, 128)
    band = grid.states[initial_distribution(grid) > 0]
    argmax = band[np.argmax(periodogram_table(ds.lags, band), axis=1)]
    steps = np.diff(unwrap_track(argmax))
    robust = (1.4826 * np.median(np.abs(steps))) ** 2
    assert empirical_init(FitCriterion(ds, grid)).r_nu == pytest.approx(robust, rel=1e-12)
    assert np.var(np.diff(argmax)) > 5 * np.var(steps)


@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
def test_median_equals_numpy_median_bit_for_bit(values):
    # the absolute values empirical_init takes the median of; np.abs also
    # turns -0.0, whose place among equal zeros np.partition leaves open, into 0.0
    values = np.abs(np.array(values))
    assert hyperopt._median(values).hex() == float(np.median(values)).hex()


@functools.cache
def default_fit(seed, profile="sine", span=(-1.5, 1.5), grid=(-2.5, 2.5, 128)):
    """empirical_init and estimate_ml on 128 bins simulated with the default
    variances."""
    track = make_test_track(profile, 128, span)
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=seed)
    grid = FrequencyGrid(*grid)
    return empirical_init(FitCriterion(ds, grid)), estimate_ml(ds, grid)


@pytest.mark.parametrize("profile, span, grid", [
    ("sine", (-1.5, 1.5), (-2.5, 2.5, 128)),
    # wider tracks wrap more often; their true steps, at most 0.15 cycles,
    # stay far from the half cycle at which a wrapped step would fold
    ("linear_ramp", (-3.0, 3.0), (-4.0, 4.0, 320)),
    ("sine", (-3.0, 3.0), (-4.0, 4.0, 320)),
])
def test_empirical_init_starts_r_nu_within_tenfold_of_the_fit(profile, span, grid):
    # differencing the aliased argmax track added a cycle-sized jump at every
    # wrap, and started r_nu 21-32 times the fitted one on default seeds 0-4
    for seed in range(5):
        start, report = default_fit(seed, profile, span, grid)
        assert report.stop_reason == "decrement"
        assert 0.1 < start.r_nu / report.minimizer.r_nu < 10


def test_default_fits_evaluation_budget():
    # golden-section probes from the aliased start took 315 evaluations here
    assert sum(default_fit(seed)[1].function_evals for seed in range(5)) <= 225


def test_default_fits_forward_pass_budget(monkeypatch):
    # each gradient, the start's included, is taken at an accepted point and
    # reuses that point's forward pass, so a fit runs one pass per criterion
    # evaluation: 30 here, 240 when every gradient ran its own
    calls = []
    forward = hmm.forward

    def counted(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(hmm, "forward", counted)
    monkeypatch.setattr(hyperopt, "forward", counted)
    track = make_test_track("sine", 128, (-1.5, 1.5))
    grid = FrequencyGrid(-2.5, 2.5, 128)
    evals = 0
    for seed in range(5):
        ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=seed)
        evals += estimate_ml(ds, grid).function_evals
    assert len(calls) == evals


def test_bfgs_first_metric_inverts_the_complete_data_information():
    # the expected negative log-likelihood of T records whose frequencies
    # are known and of the T - 1 Gaussian steps between them, over the
    # log-parameters x with the data drawn at x0: its Hessian at x0, here by
    # central differences, is the complete-data information
    n_samples, n_bins = 4, 6
    x0 = np.log([0.7, 0.2, 3e-3])
    e = steering_vector(0.3, n_samples)

    def cov(x):
        return np.exp(x[0]) * np.outer(e, e.conj()) + np.exp(x[1]) * np.eye(n_samples)

    def expected_nll(x):
        record = np.linalg.slogdet(cov(x))[1] + np.trace(np.linalg.solve(cov(x), cov(x0))).real
        step = (x[2] + np.exp(x0[2] - x[2])) / 2
        return n_bins * record + (n_bins - 1) * step

    h, unit = 1e-4, np.eye(3)
    info = np.array([[(expected_nll(x0 + h * (unit[i] + unit[j]))
                       - expected_nll(x0 + h * (unit[i] - unit[j]))
                       - expected_nll(x0 - h * (unit[i] - unit[j]))
                       + expected_nll(x0 - h * (unit[i] + unit[j]))) / (4 * h * h)
                      for j in range(3)] for i in range(3)])
    ds = DataSet(np.ones((n_bins, n_samples), dtype=complex))
    metric = hyperopt._complete_data_metric(ds, Hyperparameters.from_array(np.exp(x0)))
    np.testing.assert_allclose(metric @ info, np.eye(3), atol=1e-6)


@pytest.mark.parametrize("seed, grid", [
    *(pytest.param(seed, (-2.5, 2.5, 128), id=f"{seed}-P=128") for seed in range(5)),
    *(pytest.param(seed, (-3.5, 3.5, 384), id=f"{seed}-P=384") for seed in (201, 202)),
])
def test_bfgs_reaches_the_vignes_minimum(seed, grid):
    _, report = default_fit(seed, grid=grid)
    assert hyperopt.DEFAULT_STRATEGY == "bfgs" and report.stop_reason == "decrement"
    track = make_test_track("sine", 128, (-1.5, 1.5))
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=seed)
    vignes = estimate_ml(ds, FrequencyGrid(*grid), strategy="vignes").reached_minimum
    assert report.reached_minimum <= vignes + DECREMENT_TOL


def test_decrement_is_the_metric_norm_of_the_last_gradient():
    # a stop on the decrement is at the minimizer, where vignes's metric is
    # the complete-data metric
    ds, grid = standard_dataset()
    report = estimate_ml(ds, grid, strategy="vignes")
    g = hyper_nll_gradient(FitCriterion(ds, grid), report.minimizer)
    metric = hyperopt._complete_data_metric(ds, report.minimizer)
    assert report.stop_reason == "decrement"
    assert report.decrement == pytest.approx(0.5 * g @ metric @ g, rel=1e-12)


@pytest.mark.parametrize("line_search", LINE_SEARCHES)
def test_a_decrement_stop_is_within_its_tolerance(line_search):
    for strategy in STRATEGIES:
        report = estimate_ml(*small_fit_problem(), strategy=strategy, line_search=line_search)
        assert report.stop_reason == "decrement", strategy
        assert 0.0 <= report.decrement <= DECREMENT_TOL, strategy


def test_empirical_init_rejects_zero_data():
    from freqtrack.signal import DataSet

    ds = DataSet(samples=np.zeros((4, 4), dtype=complex))
    grid = FrequencyGrid(-2.5, 2.5, 128)
    with pytest.raises(ValueError):
        empirical_init(FitCriterion(ds, grid))


def standard_dataset():
    track = make_test_track("sine", 128, (-1.5, 1.5))
    hyper = Hyperparameters(1.0, 0.1, 1e-3)
    return synthesize_dataset(track, hyper, 4, seed=7), FrequencyGrid(-2.5, 2.5, 128)


def test_estimate_monotone_descent():
    ds, grid = standard_dataset()
    report = estimate_ml(ds, grid, strategy="polak_ribiere")
    criterion = FitCriterion(ds, grid)
    values = [hyper_nll(criterion, Hyperparameters.from_array(np.exp(x)))
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
    # the default bfgs fit runs no line search: each step backtracks from
    # the full step on Armijo's test, 5 evaluations in all here
    report = estimate_ml(*standard_dataset())
    assert report.function_evals <= 70


@pytest.mark.parametrize("line_search", LINE_SEARCHES)
def test_coordinate_wise_reaches_the_default_fit_on_a_wide_grid(line_search):
    # coordinate_wise stops each line search on the criterion, so it must
    # not take a rounding-level decrease as a step: with that, dichotomy
    # stops 0.016 nats high here
    track = make_test_track("sine", 128, (-1.5, 1.5))
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=201)
    grid = FrequencyGrid(-3.5, 3.5, 384)
    default = estimate_ml(ds, grid).reached_minimum
    report = estimate_ml(ds, grid, strategy="coordinate_wise", line_search=line_search)
    assert report.reached_minimum <= default + 1e-7 * abs(default)


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


_values = st.floats(min_value=-1e6, max_value=1e6)


@given(method=st.sampled_from(LINE_SEARCHES),
       points=st.lists(st.floats(min_value=0.0, max_value=1e7), min_size=3, max_size=3,
                       unique=True),
       fb=_values, fa=_values | st.just(np.inf), fc=_values | st.just(np.inf))
# a symmetric bracket puts the parabola's vertex on b
@example(method="quadratic_interp", points=[0.0, 1.0, 2.0], fb=0.0, fa=1.0, fc=1.0)
def test_probe_lies_strictly_inside_the_bracket_and_off_its_middle(method, points, fb, fa, fc):
    # the contract by which _line_search never evaluates a point twice, on
    # every bracket it probes; a bracket's end is +inf where the criterion is
    a, b, c = sorted(points)
    assume(c - a > LINE_SEARCH_TOL * max(1.0, c) and fb < min(fa, fc))
    u = hyperopt._PROBES[method](a, b, c, fa, fb, fc)
    assert a < u < c and u != b


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


def probed(phi):
    """phi and the list of the steps it is called at."""
    steps = []

    def counted(s):
        steps.append(s)
        return phi(s)
    return counted, steps


def test_backtrack_accepts_a_full_step_that_passes_armijo_after_one_evaluation():
    phi, steps = probed(lambda s: 1.0 - 0.5 * s)
    assert likelihood.backtrack(phi, 1.0, -1.0) == (1.0, 0.5) and steps == [1.0]


@pytest.mark.parametrize("phi, second", [
    (lambda s: (s - 0.3) ** 2, 0.3),            # the vertex, inside [0.1, 0.5]
    (lambda s: 100.0 * s * s - 0.6 * s + 0.09, 0.1),  # vertex 0.003, clamped up
    (lambda s: 0.09 - 0.6 * s + 0.59999 * s * s, 0.5),  # vertex above 1/2, clamped down
], ids=["vertex", "clamped_to_s/10", "clamped_to_s/2"])
def test_backtrack_moves_a_failed_full_step_to_the_clamped_parabola_vertex(phi, second):
    # phi(0) = 0.09 and phi'(0) = -0.6 in each case
    phi, steps = probed(phi)
    assert phi(0.0) == pytest.approx(0.09)
    steps.clear()
    s, fs = likelihood.backtrack(phi, 0.09, -0.6)
    assert steps[:2] == [1.0, pytest.approx(second, rel=1e-12)]
    assert fs < 0.09 - likelihood.ARMIJO * 0.6 * s


def test_backtrack_steps_to_a_tenth_where_the_full_step_is_inf():
    phi, steps = probed(lambda s: np.inf if s > 0.5 else 1.0 - s)
    assert likelihood.backtrack(phi, 1.0, -1.0) == (0.1, 0.9) and steps == [1.0, 0.1]


def test_backtrack_ends_on_nan():
    phi, steps = probed(lambda s: np.nan)
    assert likelihood.backtrack(phi, 1.0, -1.0) is None and steps == [1.0]


@pytest.mark.parametrize("phi, f0, slope", [
    (lambda s: 5.0, 5.0, -1e-30),                    # no decrease at any step
    (lambda s: 1000.0 + 1e-13 * s, 1000.0, -1e-20),  # phi(0.1) rounds to f0
], ids=["flat", "rounding_level"])
def test_backtrack_rejects_a_decrease_at_rounding_level(phi, f0, slope):
    # such a step passes Armijo's test with a vanishing slope, but moves x
    # along a direction that does not descend
    assert likelihood.backtrack(phi, f0, slope) is None


def test_backtrack_ends_where_a_subnormal_slope_underflows():
    # a flat phi with a subnormal slope, as the one-bin tracking criterion of
    # a record with a subnormal sample: once s * slope underflows to 0 the
    # parabola through phi(s) has no curvature left, and the search ends
    phi, steps = probed(lambda s: -0.5)
    assert likelihood.backtrack(phi, -0.5, -1.26e-312) is None
    assert steps[-1] >= 1e-14 and steps[-1] * -1.26e-312 == 0.0


@pytest.mark.filterwarnings("error")
def test_criterion_is_inf_where_the_hyperparameters_are_rejected():
    criterion = FitCriterion(*standard_dataset())
    calls = []

    def nll(hyper):
        calls.append(hyper)
        return hyper_nll(criterion, hyper)

    fun = hyperopt._total(nll)
    # alpha overflows: hyper_nll is called and rejects the point
    assert fun(np.log([1e155, 1e155, 1e-2])) == np.inf and len(calls) == 1
    # exp overflows, or underflows to 0: no hyper_nll call
    assert fun(np.array([800.0, 0.0, 0.0])) == np.inf and len(calls) == 1
    assert fun(np.array([0.0, -800.0, 0.0])) == np.inf and len(calls) == 1
    # r_nu = 1e-316 and r_b = 1e-300: the forward probability underflows
    assert fun(np.array([0.0, -690.0, -727.0])) == np.inf and len(calls) == 2
    assert np.isfinite(fun(np.log([1.0, 0.1, 1e-2]))) and len(calls) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("unbounded, gradient", [
    # toward r_a = inf, where exp overflows
    (lambda hyper: -np.log(hyper.r_a), np.array([-1.0, 0.0, 0.0])),
    # toward r_b = 0, where exp underflows
    (lambda hyper: np.log(hyper.r_b), np.array([0.0, 1.0, 0.0])),
], ids=["r_a_up", "r_b_down"])
def test_fit_of_an_unbounded_criterion_stays_total(monkeypatch, unbounded, gradient):
    # _bracket expands toward its 1e6 cap: the probes past the float range
    # are +inf, so the fit ends instead of raising on the overflowed point,
    # and function_evals and gradient_evals still count the calls
    calls, gradient_calls = [], []

    def criterion(fit, hyper):
        calls.append(hyper)
        return unbounded(hyper)

    def criterion_gradient(fit, hyper):
        gradient_calls.append(hyper)
        return gradient

    monkeypatch.setattr(hyperopt, "hyper_nll", criterion)
    monkeypatch.setattr(hyperopt, "hyper_nll_gradient", criterion_gradient)
    report = estimate_ml(*small_fit_problem(), strategy="coordinate_wise")
    assert np.isfinite(report.reached_minimum) and report.reached_minimum < -600.0
    assert report.function_evals == len(calls)
    assert report.gradient_evals == len(gradient_calls) > 0


def test_unknown_strategy_rejected():
    ds, grid = standard_dataset()
    with pytest.raises(ValueError):
        estimate_ml(ds, grid, strategy="sgd")
    with pytest.raises(ValueError):
        estimate_ml(ds, grid, line_search="exact")


def test_gradient_strategies_part_after_the_shared_first_step(monkeypatch):
    # every line-search gradient strategy starts with a line search along -g,
    # so the first iterate is shared; from the second on each follows its own
    # direction rule.  bfgs backtracks from a capped full step instead of
    # searching the line, so its first iterate differs by design.
    monkeypatch.setattr(hyperopt, "MAX_ITER", 2)
    ds, grid = standard_dataset()
    trajectories = [estimate_ml(ds, grid, strategy=strategy).trajectory
                    for strategy in STRATEGIES if strategy not in ("coordinate_wise", "bfgs")]
    assert all(np.array_equal(t[1], trajectories[0][1]) for t in trajectories)
    for a, b in itertools.combinations([t[2] for t in trajectories], 2):
        assert not np.array_equal(a, b)


def small_fit_problem():
    track = make_test_track("sine", 32, (-0.5, 0.5))
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=5)
    return ds, FrequencyGrid(-1.0, 1.0, 32)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stop_reason_decrement(monkeypatch, strategy):
    # every strategy tests the decrement at its first gradient, before any search
    monkeypatch.setattr(hyperopt, "DECREMENT_TOL", np.inf)
    report = estimate_ml(*small_fit_problem(), strategy=strategy)
    assert report.stop_reason == "decrement" and report.converged
    assert report.iterations == 1 and len(report.trajectory) == 1


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stop_reason_max_iter(monkeypatch, strategy):
    monkeypatch.setattr(hyperopt, "MAX_ITER", 1)
    monkeypatch.setattr(hyperopt, "DECREMENT_TOL", 0.0)
    report = estimate_ml(*small_fit_problem(), strategy=strategy)
    assert report.stop_reason == "max_iter" and not report.converged
    assert report.iterations == 1 and len(report.trajectory) == 2


def test_stop_reason_zero_gradient(monkeypatch):
    # a zero gradient has decrement 0
    monkeypatch.setattr(hyperopt, "hyper_nll_gradient", lambda *args: np.zeros(3))
    report = estimate_ml(*small_fit_problem(), strategy="vignes")
    assert report.stop_reason == "decrement" and report.converged and report.decrement == 0.0
    assert (report.iterations, report.gradient_evals, report.function_evals) == (1, 1, 1)
    assert len(report.trajectory) == 1


@pytest.mark.parametrize("strategy", ["coordinate_wise", "polak_ribiere"])
def test_stop_reason_no_decrease(monkeypatch, strategy):
    # a negated gradient points uphill, so the gradient strategies find no
    # decrease; a zero tolerance keeps coordinate_wise going until none of
    # its six directions lowers the criterion
    monkeypatch.setattr(hyperopt, "DECREMENT_TOL", 0.0)
    gradient = hyperopt.hyper_nll_gradient
    monkeypatch.setattr(hyperopt, "hyper_nll_gradient", lambda *args: -gradient(*args))
    report = estimate_ml(*small_fit_problem(), strategy=strategy)
    assert report.stop_reason == "no_decrease"
    assert report.iterations == len(report.trajectory)
    # converged once a step was accepted; a fit stuck at its start is not
    assert report.converged == (len(report.trajectory) > 1)


def constant_track_problem():
    """A nearly noiseless constant track on the default grid."""
    ds = synthesize_dataset(np.full(32, 0.2), Hyperparameters(1.0, 1e-6, 1e-3), 4, seed=0)
    return ds, FrequencyGrid(-2.5, 2.5, 128)


def test_unresolvable_r_nu_is_not_converged(monkeypatch):
    # started at r_nu = 1e-8, where kernel[1] is 0 and hyper_nll is flat in
    # r_nu, the fit cannot leave it
    ds, grid = constant_track_problem()
    monkeypatch.setattr(hyperopt, "empirical_init",
                        lambda *args: Hyperparameters(0.627, 0.209, 1e-8))
    report = estimate_ml(ds, grid)
    assert gaussian_transition(grid, report.minimizer.r_nu).kernel[1] <= KERNEL_CUTOFF
    assert report.stop_reason == "r_nu_below_resolution" and not report.converged


def test_constant_track_fit_starts_finite_and_leaves_the_flat_start():
    # every argmax step is 0: a start at r_nu = 1e-8 sat where the criterion
    # is flat in r_nu and the fit stopped there at -87.53, and with the
    # accurate r_b its forward pass underflows; the grid-spacing floor keeps
    # the start's criterion finite and the fit goes on to -549.96
    ds, grid = constant_track_problem()
    criterion = FitCriterion(ds, grid)
    start = empirical_init(criterion)
    assert start.r_nu == grid.spacing ** 2
    assert np.isfinite(hyper_nll(criterion, start))
    with pytest.raises(hmm.NumericalError):
        hyper_nll(criterion, replace(start, r_nu=1e-8))
    report = estimate_ml(ds, grid)
    assert report.stop_reason == "decrement"
    assert report.reached_minimum < -87.53
