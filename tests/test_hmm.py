import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqtrack import hmm, spectral
from freqtrack.hmm import (
    backward,
    forward,
    observation_table,
    posterior_marginals,
    viterbi,
)
from freqtrack.hyperopt import FitCriterion, empirical_init
from freqtrack.likelihood import smoothing_weight
from freqtrack.markov import (KERNEL_CUTOFF, FrequencyGrid, gaussian_transition,
                              initial_distribution, transition_matrix)
from freqtrack.signal import (DataSet, Hyperparameters, make_test_track, steering_vector,
                              synthesize_dataset)
from freqtrack.spectral import ROW_BLOCK, periodogram_table
from oracles import (brute_force_joint, dense_gaussian_log_density, exhaustive_min_cost,
                     fit_table, forward_backward, log_prob, scaled_rows, table)


def random_instance(rng, n_bins=None, n_states=None, scale=5.0):
    n_bins = n_bins or int(rng.integers(1, 6))
    n_states = n_states or int(rng.integers(3, 7))
    grid = FrequencyGrid(-1.0, 1.0, n_states)
    trans = gaussian_transition(grid, float(rng.uniform(0.01, 1.0)))
    init = initial_distribution(grid)
    obs = table(rng.normal(0, scale, (n_bins, n_states)))
    return grid, obs, trans, init


def dense_matrix(transition):
    """The dense (P, P) matrix T[q, p] = kernel[|p - q|] / norm[q]."""
    states = np.arange(transition.kernel.size)
    return transition.kernel[np.abs(np.subtract.outer(states, states))] / transition.norm[:, None]


def dense_min_cost_path(local, grid, lam):
    """Reference min-sum search over every predecessor for the pair cost
    lam * (|p - q| * spacing)^2, the first state in the initial band."""
    n_bins, n_states = local.shape
    lags = np.abs(np.subtract.outer(np.arange(n_states), np.arange(n_states)))
    with np.errstate(over="ignore"):
        pair_cost = lam * (lags * grid.spacing) ** 2
        cost = local[0] + np.where(initial_distribution(grid) > 0, 0.0, np.inf)
        back = np.zeros((n_bins, n_states), dtype=int)
        for t in range(1, n_bins):
            total = cost[:, None] + pair_cost
            back[t] = np.argmin(total, axis=0)
            cost = total[back[t], np.arange(n_states)] + local[t]
    path = [int(np.argmin(cost))]
    for t in range(n_bins - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    return np.array(path[::-1]), float(cost[path[0]])


# The band half-width the constructed band-edge cases patch in.
HALF = 16


@contextmanager
def band_half_width(half):
    """Run viterbi with its band half-width set to half, P - 1 at most."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmm, "_band_half_width", lambda spread, lam, grid: min(half, grid.size - 1))
        yield


def viterbi_and_width(obs, grid, lam):
    """viterbi's path and cost, and the band half-width it derived."""
    widths = []
    derive = hmm._band_half_width
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmm, "_band_half_width",
                      lambda *args: widths.append(derive(*args)) or widths[-1])
        path, cost = viterbi(obs, grid, lam)
    return path, cost, widths[0]


def band_instance(n_states, costs, seed=0):
    """Grid over [-4, 4] and (12, P) observation rows: random, random plus
    a float offset, where the certificate's rounding margin matters (at
    1e12 most pair costs are absorbed into ties), random times 1e306, where
    the rounding margin overflows, or flat but for the last bin, which
    favours the top state; tied rows are flat at 1e20, where a pair cost
    below half an ulp (8192) leaves every sum tied."""
    grid = FrequencyGrid(-4.0, 4.0, n_states)
    if costs in ("random", "overflow") or isinstance(costs, float):
        rows = np.random.default_rng(seed).normal(0, 2, (12, n_states))
        if isinstance(costs, float):
            rows += costs
        elif costs == "overflow":
            rows *= 1e306
    elif costs == "flat":
        rows = np.zeros((12, n_states))
        rows[-1, -1] = 1.0
    else:
        rows = np.full((12, n_states), 1e20)
        rows[-1, -1] += 1e6
    return grid, table(rows)


def test_observation_table_matches_per_entry_likelihood():
    rng = np.random.default_rng(0)
    hyper = Hyperparameters(1.0, 0.3, 1e-2)
    ds = synthesize_dataset(rng.uniform(-1, 1, 4), hyper, 4, seed=5)
    grid = FrequencyGrid(-1.5, 1.5, 10)
    rows = log_prob(fit_table(ds, grid, hyper))
    for t in range(4):
        for p, nu in enumerate(grid.states):
            assert rows[t, p] == pytest.approx(
                dense_gaussian_log_density(ds.samples[t], nu, hyper), rel=1e-10
            )


def test_observation_table_argmax_at_true_state():
    hyper = Hyperparameters(1.0, 1e-6, 1e-2)
    grid = FrequencyGrid(-0.5, 0.5, 11)  # contains 0.2 exactly
    ds = DataSet(steering_vector([0.2], 4))
    rows = log_prob(fit_table(ds, grid, hyper))
    assert grid.states[np.argmax(rows[0])] == pytest.approx(0.2)


def test_observation_table_periodic_states_equal():
    hyper = Hyperparameters(1.0, 0.5, 1e-2)
    grid = FrequencyGrid(-1.0, 1.0, 5)  # contains both -1, 0 and 1
    ds = synthesize_dataset([0.3], hyper, 4, seed=1)
    rows = log_prob(fit_table(ds, grid, hyper))
    states = list(grid.states)
    assert rows[0, states.index(0.0)] == pytest.approx(rows[0, states.index(1.0)], rel=1e-12)


@pytest.mark.parametrize("r_b, n_bins", [(0.1, 128), (1e-4, 16)], ids=["default", "high_snr"])
def test_observation_table_rescaled_rows_are_within_the_bound_of_the_log_table(r_b, n_bins):
    # scaled is exp(alpha (P - m)), within 0.74u + rho of its exact value
    # (hmm docstring).  The log table's rows, exp(log O - max log O), are
    # within exp(y) 6u L_t + u / e + rho of theirs, y their exact exponent:
    # log O and its row maximum each carry at most 3u L_t,
    # L_t = alpha max |P_t| + |log beta| + gamma_t, and the shift's
    # subtraction u |y|.  Checked on the default simulation and at high SNR,
    # where rows peak thousands of nats above their other states
    hyper = Hyperparameters(1.0, r_b, 1e-3)
    ds = synthesize_dataset(make_test_track("sine", n_bins, (-1.5, 1.5)), hyper, 4, seed=0)
    obs = fit_table(ds, FrequencyGrid(-2.5, 2.5, 128), hyper)
    oracle, _ = scaled_rows(obs)
    u, rho = np.finfo(float).eps / 2, 4 * np.finfo(float).eps
    spread = (obs.alpha * np.abs(obs.periodograms).max(axis=1) + abs(obs.log_beta)
              + obs.gamma)[:, None]
    bound = (0.74 * u + rho) + (np.maximum(oracle, obs.scaled) * 6.01 * u * spread
                                + u / np.e + rho)
    assert np.all(np.abs(obs.scaled - oracle) <= bound)
    assert np.array_equal(obs.row_max, obs.periodograms.max(axis=1))


def test_observation_table_memory_is_one_table():
    # at T=4096, P=512 observation_table builds no (T, P) array: without a
    # table its source is the lags, which only write_periodograms reads
    n_bins, n_states = 4096, 512
    hyper = Hyperparameters(1.0, 0.1, 1e-4)
    ds = synthesize_dataset(make_test_track("sine", n_bins, (-3.0, 3.0)), hyper, 4, seed=0)
    grid = FrequencyGrid(-4.0, 4.0, n_states)
    tracemalloc.start()
    try:
        obs = observation_table(ds, grid, hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * n_bins * n_states * 8
    assert obs.periodograms is None and obs.lags is ds.lags


@pytest.mark.parametrize("n_bins", [16, 128, ROW_BLOCK + 1, 1000, 4096])
def test_viterbi_on_streamed_rows_matches_the_table(n_bins):
    # one block (16, 128, R + 1), blocks with a longer last one (1000) and
    # an exact multiple of R (4096), against the dataset's own table
    hyper = Hyperparameters(1.0, 0.1, 1e-4)
    ds = synthesize_dataset(make_test_track("sine", n_bins, (-3.0, 3.0)), hyper, 4, seed=1)
    grid = FrequencyGrid(-4.0, 4.0, 512)
    lam = smoothing_weight(hyper, ds.n_samples)
    streamed = observation_table(ds, grid, hyper)
    assert streamed.periodograms is None and (streamed.n_bins, streamed.n_states) == (n_bins, 512)
    path, cost = viterbi(streamed, grid, lam)
    assert "scaled" not in vars(streamed)  # viterbi built nothing on the table
    periodograms = periodogram_table(ds.lags, grid.states)
    table = observation_table(ds, grid, hyper, periodograms, periodograms.max(axis=1))
    expected_path, expected_cost = viterbi(table, grid, lam)
    assert np.array_equal(path, expected_path) and cost == expected_cost
    # the blocks written in place equal one periodogram_table call on all rows
    written = streamed.write_periodograms(np.full((n_bins, 512), np.nan))
    assert written.tobytes() == table.periodograms.tobytes()
    assert table.write_periodograms(np.empty((n_bins, 512))).tobytes() == written.tobytes()


def test_viterbi_on_one_row_blocks_matches_the_table(monkeypatch):
    # one-row blocks make every block a matrix-vector product, which BLAS
    # kernels round unlike a matrix product: the written rows and the table
    # still equal byte for byte, as both are periodogram_table's blocks
    monkeypatch.setattr(spectral, "ROW_BLOCK", 1)
    hyper = Hyperparameters(1.0, 0.1, 1e-4)
    ds = synthesize_dataset(make_test_track("sine", 300, (-3.0, 3.0)), hyper, 4, seed=1)
    grid = FrequencyGrid(-4.0, 4.0, 512)
    lam = smoothing_weight(hyper, ds.n_samples)
    periodograms = periodogram_table(ds.lags, grid.states)
    streamed = observation_table(ds, grid, hyper)
    written = streamed.write_periodograms(np.full(periodograms.shape, np.nan))
    assert written.tobytes() == periodograms.tobytes()
    table = observation_table(ds, grid, hyper, periodograms, periodograms.max(axis=1))
    path, cost = viterbi(streamed, grid, lam)
    expected_path, expected_cost = viterbi(table, grid, lam)
    assert np.array_equal(path, expected_path) and cost == expected_cost


def test_forward_single_bin():
    rng = np.random.default_rng(2)
    grid, obs, trans, init = random_instance(rng, n_bins=1, n_states=5)
    result = forward(obs, trans, init)
    expected = np.log(np.sum(np.exp(log_prob(obs)[0]) * init))
    assert result.log_likelihood == pytest.approx(expected, rel=1e-12)


def test_forward_backward_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        grid, obs, trans, init = random_instance(rng)
        bf = brute_force_joint(obs, dense_matrix(trans), init)
        fb = forward_backward(obs, trans, init)
        post = posterior_marginals(fb, obs, dense_matrix(trans))
        assert fb.log_likelihood == pytest.approx(bf.log_likelihood, rel=1e-10)
        assert np.max(np.abs(post.singles - bf.singles)) < 1e-10
        assert np.max(np.abs(post.pair_sum - bf.pairs.sum(axis=0))) < 1e-10
        if obs.n_bins > 1:
            assert np.max(np.abs(post.pairs - bf.pairs)) < 1e-10


def test_forward_scaling_identity():
    rng = np.random.default_rng(4)
    grid, obs, trans, init = random_instance(rng, n_bins=4, n_states=5)
    shift = 7.3
    shifted = replace(obs, log_beta=obs.log_beta + shift)
    a = forward(obs, trans, init)
    b = forward(shifted, trans, init)
    assert b.log_likelihood == pytest.approx(a.log_likelihood + 4 * shift, rel=1e-12)
    assert np.allclose(a.forward, b.forward, atol=1e-14)


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(5)
    grid, obs, trans, init = random_instance(rng, n_bins=5, n_states=6)
    fb = forward_backward(obs, trans, init)
    assert np.allclose(fb.forward.sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose((fb.forward * fb.backward).sum(axis=1), 1.0, atol=1e-10)
    assert np.allclose(fb.backward[-1], 1.0)


def test_backward_two_bin_hand_computation():
    grid = FrequencyGrid(-0.25, 0.25, 2)
    trans = gaussian_transition(grid, 0.1)
    init = initial_distribution(grid)
    obs = table(np.log([[0.4, 0.6], [0.9, 0.1]]))
    fb = forward_backward(obs, trans, init)
    scaled = obs.scaled
    for p in range(2):
        expected = np.sum(scaled[1] * transition_matrix(grid, 0.1)[p]) / fb.normalizers[1]
        assert fb.backward[0, p] == pytest.approx(expected, rel=1e-12)


def dense_forward_backward(obs, trans, init):
    """Reference scaled forward-backward on the dense matrix and the rows of
    the log table: (log-likelihood, forward, backward)."""
    scaled, shifts = scaled_rows(obs)
    fwd, norms = np.empty_like(scaled), np.empty(obs.n_bins)
    probe = scaled[0] * init
    for t in range(obs.n_bins):
        if t > 0:
            probe = scaled[t] * (fwd[t - 1] @ trans)
        norms[t] = probe.sum()
        fwd[t] = probe / norms[t]
    bwd = np.ones_like(scaled)
    for t in range(obs.n_bins - 2, -1, -1):
        bwd[t] = trans @ (scaled[t + 1] * bwd[t + 1]) / norms[t + 1]
    return np.sum(np.log(norms)) + np.sum(shifts), fwd, bwd


def assert_matches_dense(obs, transition, init):
    """forward_backward equals the dense reference on the same transition."""
    dense = dense_matrix(transition)
    fb = forward_backward(obs, transition, init)
    log_likelihood, fwd, bwd = dense_forward_backward(obs, dense, init)
    assert fb.log_likelihood == pytest.approx(log_likelihood, rel=1e-12)
    # entries reached only through dropped kernel values (<= 2^-106) differ
    # by about that much relative to their row, whose scale is 1 but for
    # the backward table
    np.testing.assert_allclose(fb.forward, fwd, rtol=1e-12, atol=1e-15)
    scale = bwd.max(axis=1, keepdims=True)
    np.testing.assert_allclose(fb.backward / scale, bwd / scale, rtol=1e-12, atol=1e-15)
    singles = posterior_marginals(fb, obs, dense).singles
    np.testing.assert_allclose(singles, fwd * bwd, rtol=1e-12, atol=1e-15)
    return fb


@pytest.mark.parametrize("r_nu", [1e-12, 1e-4, 1e-2, 1.0, 1e6])
@pytest.mark.parametrize("n_states", [17, 128, 384])
def test_forward_backward_band_equals_dense(n_states, r_nu):
    grid = FrequencyGrid(-3.5, 3.5, n_states)
    transition = gaussian_transition(grid, r_nu)
    rows = np.random.default_rng(n_states).normal(0, 5, (12, n_states))
    init = initial_distribution(grid)
    fb = assert_matches_dense(table(rows), transition, init)
    kernel = transition.kernel
    half, cut = transition.half_width, transition.cut
    if half < n_states - 1:
        assert np.all(kernel[:half + 1] > KERNEL_CUTOFF)
        assert cut == kernel[half + 1] <= KERNEL_CUTOFF
        # spreading a unit mass at the centre reads the band's taps back
        centre = n_states // 2
        impulse = np.zeros(n_states)
        impulse[centre] = 1.0
        taps = np.zeros(n_states)
        taps[centre - half:centre + half + 1] = np.concatenate([kernel[half:0:-1],
                                                                kernel[:half + 1]])
        assert np.array_equal(transition.spread(impulse), taps)
    else:  # 2h+1 > P: all 2P - 1 taps
        assert 2 * np.count_nonzero(kernel > KERNEL_CUTOFF) - 1 > n_states
        assert cut == 0.0 and fb.fallback_bins == 0
        assert np.array_equal(transition.spread(rows[0]), transition.spread(rows[0], all_taps=True))


@pytest.mark.parametrize("n_states", [
    126,
    pytest.param(128, marks=pytest.mark.xfail(strict=True, reason=(
        "each bin certifies its own dropped kernel mass against its own normalizer, but "
        "an alias jump the band dropped (kernel 1.3e-57 at lag 24, one cycle away) is "
        "amplified by the next bin's normalizer (4.2e-56 at bin 1), and no certificate "
        "bounds that: the log-likelihood is 42.7 nats off and 151 bins fall back to all taps"))),
])
def test_forward_backward_band_equals_dense_at_a_high_snr_fit_start(n_states):
    # the default sine at SNR 1000, seed 3, at the fit's start; over (-2.5, 2.5)
    # P = 126 holds a whole number of states per cycle, P = 128 does not.  Only
    # the log-likelihood is compared: at alpha near 1e3 the reference's rows,
    # read back from the log table, carry rounding of u alpha |P| themselves
    track = make_test_track("sine", 128, (-1.5, 1.5))
    dataset = synthesize_dataset(track, Hyperparameters(1.0, 1e-3, 1e-3), 4, seed=3)
    grid = FrequencyGrid(-2.5, 2.5, n_states)
    criterion = FitCriterion(dataset, grid)
    hyper = empirical_init(criterion)
    obs = observation_table(dataset, grid, hyper, criterion.periodograms, criterion.row_max)
    transition = gaussian_transition(grid, hyper.r_nu)
    init = initial_distribution(grid)
    log_likelihood, _, _ = dense_forward_backward(obs, dense_matrix(transition), init)
    assert forward(obs, transition, init).log_likelihood == pytest.approx(log_likelihood,
                                                                          rel=1e-12)


def test_forward_backward_band_falls_back_on_a_forced_jump():
    # sigma = 1 state, so the band keeps 12 lags; the second row puts all its
    # mass 20 states above the first, where only dropped kernel values reach
    grid = FrequencyGrid(-3.5, 3.5, 128)
    transition = gaussian_transition(grid, grid.spacing**2)
    rows = np.full((3, 128), -1e3)
    rows[0, 64] = rows[1, 84] = 0.0
    rows[2] = np.random.default_rng(1).normal(0, 5, 128)
    init = initial_distribution(grid)
    fb = assert_matches_dense(table(rows), transition, init)
    assert transition.half_width == 12
    assert fb.fallback_bins >= 1


@pytest.mark.parametrize("r_nu, jump", [(None, True), (1e6, False)], ids=["band", "all-taps"])
def test_forward_backward_at_a_wide_grid_builds_no_state_by_state_array(r_nu, jump):
    # one P x P float array is 32 MiB at P = 2048.  With sigma one state the
    # band keeps 12 lags, and a row whose mass sits 20 states from the last
    # one's forces bins onto all 2P - 1 taps; r_nu = 1e6 keeps them throughout
    grid = FrequencyGrid(-2.5, 2.5, 2048)
    transition = gaussian_transition(grid, r_nu or grid.spacing**2)
    rows = np.random.default_rng(2048).normal(0, 5, (4, 2048))
    if jump:
        rows[:2] = -1e3
        rows[0, 1024] = rows[1, 1044] = 0.0
    obs = table(rows)
    tracemalloc.start()
    try:
        fb = forward_backward(obs, transition, initial_distribution(grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.size**2 * 8
    assert (fb.fallback_bins > 0) == jump


def test_forward_bin_zero_peak_outside_initial_band():
    # bin 0 peaks at -1.5, outside the initial band, more than 745 nats (where
    # exp underflows) above every admissible state
    grid = FrequencyGrid(-1.5, 1.5, 24)
    transition = gaussian_transition(grid, 0.05)
    init = initial_distribution(grid)
    rows = np.random.default_rng(7).normal(0, 5, (6, 24))
    rows[0, 0] = rows[0].max() + 800.0
    assert init[0] == 0.0
    result = forward(table(rows), transition, init)
    with np.errstate(divide="ignore"):
        log_alpha = np.log(init) + rows[0]
        log_trans = np.log(transition_matrix(grid, 0.05))
    expected = [log_alpha]
    for row in rows[1:]:
        expected.append(np.logaddexp.reduce(expected[-1][:, None] + log_trans, axis=0) + row)
    assert result.log_likelihood == pytest.approx(np.logaddexp.reduce(expected[-1]), rel=1e-12)
    for fwd, log_alpha in zip(result.forward, expected):
        np.testing.assert_allclose(fwd, np.exp(log_alpha - np.logaddexp.reduce(log_alpha)),
                                   rtol=1e-10, atol=1e-15)


def test_posterior_pair_consistency():
    rng = np.random.default_rng(6)
    grid, obs, trans, init = random_instance(rng, n_bins=4, n_states=5)
    fb = forward_backward(obs, trans, init)
    post = posterior_marginals(fb, obs, dense_matrix(trans))
    assert np.allclose(post.singles.sum(axis=1), 1.0, atol=1e-10)
    for i in range(3):
        assert np.allclose(post.pairs[i].sum(axis=0), post.singles[i + 1], atol=1e-10)
        assert np.allclose(post.pairs[i].sum(axis=1), post.singles[i], atol=1e-10)


def test_degenerate_chain_gives_one_hot_posteriors():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    trans = gaussian_transition(grid, 1e-10)
    init = np.zeros(5)
    init[2] = 1.0
    obs = table(np.zeros((4, 5)))
    fb = forward_backward(obs, trans, init)
    post = posterior_marginals(fb, obs, dense_matrix(trans))
    expected = np.zeros((4, 5))
    expected[:, 2] = 1.0
    assert np.allclose(post.singles, expected, atol=1e-9)


def test_viterbi_matches_exhaustive_search():
    rng = np.random.default_rng(7)
    for _ in range(20):
        grid = FrequencyGrid(-1.0, 1.0, 4)
        lam = float(rng.uniform(0.1, 5.0))
        costs = rng.normal(0, 2, (3, 4))
        obs = table(costs)
        path, cost = viterbi(obs, grid, lam)
        best, best_cost = exhaustive_min_cost(-costs, grid, lam)
        assert np.array_equal(path, best)
        assert cost == pytest.approx(best_cost, rel=1e-12)


def test_viterbi_large_lambda_gives_best_constant_path():
    rng = np.random.default_rng(8)
    grid = FrequencyGrid(-1.0, 1.0, 5)
    pg = rng.normal(0, 1, (4, 5))
    obs = table(pg)
    admissible = np.flatnonzero((grid.states > -0.5) & (grid.states <= 0.5))
    best_const = admissible[np.argmax(pg.sum(axis=0)[admissible])]
    # at 1e308 every pair cost but the zero lag overflows to +inf
    for lam in (1e9, 1e308):
        path, cost = viterbi(obs, grid, lam)
        assert np.all(path == best_const)
        assert np.isfinite(cost)


def test_viterbi_searches_every_row_densely_where_the_one_step_pair_cost_overflows():
    # lam spacing^2 = inf at a spacing of 2.08, so ramp[0] = 0 inf is NaN
    # inside a non-empty sweep, where np.fmin.accumulate and
    # np.minimum.accumulate differ: the margin is +inf either way, and every
    # row of every stage goes to the dense search
    grid, lam = FrequencyGrid(-0.25, 60.0, 30), 1e308
    assert np.isinf(lam * grid.spacing**2)
    rows = np.random.default_rng(3).normal(0, 2, (6, 30))
    searched = []
    dense_minima = hmm._dense_minima

    def counted(low, bad, *rest):
        searched.append(bad.size)
        dense_minima(low, bad, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hmm, "_dense_minima", counted)
        path, cost = viterbi(table(rows), grid, lam)
    ref_path, ref_cost = dense_min_cost_path(-rows, grid, lam)
    assert np.array_equal(path, ref_path) and cost == ref_cost
    assert searched == [30] * 5


def test_viterbi_flat_costs_tie_breaks_to_lowest_admissible_state():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    obs = table(np.zeros((3, 5)))
    path, _ = viterbi(obs, grid, 1.0)
    lowest = int(np.flatnonzero((grid.states > -0.5) & (grid.states <= 0.5))[0])
    assert np.all(path == lowest)


def test_viterbi_no_admissible_start_raises():
    grid = FrequencyGrid(2.0, 3.0, 4)
    obs = table(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        viterbi(obs, grid, 1.0)


def test_viterbi_optimality_certificate():
    rng = np.random.default_rng(10)
    grid = FrequencyGrid(-1.0, 1.0, 8)
    pg = rng.normal(0, 2, (6, 8))
    obs = table(pg)
    lam = 0.7
    path, cost = viterbi(obs, grid, lam)
    admissible = np.flatnonzero((grid.states > -0.5) & (grid.states <= 0.5))
    states = grid.states
    for _ in range(1000):
        rand_path = rng.integers(0, 8, 6)
        rand_path[0] = rng.choice(admissible)
        rand_cost = -pg[np.arange(6), rand_path].sum() + lam * np.sum(
            np.diff(states[rand_path]) ** 2
        )
        assert cost <= rand_cost + 1e-12


@pytest.mark.parametrize("costs", ["random", "flat", "tied", "overflow", 1e6, -1e6, 1e12, -1e12])
@pytest.mark.parametrize("lam", [1e-300, 1e-6, 1e-2, 1.0, 1e2, 1e6, 1e308])
@pytest.mark.parametrize("n_states", [129, 300, 512])
def test_viterbi_band_equals_dense_search(n_states, lam, costs):
    grid, obs = band_instance(n_states, costs, seed=n_states)
    path, cost, half = viterbi_and_width(obs, grid, lam)
    ref_path, ref_cost = dense_min_cost_path(-obs.periodograms, grid, lam)
    assert np.array_equal(path, ref_path)
    assert cost == ref_cost
    if lam <= 1e-6 and costs == "random":
        # a pair cost this small against the rows' range puts every state in the band
        assert half == n_states - 1
    if lam <= 1e-2 and costs == "flat":
        # flat rows derive W = 1 and the optimum jumps further, so the
        # dense fallback is exercised on the path itself
        assert half == 1 and np.max(np.abs(np.diff(ref_path))) > half
    if lam < 1e308 and costs == "overflow":
        # the band holds every state while the margin overflows, so the
        # bound is NaN and every row is searched densely
        assert half == n_states - 1
    if lam == 1e-2 and costs == "tied":
        # every stage must pick state 0, outside the band of most rows; the
        # top state at the last bin carries that choice into the path
        assert np.all(path[1:-1] == 0) and path[-1] == n_states - 1


def test_viterbi_band_falls_back_on_a_jump_just_past_the_band():
    # the best predecessor of p lies W + 1 states below it, and p's band
    # minimum sits between the paths through it at lag W + 1 and W + 2, so
    # only a bound tight at lag W + 1, the tangent there, sends row p to the
    # dense search; source is in the start band and target beyond it
    grid, lam = FrequencyGrid(-4.0, 4.0, 300), 1.0
    lag_cost = lam * (np.arange(300) * grid.spacing) ** 2
    start = int(np.flatnonzero(initial_distribution(grid))[-1])
    for half in (2, 8, HALF):
        source = start - (half + 1) // 2
        target = source + half + 1
        assert initial_distribution(grid)[source] > 0 and target > start
        rows = np.zeros((3, 300))
        rows[1, source] = 10.0
        # cost at bin 1: -10 at source, lag_cost[target - start] - rows[1, target] at target
        rows[1, target] = (lag_cost[target - start] + 10.0
                           - (lag_cost[half + 1] + lag_cost[half + 2]) / 2)
        rows[2, target] = 100.0
        with band_half_width(half):
            path, cost = viterbi(table(rows), grid, lam)
        ref_path, ref_cost = dense_min_cost_path(-rows, grid, lam)
        assert np.array_equal(path, ref_path) and cost == ref_cost
        assert list(path[1:]) == [source, target]


def test_viterbi_exact_tie_just_past_the_band_goes_to_the_lower_state():
    # spacing 1/32 and lam = 1 make every lag cost and sum below exact, so
    # the path through source at lag W + 1 ties target's band minimum to the
    # last bit; the dense search keeps the lower index, source
    grid, lam = FrequencyGrid(-4.0, 4.0, 257), 1.0
    lag_cost = lam * (np.arange(257) * grid.spacing) ** 2
    start = int(np.flatnonzero(initial_distribution(grid))[-1])
    for half in (2, 8, HALF):
        source = start - (half + 1) // 2
        target = source + half + 1
        rows = np.zeros((3, 257))
        rows[1, source] = 10.0
        rows[1, target] = lag_cost[target - start] + 10.0 - lag_cost[half + 1]
        rows[2, target] = 100.0
        assert -rows[1, source] + lag_cost[half + 1] == lag_cost[target - start] - rows[1, target]
        with band_half_width(half):
            path, cost = viterbi(table(rows), grid, lam)
        ref_path, ref_cost = dense_min_cost_path(-rows, grid, lam)
        assert np.array_equal(path, ref_path) and cost == ref_cost
        assert list(path[1:]) == [source, target]


@pytest.mark.parametrize("outside", ["below", "above"])
@pytest.mark.parametrize("half", [1, 5, HALF])
def test_viterbi_back_read_breaks_exact_ties_across_the_band_edge_to_the_lower_state(half,
                                                                                      outside):
    # two states of bin 1, one W and one W + 1 states from target on either
    # side, reach target at bin 2 with exactly equal sums (spacing 1/32 and
    # lam = 1 keep every lag cost and sum exact) and below every other sum.
    # The one outside the band ties the band's minimum, so target's row
    # fails the certificate; the path must take the lower of the two states,
    # which lies outside the band when it is the one below
    grid, lam = FrequencyGrid(-4.0, 4.0, 257), 1.0
    lag_cost = lam * (np.arange(257) * grid.spacing) ** 2
    start_band = np.flatnonzero(initial_distribution(grid))
    low_lag, high_lag = (half + 1, half) if outside == "below" else (half, half + 1)
    lower = int(start_band[2])
    target = lower + low_lag
    upper = target + high_lag
    # bin 1 reaches upper from the start band at this lag cost
    entry = lag_cost[max(0, upper - start_band[-1])]
    rows = np.zeros((3, 257))
    rows[1, lower] = 10.0
    rows[1, upper] = 10.0 + lag_cost[high_lag] - lag_cost[low_lag] + entry
    rows[2, target] = 100.0
    assert -rows[1, lower] + lag_cost[low_lag] == entry - rows[1, upper] + lag_cost[high_lag]
    with band_half_width(half):
        path, cost = viterbi(table(rows), grid, lam)
    ref_path, ref_cost = dense_min_cost_path(-rows, grid, lam)
    assert np.array_equal(path, ref_path) and cost == ref_cost
    assert list(path[1:]) == [lower, target]


@pytest.mark.parametrize("width, lam", [(2.6589673163834533, 13.326153403956493),
                                         (3.7755610820564796, 7.448243118159436),
                                         (4.5935897860775965, 3.6370192366988934)])
@pytest.mark.parametrize("offset", [0.0, 1.6142014356679537, 1e6, -1e6, 1e12])
def test_viterbi_margin_covers_sums_within_ulps_of_a_tie_just_past_the_band(width, lam, offset):
    # target's band minimum is set within 3 ulps of the path through source
    # at lag W + 1; the rounding of the tangent bound can put it on either
    # side, and without the margin some of these rows keep the wrong state
    grid = FrequencyGrid(-width / 2, width / 2, 60)
    lag_cost = lam * (np.arange(60) * grid.spacing) ** 2
    start_band = np.flatnonzero(initial_distribution(grid))
    source = int(start_band[start_band.size // 2])
    target = source + HALF + 1
    distance = int(np.min(np.abs(target - start_band)))
    tie = lag_cost[0] - (10.0 - offset) + lag_cost[HALF + 1]
    for ulps in range(-3, 4):
        rows = np.full((3, 60), -offset)
        rows[0] = 0.0
        rows[1, source] += 10.0
        rows[1, target] = lag_cost[distance] - (tie + ulps * np.spacing(tie))
        rows[2, target] = 100.0 + offset
        with band_half_width(HALF):
            path, cost = viterbi(table(rows), grid, lam)
        ref_path, ref_cost = dense_min_cost_path(-rows, grid, lam)
        assert np.array_equal(path, ref_path) and cost == ref_cost


@pytest.mark.parametrize("n_states", [2, 3, HALF + 1, HALF + 2, 2 * HALF, 2 * HALF + 1,
                                      2 * HALF + 2])
@pytest.mark.parametrize("lam", [1e-300, 1e-2, 1.0, 1e2, 1e308])
def test_viterbi_small_grids_equal_dense_search(n_states, lam):
    # grids no wider than the band of one or both sides, down to P = 2, with
    # the derived width and with HALF; the first state is in the start band
    grid = FrequencyGrid(-0.25, 2.0, n_states)
    rows = np.random.default_rng(n_states).normal(0, 2, (8, n_states))
    ref_path, ref_cost = dense_min_cost_path(-rows, grid, lam)
    path, cost = viterbi(table(rows), grid, lam)
    assert np.array_equal(path, ref_path) and cost == ref_cost
    with band_half_width(HALF):
        path, cost = viterbi(table(rows), grid, lam)
    assert np.array_equal(path, ref_path) and cost == ref_cost


@given(half=st.integers(1, 3), n_states=st.integers(2, 14), n_bins=st.integers(1, 5),
       lam=st.sampled_from([1e-300, 1e-3, 0.3, 1.0, 30.0, 1e6, 1e308]),
       data=st.data())
@settings(deadline=None, max_examples=300)
def test_viterbi_narrow_band_equals_dense_search(half, n_states, n_bins, lam, data):
    # W of 1 to 3 on grids of 2 to 14 states: most rows have states beyond
    # their band; small integer costs make ties common
    values = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    rows = np.array(data.draw(st.lists(values, min_size=n_bins * n_states,
                                       max_size=n_bins * n_states))).reshape(n_bins, n_states)
    grid = FrequencyGrid(-0.25, 2.0, n_states)
    ref_path, ref_cost = dense_min_cost_path(-rows, grid, lam)
    with band_half_width(half):
        path, cost = viterbi(table(rows), grid, lam)
    assert np.array_equal(path, ref_path) and cost == ref_cost


@pytest.mark.parametrize("n_states, resolution", [(512, 0.15), (2048, 0.04)])
def test_viterbi_fine_grids_equal_dense_search(n_states, resolution):
    # default sine data at the fitted default r_nu = 4e-3 on +-2.5, where
    # the grid spacing is resolution sqrt(r_nu): the derived band is wider
    # than a fixed count of states yet leaves most of the grid out of it
    grid = FrequencyGrid(-2.5, 2.5, n_states)
    hyper = Hyperparameters(1.0, 0.1, 4e-3)
    assert grid.resolution(hyper.r_nu) == pytest.approx(resolution, rel=0.04)
    truth = make_test_track("sine", 128, (-1.5, 1.5))
    dataset = synthesize_dataset(truth, Hyperparameters(1.0, 0.1, 1e-3), 4, 0)
    records = DataSet(dataset.samples[:16])
    obs = observation_table(records, grid, hyper)
    lam = smoothing_weight(hyper, 4)
    path, cost, half = viterbi_and_width(obs, grid, lam)
    local = -periodogram_table(records.lags, grid.states)
    ref_path, ref_cost = dense_min_cost_path(local, grid, lam)
    assert np.array_equal(path, ref_path) and cost == ref_cost
    assert 16 < half < n_states // 4


@pytest.mark.parametrize("spread, lam, grid, half", [
    (2.8, 512.5, FrequencyGrid(-4.0, 4.0, 512), 10),
    (0.0, 1.0, FrequencyGrid(-1.0, 1.0, 9), 1),
    (1.0, 1e-300, FrequencyGrid(-1.0, 1.0, 9), 8),
    (1e300, 1e-300, FrequencyGrid(-1.0, 1.0, 9), 8),
], ids=["track_input", "flat_rows_at_least_1", "at_most_P-1", "overflow_at_most_P-1"])
def test_band_half_width_is_the_lag_costing_four_spreads(spread, lam, grid, half):
    assert hmm._band_half_width(spread, lam, grid) == half
    if 1 < half < grid.size - 1:
        lag_cost = lam * (np.array([half - 1, half]) * grid.spacing) ** 2
        assert lag_cost[0] < 4 * spread <= lag_cost[1]


def test_viterbi_memory_is_below_a_dense_stage():
    # a certified band needs O(P W) memory, not the P x P pair cost
    grid = FrequencyGrid(-0.5, 0.5, 4096)
    rows = np.random.default_rng(0).normal(0, 2, (2, 4096))
    tracemalloc.start()
    try:
        viterbi(table(rows), grid, 1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_viterbi_dense_fallback_memory_is_bounded_by_its_blocks():
    # on (-4, 4) every row beyond the start band fails the certificate at
    # stage 1; searched at once those rows took a P x P array (348 MB)
    grid = FrequencyGrid(-4.0, 4.0, 4096)
    rows = np.random.default_rng(0).normal(0, 2, (3, 4096))
    tracemalloc.start()
    try:
        viterbi(table(rows), grid, 512.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_viterbi_rejects_non_finite_observations():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    rows = np.zeros((4, 5))
    rows[2, 3] = np.nan
    with pytest.raises(ValueError, match="not finite at bin 2"):
        viterbi(table(rows), grid, 1.0)
    with pytest.raises(ValueError, match="finite"):
        viterbi(table(np.zeros((4, 5))), grid, np.inf)


def test_brute_force_trivial_cases():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    trans = transition_matrix(grid, 0.1)
    init = np.full(5, 0.2)  # uniform
    obs = table(np.zeros((1, 5)))
    bf = brute_force_joint(obs, trans, init)
    assert np.allclose(bf.singles[0], 0.2)
    assert bf.log_likelihood == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        brute_force_joint(table(np.zeros((30, 5))), trans, init)
