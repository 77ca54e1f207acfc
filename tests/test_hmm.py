import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from freqtrack.hmm import (
    BAND_HALF_WIDTH,
    KERNEL_CUTOFF,
    ObservationTable,
    backward,
    forward,
    forward_backward,
    observation_table,
    posterior_marginals,
    viterbi,
)
from freqtrack.markov import (FrequencyGrid, gaussian_transition, initial_distribution,
                              transition_matrix)
from freqtrack.signal import DataSet, Hyperparameters, steering_vector, synthesize_dataset
from oracles import brute_force_joint, dense_gaussian_log_density, exhaustive_min_cost


def random_instance(rng, n_bins=None, n_states=None, scale=5.0):
    n_bins = n_bins or int(rng.integers(1, 6))
    n_states = n_states or int(rng.integers(3, 7))
    grid = FrequencyGrid(-1.0, 1.0, n_states)
    trans = gaussian_transition(grid, float(rng.uniform(0.01, 1.0)))
    init = initial_distribution(grid)
    log_prob = rng.normal(0, scale, (n_bins, n_states))
    obs = ObservationTable(log_prob, log_prob)
    return grid, obs, trans, init


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


def band_instance(n_states, costs, seed=0):
    """Grid over [-4, 4] and (12, P) observation rows: random, or flat but
    for the last bin, which favours the top state; tied rows are flat at
    1e20, where a pair cost below half an ulp (8192) leaves every sum tied."""
    grid = FrequencyGrid(-4.0, 4.0, n_states)
    if costs == "random":
        rows = np.random.default_rng(seed).normal(0, 2, (12, n_states))
    elif costs == "flat":
        rows = np.zeros((12, n_states))
        rows[-1, -1] = 1.0
    else:
        rows = np.full((12, n_states), 1e20)
        rows[-1, -1] += 1e6
    return grid, ObservationTable(rows, rows)


def test_observation_table_matches_per_entry_likelihood():
    rng = np.random.default_rng(0)
    hyper = Hyperparameters(1.0, 0.3, 1e-2)
    ds = synthesize_dataset(rng.uniform(-1, 1, 4), hyper, 4, seed=5)
    grid = FrequencyGrid(-1.5, 1.5, 10)
    obs = observation_table(ds, grid, hyper)
    for t in range(4):
        for p, nu in enumerate(grid.states):
            assert obs.log_prob[t, p] == pytest.approx(
                dense_gaussian_log_density(ds.samples[t], nu, hyper), rel=1e-10
            )


def test_observation_table_argmax_at_true_state():
    hyper = Hyperparameters(1.0, 1e-6, 1e-2)
    grid = FrequencyGrid(-0.5, 0.5, 11)  # contains 0.2 exactly
    ds = DataSet(steering_vector([0.2], 4))
    obs = observation_table(ds, grid, hyper)
    assert grid.states[np.argmax(obs.log_prob[0])] == pytest.approx(0.2)


def test_observation_table_periodic_states_equal():
    hyper = Hyperparameters(1.0, 0.5, 1e-2)
    grid = FrequencyGrid(-1.0, 1.0, 5)  # contains both -1, 0 and 1
    ds = synthesize_dataset([0.3], hyper, 4, seed=1)
    obs = observation_table(ds, grid, hyper)
    states = list(grid.states)
    assert obs.log_prob[0, states.index(0.0)] == pytest.approx(
        obs.log_prob[0, states.index(1.0)], rel=1e-12
    )


def test_forward_single_bin():
    rng = np.random.default_rng(2)
    grid, obs, trans, init = random_instance(rng, n_bins=1, n_states=5)
    result = forward(obs, trans, init)
    expected = np.log(np.sum(np.exp(obs.log_prob[0]) * init))
    assert result.log_likelihood == pytest.approx(expected, rel=1e-12)


def test_forward_backward_match_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        grid, obs, trans, init = random_instance(rng)
        bf = brute_force_joint(obs, trans.matrix, init)
        fb = forward_backward(obs, trans, init)
        post = posterior_marginals(fb, obs, trans.matrix)
        assert fb.log_likelihood == pytest.approx(bf.log_likelihood, rel=1e-10)
        assert np.max(np.abs(post.singles - bf.singles)) < 1e-10
        assert np.max(np.abs(post.pair_sum - bf.pairs.sum(axis=0))) < 1e-10
        if obs.n_bins > 1:
            assert np.max(np.abs(post.pairs - bf.pairs)) < 1e-10


def test_forward_scaling_identity():
    rng = np.random.default_rng(4)
    grid, obs, trans, init = random_instance(rng, n_bins=4, n_states=5)
    shift = 7.3
    shifted = ObservationTable(obs.log_prob + shift, obs.periodograms + shift)
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
    log_prob = np.log([[0.4, 0.6], [0.9, 0.1]])
    obs = ObservationTable(log_prob, log_prob)
    fb = forward_backward(obs, trans, init)
    scaled = obs.scaled()
    for p in range(2):
        expected = np.sum(scaled[1] * trans.matrix[p]) / fb.normalizers[1]
        assert fb.backward[0, p] == pytest.approx(expected, rel=1e-12)


def dense_forward_backward(obs, trans, init):
    """Reference scaled forward-backward on the dense matrix:
    (log-likelihood, forward, backward)."""
    scaled = obs.scaled()
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
    return np.sum(np.log(norms)) + np.sum(obs.row_shift), fwd, bwd


def assert_matches_dense(obs, transition, init):
    fb = forward_backward(obs, transition, init)
    log_likelihood, fwd, bwd = dense_forward_backward(obs, transition.matrix, init)
    assert fb.log_likelihood == pytest.approx(log_likelihood, rel=1e-12)
    # entries reached only through dropped kernel values (<= 2^-106) differ
    # by about that much relative to their row, whose scale is 1 but for
    # the backward table
    np.testing.assert_allclose(fb.forward, fwd, rtol=1e-12, atol=1e-15)
    scale = bwd.max(axis=1, keepdims=True)
    np.testing.assert_allclose(fb.backward / scale, bwd / scale, rtol=1e-12, atol=1e-15)
    singles = posterior_marginals(fb, obs, transition.matrix).singles
    np.testing.assert_allclose(singles, fwd * bwd, rtol=1e-12, atol=1e-15)
    return fb


@pytest.mark.parametrize("r_nu", [1e-12, 1e-4, 1e-2, 1.0, 1e6])
@pytest.mark.parametrize("n_states", [17, 128, 384])
def test_forward_backward_band_equals_dense(n_states, r_nu):
    grid = FrequencyGrid(-3.5, 3.5, n_states)
    transition = gaussian_transition(grid, r_nu)
    rows = np.random.default_rng(n_states).normal(0, 5, (12, n_states))
    init = initial_distribution(grid)
    fb = assert_matches_dense(ObservationTable(rows, rows), transition, init)
    kernel = transition.kernel
    if fb.half_width < n_states - 1:
        assert np.all(kernel[:fb.half_width + 1] > KERNEL_CUTOFF)
        assert fb.truncation_bound == kernel[fb.half_width + 1] <= KERNEL_CUTOFF
    else:
        assert fb.truncation_bound == 0.0 and fb.fallback_bins == 0


def test_forward_backward_band_falls_back_on_a_forced_jump():
    # sigma = 1 state, so the band keeps 12 lags; the second row puts all its
    # mass 20 states above the first, where only dropped kernel values reach
    grid = FrequencyGrid(-3.5, 3.5, 128)
    transition = gaussian_transition(grid, grid.spacing**2)
    rows = np.full((3, 128), -1e3)
    rows[0, 64] = rows[1, 84] = 0.0
    rows[2] = np.random.default_rng(1).normal(0, 5, 128)
    init = initial_distribution(grid)
    fb = assert_matches_dense(ObservationTable(rows, rows), transition, init)
    assert fb.half_width == 12
    assert fb.fallback_bins >= 1


def test_forward_bin_zero_peak_outside_initial_band():
    # bin 0 peaks at -1.5, outside the initial band, more than 745 nats (where
    # exp underflows) above every admissible state
    grid = FrequencyGrid(-1.5, 1.5, 24)
    transition = gaussian_transition(grid, 0.05)
    init = initial_distribution(grid)
    rows = np.random.default_rng(7).normal(0, 5, (6, 24))
    rows[0, 0] = rows[0].max() + 800.0
    assert init[0] == 0.0
    result = forward(ObservationTable(rows, rows), transition, init)
    with np.errstate(divide="ignore"):
        log_alpha = np.log(init) + rows[0]
        log_trans = np.log(transition.matrix)
    expected = [log_alpha]
    for row in rows[1:]:
        expected.append(logsumexp(expected[-1][:, None] + log_trans, axis=0) + row)
    assert result.log_likelihood == pytest.approx(logsumexp(expected[-1]), rel=1e-12)
    for fwd, log_alpha in zip(result.forward, expected):
        np.testing.assert_allclose(fwd, np.exp(log_alpha - logsumexp(log_alpha)),
                                   rtol=1e-10, atol=1e-15)


def test_posterior_pair_consistency():
    rng = np.random.default_rng(6)
    grid, obs, trans, init = random_instance(rng, n_bins=4, n_states=5)
    fb = forward_backward(obs, trans, init)
    post = posterior_marginals(fb, obs, trans.matrix)
    assert np.allclose(post.singles.sum(axis=1), 1.0, atol=1e-10)
    for i in range(3):
        assert np.allclose(post.pairs[i].sum(axis=0), post.singles[i + 1], atol=1e-10)
        assert np.allclose(post.pairs[i].sum(axis=1), post.singles[i], atol=1e-10)


def test_degenerate_chain_gives_one_hot_posteriors():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    trans = gaussian_transition(grid, 1e-10)
    init = np.zeros(5)
    init[2] = 1.0
    obs = ObservationTable(np.zeros((4, 5)), np.zeros((4, 5)))
    fb = forward_backward(obs, trans, init)
    post = posterior_marginals(fb, obs, trans.matrix)
    expected = np.zeros((4, 5))
    expected[:, 2] = 1.0
    assert np.allclose(post.singles, expected, atol=1e-9)


def test_viterbi_matches_exhaustive_search():
    rng = np.random.default_rng(7)
    for _ in range(20):
        grid = FrequencyGrid(-1.0, 1.0, 4)
        lam = float(rng.uniform(0.1, 5.0))
        costs = rng.normal(0, 2, (3, 4))
        obs = ObservationTable(costs, costs)
        path, cost = viterbi(obs, grid, lam)
        best, best_cost = exhaustive_min_cost(-costs, grid, lam)
        assert np.array_equal(path, best)
        assert cost == pytest.approx(best_cost, rel=1e-12)


def test_viterbi_large_lambda_gives_best_constant_path():
    rng = np.random.default_rng(8)
    grid = FrequencyGrid(-1.0, 1.0, 5)
    pg = rng.normal(0, 1, (4, 5))
    obs = ObservationTable(pg, pg)
    admissible = np.flatnonzero((grid.states > -0.5) & (grid.states <= 0.5))
    best_const = admissible[np.argmax(pg.sum(axis=0)[admissible])]
    # at 1e308 every pair cost but the zero lag overflows to +inf
    for lam in (1e9, 1e308):
        path, cost = viterbi(obs, grid, lam)
        assert np.all(path == best_const)
        assert np.isfinite(cost)


def test_viterbi_flat_costs_tie_breaks_to_lowest_admissible_state():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    obs = ObservationTable(np.zeros((3, 5)), np.zeros((3, 5)))
    path, _ = viterbi(obs, grid, 1.0)
    lowest = int(np.flatnonzero((grid.states > -0.5) & (grid.states <= 0.5))[0])
    assert np.all(path == lowest)


def test_viterbi_no_admissible_start_raises():
    grid = FrequencyGrid(2.0, 3.0, 4)
    obs = ObservationTable(np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        viterbi(obs, grid, 1.0)


def test_viterbi_optimality_certificate():
    rng = np.random.default_rng(10)
    grid = FrequencyGrid(-1.0, 1.0, 8)
    pg = rng.normal(0, 2, (6, 8))
    obs = ObservationTable(pg, pg)
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


@pytest.mark.parametrize("costs", ["random", "flat", "tied"])
@pytest.mark.parametrize("lam", [1e-6, 1e-2, 1.0, 1e2, 1e6, 1e308])
@pytest.mark.parametrize("n_states", [129, 300, 512])
def test_viterbi_band_equals_dense_search(n_states, lam, costs):
    grid, obs = band_instance(n_states, costs, seed=n_states)
    path, cost = viterbi(obs, grid, lam)
    ref_path, ref_cost = dense_min_cost_path(-obs.periodograms, grid, lam)
    assert np.array_equal(path, ref_path)
    assert cost == ref_cost
    if lam == 1e-6 and costs == "random" and n_states >= 300:
        # the optimum leaves the band, so the dense fallback is exercised
        assert np.max(np.abs(np.diff(ref_path))) > BAND_HALF_WIDTH
    if lam == 1e-2 and costs == "tied":
        # every stage must pick state 0, outside the band of most rows; the
        # top state at the last bin carries that choice into the path
        assert np.all(path[1:-1] == 0) and path[-1] == n_states - 1


def test_viterbi_band_falls_back_on_a_jump_just_past_the_band():
    # the best predecessor of p lies W + 1 states below it, and p's band
    # minimum sits between the paths through it at lag W + 1 and W + 2, so
    # only a certificate on lag_cost[W + 1] sends row p to the dense search
    grid, lam, half = FrequencyGrid(-4.0, 4.0, 300), 1.0, BAND_HALF_WIDTH
    lag_cost = lam * (np.arange(300) * grid.spacing) ** 2
    start = int(np.flatnonzero(initial_distribution(grid))[-1])
    source, target = start - 18, start - 18 + half + 1
    rows = np.zeros((3, 300))
    rows[1, source] = 10.0
    # cost at bin 1: -10 at source, lag_cost[target - start] - rows[1, target] at target
    rows[1, target] = lag_cost[target - start] + 10.0 - (lag_cost[half + 1] + lag_cost[half + 2]) / 2
    rows[2, target] = 100.0
    path, cost = viterbi(ObservationTable(rows, rows), grid, lam)
    ref_path, ref_cost = dense_min_cost_path(-rows, grid, lam)
    assert np.array_equal(path, ref_path) and cost == ref_cost
    assert list(path[1:]) == [source, target]


def test_viterbi_memory_is_below_a_dense_stage():
    # a certified band needs O(P W) memory, not the P x P pair cost
    grid = FrequencyGrid(-0.5, 0.5, 4096)
    rows = np.random.default_rng(0).normal(0, 2, (2, 4096))
    tracemalloc.start()
    try:
        viterbi(ObservationTable(rows, rows), grid, 1e6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_viterbi_rejects_non_finite_observations():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    rows = np.zeros((4, 5))
    rows[2, 3] = np.nan
    with pytest.raises(ValueError, match="not finite at bin 2"):
        viterbi(ObservationTable(rows, np.zeros((4, 5))), grid, 1.0)
    with pytest.raises(ValueError, match="not finite at bin 2"):
        viterbi(ObservationTable(np.zeros((4, 5)), rows), grid, 1.0)
    with pytest.raises(ValueError, match="finite"):
        viterbi(ObservationTable(np.zeros((4, 5)), np.zeros((4, 5))), grid, np.inf)


def test_brute_force_trivial_cases():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    trans = transition_matrix(grid, 0.1)
    init = np.full(5, 0.2)  # uniform
    obs = ObservationTable(np.zeros((1, 5)), np.zeros((1, 5)))
    bf = brute_force_joint(obs, trans, init)
    assert np.allclose(bf.singles[0], 0.2)
    assert bf.log_likelihood == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        brute_force_joint(ObservationTable(np.zeros((30, 5)), np.zeros((30, 5))), trans, init)
