import itertools

import numpy as np
import pytest

from freqtrack.hmm import (
    ObservationTable,
    brute_force_joint,
    backward,
    forward,
    forward_backward,
    map_path,
    observation_table,
    posterior_marginals,
    viterbi,
)
from freqtrack.likelihood import log_marginal_likelihood
from freqtrack.markov import FrequencyGrid, initial_distribution, transition_matrix
from freqtrack.signal import Hyperparameters, synthesize_dataset


def random_instance(rng, n_bins=None, n_states=None, scale=5.0):
    n_bins = n_bins or int(rng.integers(1, 6))
    n_states = n_states or int(rng.integers(3, 7))
    grid = FrequencyGrid(-1.0, 1.0, n_states)
    trans = transition_matrix(grid, float(rng.uniform(0.01, 1.0)))
    init = initial_distribution(grid, 1)
    obs = ObservationTable.from_log_prob(rng.normal(0, scale, (n_bins, n_states)))
    return grid, obs, trans, init


def exhaustive_min_cost(local, states, lam, admissible):
    """Brute-force minimizer of the regularized path cost."""
    n_bins, n_states = local.shape
    best, best_cost = None, np.inf
    for path in itertools.product(range(n_states), repeat=n_bins):
        if not admissible[path[0]]:
            continue
        cost = sum(local[t, path[t]] for t in range(n_bins))
        cost += sum(
            lam * (states[path[t + 1]] - states[path[t]]) ** 2 for t in range(n_bins - 1)
        )
        if cost < best_cost:
            best, best_cost = np.array(path), cost
    return best, best_cost


def test_observation_table_matches_per_entry_likelihood():
    rng = np.random.default_rng(0)
    hyper = Hyperparameters(1.0, 0.3, 1e-2)
    ds = synthesize_dataset(rng.uniform(-1, 1, 4), hyper, 4, seed=5)
    grid = FrequencyGrid(-1.5, 1.5, 10)
    obs = observation_table(ds, grid, hyper)
    for t in range(4):
        for p, nu in enumerate(grid.states):
            assert obs.log_prob[t, p] == pytest.approx(
                log_marginal_likelihood(ds.samples[t], nu, hyper), rel=1e-12
            )


def test_observation_table_argmax_at_true_state():
    hyper = Hyperparameters(1.0, 1e-6, 1e-2)
    grid = FrequencyGrid(-0.5, 0.5, 11)  # contains 0.2 exactly
    ds = synthesize_dataset([0.2], hyper, 4, seed=0, fixed_amplitude=1.0)
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
        bf = brute_force_joint(obs, trans, init)
        fb = forward_backward(obs, trans, init)
        post = posterior_marginals(fb, obs, trans)
        assert fb.log_likelihood == pytest.approx(bf.log_likelihood, rel=1e-10)
        assert np.max(np.abs(post.singles - bf.singles)) < 1e-10
        assert np.max(np.abs(post.pair_sum - bf.pairs.sum(axis=0))) < 1e-10
        if obs.n_bins > 1:
            assert np.max(np.abs(post.pairs - bf.pairs)) < 1e-10


def test_forward_scaling_identity():
    rng = np.random.default_rng(4)
    grid, obs, trans, init = random_instance(rng, n_bins=4, n_states=5)
    shift = 7.3
    shifted = ObservationTable.from_log_prob(obs.log_prob + shift)
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
    trans = transition_matrix(grid, 0.1)
    init = initial_distribution(grid, 1)
    obs = ObservationTable.from_log_prob(np.log([[0.4, 0.6], [0.9, 0.1]]))
    fb = forward_backward(obs, trans, init)
    scaled = obs.scaled()
    for p in range(2):
        expected = np.sum(scaled[1] * trans[p]) / fb.normalizers[1]
        assert fb.backward[0, p] == pytest.approx(expected, rel=1e-12)


def test_posterior_pair_consistency():
    rng = np.random.default_rng(6)
    grid, obs, trans, init = random_instance(rng, n_bins=4, n_states=5)
    fb = forward_backward(obs, trans, init)
    post = posterior_marginals(fb, obs, trans)
    assert np.allclose(post.singles.sum(axis=1), 1.0, atol=1e-10)
    for i in range(3):
        assert np.allclose(post.pairs[i].sum(axis=0), post.singles[i + 1], atol=1e-10)
        assert np.allclose(post.pairs[i].sum(axis=1), post.singles[i], atol=1e-10)


def test_degenerate_chain_gives_one_hot_posteriors():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    trans = transition_matrix(grid, 1e-10)
    init = np.zeros(5)
    init[2] = 1.0
    obs = ObservationTable.from_log_prob(np.zeros((4, 5)))
    fb = forward_backward(obs, trans, init)
    post = posterior_marginals(fb, obs, trans)
    expected = np.zeros((4, 5))
    expected[:, 2] = 1.0
    assert np.allclose(post.singles, expected, atol=1e-9)


def test_viterbi_matches_exhaustive_search():
    rng = np.random.default_rng(7)
    for _ in range(20):
        grid = FrequencyGrid(-1.0, 1.0, 4)
        lam = float(rng.uniform(0.1, 5.0))
        costs = rng.normal(0, 2, (3, 4))
        obs = ObservationTable.from_log_prob(costs)
        obs.periodograms = costs
        path, cost = viterbi(obs, grid, lam, 1)
        admissible = (grid.states > -0.5) & (grid.states <= 0.5)
        best, best_cost = exhaustive_min_cost(-costs, grid.states, lam, admissible)
        assert np.array_equal(path, best)
        assert cost == pytest.approx(best_cost, rel=1e-12)


def test_viterbi_large_lambda_gives_best_constant_path():
    rng = np.random.default_rng(8)
    grid = FrequencyGrid(-1.0, 1.0, 5)
    pg = rng.normal(0, 1, (4, 5))
    obs = ObservationTable.from_log_prob(pg)
    obs.periodograms = pg
    path, _ = viterbi(obs, grid, 1e9, 1)
    admissible = np.flatnonzero((grid.states > -0.5) & (grid.states <= 0.5))
    best_const = admissible[np.argmax(pg.sum(axis=0)[admissible])]
    assert np.all(path == best_const)


def test_viterbi_flat_costs_tie_breaks_to_lowest_admissible_state():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    obs = ObservationTable.from_log_prob(np.zeros((3, 5)))
    obs.periodograms = np.zeros((3, 5))
    path, _ = viterbi(obs, grid, 1.0, 1)
    lowest = int(np.flatnonzero((grid.states > -0.5) & (grid.states <= 0.5))[0])
    assert np.all(path == lowest)


def test_viterbi_no_admissible_start_raises():
    grid = FrequencyGrid(2.0, 3.0, 4)
    obs = ObservationTable.from_log_prob(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        viterbi(obs, grid, 1.0, 1)


def test_map_path_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(20):
        grid, obs, trans, init = random_instance(rng)
        bf = brute_force_joint(obs, trans, init)
        path, log_joint = map_path(obs, trans, init)
        assert np.array_equal(path, bf.best_path)
        assert log_joint == pytest.approx(bf.best_log_joint, rel=1e-9)


def test_viterbi_optimality_certificate():
    rng = np.random.default_rng(10)
    grid = FrequencyGrid(-1.0, 1.0, 8)
    pg = rng.normal(0, 2, (6, 8))
    obs = ObservationTable.from_log_prob(pg)
    obs.periodograms = pg
    lam = 0.7
    path, cost = viterbi(obs, grid, lam, 1)
    admissible = np.flatnonzero((grid.states > -0.5) & (grid.states <= 0.5))
    states = grid.states
    for _ in range(1000):
        rand_path = rng.integers(0, 8, 6)
        rand_path[0] = rng.choice(admissible)
        rand_cost = -pg[np.arange(6), rand_path].sum() + lam * np.sum(
            np.diff(states[rand_path]) ** 2
        )
        assert cost <= rand_cost + 1e-12


def test_brute_force_trivial_cases():
    grid = FrequencyGrid(-1.0, 1.0, 5)
    trans = transition_matrix(grid, 0.1)
    init = initial_distribution(grid, 5)  # uniform
    obs = ObservationTable.from_log_prob(np.zeros((1, 5)))
    bf = brute_force_joint(obs, trans, init)
    assert np.allclose(bf.singles[0], 0.2)
    assert bf.log_likelihood == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        brute_force_joint(ObservationTable.from_log_prob(np.zeros((30, 5))), trans, init)
