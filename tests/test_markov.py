import numpy as np
import pytest

from freqtrack.markov import (KERNEL_CUTOFF, FrequencyGrid, gaussian_transition,
                              initial_distribution, transition_matrix)


def test_grid_states():
    assert np.allclose(FrequencyGrid(-0.5, 0.5, 3).states, [-0.5, 0, 0.5])
    assert np.allclose(FrequencyGrid(0, 1, 2).states, [0, 1])
    grid = FrequencyGrid(-2.5, 2.5, 128)
    assert grid.spacing == pytest.approx(5 / 127)
    assert np.all(np.diff(grid.states) > 0)


def test_grid_argument_errors():
    with pytest.raises(ValueError):
        FrequencyGrid(0.5, -0.5, 10)
    with pytest.raises(ValueError):
        FrequencyGrid(0, 1, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo, hi, message", [
    (-np.inf, 2.5, "is not finite"),
    (-1.0, np.nan, "is not finite"),
    (-1e308, 1e308, "spacing"),
    (np.float64(-1e308), np.float64(1e308), "spacing"),
], ids=["inf_bound", "nan_bound", "spacing_overflow", "numpy_spacing_overflow"])
def test_grid_rejects_a_non_finite_range_or_spacing(lo, hi, message):
    # unchecked, linspace warns and the chain's costs are inf or nan
    with pytest.raises(ValueError, match=message):
        FrequencyGrid(lo, hi, 128)


def test_transition_rows_sum_to_one():
    grid = FrequencyGrid(-2.5, 2.5, 64)
    for r_nu in (1e-4, 1e-2, 1.0):
        trans = transition_matrix(grid, r_nu)
        assert np.allclose(trans.sum(axis=1), 1.0, atol=1e-12)
        # far tails may underflow to zero, but every diagonal must carry mass
        assert np.all(trans >= 0)
        assert np.all(np.diag(trans) > 0)


@pytest.mark.parametrize("spec", [(0.3, 2.7, 17), (-3.5, 3.5, 384)])
@pytest.mark.parametrize("r_nu", [1e-12, 1e-4, 1e-2, 1.0, 1e6])
def test_transition_matches_dense_formula(spec, r_nu):
    grid = FrequencyGrid(*spec)
    states = grid.states
    dense = np.exp(-((states[None, :] - states[:, None]) ** 2) / (2 * r_nu))
    dense /= dense.sum(axis=1, keepdims=True)
    # atol covers entries below 1e-15: where the exponent is ~1e4 the dense
    # reference itself carries a relative error of exponent * eps
    np.testing.assert_allclose(transition_matrix(grid, r_nu), dense, rtol=1e-12, atol=1e-15)


def test_transition_flat_limit():
    grid = FrequencyGrid(0, 1, 10)
    trans = transition_matrix(grid, 1e6)
    assert np.allclose(trans, 0.1, atol=1e-3)


def test_transition_degenerate_limit():
    grid = FrequencyGrid(0, 1, 10)
    trans = transition_matrix(grid, 1e-8)
    assert np.allclose(np.diag(trans), 1.0, atol=1e-12)


def test_transition_depends_only_on_squared_distance():
    grid = FrequencyGrid(-1, 1, 9)
    r_nu = 0.05
    trans = transition_matrix(grid, r_nu)
    states = grid.states
    # within a row, the ratio of two entries is the Gaussian kernel ratio exactly
    for q in range(9):
        for p1 in range(9):
            for p2 in range(9):
                expected = np.exp(
                    -((states[p1] - states[q]) ** 2 - (states[p2] - states[q]) ** 2)
                    / (2 * r_nu)
                )
                assert trans[q, p1] / trans[q, p2] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("spec", [(-4.0, 4.0, 2), (0.3, 2.7, 17), (-2.5, 2.5, 128),
                                  (-3.5, 3.5, 384)])
def test_band_keeps_lag_zero_alone_exactly_when_kernel_1_is_cut(spec):
    # kernel[1] = 2^-106 near r_nu = spacing^2 / (212 ln 2): the sweep crosses
    # that point in relative steps of 1e-4, and bisection finds the two
    # adjacent floats between which kernel[1] <= KERNEL_CUTOFF stops holding
    grid = FrequencyGrid(*spec)

    def cut(r_nu):
        return gaussian_transition(grid, r_nu).kernel[1] <= KERNEL_CUTOFF

    sweep = list(grid.spacing**2 / (212 * np.log(2)) * np.geomspace(0.99, 1.01, 201))
    low, high = next(pair for pair in zip(sweep, sweep[1:]) if cut(pair[0]) != cut(pair[1]))
    while np.nextafter(low, high) < high:
        middle = low + (high - low) / 2
        low, high = (middle, high) if cut(middle) == cut(low) else (low, middle)
    for r_nu in sweep + [np.nextafter(low, 0.0), low, high, np.nextafter(high, np.inf)]:
        assert (gaussian_transition(grid, r_nu).half_width == 0) == cut(r_nu), r_nu
    assert cut(low) and not cut(high)


def test_initial_distribution_band():
    grid = FrequencyGrid(-2.5, 2.5, 128)
    init = initial_distribution(grid)
    inside = (grid.states > -0.5) & (grid.states <= 0.5)
    assert init.sum() == pytest.approx(1.0)
    assert np.all(init[~inside] == 0)
    assert np.allclose(init[inside], init[inside][0])


def test_initial_distribution_excludes_open_left_endpoint():
    grid = FrequencyGrid(-0.5, 0.5, 3)
    assert np.allclose(initial_distribution(grid), [0, 0.5, 0.5])


def test_initial_distribution_empty_band_raises():
    grid = FrequencyGrid(2.0, 3.0, 4)
    with pytest.raises(ValueError):
        initial_distribution(grid)
