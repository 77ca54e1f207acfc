"""Maximum-likelihood estimation of the three model variances.

The hyperparameter negative log-likelihood is computed by one forward
pass over the discrete chain.  Its exact gradient comes from the EM
identity: the gradient of the marginal log-likelihood equals the gradient
of the EM auxiliary function at the current point, which reduces to sums
of posterior marginals against closed-form derivatives of the observation
and transition log-probabilities.  Descent runs in log-parameter space so
positivity never needs explicit constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from freqtrack.hmm import forward, forward_backward, observation_table, posterior_marginals
from freqtrack.likelihood import in_initial_band
from freqtrack.markov import (FrequencyGrid, gaussian_transition, initial_distribution,
                              transition_matrix)
from freqtrack.signal import DataSet, Hyperparameters
from freqtrack.spectral import empirical_correlation, periodogram_table

STRATEGIES = ("coordinate_wise", "gradient", "vignes", "bisector", "polak_ribiere")

# estimate_ml stops after MAX_ITER iterations or once one lowers the
# criterion by less than REL_TOL * max(1, |f|); a line search once its
# bracket [a, c] is narrower than LINE_SEARCH_TOL * max(1, c).
MAX_ITER = 200
REL_TOL = 1e-8
LINE_SEARCH_TOL = 1e-3

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def hyper_nll(dataset: DataSet, hyper: Hyperparameters, grid: FrequencyGrid) -> float:
    """Negative log-likelihood of the hyperparameters (one forward pass)."""
    obs = observation_table(dataset, grid, hyper)
    init = initial_distribution(grid)
    return -forward(obs, gaussian_transition(grid, hyper.r_nu), init).log_likelihood


def hyper_nll_gradient(dataset: DataSet, hyper: Hyperparameters, grid: FrequencyGrid) -> np.ndarray:
    """Exact gradient [d/dlog r_a, d/dlog r_b, d/dlog r_nu] of hyper_nll via
    the EM identity.

    With s = N r_a + r_b the observation log-probability is
    (1 - N) log r_b - log s - E / r_b + (1 / r_b - 1 / s) P, up to a
    constant, so posterior rows summing to one leave a single reduction
    S = sum singles * P for both variances.  No term squares a variance, so
    the gradient is finite wherever hyper_nll is.
    """
    obs = observation_table(dataset, grid, hyper)
    trans = transition_matrix(grid, hyper.r_nu)
    init = initial_distribution(grid)
    fb = forward_backward(obs, gaussian_transition(grid, hyper.r_nu), init)
    post = posterior_marginals(fb, obs, trans)

    n, n_bins = dataset.n_samples, dataset.n_bins
    r_a, r_b, r_nu = hyper.r_a, hyper.r_b, hyper.r_nu
    s = n * r_a + r_b
    spectral_mass = float(np.vdot(post.singles, obs.periodograms))  # S
    d_ra = n * r_a / s * (spectral_mass / s - n_bins)
    d_rb = (n_bins * (1 - n - r_b / s) + (float(dataset.energy.sum()) - spectral_mass) / r_b
            + r_b / s * (spectral_mass / s))

    states = grid.states
    dist2 = (states[None, :] - states[:, None]) ** 2  # [q, p]
    expected = np.sum(trans * dist2, axis=1)          # per source state q
    term = (dist2 - expected[:, None]) / (2.0 * r_nu)
    d_rnu = np.sum(post.pair_sum * term)

    return -np.array([d_ra, d_rb, d_rnu])


def empirical_init(dataset: DataSet, grid: FrequencyGrid) -> Hyperparameters:
    """Starting point from averaged correlation lags and aliased peak frequencies.

    r_a = |r(1)|, r_b = r(0) - |r(1)|, and r_nu is the variance of the
    successive differences of the per-bin periodogram-argmax frequencies.
    Floors keep the estimates strictly positive on degenerate data.  The
    aliased argmax sequence jumps at wraps, so r_nu comes out overestimated
    on beyond-Nyquist tracks; it is only a starting point.
    """
    if dataset.n_bins < 2:
        raise ValueError("need at least two bins")
    lags = np.mean(empirical_correlation(dataset.samples), axis=0)
    r0 = float(lags[0].real)
    if r0 <= 0:
        raise ValueError("degenerate all-zero data")
    r1 = float(np.abs(lags[1]))
    r_a = max(r1, 1e-6 * r0)
    r_b = max(r0 - r1, 1e-6 * r0)

    band = grid.states[in_initial_band(grid.states)]
    p_table = periodogram_table(dataset.samples, band)
    ml_freqs = band[np.argmax(p_table, axis=1)]
    r_nu = max(float(np.var(np.diff(ml_freqs))), 1e-8)
    return Hyperparameters(r_a, r_b, r_nu)


@dataclass
class OptimizerReport:
    minimizer: Hyperparameters
    reached_minimum: float
    gradient_evals: int
    function_evals: int
    iterations: int
    converged: bool
    trajectory: list = field(default_factory=list)  # log-parameter iterates


class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return self.fn(x)


def _bracket(phi, f0: float, step: float):
    """Bracket a minimum of phi along s >= 0 given phi(0) = f0.

    Returns (a, b, c, fb) with a < b < c and phi(b) < min(f0, phi(c)),
    or None when no decrease is found down to a tiny step.
    """
    s = step
    fs = phi(s)
    while fs >= f0:
        s *= 0.25
        if s < 1e-14:
            return None
        fs = phi(s)
    a, b, fb = 0.0, s, fs
    c = 2.0 * s
    fc = phi(c)
    while fc < fb:
        a, b, fb = b, c, fc
        c *= 2.0
        if c > 1e6:
            break
        fc = phi(c)
    return a, b, c, fb


def _golden_section(phi, a, b, c, fb):
    while c - a > LINE_SEARCH_TOL * max(1.0, c):
        if c - b > b - a:
            u = b + (1 - _GOLDEN) * (c - b)
            fu = phi(u)
            if fu < fb:
                a, b, fb = b, u, fu
            else:
                c = u
        else:
            u = b - (1 - _GOLDEN) * (b - a)
            fu = phi(u)
            if fu < fb:
                c, b, fb = b, u, fu
            else:
                a = u
    return b, fb


def _dichotomy(phi, a, b, c, fb):
    best, fbest = b, fb
    while c - a > LINE_SEARCH_TOL * max(1.0, c):
        mid = 0.5 * (a + c)
        delta = 0.125 * (c - a)
        f1 = phi(mid - delta)
        f2 = phi(mid + delta)
        if f1 < f2:
            c = mid + delta
            if f1 < fbest:
                best, fbest = mid - delta, f1
        else:
            a = mid - delta
            if f2 < fbest:
                best, fbest = mid + delta, f2
    return best, fbest


def _quadratic_interp(phi, a, b, c, fb):
    fa, fc = phi(a), phi(c)
    best, fbest = b, fb
    for _ in range(60):
        if c - a <= LINE_SEARCH_TOL * max(1.0, c):
            break
        denom = (b - a) * (fb - fc) - (b - c) * (fb - fa)
        if abs(denom) < 1e-300:
            u = 0.5 * (a + c)
        else:
            u = b - 0.5 * ((b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)) / denom
            if not (a < u < c) or abs(u - b) < 1e-3 * (c - a):
                # fall back to a golden step in the larger sub-interval
                u = b + (1 - _GOLDEN) * (c - b) if c - b > b - a else b - (1 - _GOLDEN) * (b - a)
        fu = phi(u)
        if fu < fbest:
            best, fbest = u, fu
        if u < b:
            if fu < fb:
                c, fc = b, fb
                b, fb = u, fu
            else:
                a, fa = u, fu
        else:
            if fu < fb:
                a, fa = b, fb
                b, fb = u, fu
            else:
                c, fc = u, fu
    return best, fbest


_REFINERS = {
    "golden_section": _golden_section,
    "dichotomy": _dichotomy,
    "quadratic_interp": _quadratic_interp,
}
LINE_SEARCHES = tuple(_REFINERS)


def _line_search(phi, f0, step, method):
    """(s, phi(s)) with phi(s) < f0, or None when _bracket finds no decrease:
    each refiner returns a value at most the bracket's phi(b) < f0."""
    bracket = _bracket(phi, f0, step)
    if bracket is None:
        return None
    a, b, c, fb = bracket
    return _REFINERS[method](phi, a, b, c, fb)


def estimate_ml(
    dataset: DataSet,
    grid: FrequencyGrid,
    strategy: str = "polak_ribiere",
    line_search: str = "golden_section",
    init: Hyperparameters | None = None,
) -> OptimizerReport:
    """Minimize hyper_nll over log(r) starting from the empirical estimates.

    Stops when the relative decrease of the criterion falls below REL_TOL
    or after MAX_ITER iterations.  Every accepted step decreases the
    criterion, so the trajectory is monotone.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if line_search not in LINE_SEARCHES:
        raise ValueError(f"unknown line search {line_search!r}")
    if init is None:
        init = empirical_init(dataset, grid)

    fun = _Counted(lambda x: hyper_nll(dataset, Hyperparameters.from_array(np.exp(x)), grid))
    grad = _Counted(
        lambda x: hyper_nll_gradient(dataset, Hyperparameters.from_array(np.exp(x)), grid))

    x = np.log(init.as_array())
    fx = fun(x)
    if not np.isfinite(fx):
        raise ValueError("non-finite criterion at the starting point")
    trajectory = [x.copy()]
    converged = False

    if strategy == "coordinate_wise":
        steps = np.full(3, 0.1)
        iterations = 0
        for iterations in range(1, MAX_ITER + 1):
            f_before = fx
            for axis in range(3):
                direction = np.zeros(3)
                direction[axis] = 1.0
                moved = False
                for sign in (+1.0, -1.0):
                    phi = lambda s: fun(x + sign * s * direction)
                    result = _line_search(phi, fx, steps[axis], line_search)
                    if result is not None:
                        s, fs = result
                        x = x + sign * s * direction
                        fx = fs
                        steps[axis] = max(s, 1e-6)
                        moved = True
                        break
                if not moved:
                    steps[axis] = max(steps[axis] * 0.25, 1e-8)
            trajectory.append(x.copy())
            if f_before - fx < REL_TOL * max(1.0, abs(fx)):
                converged = True
                break
    else:
        prev_g = None
        prev_d = None
        weights = None
        step_hint = 0.1
        iterations = 0
        for iterations in range(1, MAX_ITER + 1):
            g = grad(x)
            gnorm = float(np.linalg.norm(g))
            if gnorm == 0.0:
                converged = True
                break
            if strategy == "gradient":
                d = -g
            elif strategy == "polak_ribiere":
                if prev_g is None or (iterations - 1) % 3 == 0:
                    d = -g
                else:
                    beta = max(0.0, float(g @ (g - prev_g)) / float(prev_g @ prev_g))
                    d = -g + beta * prev_d
            elif strategy == "bisector":
                if prev_d is None:
                    d = -g
                else:
                    d = -g / gnorm + prev_d / np.linalg.norm(prev_d)
            else:  # vignes: per-component sign-adaptive step correction
                if weights is None:
                    weights = np.full(3, 1.0)
                else:
                    same = np.sign(g) == np.sign(prev_g)
                    weights = np.where(same, weights * 1.5, weights * 0.5)
                d = -np.sign(g) * weights * np.abs(g)
            if float(d @ g) >= 0.0:
                d = -g
            d = d / np.linalg.norm(d)
            phi = lambda s: fun(x + s * d)
            result = _line_search(phi, fx, step_hint, line_search)
            if result is None and strategy != "gradient":
                d = -g / gnorm
                result = _line_search(lambda s: fun(x + s * d), fx, step_hint, line_search)
            if result is None:
                converged = True
                break
            s, fs = result
            f_before = fx
            x = x + s * d
            fx = fs
            step_hint = max(s, 1e-6)
            prev_g, prev_d = g, d
            trajectory.append(x.copy())
            if f_before - fx < REL_TOL * max(1.0, abs(fx)):
                converged = True
                break

    return OptimizerReport(
        minimizer=Hyperparameters.from_array(np.exp(x)),
        reached_minimum=fx,
        gradient_evals=grad.count,
        function_evals=fun.count,
        iterations=iterations,
        converged=converged,
        trajectory=trajectory,
    )
