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

from freqtrack.hmm import (KERNEL_CUTOFF, NumericalError, forward, forward_backward,
                           observation_table, posterior_marginals)
from freqtrack.likelihood import in_initial_band
from freqtrack.markov import (FrequencyGrid, gaussian_transition, initial_distribution,
                              transition_matrix)
from freqtrack.signal import DataSet, HyperparameterError, Hyperparameters
from freqtrack.spectral import empirical_correlation, periodogram_table

STRATEGIES = ("coordinate_wise", "gradient", "vignes", "bisector", "polak_ribiere")
# vignes reaches polak_ribiere's minima, or lower ones, in about a third of
# the criterion evaluations.
DEFAULT_STRATEGY = "vignes"

# estimate_ml stops after MAX_ITER iterations or once one lowers the
# criterion by less than REL_TOL * max(1, |f|).  A line search stops once
# the parabola through its bracket predicts a further decrease of at most
# SETTLE_RATIO times the decrease it has made, or once the bracket [a, c]
# is narrower than LINE_SEARCH_TOL * max(1, c).
MAX_ITER = 200
REL_TOL = 1e-8
LINE_SEARCH_TOL = 1e-3
SETTLE_RATIO = 1e-3

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
    # "relative_decrease", "no_decrease", "zero_gradient", "max_iter" or
    # "r_nu_below_resolution"; the last two are not convergence
    stop_reason: str
    trajectory: list = field(default_factory=list)  # log-parameter iterates

    @property
    def converged(self) -> bool:
        return self.stop_reason not in ("max_iter", "r_nu_below_resolution")


class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return self.fn(x)


def _total(fn):
    """fn(hyper) over log-parameters x, +inf where exp(x) is not positive
    and finite, where fn rejects the hyperparameters, or where the forward
    probability underflows to zero: a line search can then probe any x, and
    such a point is merely uphill."""
    def total(x):
        with np.errstate(over="ignore"):
            values = np.exp(x)
        try:
            return fn(Hyperparameters.from_array(values))
        except (HyperparameterError, NumericalError):
            return np.inf
    return total


def _bracket(phi, f0: float, step: float):
    """Bracket a minimum of phi along s >= 0 given phi(0) = f0.

    Returns (a, b, c, fa, fb, fc), the points a < b < c and their values,
    with fb < min(fa, fc) unless the search stopped at the cap c > 1e6, or
    None when no step down to a tiny one lowers phi below f0 by more than
    the rounding level of f0: a decrease at that level is noise, not a
    direction of descent.
    """
    rounding = 16 * np.finfo(float).eps * max(1.0, abs(f0))
    s = step
    fs = phi(s)
    while not f0 - fs > rounding:
        s *= 0.25
        if s < 1e-14:
            return None
        fs = phi(s)
    a, b, fa, fb = 0.0, s, f0, fs
    c = 2.0 * s
    fc = phi(c)
    while fc < fb:
        a, b, fa, fb = b, c, fb, fc
        c *= 2.0
        fc = phi(c)
        if c > 1e6:
            break
    return a, b, c, fa, fb, fc


def _settled(f0, a, b, c, fa, fb, fc) -> bool:
    """Whether the parabola through the bracket predicts a further decrease
    below phi(b) of at most SETTLE_RATIO times the decrease f0 - fb already
    made.  A settled search has made at least 1 - SETTLE_RATIO of the
    decrease its parabola predicts; a bracket with an infinite end, or whose
    middle is not its lowest point, never settles."""
    if not (np.isfinite(fa) and np.isfinite(fc) and fb < min(fa, fc)):
        return False
    s1 = (fb - fa) / (b - a)
    s2 = (fc - fb) / (c - b)
    k = (s2 - s1) / (c - a)  # half the parabola's curvature
    return k > 0 and (s1 + k * (b - a)) ** 2 / (4.0 * k) <= SETTLE_RATIO * (f0 - fb)


def _open(f0, a, b, c, fa, fb, fc) -> bool:
    """Whether a refiner probes again: the bracket is wider than
    LINE_SEARCH_TOL and has not settled."""
    return c - a > LINE_SEARCH_TOL * max(1.0, c) and not _settled(f0, a, b, c, fa, fb, fc)


def _golden_section(phi, f0, a, b, c, fa, fb, fc):
    while _open(f0, a, b, c, fa, fb, fc):
        if c - b > b - a:
            u = b + (1 - _GOLDEN) * (c - b)
            fu = phi(u)
            if fu < fb:
                a, b, fa, fb = b, u, fb, fu
            else:
                c, fc = u, fu
        else:
            u = b - (1 - _GOLDEN) * (b - a)
            fu = phi(u)
            if fu < fb:
                c, b, fc, fb = b, u, fb, fu
            else:
                a, fa = u, fu
    return b, fb


def _dichotomy(phi, f0, a, b, c, fa, fb, fc):
    # each pass probes a pair around the middle and keeps the side of the
    # lower probe, which becomes the bracket's middle point
    best, fbest = b, fb
    while _open(f0, a, b, c, fa, fb, fc):
        mid = 0.5 * (a + c)
        delta = 0.125 * (c - a)
        f1 = phi(mid - delta)
        f2 = phi(mid + delta)
        if f1 < f2:
            b, c, fb, fc = mid - delta, mid + delta, f1, f2
        else:
            a, b, fa, fb = mid - delta, mid + delta, f1, f2
        if fb < fbest:
            best, fbest = b, fb
    return best, fbest


def _quadratic_interp(phi, f0, a, b, c, fa, fb, fc):
    best, fbest = b, fb
    for _ in range(60):
        if not _open(f0, a, b, c, fa, fb, fc):
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
    return _REFINERS[method](phi, f0, *bracket)


def estimate_ml(
    dataset: DataSet,
    grid: FrequencyGrid,
    strategy: str = DEFAULT_STRATEGY,
    line_search: str = "golden_section",
) -> OptimizerReport:
    """Minimize hyper_nll over log(r) starting from the empirical estimates.

    One descent loop serves every strategy; they differ only in the searches
    an iteration makes, each a step slot and the unit directions to try in
    order.  coordinate_wise searches three slots, +e_i then -e_i; the
    gradient strategies search one slot, their direction d then the steepest
    one (skipped when equal to d).  Each slot takes the first candidate whose
    line search lowers the criterion and reuses the accepted step as its
    next hint; a slot where none does shrinks its hint.  stop_reason names
    the exit: "zero_gradient", "no_decrease" (no slot moved),
    "relative_decrease" (an iteration lowered the criterion by less than
    REL_TOL * max(1, |f|)) or "max_iter".  Every accepted step decreases the
    criterion, so the trajectory is monotone.  A line search may probe any
    x: where exp(x) overflows or underflows, hyper_nll rejects the
    hyperparameters or its forward pass underflows, the criterion is +inf
    (the starting point alone fails loudly).

    Whatever the exit, a minimizer whose kernel value at lag 1 is at or
    below KERNEL_CUTOFF is reported as "r_nu_below_resolution": the grid
    cannot resolve that r_nu, the transition is the identity there and the
    criterion flat in r_nu, so the fit has not converged.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if line_search not in LINE_SEARCHES:
        raise ValueError(f"unknown line search {line_search!r}")

    nll = _Counted(lambda hyper: hyper_nll(dataset, hyper, grid))
    fun = _total(nll)
    grad = _Counted(
        lambda x: hyper_nll_gradient(dataset, Hyperparameters.from_array(np.exp(x)), grid))

    start = empirical_init(dataset, grid)
    x = np.log(start.as_array())
    fx = nll(start)
    if not np.isfinite(fx):
        raise ValueError("non-finite criterion at the starting point")
    trajectory = [x.copy()]
    steps = np.full(3 if strategy == "coordinate_wise" else 1, 0.1)
    g = prev_g = prev_d = None
    weights = np.ones(3)  # vignes: per-component step correction
    stop_reason = "max_iter"
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        if strategy == "coordinate_wise":
            searches = [(axis, (e, -e)) for axis, e in enumerate(np.eye(3))]
        else:
            g = grad(x)
            gnorm = float(np.linalg.norm(g))
            if gnorm == 0.0:
                stop_reason = "zero_gradient"
                break
            restart = strategy == "polak_ribiere" and (iterations - 1) % 3 == 0
            if strategy == "gradient" or prev_g is None or restart:
                d = -g
            elif strategy == "polak_ribiere":
                beta = max(0.0, float(g @ (g - prev_g)) / float(prev_g @ prev_g))
                d = -g + beta * prev_d
            elif strategy == "bisector":
                d = -g / gnorm + prev_d / np.linalg.norm(prev_d)
            else:  # vignes: grow the weight of a component whose sign holds
                same = np.sign(g) == np.sign(prev_g)
                weights = np.where(same, weights * 1.5, weights * 0.5)
                d = -np.sign(g) * weights * np.abs(g)
            if float(d @ g) >= 0.0:
                d = -g
            d = d / np.linalg.norm(d)
            steepest = -g / gnorm
            searches = [(0, (d,) if np.array_equal(d, steepest) else (d, steepest))]

        f_before = fx
        moved = False
        for slot, candidates in searches:
            for direction in candidates:
                result = _line_search(lambda s: fun(x + s * direction), fx, steps[slot],
                                      line_search)
                if result is not None:
                    s, fx = result
                    x = x + s * direction
                    steps[slot] = max(s, 1e-6)
                    prev_d = direction
                    moved = True
                    break
            else:
                steps[slot] = max(steps[slot] * 0.25, 1e-8)
        if not moved:
            stop_reason = "no_decrease"
            break
        prev_g = g
        trajectory.append(x.copy())
        if f_before - fx < REL_TOL * max(1.0, abs(fx)):
            stop_reason = "relative_decrease"
            break

    minimizer = Hyperparameters.from_array(np.exp(x))
    if gaussian_transition(grid, minimizer.r_nu).kernel[1] <= KERNEL_CUTOFF:
        stop_reason = "r_nu_below_resolution"
    return OptimizerReport(
        minimizer=minimizer,
        reached_minimum=fx,
        gradient_evals=grad.count,
        function_evals=nll.count,
        iterations=iterations,
        stop_reason=stop_reason,
        trajectory=trajectory,
    )
