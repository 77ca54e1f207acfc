"""Maximum-likelihood estimation of the three model variances.

The hyperparameter negative log-likelihood is computed by one forward
pass over the discrete chain.  Its exact gradient comes from the EM
identity: the gradient of the marginal log-likelihood equals the gradient
of the EM auxiliary function at the current point, which reduces to sums
of posterior marginals against closed-form derivatives of the observation
and transition log-probabilities.  Both read one FitCriterion per
(dataset, grid), which holds the periodogram table and the forward pass of
the lowest evaluation.  Descent runs in log-parameter space so positivity
never needs explicit constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

# backward through its module: perfbench's tracing.SITES lets freqtrack.hmm alone bind it
from freqtrack import hmm
from freqtrack.baselines import decimal_part
# unused, but perfbench's tracing.SITES pins posterior_marginals and transition_matrix here
from freqtrack.hmm import NumericalError, forward, observation_table, posterior_marginals
from freqtrack.likelihood import backtrack, lowers
from freqtrack.markov import (FrequencyGrid, gaussian_transition, initial_distribution,
                              transition_matrix)
from freqtrack.signal import DataSet, HyperparameterError, Hyperparameters
from freqtrack.spectral import periodogram_table

STRATEGIES = ("coordinate_wise", "gradient", "vignes", "bisector", "polak_ribiere", "bfgs")
# bfgs curves its steps with the inverse Hessian that the exact gradients'
# differences build up (Nocedal & Wright 2006, ch. 6) from the complete-data
# metric at the start, and its gradient at an accepted point reuses that
# point's forward pass.  A default fit (T=128, P=128) makes 4.96 function and
# 4.95 gradient evaluations on average over 162 seeds, at most 8 and 8.
DEFAULT_STRATEGY = "bfgs"
# Parabolic probes (Brent 1973, ch. 5) reach the vignes minima of four sine
# datasets, seeds 0 and 1 at P=128 on [-2.5, 2.5] and 201 and 202 at P=384 on
# [-3.5, 3.5], in 161 criterion evaluations against 224 for golden section.
# bfgs takes no line search.
DEFAULT_LINE_SEARCH = "quadratic_interp"

# estimate_ml stops after MAX_ITER iterations or once the decrement g.H g / 2,
# the gain left in nats (Boyd & Vandenberghe 2004, sec. 9.5.1), is at most
# DECREMENT_TOL: where H approximates the inverse observed information, about
# sqrt(2 DECREMENT_TOL) = 7.7e-4 standard errors from the minimizer.  A line
# search stops once the parabola through its bracket predicts a further
# decrease of at most SETTLE_RATIO times the decrease it has made, or once
# the bracket [a, c] is narrower than LINE_SEARCH_TOL * max(1, c).  A bfgs
# step is at most MAX_STEP long in log-parameter space.
MAX_ITER = 200
DECREMENT_TOL = 3e-7
LINE_SEARCH_TOL = 1e-3
SETTLE_RATIO = 1e-3
MAX_STEP = 2.0
# A starting point whose forward pass underflows is retried at 4 r_nu, up
# to START_RETRIES times: a wider transition gives weight to a jump that the
# start's r_nu cannot reach.
START_RETRIES = 8

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class FitCriterion:
    """The criterion of one fit, built once per (dataset, grid): the data-only
    work every evaluation shares, the periodogram table, its row maxima and
    the initial distribution, and ``lowest``, the (point, value, observation
    table, forward pass) of the lowest hyper_nll evaluation so far.  Its
    methods are the fit's evaluations, each counted, a call that raises too."""

    def __init__(self, dataset: DataSet, grid: FrequencyGrid):
        self.dataset, self.grid = dataset, grid
        self.periodograms = periodogram_table(dataset.lags, grid.states)
        self.row_max = self.periodograms.max(axis=1)
        self.init = initial_distribution(grid)
        self.lowest = (None, np.inf, None, None)
        self.function_evals = self.gradient_evals = 0

    def value(self, hyper: Hyperparameters) -> float:
        """hyper_nll at hyper, raising as it does."""
        self.function_evals += 1
        return hyper_nll(self, hyper)

    def score(self, values) -> float:
        """value at values = (r_a, r_b, r_nu), or +inf where they are not
        positive and finite (uncounted), or where value raises: the fit and
        estimate --levelsets score such a point alike."""
        try:
            return self.value(Hyperparameters.from_array(values))
        except (HyperparameterError, NumericalError):
            return np.inf

    def gradient(self, hyper: Hyperparameters) -> np.ndarray:
        """hyper_nll_gradient at hyper."""
        self.gradient_evals += 1
        return hyper_nll_gradient(self, hyper)


def hyper_nll(criterion: FitCriterion, hyper: Hyperparameters) -> float:
    """Negative log-likelihood of the hyperparameters (one forward pass).
    A value below criterion.lowest's replaces it."""
    obs = observation_table(criterion.dataset, criterion.grid, hyper, criterion.periodograms,
                            criterion.row_max)
    fwd = forward(obs, gaussian_transition(criterion.grid, hyper.r_nu), criterion.init)
    value = -fwd.log_likelihood
    if value < criterion.lowest[1]:
        criterion.lowest = (hyper, value, obs, fwd)
    return value


def hyper_nll_gradient(criterion: FitCriterion, hyper: Hyperparameters) -> np.ndarray:
    """Exact gradient [d/dlog r_a, d/dlog r_b, d/dlog r_nu] of hyper_nll via
    the EM identity.

    With s = N r_a + r_b the observation log-probability is
    (1 - N) log r_b - log s - E / r_b + (1 / r_b - 1 / s) P, up to a
    constant, so posterior rows summing to one leave a single reduction
    S = sum singles * P for both variances.  No term squares a variance, so
    the gradient is finite wherever hyper_nll is.

    The r_nu term is the transition's (GaussianTransition.r_nu_score): the
    log-transition's derivative in log r_nu, (d^2 - e[q]) / (2 r_nu) with
    d = (p - q) spacing and e[q] the prior mean squared step from q, against
    the pair marginals head[t, q] k[|p - q|] weighted[t, p] (head =
    forward[:-1] / z, weighted = scaled[1:] backward[1:] / c[1:], z the row
    sums, c the forward normalizers) and their sums over destinations, the
    single marginals of bins 0 ... T-2.  Its lag moment is BLAS products in
    column blocks whose rounding depends on the BLAS kernel and threads, but
    every term is nonnegative, so it is within gamma_n = n u / (1 - n u) of
    exact, relative, n = 2h + 1 + (T - 1) P (markov._lag_moment).  It
    builds no P x P array, and no (T, P) table beyond the forward, backward
    and singles tables and the rescaled observations: weighted is written
    over rows 1 ... T-1 of singles once S and the visits are read from it,
    and head over rows 0 ... T-2 of the backward table once weighted is, so
    a fresh gradient peaks at about 4 tables in all.

    Where hyper is the point of criterion.lowest its observation table and
    forward pass are reused, so only hmm.backward and the reduction run,
    and the result is the same bit for bit as with a fresh forward pass.
    """
    point, _, obs, fwd = criterion.lowest
    dataset, grid = criterion.dataset, criterion.grid
    if point != hyper:
        obs = observation_table(dataset, grid, hyper, criterion.periodograms, criterion.row_max)
        fwd = None
    trans = gaussian_transition(grid, hyper.r_nu)
    fb = hmm.backward(obs, trans, forward(obs, trans, criterion.init) if fwd is None else fwd)
    singles = fb.forward * fb.backward

    n, n_bins = dataset.n_samples, dataset.n_bins
    r_a, r_b = hyper.r_a, hyper.r_b
    s = n * r_a + r_b
    spectral_mass = float(np.vdot(singles, obs.periodograms))  # S
    d_ra = n * r_a / s * (spectral_mass / s - n_bins)
    d_rb = (n_bins * (1 - n - r_b / s) + (float(dataset.energy.sum()) - spectral_mass) / r_b
            + r_b / s * (spectral_mass / s))

    visits = singles[:-1].sum(axis=0)
    # weighted over singles[1:] and then head over backward[:-1], each table
    # read for the last time; the forward pass, which criterion.lowest may hold, is not written
    weighted = np.multiply(obs.scaled[1:], fb.backward[1:], out=singles[1:])
    weighted /= fb.normalizers[1:, None]
    head = np.divide(fb.forward[:-1], trans.norm, out=fb.backward[:-1])
    d_rnu = trans.r_nu_score(head, weighted, visits)

    return -np.array([d_ra, d_rb, d_rnu])


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array of finite values below 2^1023 in
    size, bit for bit: (lower + upper) / 2 of its two middle order
    statistics, the same one twice for an odd size, from np.partition.
    np.median imports numpy.ma on its first call (about 9 ms and 2 MB)."""
    middle = [(values.size - 1) // 2, values.size // 2]
    lower, upper = np.partition(values, middle)[middle]
    return float((lower + upper) / 2)


def empirical_init(criterion: FitCriterion) -> Hyperparameters:
    """Starting point from the dataset's lags and aliased peak frequencies,
    the argmax read from the admissible columns (init > 0) of
    criterion.periodograms.

    r_a = N / (N - 1) mean_t |c_t(1)|, the mean over bins of the lag-1
    magnitude, which for a cisoid is (N - 1) / N times its power: averaging
    the magnitudes, not the lags, keeps the phasors of different bins' peaks
    from cancelling, and a noiseless cisoid gives r_a = 1 exactly.
    r_b = r(0) - r_a.  r_nu = (1.4826 median_t |d_t|)^2, the scale of the
    successive differences d_t of the per-bin periodogram-argmax frequencies
    by their median absolute value (Rousseeuw & Croux 1993), so the few
    steps to a wrong peak cannot inflate it.  Each d_t is wrapped to
    [-1/2, 1/2): the steps of the unwrapped argmax track, so a wrap of the
    aliased sequence adds no jump of a cycle.  r_a and r_b are floored at
    1e-6 r(0) and r_nu at the grid spacing squared, where the transition
    still moves mass to the neighbouring states.
    """
    dataset, grid = criterion.dataset, criterion.grid
    if dataset.n_bins < 2:
        raise ValueError("need at least two bins")
    r0 = float(np.mean(dataset.lags[:, 0].real))
    if r0 <= 0:
        raise ValueError("degenerate all-zero data")
    n = dataset.n_samples
    r1 = n / (n - 1) * float(np.mean(np.abs(dataset.lags[:, 1])))
    r_a = max(r1, 1e-6 * r0)
    r_b = max(r0 - r1, 1e-6 * r0)

    admissible = criterion.init > 0
    ml_freqs = grid.states[admissible][np.argmax(criterion.periodograms[:, admissible], axis=1)]
    spread = 1.4826 * _median(np.abs(decimal_part(np.diff(ml_freqs))))
    r_nu = max(spread ** 2, grid.spacing ** 2)
    return Hyperparameters(r_a, r_b, r_nu)


def _complete_data_metric(dataset: DataSet, hyper: Hyperparameters) -> np.ndarray:
    """The inverse of the complete-data Fisher information of the
    hyperparameters in log-parameters, EM's own metric (Jamshidian & Jennrich
    1997): the fit's stop metric, and bfgs's first inverse Hessian.

    Given its frequency a bin's record has covariance r_a e e^H + r_b I: the
    eigenvalue s = N r_a + r_b along e and r_b on the N - 1 directions
    orthogonal to it, so its information in (log r_a, log r_b) is
    [[a^2, a b], [a b, b^2 + N - 1]] with a = N r_a / s and b = r_b / s.  Each of the T - 1 Gaussian steps of
    the track adds 1/2 to that in log r_nu.
    """
    n, n_bins = dataset.n_samples, dataset.n_bins
    s = n * hyper.r_a + hyper.r_b
    a, b = n * hyper.r_a / s, hyper.r_b / s
    info = np.zeros((3, 3))
    info[:2, :2] = n_bins * np.array([[a * a, a * b], [a * b, b * b + n - 1]])
    info[2, 2] = (n_bins - 1) / 2.0
    return np.linalg.inv(info)


@dataclass
class OptimizerReport:
    minimizer: Hyperparameters
    reached_minimum: float
    gradient_evals: int
    function_evals: int
    iterations: int
    # "decrement", "no_decrease", "max_iter" or "r_nu_below_resolution"; the
    # last two are not convergence, and neither is "no_decrease" before any
    # step was accepted: the fit is stuck at its start
    stop_reason: str
    decrement: float  # g.H g / 2 at the last gradient, in nats
    trajectory: list = field(default_factory=list)  # log-parameter iterates

    @property
    def converged(self) -> bool:
        if self.stop_reason == "no_decrease":
            return len(self.trajectory) > 1
        return self.stop_reason not in ("max_iter", "r_nu_below_resolution")


def _bracket(phi, f0: float, step: float):
    """Bracket a minimum of phi along s >= 0 given phi(0) = f0.

    Returns (a, b, c, fa, fb, fc), the points a < b < c and their values,
    with fb < min(fa, fc) unless the search stopped at the cap c > 1e6, or
    None when no step down to a tiny one lowers phi below f0.
    """
    s = step
    fs = phi(s)
    while not lowers(f0, fs):
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


def _parabola(a, b, c, fa, fb, fc):
    """(g, k) of the parabola fb + g (s - b) + k (s - b)^2 through the bracket:
    its slope at b and half its curvature."""
    s1 = (fb - fa) / (b - a)
    s2 = (fc - fb) / (c - b)
    k = (s2 - s1) / (c - a)
    return s1 + k * (b - a), k


def _settled(f0, a, b, c, fa, fb, fc) -> bool:
    """Whether the parabola through the bracket predicts a further decrease
    below phi(b) of at most SETTLE_RATIO times the decrease f0 - fb already
    made.  A settled search has made at least 1 - SETTLE_RATIO of the
    decrease its parabola predicts; a bracket with an infinite end, or whose
    middle is not its lowest point, never settles."""
    if not (np.isfinite(fa) and np.isfinite(fc) and fb < min(fa, fc)):
        return False
    g, k = _parabola(a, b, c, fa, fb, fc)
    return k > 0 and g ** 2 / (4.0 * k) <= SETTLE_RATIO * (f0 - fb)


def _section(fraction, a, b, c, fa, fb, fc):
    """The point that fraction of the way from b into the larger sub-interval."""
    return b + fraction * (c - b) if c - b > b - a else b - fraction * (b - a)


def _parabola_vertex(a, b, c, fa, fb, fc):
    """The vertex of the parabola through the bracket, or the golden point
    when the parabola has no minimum inside (a, c) or its vertex lies within
    1e-3 (c - a) of b."""
    if np.isfinite(fa) and np.isfinite(fc):
        g, k = _parabola(a, b, c, fa, fb, fc)
        if k > 0:
            u = b - g / (2.0 * k)
            if a < u < c and abs(u - b) >= 1e-3 * (c - a):
                return u
    return _section(1 - _GOLDEN, a, b, c, fa, fb, fc)


# each probe rule proposes a point strictly inside (a, c) other than b
_PROBES = {
    "golden_section": partial(_section, 1 - _GOLDEN),
    "dichotomy": partial(_section, 0.5),
    "quadratic_interp": _parabola_vertex,
}
LINE_SEARCHES = tuple(_PROBES)


def _line_search(phi, f0, step, method):
    """(s, phi(s)) with phi(s) < f0, or None when _bracket finds no decrease.

    While the bracket is wider than LINE_SEARCH_TOL and has not settled, it
    probes at most 60 points proposed by the method's rule in _PROBES, keeping
    the lowest as the bracket's middle point b, so the result is at most the
    bracket's phi(b) < f0."""
    bracket = _bracket(phi, f0, step)
    if bracket is None:
        return None
    a, b, c, fa, fb, fc = bracket
    probe = _PROBES[method]
    for _ in range(60):
        if c - a <= LINE_SEARCH_TOL * max(1.0, c) or _settled(f0, a, b, c, fa, fb, fc):
            break
        u = probe(a, b, c, fa, fb, fc)
        fu = phi(u)
        if u < b:
            if fu < fb:
                b, c, fb, fc = u, b, fu, fb
            else:
                a, fa = u, fu
        elif fu < fb:
            a, b, fa, fb = b, u, fb, fu
        else:
            c, fc = u, fu
    return b, fb


def _bfgs_update(inverse: np.ndarray, step: np.ndarray, change: np.ndarray) -> np.ndarray:
    """The BFGS update of the inverse Hessian approximation from a step and
    the gradient's change along it (Nocedal & Wright 2006, eq. 6.17).
    Without positive curvature, s.y <= 0, the update would lose positive
    definiteness and is skipped."""
    sy = float(step @ change)
    if not sy > 0.0:
        return inverse
    left = np.eye(step.size) - np.outer(step, change) / sy
    return left @ inverse @ left.T + np.outer(step, step) / sy


def estimate_ml(
    dataset: DataSet,
    grid: FrequencyGrid,
    strategy: str = DEFAULT_STRATEGY,
    line_search: str = DEFAULT_LINE_SEARCH,
) -> OptimizerReport:
    """Minimize hyper_nll over log(r) starting from the empirical estimates.

    One descent loop serves every strategy.  Each iteration takes the
    gradient g at x and stops as "decrement" once g.H g / 2 <= DECREMENT_TOL,
    H the BFGS inverse Hessian for bfgs and, for the rest, the complete-data
    metric at x, bfgs's first H: a change of amplitude unit moves neither g
    nor H.  Otherwise the strategies differ only in the searches the
    iteration makes, each a step slot and the directions to try in order.
    coordinate_wise searches three slots, +e_i then -e_i, each taking the
    first that lowers the criterion; the gradient strategies search one slot
    along one direction d, -g where d does not descend.  The line-search
    strategies search unit directions by line_search and reuse the accepted
    step as the slot's next hint; a slot that does not move shrinks its
    hint.  bfgs searches d = -H g, capped at MAX_STEP, by Armijo
    backtracking from the full step.  Every search accepts only a decrease
    beyond the rounding level (lowers).  The other exits are "no_decrease"
    (no slot moved; for a gradient strategy, d found no decrease) and
    "max_iter".  Every accepted step decreases the criterion, so the
    trajectory is monotone.  A search may probe any x: fit.score(exp(x))
    is +inf where exp(x) overflows or underflows, hyper_nll rejects the
    hyperparameters or its forward pass underflows.  The start alone fails
    loudly (fit.value).  Where its forward pass underflows it is first
    retried at 4 r_nu, up to START_RETRIES times, each retry a counted
    evaluation: empirical_init floors r_nu at the spacing squared, where
    the transition can give a large jump of the data no weight.
    A default fit needs no retry.

    The start and every evaluation read one FitCriterion, so the
    periodogram table is computed once, and a gradient reuses the forward
    pass of the lowest evaluation where it is taken at that point.  Nearly
    every gradient is, the start's too: an accepted point is the lowest
    evaluation unless a rejected probe of its search was lower.  The
    report's counts are the criterion's.

    Whatever the exit, a minimizer whose transition keeps lag 0 alone
    (half_width 0) is reported as "r_nu_below_resolution": the grid cannot
    resolve that r_nu, the transition is the identity there and the
    criterion flat in r_nu, so the fit has not converged.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if line_search not in LINE_SEARCHES:
        raise ValueError(f"unknown line search {line_search!r}")

    fit = FitCriterion(dataset, grid)
    start = empirical_init(fit)
    for retry in range(START_RETRIES + 1):
        x = np.log(start.as_array())
        start = Hyperparameters.from_array(np.exp(x))  # as the gradient at x sees it
        try:
            fx = fit.value(start)
            break
        except NumericalError:
            if retry == START_RETRIES:
                raise
            start = replace(start, r_nu=4.0 * start.r_nu)
    if not np.isfinite(fx):
        raise ValueError("non-finite criterion at the starting point")
    trajectory = [x.copy()]
    steps = np.full(3 if strategy == "coordinate_wise" else 1, 0.1)
    prev_g = prev_d = None
    weights = np.ones(3)  # vignes: per-component step correction
    stop_reason = "max_iter"
    iterations, decrement = 0, np.inf
    for iterations in range(1, MAX_ITER + 1):
        hyper = Hyperparameters.from_array(np.exp(x))
        g = fit.gradient(hyper)
        metric = (_bfgs_update(metric, trajectory[-1] - trajectory[-2], g - prev_g)
                  if strategy == "bfgs" and prev_g is not None
                  else _complete_data_metric(dataset, hyper))
        newton = -(metric @ g)
        decrement = -0.5 * float(g @ newton)
        if decrement <= DECREMENT_TOL:
            stop_reason = "decrement"
            break
        if strategy == "coordinate_wise":
            searches = [(axis, (e, -e)) for axis, e in enumerate(np.eye(3))]
        else:
            restart = strategy == "polak_ribiere" and (iterations - 1) % 3 == 0
            if strategy == "bfgs":
                d = newton
            elif strategy == "gradient" or prev_g is None or restart:
                d = -g
            elif strategy == "polak_ribiere":
                beta = max(0.0, float(g @ (g - prev_g)) / float(prev_g @ prev_g))
                d = -g + beta * prev_d
            elif strategy == "bisector":
                d = -g / np.linalg.norm(g) + prev_d / np.linalg.norm(prev_d)
            else:  # vignes: grow the weight of a component whose sign holds
                same = np.sign(g) == np.sign(prev_g)
                weights = np.where(same, weights * 1.5, weights * 0.5)
                d = -np.sign(g) * weights * np.abs(g)
            if float(d @ g) >= 0.0:
                d = -g
            if strategy == "bfgs":
                d = d * min(1.0, MAX_STEP / float(np.linalg.norm(d)))
            else:
                d = d / np.linalg.norm(d)
            searches = [(0, (d,))]

        moved = False
        for slot, candidates in searches:
            for direction in candidates:
                def phi(s):
                    with np.errstate(over="ignore"):
                        values = np.exp(x + s * direction)
                    return fit.score(values)
                result = (backtrack(phi, fx, float(g @ direction)) if strategy == "bfgs"
                          else _line_search(phi, fx, steps[slot], line_search))
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

    minimizer = Hyperparameters.from_array(np.exp(x))
    if gaussian_transition(grid, minimizer.r_nu).half_width == 0:
        stop_reason = "r_nu_below_resolution"
    return OptimizerReport(
        minimizer=minimizer,
        reached_minimum=fx,
        gradient_evals=fit.gradient_evals,
        function_evals=fit.function_evals,
        iterations=iterations,
        stop_reason=stop_reason,
        decrement=decrement,
        trajectory=trajectory,
    )
