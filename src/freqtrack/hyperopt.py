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
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from freqtrack.baselines import decimal_part
# unused, but perfbench's tracing.SITES pins posterior_marginals and transition_matrix here
from freqtrack.hmm import (KERNEL_CUTOFF, NumericalError, _kernel_band, forward,
                           forward_backward, observation_table, posterior_marginals)
from freqtrack.markov import (FrequencyGrid, gaussian_transition, initial_distribution,
                              transition_matrix)
from freqtrack.signal import DataSet, HyperparameterError, Hyperparameters
from freqtrack.spectral import empirical_correlation, periodogram_table

STRATEGIES = ("coordinate_wise", "gradient", "vignes", "bisector", "polak_ribiere", "bfgs")
# bfgs curves its steps with the inverse Hessian that the exact gradients'
# differences build up (Nocedal & Wright 2006, ch. 6) from the complete-data
# metric at the start, and its gradient at an accepted point reuses that
# point's forward pass.  A default fit (T=128, P=128) makes 5.4 function and
# 4.4 gradient evaluations on average over 162 seeds, at most 9 and 8.
DEFAULT_STRATEGY = "bfgs"
# Parabolic probes (Brent 1973, ch. 5) reach the vignes minima of four sine
# datasets, seeds 0 and 1 at P=128 on [-2.5, 2.5] and 201 and 202 at P=384 on
# [-3.5, 3.5], in 161 criterion evaluations against 224 for golden section.
# bfgs takes no line search.
DEFAULT_LINE_SEARCH = "quadratic_interp"

# estimate_ml stops after MAX_ITER iterations or once one lowers the
# criterion by less than REL_TOL * max(1, |f|).  A line search stops once
# the parabola through its bracket predicts a further decrease of at most
# SETTLE_RATIO times the decrease it has made, or once the bracket [a, c]
# is narrower than LINE_SEARCH_TOL * max(1, c).  A bfgs step is at most
# MAX_STEP long in log-parameter space and is accepted on Armijo's test
# with the constant ARMIJO.
MAX_ITER = 200
REL_TOL = 1e-8
LINE_SEARCH_TOL = 1e-3
SETTLE_RATIO = 1e-3
MAX_STEP = 2.0
ARMIJO = 1e-4

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def hyper_nll(dataset: DataSet, hyper: Hyperparameters, grid: FrequencyGrid, *,
              periodograms: np.ndarray | None = None, held: list | None = None) -> float:
    """Negative log-likelihood of the hyperparameters (one forward pass).

    periodograms is periodogram_table(dataset.samples, grid.states), computed
    here when not given.  When held is a list, the observation table and the
    forward pass are appended to it as one pair, for hyper_nll_gradient at
    the same hyperparameters.
    """
    obs = observation_table(dataset, grid, hyper, periodograms)
    fwd = forward(obs, gaussian_transition(grid, hyper.r_nu), initial_distribution(grid))
    if held is not None:
        held.append((obs, fwd))
    return -fwd.log_likelihood


def _step_moment(head: np.ndarray, weighted: np.ndarray, taps: np.ndarray,
                 spacing: float) -> float:
    """sum over t, q and |j| <= h of head[t, q] taps[h + j] (j spacing)^2
    weighted[t, q + j], off-grid states zero, for the 2h+1 symmetric taps.

    The 2h+1 lag sums c[j] = sum_{t,q} head[t, q] weighted[t, q + j] come
    from one einsum over the windows of the zero-padded weighted table, a
    strided view: O(T P h) time and one (T, P + 2h) copy.
    """
    half = taps.size // 2
    n_pairs, n_states = weighted.shape
    padded = np.zeros((n_pairs, n_states + 2 * half))
    padded[:, half:half + n_states] = weighted
    lag_sums = np.einsum("tq,tqj->j", head, sliding_window_view(padded, taps.size, axis=1))
    return float(lag_sums @ (taps * (np.arange(-half, half + 1) * spacing) ** 2))


def hyper_nll_gradient(dataset: DataSet, hyper: Hyperparameters, grid: FrequencyGrid,
                       periodograms: np.ndarray | None = None, held=None) -> np.ndarray:
    """Exact gradient [d/dlog r_a, d/dlog r_b, d/dlog r_nu] of hyper_nll via
    the EM identity.

    With s = N r_a + r_b the observation log-probability is
    (1 - N) log r_b - log s - E / r_b + (1 / r_b - 1 / s) P, up to a
    constant, so posterior rows summing to one leave a single reduction
    S = sum singles * P for both variances.  No term squares a variance, so
    the gradient is finite wherever hyper_nll is.

    The r_nu term reads only the observation table and the forward and
    backward passes; it builds no P x P array and costs O(T P h).  With the
    transition T[q, p] = k[|p - q|] / z[q] the log-transition's derivative
    in log r_nu is (d^2 - e[q]) / (2 r_nu), d = (p - q) spacing and
    e[q] = sum_p T[q, p] d^2 the prior mean squared step from q, so

        d_rnu = (sum_{q,p} pair_sum[q, p] d^2 - sum_q e[q] sum_{t<T-1} singles[t, q]) / (2 r_nu),

    the pair marginals summed over destinations being the single marginals
    of bins 0 ... T-2.  pair_sum[q, p] = sum_t head[t, q] k[|p - q|]
    weighted[t, p] with head = forward[:-1] / z and weighted =
    scaled[1:] backward[1:] / c[1:], c the forward normalizers, so the first
    term is sum_j k[|j|] (j spacing)^2 c[j] over the lag sums
    c[j] = sum_{t,q} head[t, q] weighted[t, q + j] (_step_moment), taken
    over the 2h+1 taps _kernel_band keeps.  e[q] z[q] is one convolution of
    ones with all 2P - 1 taps times d^2, O(P^2) time and O(P) memory.

    Certificate.  Beyond lag h the kernel is below KERNEL_CUTOFF, far past
    the peak of k[d] d^2 at d^2 spacing^2 = 2 r_nu, so k[d] d^2 falls with
    d there and the dropped lags add at most
    k[h+1] ((h+1) spacing)^2 sum_t (sum_q head[t, q]) (sum_p weighted[t, p])
    to the first term.  Where that is not within eps of the term (NaN
    fails) the term is recomputed with all 2P - 1 taps.

    periodograms is as for hyper_nll.  held, the (observation table, forward
    pass) pair that hyper_nll held at these same hyperparameters, is reused,
    so only the backward pass and the reduction run; the result is the same
    bit for bit.
    """
    if held is None:
        held = observation_table(dataset, grid, hyper, periodograms), None
    obs, fwd = held
    trans = gaussian_transition(grid, hyper.r_nu)
    fb = forward_backward(obs, trans, initial_distribution(grid), fwd)
    singles = fb.forward * fb.backward

    n, n_bins = dataset.n_samples, dataset.n_bins
    r_a, r_b, r_nu = hyper.r_a, hyper.r_b, hyper.r_nu
    s = n * r_a + r_b
    spectral_mass = float(np.vdot(singles, obs.periodograms))  # S
    d_ra = n * r_a / s * (spectral_mass / s - n_bins)
    d_rb = (n_bins * (1 - n - r_b / s) + (float(dataset.energy.sum()) - spectral_mass) / r_b
            + r_b / s * (spectral_mass / s))

    spacing, n_states = grid.spacing, grid.size
    head = fb.forward[:-1] / trans.norm
    weighted = obs.scaled[1:] * fb.backward[1:]
    weighted /= fb.normalizers[1:, None]
    half, taps, bound = _kernel_band(trans)
    moment = _step_moment(head, weighted, taps, spacing)
    dropped = bound * ((half + 1) * spacing) ** 2 * float(head.sum(axis=1) @ weighted.sum(axis=1))
    if not dropped <= np.finfo(float).eps * moment:  # NaN fails
        moment = _step_moment(head, weighted, trans.taps, spacing)
    squared_steps = trans.taps * (np.arange(1 - n_states, n_states) * spacing) ** 2
    expected = np.convolve(np.ones(n_states), squared_steps, "valid") / trans.norm
    d_rnu = (moment - float(expected @ singles[:-1].sum(axis=0))) / (2.0 * r_nu)

    return -np.array([d_ra, d_rb, d_rnu])


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array of finite values below 2^1023 in
    size, bit for bit: (lower + upper) / 2 of its two middle order
    statistics, the same one twice for an odd size, from np.partition.
    np.median imports numpy.ma on its first call (about 9 ms and 2 MB)."""
    middle = [(values.size - 1) // 2, values.size // 2]
    lower, upper = np.partition(values, middle)[middle]
    return float((lower + upper) / 2)


def empirical_init(dataset: DataSet, grid: FrequencyGrid,
                   periodograms: np.ndarray | None = None) -> Hyperparameters:
    """Starting point from per-bin correlation lags and aliased peak frequencies.

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

    periodograms is periodogram_table(dataset.samples, grid.states), computed
    here when not given; the argmax reads its start-band columns.
    """
    if dataset.n_bins < 2:
        raise ValueError("need at least two bins")
    lags = empirical_correlation(dataset.samples)
    r0 = float(np.mean(lags[:, 0].real))
    if r0 <= 0:
        raise ValueError("degenerate all-zero data")
    n = dataset.n_samples
    r1 = n / (n - 1) * float(np.mean(np.abs(lags[:, 1])))
    r_a = max(r1, 1e-6 * r0)
    r_b = max(r0 - r1, 1e-6 * r0)

    if periodograms is None:
        periodograms = periodogram_table(dataset.samples, grid.states)
    band = initial_distribution(grid) > 0
    ml_freqs = grid.states[band][np.argmax(periodograms[:, band], axis=1)]
    spread = 1.4826 * _median(np.abs(decimal_part(np.diff(ml_freqs))))
    r_nu = max(spread ** 2, grid.spacing ** 2)
    return Hyperparameters(r_a, r_b, r_nu)


def _complete_data_metric(dataset: DataSet, hyper: Hyperparameters) -> np.ndarray:
    """The inverse of the complete-data Fisher information of the
    hyperparameters in log-parameters, EM's own metric (Jamshidian & Jennrich
    1997), bfgs's first inverse Hessian.

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
    # "relative_decrease", "no_decrease", "zero_gradient", "max_iter" or
    # "r_nu_below_resolution"; the last two are not convergence
    stop_reason: str
    trajectory: list = field(default_factory=list)  # log-parameter iterates

    @property
    def converged(self) -> bool:
        return self.stop_reason not in ("max_iter", "r_nu_below_resolution")


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


def _lowers(f0: float, fs: float) -> bool:
    """Whether fs is below f0 by more than the rounding level of f0,
    16 eps max(1, |f0|): a decrease at that level is noise, not descent."""
    return f0 - fs > 16 * np.finfo(float).eps * max(1.0, abs(f0))


def _bracket(phi, f0: float, step: float):
    """Bracket a minimum of phi along s >= 0 given phi(0) = f0.

    Returns (a, b, c, fa, fb, fc), the points a < b < c and their values,
    with fb < min(fa, fc) unless the search stopped at the cap c > 1e6, or
    None when no step down to a tiny one _lowers phi below f0.
    """
    s = step
    fs = phi(s)
    while not _lowers(f0, fs):
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


def _backtrack(phi, f0: float, slope: float):
    """(s, phi(s)) for the first step s of 1, s_1, s_2 ... that passes Armijo's
    test phi(s) <= f0 + ARMIJO s slope, slope = phi'(0) < 0, and _lowers phi
    below f0, or None once a step falls below 1e-14.

    Each next step is the vertex of the parabola through phi(0) = f0,
    phi'(0) = slope and phi(s), clamped to [s / 10, s / 2] (Nocedal & Wright
    2006, sec. 3.5); where phi(s) is +inf the vertex is 0 and the step s / 10.
    """
    s = 1.0
    while s >= 1e-14:  # a NaN step ends the search too
        fs = phi(s)
        if fs <= f0 + ARMIJO * s * slope and _lowers(f0, fs):
            return s, fs
        vertex = -slope * s * s / (2.0 * (fs - f0 - slope * s))
        s = min(max(vertex, 0.1 * s), 0.5 * s)
    return None


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

    One descent loop serves every strategy; they differ only in the searches
    an iteration makes, each a step slot and the directions to try in
    order.  coordinate_wise searches three slots, +e_i then -e_i, each
    taking the first that lowers the criterion; the gradient strategies
    search one slot along one direction d, -g where d does not descend.
    The line-search strategies search unit directions by line_search and
    reuse the accepted step as the slot's next hint; a slot that does not
    move shrinks its hint.  bfgs searches d = -H g, H the BFGS inverse
    Hessian started at the inverse of the complete-data information, capped
    at MAX_STEP, by Armijo backtracking from the full step.  Every search
    accepts only a decrease beyond the rounding level (_lowers).
    stop_reason names the exit: "zero_gradient", "no_decrease" (no slot
    moved; for a gradient strategy, d found no decrease),
    "relative_decrease" (an iteration lowered the criterion by less than
    REL_TOL * max(1, |f|)) or "max_iter".  Every accepted step decreases the
    criterion, so the trajectory is monotone.  A search may probe any
    x: where exp(x) overflows or underflows, hyper_nll rejects the
    hyperparameters or its forward pass underflows, the criterion is +inf
    (the starting point alone fails loudly).

    The periodogram table is computed once, for the start and the
    criterion.  The fit holds the observation table and forward pass of its
    lowest evaluation; a gradient there reuses them, one elsewhere computes
    its own, the same bit for bit.  Nearly every gradient is taken there,
    the start's too: an accepted point is the lowest evaluation unless a
    rejected probe of its search was lower.

    Whatever the exit, a minimizer whose kernel value at lag 1 is at or
    below KERNEL_CUTOFF is reported as "r_nu_below_resolution": the grid
    cannot resolve that r_nu, the transition is the identity there and the
    criterion flat in r_nu, so the fit has not converged.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if line_search not in LINE_SEARCHES:
        raise ValueError(f"unknown line search {line_search!r}")

    periodograms = periodogram_table(dataset.samples, grid.states)
    # the lowest evaluation: (hyperparameters, value, [(observation table, forward pass)])
    lowest = (None, np.inf, [])
    function_evals = gradient_evals = 0

    def criterion(hyper):
        nonlocal lowest, function_evals
        function_evals += 1
        held = []
        value = hyper_nll(dataset, hyper, grid, periodograms=periodograms, held=held)
        if value < lowest[1]:
            lowest = (hyper, value, held)
        return value

    def gradient(x):
        nonlocal gradient_evals
        gradient_evals += 1
        hyper = Hyperparameters.from_array(np.exp(x))
        point, _, held = lowest
        return hyper_nll_gradient(dataset, hyper, grid, periodograms,
                                  held[0] if held and point == hyper else None)

    fun = _total(criterion)
    x = np.log(empirical_init(dataset, grid, periodograms).as_array())
    start = Hyperparameters.from_array(np.exp(x))  # as the gradient at x sees it
    fx = criterion(start)
    if not np.isfinite(fx):
        raise ValueError("non-finite criterion at the starting point")
    trajectory = [x.copy()]
    steps = np.full(3 if strategy == "coordinate_wise" else 1, 0.1)
    g = prev_g = prev_d = None
    inverse = _complete_data_metric(dataset, start) if strategy == "bfgs" else None
    weights = np.ones(3)  # vignes: per-component step correction
    stop_reason = "max_iter"
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        if strategy == "coordinate_wise":
            searches = [(axis, (e, -e)) for axis, e in enumerate(np.eye(3))]
        else:
            g = gradient(x)
            gnorm = float(np.linalg.norm(g))
            if gnorm == 0.0:
                stop_reason = "zero_gradient"
                break
            restart = strategy == "polak_ribiere" and (iterations - 1) % 3 == 0
            if strategy == "bfgs":
                if prev_g is not None:
                    inverse = _bfgs_update(inverse, trajectory[-1] - trajectory[-2], g - prev_g)
                d = -(inverse @ g)
            elif strategy == "gradient" or prev_g is None or restart:
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
            if strategy == "bfgs":
                d = d * min(1.0, MAX_STEP / float(np.linalg.norm(d)))
            else:
                d = d / np.linalg.norm(d)
            searches = [(0, (d,))]

        f_before = fx
        moved = False
        for slot, candidates in searches:
            for direction in candidates:
                def phi(s):
                    return fun(x + s * direction)
                result = (_backtrack(phi, fx, float(g @ direction)) if strategy == "bfgs"
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
        if f_before - fx < REL_TOL * max(1.0, abs(fx)):
            stop_reason = "relative_decrease"
            break

    minimizer = Hyperparameters.from_array(np.exp(x))
    if gaussian_transition(grid, minimizer.r_nu).kernel[1] <= KERNEL_CUTOFF:
        stop_reason = "r_nu_below_resolution"
    return OptimizerReport(
        minimizer=minimizer,
        reached_minimum=fx,
        gradient_evals=gradient_evals,
        function_evals=function_evals,
        iterations=iterations,
        stop_reason=stop_reason,
        trajectory=trajectory,
    )
