"""Command line driver: simulate, estimate, track, eval.

Every command is deterministic given its flags (seeds included), read from
the command line and from `@FILE` argument files and checked by the parser,
and only emits plain CSV / key-value text so any plotting tool can consume
the results.  Exit codes:
0 success, 1 usage error, 2 I/O error, 3 data or shape error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from freqtrack import io as ftio
from freqtrack.baselines import ml_periodogram_argmax, unwrap_track
from freqtrack.hmm import NumericalError, observation_table, viterbi
# hyper_nll unused, but perfbench's tracing.SITES pins it here
from freqtrack.hyperopt import (DEFAULT_LINE_SEARCH, DEFAULT_STRATEGY, LINE_SEARCHES,
                                STRATEGIES, FitCriterion, _median, estimate_ml, hyper_nll)
from freqtrack.likelihood import smoothing_weight
from freqtrack.markov import FrequencyGrid, initial_distribution
from freqtrack.refine import refine_map
from freqtrack.signal import (MIN_SAMPLES, TRACK_PROFILES, DataSet, HyperparameterError,
                              Hyperparameters, check_variance, make_test_track,
                              synthesize_dataset)

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# estimate --levelsets samples the criterion on this many points per axis.
LEVELSET_SIZE = 25


def rmse(estimate, truth) -> float:
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.sqrt(np.mean((estimate - truth) ** 2)))


def compute_tracks(dataset: DataSet, grid: FrequencyGrid,
                   hyper: Hyperparameters) -> dict[str, np.ndarray]:
    """Run all four estimators: aliased ML, unwrapped ML, Viterbi-MAP, Hessian-MAP."""
    aliased = ml_periodogram_argmax(dataset)
    unwrapped = unwrap_track(aliased)
    obs = observation_table(dataset, grid, hyper)
    lam = smoothing_weight(hyper, dataset.n_samples)
    path, _ = viterbi(obs, grid, lam)
    viterbi_track = grid.states[path]
    refined = refine_map(dataset, viterbi_track, hyper)
    return {
        "ml_aliased": aliased,
        "ml_unwrapped": unwrapped,
        "viterbi_map": viterbi_track,
        "hessian_map": refined.track,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    track = make_test_track(args.profile, args.n_bins, args.track_range)
    hyper = Hyperparameters(args.r_a, args.r_b, args.r_nu)
    dataset = synthesize_dataset(track, hyper, args.n_samples, args.seed)
    ftio.write_dataset_csv(args.out / "dataset.csv", dataset)
    ftio.write_track_csv(args.out / "truth.csv", track)
    snr = args.r_a / args.r_b
    print(f"simulated T={args.n_bins} bins x N={args.n_samples} samples, "
          f"SNR r_a/r_b={snr:.3g}, seed={args.seed}")
    return 0


def _fit_settings(strategy: str, line_search: str) -> dict[str, str]:
    """The strategy and line search a fit ran: bfgs backtracks and runs none."""
    return {"strategy": strategy, "line_search": "none" if strategy == "bfgs" else line_search}


def cmd_estimate(args: argparse.Namespace) -> int:
    dataset = ftio.read_dataset_csv(args.dataset)
    strategies = list(STRATEGIES) if args.strategy == "all" else [args.strategy]
    reports = {}
    for strategy in strategies:
        reports[strategy] = estimate_ml(dataset, args.grid, strategy=strategy,
                                        line_search=args.line_search)
    best_name = min(reports, key=lambda s: reports[s].reached_minimum)
    best = reports[best_name]
    print(f"{'strategy':<16} {'minimum':>14} {'log10 r_a':>10} {'log10 r_b':>10} "
          f"{'log10 r_nu':>11} {'grad/fun':>9}")
    for name, report in reports.items():
        r = report.minimizer
        print(f"{name:<16} {report.reached_minimum:>14.6f} {np.log10(r.r_a):>10.3f} "
              f"{np.log10(r.r_b):>10.3f} {np.log10(r.r_nu):>11.3f} "
              f"{report.gradient_evals:>4}/{report.function_evals}")
    r = best.minimizer
    ftio.write_key_values(args.out / "hyper.txt", {
        "r_a": repr(r.r_a),
        "r_b": repr(r.r_b),
        "r_nu": repr(r.r_nu),
        "log10_r_a": repr(float(np.log10(r.r_a))),
        "log10_r_b": repr(float(np.log10(r.r_b))),
        "log10_r_nu": repr(float(np.log10(r.r_nu))),
        "grid_resolution": repr(args.grid.resolution(r.r_nu)),
        "reached_minimum": repr(best.reached_minimum),
        **_fit_settings(best_name, args.line_search),
        "gradient_evals": best.gradient_evals,
        "function_evals": best.function_evals,
        "iterations": best.iterations,
        "converged": best.converged,
        "stop_reason": best.stop_reason,
        "decrement": repr(best.decrement),
    })
    if args.levelsets:
        _write_levelsets(args.out / "levelsets.csv", dataset, args.grid, r)
    print(f"wrote {args.out / 'hyper.txt'} (best: {best_name})")
    return 0


def _write_levelsets(path, dataset, grid, center: Hyperparameters) -> None:
    """Sample the hyperparameter criterion on a log-spaced box around center,
    every point reading one FitCriterion and scored as the fit scores it."""
    m = LEVELSET_SIZE
    criterion = FitCriterion(dataset, grid)
    axes = [np.logspace(np.log10(v) - 1.0, np.log10(v) + 1.0, m)
            for v in (center.r_a, center.r_b, center.r_nu)]
    ftio.write_csv(path, "r_a,r_b,r_nu,value", (
        f"{float(ra)!r},{float(rb)!r},{float(rnu)!r},"
        f"{criterion.score((ra, rb, rnu))!r}"
        for ra in axes[0] for rb in axes[1] for rnu in axes[2]))
    print(f"wrote {path} ({m}x{m}x{m} samples)")


def _read_hyper(path) -> Hyperparameters:
    raw = ftio.read_key_values(path)
    try:
        values = float(raw["r_a"]), float(raw["r_b"]), float(raw["r_nu"])
    except (KeyError, ValueError) as exc:
        raise ftio.DataFormatError(f"{path}: need r_a, r_b, r_nu entries") from exc
    try:
        return Hyperparameters(*values)
    except HyperparameterError as exc:
        raise ftio.DataFormatError(f"{path}: {exc}") from exc


def _warn_on_edge(grid: FrequencyGrid, viterbi_tracks: list[np.ndarray],
                  first_seed: int = 0) -> None:
    """One warning line when a Viterbi track sits on an outer grid state,
    where the true track may lie beyond the grid, naming that edge and the
    first such bin; of several replicates, seeded from first_seed on, it
    names the first such one."""
    on_edge = [np.flatnonzero((track == grid.states[0]) | (track == grid.states[-1]))
               for track in viterbi_tracks]
    hit = [i for i, bins in enumerate(on_edge) if bins.size]
    if hit:
        bins = on_edge[hit[0]]
        edge = viterbi_tracks[hit[0]][bins[0]]
        share = (f" in {len(hit)} of {len(on_edge)} replicates, first seed "
                 f"{first_seed + hit[0]}," if len(on_edge) > 1 else "")
        print(f"warning: the Viterbi track sits on the grid edge {edge:g}{share} at "
              f"{bins.size} bins, first bin {bins[0]}: the track may leave "
              f"[{grid.nu_min:g}, {grid.nu_max:g}]; widen --grid", file=sys.stderr)


def cmd_track(args: argparse.Namespace) -> int:
    dataset = ftio.read_dataset_csv(args.dataset)
    hyper = _read_hyper(args.hyper)
    truth = ftio.read_track_csv(args.truth) if args.truth else None
    if truth is not None and truth.size != dataset.n_bins:
        raise ftio.DataFormatError(
            f"truth has {truth.size} bins but dataset has {dataset.n_bins}")
    start = time.perf_counter()
    tracks = compute_tracks(dataset, args.grid, hyper)
    elapsed = time.perf_counter() - start
    _warn_on_edge(args.grid, [tracks["viterbi_map"]])
    metrics = {}
    for name, track in tracks.items():
        ftio.write_track_csv(args.out / f"{name}.csv", track)
        if truth is not None:
            metrics[f"rmse_{name}"] = repr(rmse(track, truth))
    metrics["elapsed_seconds"] = repr(elapsed)
    ftio.write_key_values(args.out / "metrics.txt", metrics)
    print(f"tracked {dataset.n_bins} bins in {elapsed:.3f} s")
    if truth is not None:
        for name in tracks:
            print(f"  rmse {name:<13} {float(metrics[f'rmse_{name}']):.5f}")
    return 0


def _p90(values: np.ndarray) -> float:
    """np.percentile(values, 90) of a non-empty 1-D array of finite values,
    bit for bit, from np.partition: numpy's linear rule places it at index
    i = (n - 1) 0.9 between the order statistics a and b at floor(i) and
    floor(i) + 1, as a + (b - a) g for g = i - floor(i) below 0.5 and
    b - (b - a)(1 - g) from there.  np.percentile imports numpy.ma on its
    first call (about 12 ms and 2 MB)."""
    index = (values.size - 1) * 0.9
    lower = int(index)
    order = [lower, min(lower + 1, values.size - 1)]
    a, b = np.partition(values, order)[order]
    fraction = index - lower
    diff = b - a
    return float(a + diff * fraction if fraction < 0.5 else b - diff * (1 - fraction))


def cmd_eval(args: argparse.Namespace) -> int:
    """Seeded replicates of simulate -> estimate -> track, summarized."""
    truth = make_test_track(args.profile, args.n_bins, args.track_range)
    hyper = Hyperparameters(args.r_a, args.r_b, args.r_nu)
    results: dict[str, list[float]] = {}
    hyper_errors = []
    viterbi_tracks = []
    for rep in range(args.replicates):
        dataset = synthesize_dataset(truth, hyper, args.n_samples, args.seed + rep)
        report = estimate_ml(dataset, args.grid, strategy=args.strategy,
                             line_search=args.line_search)
        tracks = compute_tracks(dataset, args.grid, report.minimizer)
        viterbi_tracks.append(tracks["viterbi_map"])
        for name, track in tracks.items():
            results.setdefault(name, []).append(rmse(track, truth))
        hyper_errors.append(np.abs(np.log10(report.minimizer.as_array())
                                   - np.log10(hyper.as_array())))
    ftio.write_csv(args.out / "eval_replicates.csv",
                   "seed," + ",".join(f"rmse_{name}" for name in results),
                   (",".join([str(args.seed + rep), *(repr(v[rep]) for v in results.values())])
                    for rep in range(args.replicates)))
    _warn_on_edge(args.grid, viterbi_tracks, args.seed)
    summary = _fit_settings(args.strategy, args.line_search)
    print(f"{'method':<14} {'mean rmse':>10} {'median':>10} {'p90':>10}")
    for name, values in results.items():
        values = np.array(values)
        mean, median, p90 = float(values.mean()), _median(values), _p90(values)
        summary[f"mean_rmse_{name}"] = repr(mean)
        summary[f"median_rmse_{name}"] = repr(median)
        summary[f"p90_rmse_{name}"] = repr(p90)
        print(f"{name:<14} {mean:>10.5f} {median:>10.5f} {p90:>10.5f}")
    mean_err = np.mean(hyper_errors, axis=0)
    for i, name in enumerate(("r_a", "r_b", "r_nu")):
        summary[f"mean_abs_log10_error_{name}"] = repr(float(mean_err[i]))
    ftio.write_key_values(args.out / "eval_summary.txt", summary)
    print(f"hyper recovery |log10 error|: r_a={mean_err[0]:.3f} "
          f"r_b={mean_err[1]:.3f} r_nu={mean_err[2]:.3f}")
    return 0


# Options whose comma-list value may start with a minus sign.
_RANGE_OPTIONS = ("--grid", "--track-range")


def _join_range_values(argv: list[str]) -> list[str]:
    """Rewrite `--grid -4,4,64` as `--grid=-4,4,64`.

    argparse reads a dash-led token that is not a plain number as an
    option flag, so a negative range would otherwise lose its value.  The
    argument after a range flag is always that flag's value, so a bad one
    such as `-inf,2.5,128` reaches the flag's check and is named there.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RANGE_OPTIONS:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(_join_range_values(args), namespace)

    def convert_arg_line_to_args(self, arg_line):
        # one argument per line of an argument file; a blank line is none
        return [arg_line] if arg_line.strip() else []

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _setting(parse):
    """The argparse type of a setting: parse(text), whose ValueError says what is
    wrong, so that a bad value exits through parser.error naming its flag and
    value, whether it came from the command line or from an argument file."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from exc
    return convert


@_setting
def _grid(text: str) -> FrequencyGrid:
    lo, hi, size = text.split(",")
    grid = FrequencyGrid(float(lo), float(hi), int(size))
    initial_distribution(grid)  # every command starts the chain in (-1/2, 1/2]
    return grid


@_setting
def _track_range(text: str) -> tuple[float, float]:
    lo, hi = map(float, text.split(","))
    if not (np.isfinite([lo, hi]).all() and lo <= hi):
        raise ValueError(f"need finite lo <= hi, got lo={lo}, hi={hi}")
    return lo, hi


def _at_least(least: int, what: str):
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"need {what}, got {value}")
        return value
    return _setting(count)


def _variance(name: str):
    return _setting(lambda text: check_variance(name, float(text)))


def _add_command(sub, name: str, summary: str, run) -> _Parser:
    """A subcommand that calls run(args), with the --out every command reads."""
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.set_defaults(run=run)
    p.add_argument("--out", type=Path, default=Path("."), help="output directory (must exist)")
    return p


def _add_grid(parser) -> None:
    # a string default goes through the type, as a flag value would
    parser.add_argument("--grid", type=_grid, default="-2.5,2.5,128",
                        help='grid spec "min,max,P" (default %(default)s)')


def _add_fit(parser, strategies) -> None:
    """The options of the ML fit, read by estimate and eval."""
    parser.add_argument("--strategy", choices=strategies, default=DEFAULT_STRATEGY)
    parser.add_argument("--line-search", choices=LINE_SEARCHES, default=DEFAULT_LINE_SEARCH)


def _add_simulation(parser, least_bins: int) -> None:
    """The options that define a simulated dataset, read by simulate and eval.
    --bins takes at least least_bins: 1 to simulate, 2 for eval's fit."""
    parser.add_argument("--seed", type=_at_least(0, "a non-negative seed"), default=0)
    parser.add_argument("--bins", default=128, dest="n_bins",
                        type=_at_least(least_bins, f"a bin count of at least {least_bins}"))
    parser.add_argument("--samples", default=4, dest="n_samples",
                        type=_at_least(MIN_SAMPLES, f"at least {MIN_SAMPLES} samples per bin"))
    parser.add_argument("--r-a", type=_variance("r_a"), default=1.0)
    parser.add_argument("--r-b", type=_variance("r_b"), default=0.1)
    # sqrt(r_nu) = 0.0316 is below the default grid spacing 0.0394
    parser.add_argument("--r-nu", type=_variance("r_nu"), default=1e-3)
    parser.add_argument("--profile", choices=TRACK_PROFILES, default="sine")
    parser.add_argument("--track-range", type=_track_range, default="-1.5,1.5",
                        help='truth span "lo,hi" (default %(default)s)')


@cache
def make_parser() -> _Parser:
    """The one schema of the settings: each subcommand accepts exactly the
    options its cmd_* function reads, spelled out in full, each with its
    default and its check.  `@FILE` reads one argument per line from FILE,
    in its place on the command line, so a later flag overrides it.  Built
    once per process: a parser is a web of reference cycles, which each
    main call would otherwise leave to the cyclic collector."""
    parser = _Parser(prog="freqtrack", allow_abbrev=False, fromfile_prefix_chars="@",
                     description="Frequency tracking beyond the Nyquist limit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "simulate", "write a simulated dataset and its truth track",
                     cmd_simulate)
    _add_simulation(p, 1)

    p = _add_command(sub, "estimate", "estimate hyperparameters by maximum likelihood",
                     cmd_estimate)
    p.add_argument("dataset", help="dataset CSV (t,n,re,im)")
    _add_grid(p)
    _add_fit(p, STRATEGIES + ("all",))
    p.add_argument("--levelsets", action="store_true",
                   help="also sample the criterion on a log-spaced box")

    p = _add_command(sub, "track", "run all four frequency estimators", cmd_track)
    p.add_argument("dataset", help="dataset CSV (t,n,re,im)")
    p.add_argument("hyper", help="hyperparameter key-value file")
    _add_grid(p)
    p.add_argument("--truth", help="truth track CSV for RMSE reporting")

    p = _add_command(sub, "eval", "Monte-Carlo sweep of simulate -> estimate -> track",
                     cmd_eval)
    _add_simulation(p, 2)
    _add_grid(p)
    p.add_argument("--replicates", type=_at_least(1, "at least one replicate"), default=20)
    _add_fit(p, STRATEGIES)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
