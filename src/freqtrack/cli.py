"""Command line driver: simulate, estimate, track, eval.

Every command is deterministic given its flags (seeds included), read from
the command line and from `@FILE` argument files, and only emits plain CSV /
key-value text so any plotting tool can consume the results.  Exit codes:
0 success, 1 usage error, 2 I/O error, 3 data or shape error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from freqtrack import io as ftio
from freqtrack.baselines import ml_periodogram_argmax, unwrap_track
from freqtrack.hmm import NumericalError, observation_table, viterbi
from freqtrack.hyperopt import (DEFAULT_LINE_SEARCH, DEFAULT_STRATEGY, LINE_SEARCHES,
                                STRATEGIES, estimate_ml, hyper_nll)
from freqtrack.likelihood import smoothing_weight
from freqtrack.markov import FrequencyGrid
from freqtrack.refine import refine_map
from freqtrack.signal import (MIN_SAMPLES, TRACK_PROFILES, DataSet, HyperparameterError,
                              Hyperparameters, make_test_track, synthesize_dataset)

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# estimate --levelsets samples the criterion on this many points per axis.
LEVELSET_SIZE = 25


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    nu_min: float = -2.5
    nu_max: float = 2.5
    grid_size: int = 128
    n_samples: int = 4
    n_bins: int = 128
    seed: int = 0
    profile: str = "sine"
    track_lo: float = -1.5
    track_hi: float = 1.5
    r_a: float = 1.0
    r_b: float = 0.1
    r_nu: float = 1e-3  # sqrt(r_nu) = 0.0316 is below the default grid spacing 0.0394
    strategy: str = DEFAULT_STRATEGY
    line_search: str = DEFAULT_LINE_SEARCH
    replicates: int = 20
    out: str = "."

    @cached_property
    def grid(self) -> FrequencyGrid:
        return FrequencyGrid(self.nu_min, self.nu_max, self.grid_size)

    def hyper(self) -> Hyperparameters:
        return Hyperparameters(self.r_a, self.r_b, self.r_nu)


def build_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the parsed flags, each unset one at its default.

    Every setting is checked here, so that a bad value is a usage error
    whether it came from the command line or from an argument file.
    """
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    if getattr(args, "grid", None):
        try:
            lo, hi, size = args.grid.split(",")
            overrides["nu_min"] = float(lo)
            overrides["nu_max"] = float(hi)
            overrides["grid_size"] = int(size)
        except ValueError as exc:
            raise UsageError(f'bad --grid value {args.grid!r}, expected "min,max,P"') from exc
    if getattr(args, "track_range", None):
        try:
            lo, hi = args.track_range.split(",")
            overrides["track_lo"] = float(lo)
            overrides["track_hi"] = float(hi)
        except ValueError as exc:
            raise UsageError(f'bad --track-range value {args.track_range!r}') from exc
    cfg = RunConfig(**overrides)
    lo, hi = cfg.track_lo, cfg.track_hi
    for bad, message in [
        (cfg.n_bins < 1, f"need at least one bin, got {cfg.n_bins}"),
        (cfg.n_samples < MIN_SAMPLES,
         f"need at least {MIN_SAMPLES} samples per bin, got {cfg.n_samples}"),
        (not (np.isfinite([lo, hi]).all() and lo <= hi),
         f"bad --track-range: need finite lo <= hi, got lo={lo}, hi={hi}"),
        (cfg.seed < 0, f"need a non-negative seed, got {cfg.seed}"),
        (cfg.replicates < 1, f"need at least one replicate, got {cfg.replicates}"),
    ]:
        if bad:
            raise UsageError(message)
    try:
        cfg.hyper()
        cfg.grid  # built once, here, so that a bad grid is a usage error
    except HyperparameterError as exc:
        raise UsageError(f"bad simulation setting: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad grid: {exc}") from exc
    return cfg


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


def cmd_simulate(cfg: RunConfig) -> int:
    track = make_test_track(cfg.profile, cfg.n_bins, (cfg.track_lo, cfg.track_hi))
    dataset = synthesize_dataset(track, cfg.hyper(), cfg.n_samples, cfg.seed)
    out = Path(cfg.out)
    ftio.write_dataset_csv(out / "dataset.csv", dataset)
    ftio.write_track_csv(out / "truth.csv", track)
    snr = cfg.r_a / cfg.r_b
    print(f"simulated T={cfg.n_bins} bins x N={cfg.n_samples} samples, "
          f"SNR r_a/r_b={snr:.3g}, seed={cfg.seed}")
    return 0


def cmd_estimate(cfg: RunConfig, dataset_path: str, levelsets: bool) -> int:
    dataset = ftio.read_dataset_csv(dataset_path)
    grid = cfg.grid
    out = Path(cfg.out)
    strategies = list(STRATEGIES) if cfg.strategy == "all" else [cfg.strategy]
    reports = {}
    for strategy in strategies:
        reports[strategy] = estimate_ml(dataset, grid, strategy=strategy,
                                        line_search=cfg.line_search)
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
    ftio.write_key_values(out / "hyper.txt", {
        "r_a": repr(r.r_a),
        "r_b": repr(r.r_b),
        "r_nu": repr(r.r_nu),
        "log10_r_a": repr(float(np.log10(r.r_a))),
        "log10_r_b": repr(float(np.log10(r.r_b))),
        "log10_r_nu": repr(float(np.log10(r.r_nu))),
        "reached_minimum": repr(best.reached_minimum),
        "strategy": best_name,
        "gradient_evals": best.gradient_evals,
        "function_evals": best.function_evals,
        "iterations": best.iterations,
        "converged": best.converged,
        "stop_reason": best.stop_reason,
    })
    if levelsets:
        _write_levelsets(out / "levelsets.csv", dataset, grid, r)
    print(f"wrote {out / 'hyper.txt'} (best: {best_name})")
    return 0


def _write_levelsets(path, dataset, grid, center: Hyperparameters) -> None:
    """Sample the hyperparameter criterion on a log-spaced box around center."""
    m = LEVELSET_SIZE
    axes = [np.logspace(np.log10(v) - 1.0, np.log10(v) + 1.0, m)
            for v in (center.r_a, center.r_b, center.r_nu)]
    with open(path, "w") as fh:
        fh.write("r_a,r_b,r_nu,value\n")
        for ra in axes[0]:
            for rb in axes[1]:
                for rnu in axes[2]:
                    value = hyper_nll(dataset, Hyperparameters(ra, rb, rnu), grid)
                    fh.write(f"{float(ra)!r},{float(rb)!r},{float(rnu)!r},{value!r}\n")
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


def cmd_track(cfg: RunConfig, dataset_path: str, hyper_path: str, truth_path: str | None) -> int:
    dataset = ftio.read_dataset_csv(dataset_path)
    hyper = _read_hyper(hyper_path)
    truth = ftio.read_track_csv(truth_path) if truth_path else None
    if truth is not None and truth.size != dataset.n_bins:
        raise ftio.DataFormatError(
            f"truth has {truth.size} bins but dataset has {dataset.n_bins}")
    grid = cfg.grid
    out = Path(cfg.out)
    start = time.perf_counter()
    tracks = compute_tracks(dataset, grid, hyper)
    elapsed = time.perf_counter() - start
    metrics = {}
    for name, track in tracks.items():
        ftio.write_track_csv(out / f"{name}.csv", track)
        if truth is not None:
            metrics[f"rmse_{name}"] = repr(rmse(track, truth))
    metrics["elapsed_seconds"] = repr(elapsed)
    ftio.write_key_values(out / "metrics.txt", metrics)
    print(f"tracked {dataset.n_bins} bins in {elapsed:.3f} s")
    if truth is not None:
        for name in tracks:
            print(f"  rmse {name:<13} {float(metrics[f'rmse_{name}']):.5f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    """Seeded replicates of simulate -> estimate -> track, summarized."""
    truth = make_test_track(cfg.profile, cfg.n_bins, (cfg.track_lo, cfg.track_hi))
    results: dict[str, list[float]] = {}
    hyper_errors = []
    grid = cfg.grid
    out = Path(cfg.out)
    with open(out / "eval_replicates.csv", "w") as fh:
        for rep in range(cfg.replicates):
            seed = cfg.seed + rep
            dataset = synthesize_dataset(truth, cfg.hyper(), cfg.n_samples, seed)
            report = estimate_ml(dataset, grid, strategy=cfg.strategy,
                                 line_search=cfg.line_search)
            tracks = compute_tracks(dataset, grid, report.minimizer)
            if rep == 0:
                fh.write("seed," + ",".join(f"rmse_{n}" for n in tracks) + "\n")
            row = [str(seed)]
            for name, track in tracks.items():
                value = rmse(track, truth)
                results.setdefault(name, []).append(value)
                row.append(repr(value))
            fh.write(",".join(row) + "\n")
            hyper_errors.append(np.abs(np.log10(report.minimizer.as_array())
                                       - np.log10(cfg.hyper().as_array())))
    summary = {}
    print(f"{'method':<14} {'mean rmse':>10} {'median':>10} {'p90':>10}")
    for name, values in results.items():
        values = np.array(values)
        summary[f"mean_rmse_{name}"] = repr(float(values.mean()))
        summary[f"median_rmse_{name}"] = repr(float(np.median(values)))
        summary[f"p90_rmse_{name}"] = repr(float(np.percentile(values, 90)))
        print(f"{name:<14} {values.mean():>10.5f} {np.median(values):>10.5f} "
              f"{np.percentile(values, 90):>10.5f}")
    mean_err = np.mean(hyper_errors, axis=0)
    for i, name in enumerate(("r_a", "r_b", "r_nu")):
        summary[f"mean_abs_log10_error_{name}"] = repr(float(mean_err[i]))
    ftio.write_key_values(out / "eval_summary.txt", summary)
    print(f"hyper recovery |log10 error|: r_a={mean_err[0]:.3f} "
          f"r_b={mean_err[1]:.3f} r_nu={mean_err[2]:.3f}")
    return 0


# Options whose comma-list value may start with a minus sign.
_RANGE_OPTIONS = ("--grid", "--track-range")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_range_values(argv: list[str]) -> list[str]:
    """Rewrite `--grid -4,4,64` as `--grid=-4,4,64`.

    argparse reads a dash-led token that is not a plain number as an
    option flag, so a negative range would otherwise lose its value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RANGE_OPTIONS and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(_join_range_values(args), namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_GRID_HELP = 'grid spec "min,max,P"'


def _add_command(sub, name: str, summary: str) -> _Parser:
    """A subcommand with the two options every command reads."""
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.add_argument("--out", help="output directory (must exist)")
    return p


def _add_simulation(parser) -> None:
    """The options that define a simulated dataset, read by simulate and eval."""
    parser.add_argument("--seed", type=int, dest="seed")
    parser.add_argument("--bins", type=int, dest="n_bins")
    parser.add_argument("--samples", type=int, dest="n_samples")
    parser.add_argument("--r-a", type=float, dest="r_a")
    parser.add_argument("--r-b", type=float, dest="r_b")
    parser.add_argument("--r-nu", type=float, dest="r_nu")
    parser.add_argument("--profile", choices=TRACK_PROFILES, dest="profile")
    parser.add_argument("--track-range", help='truth span "lo,hi"')


def make_parser() -> _Parser:
    """Each subcommand accepts exactly the options its cmd_* function reads,
    spelled out in full.  `@FILE` reads one argument per line from FILE, in
    its place on the command line, so a later flag overrides it."""
    parser = _Parser(prog="freqtrack", allow_abbrev=False, fromfile_prefix_chars="@",
                     description="Frequency tracking beyond the Nyquist limit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "simulate", "write a simulated dataset and its truth track")
    _add_simulation(p)

    p = _add_command(sub, "estimate", "estimate hyperparameters by maximum likelihood")
    p.add_argument("dataset", help="dataset CSV (t,n,re,im)")
    p.add_argument("--grid", help=_GRID_HELP)
    p.add_argument("--strategy", choices=STRATEGIES + ("all",), dest="strategy")
    p.add_argument("--line-search", choices=LINE_SEARCHES, dest="line_search")
    p.add_argument("--levelsets", action="store_true",
                   help="also sample the criterion on a log-spaced box")

    p = _add_command(sub, "track", "run all four frequency estimators")
    p.add_argument("dataset", help="dataset CSV (t,n,re,im)")
    p.add_argument("hyper", help="hyperparameter key-value file")
    p.add_argument("--grid", help=_GRID_HELP)
    p.add_argument("--truth", help="truth track CSV for RMSE reporting")

    p = _add_command(sub, "eval", "Monte-Carlo sweep of simulate -> estimate -> track")
    _add_simulation(p)
    p.add_argument("--grid", help=_GRID_HELP)
    p.add_argument("--replicates", type=int, dest="replicates")
    p.add_argument("--strategy", choices=STRATEGIES, dest="strategy")
    p.add_argument("--line-search", choices=LINE_SEARCHES, dest="line_search")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg, args.dataset, args.levelsets)
        if args.command == "track":
            return cmd_track(cfg, args.dataset, args.hyper, args.truth)
        if args.command == "eval":
            return cmd_eval(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
