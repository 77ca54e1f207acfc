import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from freqtrack import cli
from freqtrack import io as ftio
from freqtrack.cli import main, make_parser, rmse
from freqtrack.hyperopt import DEFAULT_LINE_SEARCH, DEFAULT_STRATEGY, hyper_nll
from freqtrack.markov import FrequencyGrid
from freqtrack.signal import MIN_SAMPLES, Hyperparameters, make_test_track, synthesize_dataset


def run(argv):
    return main(argv)


def exit_code(argv) -> int:
    """main's exit code, whether main returns it or argparse exits with it."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    track = rng.uniform(-1, 1, 6)
    ds = synthesize_dataset(track, Hyperparameters(1.0, 0.1, 1e-3), 4, seed=1)
    path = tmp_path / "ds.csv"
    ftio.write_dataset_csv(path, ds)
    back = ftio.read_dataset_csv(path)
    assert back.samples.shape == (6, 4)
    assert np.array_equal(back.samples, ds.samples)


def test_track_csv_round_trip(tmp_path):
    track = np.array([0.1, -0.25, 1.75])
    path = tmp_path / "track.csv"
    ftio.write_track_csv(path, track)
    assert np.array_equal(ftio.read_track_csv(path), track)


def test_key_values_round_trip(tmp_path):
    path = tmp_path / "kv.txt"
    ftio.write_key_values(path, {"r_a": repr(1.25), "label": "abc"})
    raw = ftio.read_key_values(path)
    assert float(raw["r_a"]) == 1.25
    assert raw["label"] == "abc"


def test_incomplete_dataset_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,n,re,im\n1,1,0.5,0.5\n1,2,0.5,0.5\n2,1,0.5,0.5\n")
    with pytest.raises(ftio.DataFormatError):
        ftio.read_dataset_csv(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ftio.DataFormatError):
        ftio.read_dataset_csv(path)


@pytest.mark.parametrize("rows", [
    pytest.param("1,0.1\n2,0.2\n2,0.3\n", id="duplicate_t"),
    pytest.param("1,0.1\n2,nan\n", id="nan_nu"),
    pytest.param("1,0.1\n2,inf\n", id="inf_nu"),
    pytest.param("1,0.1,junk\n2,0.2\n", id="extra_column"),
])
def test_malformed_track_rejected(tmp_path, rows):
    path = tmp_path / "track.csv"
    path.write_text("t,nu\n" + rows)
    with pytest.raises(ftio.DataFormatError):
        ftio.read_track_csv(path)


@pytest.mark.parametrize("index", ["0", "-1"])
def test_nonpositive_dataset_index_rejected(tmp_path, index):
    # index -1 used to land on the last row through negative indexing
    path = tmp_path / "dataset.csv"
    path.write_text(f"t,n,re,im\n1,{index},0.5,0.5\n1,2,0.5,0.5\n")
    with pytest.raises(ftio.DataFormatError):
        ftio.read_dataset_csv(path)
    (tmp_path / "hyper.txt").write_text("r_a=1.0\nr_b=0.1\nr_nu=0.002\n")
    assert run(["track", str(path), str(tmp_path / "hyper.txt"), "--out", str(tmp_path)]) == 3


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "hyper.txt"
    path.write_text("r_a=1.0\nr_b=0.1\nr_nu=0.002\nr_a=5.0\n")
    with pytest.raises(ftio.DataFormatError):
        ftio.read_key_values(path)
    assert run(["simulate", "--seed", "3"] + small_args(tmp_path)) == 0
    assert run(["track", str(tmp_path / "dataset.csv"), str(path),
                "--out", str(tmp_path), "--grid=-2.5,2.5,48"]) == 3


def test_malformed_truth_exit_code(tmp_path):
    assert run(["simulate", "--seed", "3"] + small_args(tmp_path)) == 0
    (tmp_path / "hyper.txt").write_text("r_a=1.0\nr_b=0.1\nr_nu=0.002\n")
    truth = tmp_path / "truth.csv"
    truth.write_text(truth.read_text() + "24,0.0\n")
    code = run(["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
                "--truth", str(truth), "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("form", ["space", "equals", "file"])
def test_negative_ranges_accepted(tmp_path, form):
    def with_range(argv, option, value):
        if form == "file":  # flag and value on separate lines
            args_file = tmp_path / f"{option[2:]}.args"
            args_file.write_text(f"{option}\n{value}\n")
            return argv + [f"@{args_file}"]
        return argv + ([option, value] if form == "space" else [f"{option}={value}"])

    simulate = with_range(["simulate", "--out", str(tmp_path), "--bins", "8"],
                          "--track-range", "-.5,0.5")
    assert make_parser().parse_args(simulate).track_range == (-0.5, 0.5)
    assert run(simulate) == 0
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": "1.0", "r_b": "0.1", "r_nu": "1e-3"})
    track = with_range(["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
                        "--out", str(tmp_path)], "--grid", "-4,4,64")
    assert make_parser().parse_args(track).grid == FrequencyGrid(-4.0, 4.0, 64)
    assert run(track) == 0


def test_config_file_with_flag_overrides(tmp_path):
    # an argument file holds one argument per line; the last occurrence wins
    args_file = tmp_path / "run.args"
    args_file.write_text("--bins=32\n--seed\n5\n--r-b=0.2\n")

    def config(*argv):
        return make_parser().parse_args(["simulate", *argv, "--out", str(tmp_path)])

    args = config(f"@{args_file}", "--seed", "9")
    assert args.n_bins == 32  # from file
    assert args.seed == 9  # a flag after the file wins
    assert args.r_b == 0.2
    assert args.r_a == config().r_a  # untouched default
    assert config("--seed", "9", f"@{args_file}").seed == 5  # the file after the flag wins


@pytest.mark.parametrize("blank", ["", "   ", "\t"], ids=["empty", "spaces", "tab"])
def test_blank_lines_in_argument_file_are_skipped(tmp_path, blank):
    # a line is one argument, and a blank line none, so a trailing or
    # separating blank line is not an empty, unrecognized argument
    args_file = tmp_path / "run.args"
    args_file.write_text(f"{blank}\n--seed=2\n{blank}\n--bins\n8\n{blank}\n")
    assert run(["simulate", f"@{args_file}", "--out", str(tmp_path)]) == 0
    args = make_parser().parse_args(["simulate", f"@{args_file}"])
    assert (args.seed, args.n_bins) == (2, 8)
    args_file.write_text("--seed 2\n")  # a space does not split a line
    assert exit_code(["simulate", f"@{args_file}", "--out", str(tmp_path)]) == 1


def test_parser_defaults():
    # the parser is the one place that holds each setting's default
    simulation = {"n_samples": 4, "n_bins": 128, "seed": 0, "r_a": 1.0, "r_b": 0.1,
                  "r_nu": 1e-3, "profile": "sine", "track_range": (-1.5, 1.5)}
    args = vars(make_parser().parse_args(["eval"]))
    assert args["grid"] == FrequencyGrid(-2.5, 2.5, 128)
    assert {key: args[key] for key in simulation} == simulation
    assert (args["replicates"], args["strategy"], args["line_search"]) == (
        20, DEFAULT_STRATEGY, DEFAULT_LINE_SEARCH)
    assert args["out"] == Path(".")
    args = vars(make_parser().parse_args(["simulate"]))
    assert {key: args[key] for key in simulation} == simulation
    for command in (["estimate", "d.csv"], ["track", "d.csv", "h.txt"]):
        args = make_parser().parse_args(command)
        assert args.grid == FrequencyGrid(-2.5, 2.5, 128)
    args = make_parser().parse_args(["estimate", "d.csv"])
    assert (args.strategy, args.line_search) == (DEFAULT_STRATEGY, DEFAULT_LINE_SEARCH)


def test_rmse_helper():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


def small_args(tmp_path):
    return ["--out", str(tmp_path), "--bins", "24", "--r-nu", "2e-3",
            "--track-range=-0.8,0.8"]


def test_full_pipeline(tmp_path):
    assert run(["simulate", "--seed", "3"] + small_args(tmp_path)) == 0
    ds_path = str(tmp_path / "dataset.csv")
    assert run(["estimate", ds_path, "--strategy", "vignes",
                "--out", str(tmp_path), "--grid=-2.5,2.5,48"]) == 0
    fit = ftio.read_key_values(tmp_path / "hyper.txt")
    assert fit["stop_reason"] == "relative_decrease" and fit["converged"] == "True"
    # track with the generating hyperparameters: 24 bins are too few for a
    # reliable estimate, and this test is about the pipeline, not recovery
    hyper = tmp_path / "hyper_true.txt"
    ftio.write_key_values(hyper, {"r_a": "1.0", "r_b": "0.1", "r_nu": "2e-3"})
    assert run(["track", ds_path, str(hyper), "--truth", str(tmp_path / "truth.csv"),
                "--out", str(tmp_path), "--grid=-2.5,2.5,48"]) == 0
    metrics = ftio.read_key_values(tmp_path / "metrics.txt")
    for name in ("ml_aliased", "ml_unwrapped", "viterbi_map", "hessian_map"):
        assert (tmp_path / f"{name}.csv").exists()
        assert float(metrics[f"rmse_{name}"]) >= 0.0
    # the smoothed tracker must beat raw aliased picking on this easy case
    assert float(metrics["rmse_hessian_map"]) < float(metrics["rmse_ml_aliased"])


def test_eval_command(tmp_path):
    code = run(["eval", "--replicates", "2", "--strategy", "vignes", "--grid=-2.5,2.5,48"]
               + small_args(tmp_path))
    assert code == 0
    summary = ftio.read_key_values(tmp_path / "eval_summary.txt")
    assert float(summary["mean_rmse_hessian_map"]) >= 0.0
    lines = (tmp_path / "eval_replicates.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 replicates
    assert exit_code(["eval", "--replicates", "0"] + small_args(tmp_path)) == 1


def test_estimate_levelsets(tmp_path, monkeypatch):
    assert run(["simulate", "--seed", "3"] + small_args(tmp_path)) == 0
    estimate = ["estimate", str(tmp_path / "dataset.csv"), "--levelsets",
                "--out", str(tmp_path), "--grid=-2.5,2.5,48"]
    args_file = tmp_path / "run.args"
    args_file.write_text("--levelset-size=2\n")
    assert exit_code(estimate + [f"@{args_file}"]) == 1  # not a setting
    monkeypatch.setattr(cli, "LEVELSET_SIZE", 2)
    assert run(estimate) == 0
    lines = (tmp_path / "levelsets.csv").read_text().splitlines()
    assert lines[0] == "r_a,r_b,r_nu,value"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 8 and len({row[:3] for row in rows}) == 8
    dataset = ftio.read_dataset_csv(tmp_path / "dataset.csv")
    grid = FrequencyGrid(-2.5, 2.5, 48)
    for r_a, r_b, r_nu, value in rows:
        assert value == hyper_nll(dataset, Hyperparameters(r_a, r_b, r_nu), grid)


def test_exit_code_usage():
    with pytest.raises(SystemExit) as err:
        run(["frobnicate"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 1


def test_exit_code_io(tmp_path):
    code = run(["simulate", "--out", str(tmp_path / "missing_dir"), "--bins", "4"])
    assert code == 2
    code = run(["estimate", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert code == 2


def test_exit_code_data(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,n,re,im\n1,1,not_a_number,0\n")
    code = run(["estimate", str(bad), "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("r_b", ["1e-4", "1e-6", "1e-10"])
def test_high_snr_estimate_succeeds(tmp_path, r_b):
    # line-search probes reach points where bin 0 peaks on an alias outside
    # the initial band, thousands of nats above every admissible state
    assert run(["simulate", "--r-b", r_b, "--bins", "16", "--out", str(tmp_path)]) == 0
    assert run(["estimate", str(tmp_path / "dataset.csv"), "--out", str(tmp_path)]) == 0
    hyper = ftio.read_key_values(tmp_path / "hyper.txt")
    assert np.isfinite(float(hyper["reached_minimum"]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_track_rejects_hyperparameters_with_non_finite_coefficients(tmp_path, capsys):
    # r_b = 1e-310 is positive and finite, but alpha and energy / r_b overflow
    _valid_inputs(tmp_path)
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": "1.0", "r_b": "1e-310", "r_nu": "0.01"})
    assert _track_exit_code(tmp_path) == 3
    assert "r_a=1.0, r_b=1e-310" in capsys.readouterr().err
    assert not (tmp_path / "viterbi_map.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r_a, r_b, r_nu, named", [
    # r_b (N r_a + r_b) underflows to 0 ...
    ("1e-170", "1e-170", "0.01", "r_a=1e-170, r_b=1e-170"),
    # ... or overflows, so alpha = 0 and every observation row is constant
    ("1e155", "1e155", "0.01", "r_a=1e+155, r_b=1e+155"),
    # 2 alpha r_nu underflows to 0
    ("1e-300", "1.0", "1e-300", "r_a=1e-300, r_b=1.0, r_nu=1e-300"),
], ids=["alpha_underflow", "alpha_overflow", "lam_underflow"])
def test_track_rejects_hyperparameters_with_degenerate_coefficients(tmp_path, capsys, r_a, r_b,
                                                                    r_nu, named):
    _valid_inputs(tmp_path)
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": r_a, "r_b": r_b, "r_nu": r_nu})
    assert _track_exit_code(tmp_path) == 3
    assert named in capsys.readouterr().err
    assert not (tmp_path / "viterbi_map.csv").exists()


@pytest.mark.parametrize("r_a, r_b, r_nu, message", [
    ("0", "0.1", "0.01", "r_a must be strictly positive and finite, got 0.0"),
    ("1.0", "-0.1", "0.01", "r_b must be strictly positive and finite, got -0.1"),
    ("1.0", "0.1", "nan", "r_nu must be strictly positive and finite, got nan"),
], ids=["r_a", "r_b", "r_nu"])
def test_track_reports_an_invalid_hyper_value(tmp_path, capsys, r_a, r_b, r_nu, message):
    # a present but invalid value is named as such, not as a missing entry
    _valid_inputs(tmp_path)
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": r_a, "r_b": r_b, "r_nu": r_nu})
    assert _track_exit_code(tmp_path) == 3
    assert f"{tmp_path / 'hyper.txt'}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "eval"])
def test_grid_without_a_start_state_is_a_data_error(tmp_path, capsys, command):
    # the start band (-1/2, +1/2] holds no state of a grid on [0.6, 3]
    assert run(["simulate", "--bins", "16", "--out", str(tmp_path)]) == 0
    inputs = {"estimate": [str(tmp_path / "dataset.csv")], "eval": ["--replicates", "1"]}
    assert run([command, *inputs[command], "--grid=0.6,3,16", "--out", str(tmp_path)]) == 3
    assert "no grid state falls inside the initial band" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_track_with_saturated_pair_cost(tmp_path):
    # r_nu = 1e-306 puts lam at 5.1e304, so Viterbi's pair cost overflows to
    # +inf from lag 152 of the wide grid on: the exact saturated value, not an error
    assert run(["simulate", "--seed", "1", "--bins", "32", "--out", str(tmp_path)]) == 0
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": "1.0", "r_b": "0.1", "r_nu": "1e-306"})
    assert run(["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
                "--grid=-100,100,512", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "viterbi_map.csv").exists()


def _extreme_dataset(tmp_path):
    """The default simulation, 16 bins, with one sample set to 1.34e154:
    its record energy, about 1.8e308, is just below the float maximum."""
    assert run(["simulate", "--seed", "1", "--bins", "16", "--out", str(tmp_path)]) == 0
    dataset = tmp_path / "dataset.csv"
    lines = dataset.read_text().splitlines()
    t, n, _, im = lines[5].split(",")
    lines[5] = ",".join([t, n, "1.34e154", im])
    dataset.write_text("\n".join(lines) + "\n")
    return dataset


def test_extreme_sample_fails_before_writing_tracks(tmp_path):
    # unchecked, the observation row overflows, its periodogram absorbs
    # every pair cost and the Viterbi path collapses onto the lowest state
    dataset = _extreme_dataset(tmp_path)
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": "1.0", "r_b": "0.1", "r_nu": "1e-3"})
    assert run(["track", str(dataset), str(tmp_path / "hyper.txt"), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "viterbi_map.csv").exists()


def test_extreme_sample_fails_estimate_with_data_error(tmp_path, capsys):
    # the record energy is rejected before the fit starts, not met by an
    # overflow somewhere inside it
    dataset = _extreme_dataset(tmp_path)
    assert run(["estimate", str(dataset), "--out", str(tmp_path)]) == 3
    assert "bin 1 has record energy" in capsys.readouterr().err
    assert not (tmp_path / "hyper.txt").exists()


# The flags a command accepts are exactly those its cmd_* function reads.
_UNREAD_FLAGS = [pytest.param("simulate", "--grid", "-1,1,8", id="simulate--grid")] + [
    pytest.param(command, flag, value, id=command + flag)
    for command in ("estimate", "track")
    for flag, value in [("--seed", "3"), ("--bins", "8"), ("--samples", "2"),
                        ("--r-a", "99"), ("--r-b", "1"), ("--r-nu", "1e-9")]]


@pytest.mark.parametrize("command, flag, value", _UNREAD_FLAGS)
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, command, flag, value):
    _valid_inputs(tmp_path)
    inputs = {"simulate": [], "estimate": ["dataset.csv"], "track": ["dataset.csv", "hyper.txt"]}
    argv = [command, *(str(tmp_path / name) for name in inputs[command]), flag, value,
            "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 1
    assert flag in capsys.readouterr().err


def test_flag_prefix_is_rejected(tmp_path, capsys):
    _valid_inputs(tmp_path)
    argv = ["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
            "--tr", str(tmp_path / "truth.csv"), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 1
    assert "--tr" in capsys.readouterr().err
    assert not (tmp_path / "metrics.txt").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec, source", [
    pytest.param(spec, source, id=spec if source == "flag" else f"{spec}-file")
    # a non-finite bound or spacing used to warn in linspace and exit 3 later
    for spec in ["-1,1,1", "1,-1,8", "-inf,2.5,128", "-1e308,1e308,128"]
    for source in ("flag", "file")])
@pytest.mark.parametrize("command", ["estimate", "track"])
def test_invalid_grid_is_a_usage_error(tmp_path, capsys, command, spec, source):
    _valid_inputs(tmp_path)
    inputs = {"estimate": ["dataset.csv"], "track": ["dataset.csv", "hyper.txt"]}[command]
    args_file = tmp_path / "grid.args"
    args_file.write_text(f"--grid={spec}\n")
    setting = f"--grid={spec}" if source == "flag" else f"@{args_file}"
    argv = [command, *(str(tmp_path / name) for name in inputs), setting, "--out", str(tmp_path)]
    assert exit_code(argv) == 1
    assert f"argument --grid: bad value {spec!r}" in capsys.readouterr().err


def test_exit_code_bad_config(tmp_path, capsys):
    # an argument file goes through the command's own parser: a flag that no
    # command has, or one this command does not read, is a usage error
    args_file = tmp_path / "run.args"
    for flag in ("--no-such-flag=1", "--grid=-1,1,8"):
        args_file.write_text(flag + "\n")
        assert exit_code(["simulate", f"@{args_file}", "--out", str(tmp_path)]) == 1
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "dataset.csv").exists()


def test_missing_argument_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.args"
    assert exit_code(["simulate", f"@{missing}", "--out", str(tmp_path)]) == 1
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    pytest.param("--strategy=sgd", id="strategy=sgd"),
    pytest.param("--strategy=all", id="strategy=all"),
    pytest.param("--line-search=exact", id="line_search=exact"),
    pytest.param("--profile=zigzag", id="profile=zigzag"),
])
def test_config_value_outside_the_choices_is_a_usage_error(tmp_path, capsys, line):
    args_file = tmp_path / "run.args"
    args_file.write_text(line + "\n")
    argv = ["eval", f"@{args_file}", "--replicates", "1", "--bins", "8",
            "--out", str(tmp_path)]
    assert exit_code(argv) == 1
    assert line.split("=")[1] in capsys.readouterr().err
    assert not (tmp_path / "eval_replicates.csv").exists()


def test_config_strategy_all_is_accepted_where_a_command_accepts_it(tmp_path, capsys):
    # estimate reads --strategy and accepts "all"; track reads no --strategy
    _valid_inputs(tmp_path)
    args_file = tmp_path / "run.args"
    args_file.write_text("--strategy=all\n")
    for command, code in ((["estimate", "dataset.csv"], 0),
                          (["track", "dataset.csv", "hyper.txt"], 1)):
        argv = [command[0], *(str(tmp_path / name) for name in command[1:]),
                f"@{args_file}", "--grid=-1,1,8", "--out", str(tmp_path)]
        assert exit_code(argv) == code
    assert "--strategy=all" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--samples", "1", f"at least {MIN_SAMPLES} samples", id="samples=1"),
    pytest.param("--bins", "0", "at least one bin", id="bins=0"),
    pytest.param("--track-range", "1,-1", "lo=1.0, hi=-1.0", id="track_range=1,-1"),
    pytest.param("--r-a", "-1", "r_a must be strictly positive", id="r_a=-1"),
    pytest.param("--r-nu", "0", "r_nu must be strictly positive", id="r_nu=0"),
    pytest.param("--seed", "-1", "non-negative seed", id="seed=-1"),
    pytest.param("--replicates", "0", "at least one replicate", id="replicates=0"),
])
def test_bad_setting_is_a_usage_error(tmp_path, capsys, flag, value, message, source):
    # checked once, before any command runs, whichever source set the value
    args_file = tmp_path / "run.args"
    args_file.write_text(f"{flag}={value}\n")
    setting = [f"{flag}={value}"] if source == "flag" else [f"@{args_file}"]
    # the setting follows the small run's flags, so it wins over them
    small = ["--replicates", "1", "--bins", "8"]
    assert exit_code(["eval", *small, *setting, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert f"argument {flag}: bad value {value!r}" in err
    assert not (tmp_path / "eval_replicates.csv").exists()


def _run_without_scipy(tmp_path, argv):
    # scipy is a test dependency only: with sys.modules["scipy"] = None any
    # import of scipy or of one of its submodules raises ImportError
    _valid_inputs(tmp_path)
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import freqtrack.cli\n"
        f"sys.exit(freqtrack.cli.main({argv!r} + ['--out', {str(tmp_path)!r}]))\n")
    src = str(Path(cli.__file__).parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_estimate_never_imports_scipy_linalg(tmp_path):
    _run_without_scipy(tmp_path, ["estimate", str(tmp_path / "dataset.csv"), "--grid=-1,1,8"])


@pytest.mark.parametrize("command", ["simulate", "track", "eval"])
def test_command_runs_without_scipy(tmp_path, command):
    argv = {
        "simulate": ["simulate", "--bins", "16"],
        # the track reaches refine_map's Newton solve
        "track": ["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
                  "--truth", str(tmp_path / "truth.csv"), "--grid=-1,1,8"],
        "eval": ["eval", "--replicates", "1", "--bins", "16", "--grid=-1.5,1.5,32"],
    }[command]
    _run_without_scipy(tmp_path, argv)


# Reader fuzzing: whatever text sits in an input file, the CLI exits with 0
# (the text was a valid file) or 3 (a data error), never with a traceback.
_TOKEN = st.one_of(st.integers(-2, 6).map(str), st.floats().map(repr), st.text(max_size=6))


def _file_text(head, line):
    structured = st.builds(lambda first, rows: "\n".join([first, *rows]) + "\n",
                           head, st.lists(line, max_size=10))
    return st.one_of(st.text(), structured)


def _csv_text(header: str):
    return _file_text(st.one_of(st.just(header), st.text(max_size=12)),
                      st.lists(_TOKEN, max_size=5).map(",".join))


@st.composite
def _complete_dataset_text(draw):
    # every (t, n) present once, so the pipeline runs on arbitrary float values
    n_bins, n_samples = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = [f"{t},{n},{draw(st.floats())!r},{draw(st.floats())!r}"
            for t in range(1, n_bins + 1) for n in range(1, n_samples + 1)]
    return "\n".join(["t,n,re,im", *rows]) + "\n"


_KEY_VALUE_TEXT = _file_text(
    st.just("r_a=1.0\nr_b=0.1\nr_nu=0.01"),
    st.lists(st.one_of(st.sampled_from(["r_a", "r_b", "r_nu"]), _TOKEN), max_size=3).map("=".join))

_SETTINGS = settings(deadline=None, max_examples=200,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def _valid_inputs(tmp_path):
    ds = synthesize_dataset([0.1, 0.3, 0.4], Hyperparameters(1.0, 0.1, 1e-2), 4, seed=0)
    ftio.write_dataset_csv(tmp_path / "dataset.csv", ds)
    ftio.write_track_csv(tmp_path / "truth.csv", [0.1, 0.3, 0.4])
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": "1.0", "r_b": "0.1", "r_nu": "0.01"})


def _track_exit_code(tmp_path, truth=True) -> int:
    return run(["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
                "--out", str(tmp_path), "--grid=-1,1,8"]
               + (["--truth", str(tmp_path / "truth.csv")] if truth else []))


@_SETTINGS
@given(text=st.one_of(_csv_text("t,n,re,im"), _complete_dataset_text()))
# a sample whose square is just below the float maximum overflows the periodogram
# unless the record energy check runs first
@example(text="t,n,re,im\n1,1,0.0,0.0\n1,2,0.0,1.3407807929942596e+154\n")
def test_fuzzed_dataset_exit_code(tmp_path, text):
    _valid_inputs(tmp_path)
    (tmp_path / "dataset.csv").write_text(text, encoding="utf-8")
    assert _track_exit_code(tmp_path, truth=False) in (0, 3)


@_SETTINGS
@given(text=_csv_text("t,nu"))
def test_fuzzed_truth_exit_code(tmp_path, text):
    _valid_inputs(tmp_path)
    (tmp_path / "truth.csv").write_text(text, encoding="utf-8")
    assert _track_exit_code(tmp_path) in (0, 3)


@_SETTINGS
@given(text=_KEY_VALUE_TEXT)
def test_fuzzed_hyper_exit_code(tmp_path, text):
    _valid_inputs(tmp_path)
    (tmp_path / "hyper.txt").write_text(text, encoding="utf-8")
    assert _track_exit_code(tmp_path) in (0, 3)


def test_track_memory_is_below_three_tables():
    # the periodograms are the one stored (T, P) float table: it is filled in
    # row blocks, Viterbi reads it in place and no log-likelihood table is built
    n_bins, n_states = 4096, 512
    hyper = Hyperparameters(1.0, 0.1, 1e-4)
    ds = synthesize_dataset(make_test_track("sine", n_bins, (-3.0, 3.0)), hyper, 4, seed=0)
    grid = FrequencyGrid(-4.0, 4.0, n_states)
    tracemalloc.start()
    try:
        cli.compute_tracks(ds, grid, hyper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * n_bins * n_states * 8


def test_estimate_reports_an_unresolvable_r_nu(tmp_path):
    # a constant track: the fit drives r_nu to the 1e-8 floor of its start,
    # where the P=128 grid's kernel is the identity and the criterion flat
    ds = synthesize_dataset(np.full(32, 0.2), Hyperparameters(1.0, 1e-6, 1e-3), 4, seed=0)
    ftio.write_dataset_csv(tmp_path / "dataset.csv", ds)
    assert run(["estimate", str(tmp_path / "dataset.csv"), "--out", str(tmp_path)]) == 0
    fit = ftio.read_key_values(tmp_path / "hyper.txt")
    assert fit["stop_reason"] == "r_nu_below_resolution" and fit["converged"] == "False"


RMSE_LIMIT = 0.05  # acceptance criterion 6


@pytest.mark.parametrize("grid", [
    # the default 128-state grid fits r_nu = 4.87e-3 on this seed and the
    # track slips a whole cycle (RMSE 0.98); ROADMAP item 3 raises the default
    pytest.param([], id="default_grid",
                 marks=pytest.mark.xfail(strict=True, reason="cycle slip at P=128")),
    pytest.param(["--grid=-2.5,2.5,192"], id="P=192"),
])
def test_eval_seed_5015_tracks_within_the_acceptance_rmse(tmp_path, grid):
    assert run(["eval", "--replicates", "1", "--seed", "5015", *grid, "--out", str(tmp_path)]) == 0
    summary = ftio.read_key_values(tmp_path / "eval_summary.txt")
    assert float(summary["mean_rmse_hessian_map"]) < RMSE_LIMIT
