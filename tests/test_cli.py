import csv
import gc
import io
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from freqtrack import cli, hyperopt
from freqtrack import io as ftio
from freqtrack.cli import main, make_parser, rmse
from freqtrack.hmm import NumericalError
from freqtrack.hyperopt import DEFAULT_LINE_SEARCH, DEFAULT_STRATEGY, FitCriterion, hyper_nll
from freqtrack.markov import FrequencyGrid
from freqtrack.signal import (MIN_SAMPLES, DataSet, HyperparameterError, Hyperparameters,
                              make_test_track, synthesize_dataset)
from oracles import csv_read_dataset, csv_read_track


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


def test_track_csv_bytes_equal_csv_writer_output(tmp_path):
    track = np.array([0.1, -0.0, 0.0, 1e-300, 1e300, -2.5, 1 / 3, 5e-324, -1.7976931348623157e308])
    path = tmp_path / "track.csv"
    ftio.write_track_csv(path, track)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "nu"])
    for t, nu in enumerate(track, start=1):
        writer.writerow([t, repr(float(nu))])
    assert path.read_bytes() == expected.getvalue().encode()
    back = ftio.read_track_csv(path)
    assert back.tobytes() == track.tobytes()


def test_dataset_csv_bytes_equal_csv_writer_output(tmp_path):
    # record energies stay below MAX_RECORD_ENERGY, about 1.2e77
    values = [0.1, -0.0, 0.0, 1e-300, 1e38, -2.5, 1 / 3, 5e-324, -1.5e38]
    samples = np.array(values[:8]) + 1j * np.array(values[1:])
    ds = DataSet(samples=samples.reshape(4, 2))
    path = tmp_path / "ds.csv"
    ftio.write_dataset_csv(path, ds)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "n", "re", "im"])
    for t, record in enumerate(ds.samples, start=1):
        for n, value in enumerate(record, start=1):
            writer.writerow([t, n, repr(float(value.real)), repr(float(value.imag))])
    assert path.read_bytes() == expected.getvalue().encode()
    assert ftio.read_dataset_csv(path).samples.tobytes() == ds.samples.tobytes()


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


@pytest.mark.parametrize("rows, message", [
    pytest.param("1,0.1\n2,0.2\n2,0.3\n", "duplicate bin index 2", id="duplicate_t"),
    pytest.param("1,0.1\n2,nan\n", "non-finite nu nan at bin 2", id="nan_nu"),
    pytest.param("1,0.1\n2,inf\n", "non-finite nu inf at bin 2", id="inf_nu"),
    pytest.param("1,0.1,junk\n2,0.2\n", "columns", id="extra_column"),
])
def test_malformed_track_rejected(tmp_path, rows, message):
    path = tmp_path / "track.csv"
    path.write_text("t,nu\n" + rows)
    with pytest.raises(ftio.DataFormatError, match=message):
        ftio.read_track_csv(path)


def _run_python(script):
    """script run by a fresh interpreter that imports this freqtrack."""
    src = str(Path(cli.__file__).parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_non_ascii_field_is_rejected_before_the_parser_reads_it(tmp_path, monkeypatch):
    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt was given the file")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    path = tmp_path / "truth.csv"
    path.write_bytes("t,nu\n\U0001F600,0.1\n2,0.2\n".encode())
    with pytest.raises(ftio.DataFormatError, match="truth.csv"):
        ftio.read_track_csv(path)


def test_non_bmp_fields_never_crash_the_reader(tmp_path):
    # np.loadtxt's parser could crash the process (SIGSEGV) on a first field
    # of characters beyond the Basic Multilingual Plane: this loop died in
    # 5 of 10 runs while the reader handed such text to it
    script = (
        "import random, sys\n"
        "from freqtrack import io as ftio\n"
        "rng = random.Random(0)\n"
        "chars = [chr(c) for c in (0x1F600, 0x10000, 0x1F4A9, 0x2A6D6, 0x10FFFD)]\n"
        f"path = {str(tmp_path / 'truth.csv')!r}\n"
        "for _ in range(300):\n"
        "    field = ''.join(rng.choice(chars) for _ in range(rng.randint(1, 30)))\n"
        "    open(path, 'wb').write(f't,nu\\n{field},0.1\\n2,0.2\\n'.encode())\n"
        "    try:\n"
        "        ftio.read_track_csv(path)\n"
        "    except ftio.DataFormatError:\n"
        "        continue\n"
        "    sys.exit('a non-ASCII field was read')\n")
    done = _run_python(script)
    assert done.returncode == 0, (done.returncode, done.stderr)


@pytest.mark.parametrize("index", ["0", "-1"])
def test_nonpositive_dataset_index_rejected(tmp_path, index):
    # index -1 used to land on the last row through negative indexing
    path = tmp_path / "dataset.csv"
    path.write_text(f"t,n,re,im\n1,{index},0.5,0.5\n1,2,0.5,0.5\n")
    with pytest.raises(ftio.DataFormatError):
        ftio.read_dataset_csv(path)
    (tmp_path / "hyper.txt").write_text("r_a=1.0\nr_b=0.1\nr_nu=0.002\n")
    assert run(["track", str(path), str(tmp_path / "hyper.txt"), "--out", str(tmp_path)]) == 3


# Field texts that no reader may take as an index in 1.. or as a finite value.
_BAD_FIELDS = ["0", "-1", "1.5", "x", "", "nan", "inf", "-inf", " -0.5"]


@st.composite
def csv_files(draw, header, sizes):
    """The text of a CSV file with this header: one row per index tuple of a
    full grid, each index up to a size drawn from its (low, high) in sizes,
    in random order, with finite values in the other columns; then, but for
    about a third of the files, one defect."""
    shape = [draw(st.integers(low, high)) for low, high in sizes]
    keys = draw(st.permutations(list(itertools.product(*(range(1, s + 1) for s in shape)))))
    values = st.floats(-1e30, 1e30).map(repr)  # records far below the energy cap
    n_values = header.count(",") + 1 - len(sizes)
    rows = [[str(k) for k in key] + [draw(values) for _ in range(n_values)] for key in keys]
    defect = draw(st.sampled_from(["none", "none", "none", "header", "drop_row", "repeat_row",
                                   "field", "extra_column", "short_row", "blank_line"]))
    row = draw(st.integers(0, len(rows) - 1))
    if defect == "header":
        header = draw(st.sampled_from([header + ",x", header.upper(), " " + header, ""]))
    elif defect == "drop_row":
        del rows[row]
    elif defect == "repeat_row":
        rows.insert(draw(st.integers(0, len(rows))), list(rows[row]))
    elif defect == "field":
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(st.sampled_from(_BAD_FIELDS))
    elif defect == "extra_column":
        rows[row].append("0")
    elif defect == "short_row":
        rows[row].pop()
    elif defect == "blank_line":
        rows.insert(row, [])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return header + newline + "".join(",".join(r) + newline for r in rows)


def _read_outcome(read, path):
    """read(path)'s values as bytes, or the name of the error it raised."""
    try:
        out = read(path)
    except ValueError as exc:  # DataFormatError, or DataSet's own check
        return type(exc).__name__
    return (out.samples if hasattr(out, "samples") else out).tobytes()


@pytest.mark.parametrize("read, oracle, header, sizes", [
    (ftio.read_dataset_csv, csv_read_dataset, "t,n,re,im", [(1, 4), (MIN_SAMPLES, 6)]),
    (ftio.read_track_csv, csv_read_track, "t,nu", [(1, 8)]),
], ids=["dataset", "track"])
@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_readers_match_the_csv_module_reader(tmp_path, read, oracle, header, sizes, data):
    # same values, bit for bit, on valid files; the same error on defective ones
    path = tmp_path / "file.csv"
    path.write_bytes(data.draw(csv_files(header, sizes)).encode())
    assert _read_outcome(read, path) == _read_outcome(oracle, path)


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


def test_a_repeated_command_leaves_no_reference_cycles(tmp_path):
    # main parses every call with the process's one parser, so a second
    # call of each command leaves nothing for the cyclic collector, whose
    # runs would move the peak resident memory
    out, data = ["--out", str(tmp_path)], str(tmp_path / "dataset.csv")
    commands = {"simulate": ["simulate", "--bins", "32", *out],
                "estimate": ["estimate", data, *out],
                "track": ["track", data, str(tmp_path / "hyper.txt"), *out],
                "eval": ["eval", "--bins", "32", "--replicates", "1", *out]}
    left = {}
    for name, argv in commands.items():
        assert run(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert run(argv) == 0
            left[name] = gc.collect()
        finally:
            gc.enable()
    assert left == dict.fromkeys(commands, 0)


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


@pytest.mark.parametrize("flags, line_search", [
    ([], "quadratic_interp"),
    (["--line-search", "golden_section"], "golden_section"),
])
def test_estimate_names_its_line_search(tmp_path, flags, line_search):
    # vignes searches each line by the setting; bfgs backtracks and names none
    assert run(["simulate", "--seed", "3"] + small_args(tmp_path)) == 0
    for strategy, written in (("bfgs", "none"), ("vignes", line_search)):
        assert run(["estimate", str(tmp_path / "dataset.csv"), "--grid=-2.5,2.5,48", *flags,
                    "--strategy", strategy, "--out", str(tmp_path)]) == 0
        fit = ftio.read_key_values(tmp_path / "hyper.txt")
        assert (fit["strategy"], fit["line_search"]) == (strategy, written)


@pytest.mark.parametrize("flags, line_search", [
    ([], "quadratic_interp"),
    (["--line-search", "golden_section"], "golden_section"),
])
def test_eval_names_its_line_search(tmp_path, flags, line_search):
    # as hyper.txt does: the setting under vignes, none under bfgs
    for strategy, written in (("bfgs", "none"), ("vignes", line_search)):
        assert run(["eval", "--replicates", "1", "--grid=-2.5,2.5,48", *flags,
                    "--strategy", strategy] + small_args(tmp_path)) == 0
        summary = ftio.read_key_values(tmp_path / "eval_summary.txt")
        assert (summary["strategy"], summary["line_search"]) == (strategy, written)


@pytest.mark.parametrize("size, low, high, coarse", [
    (128, 0.56, 0.63, True),
    (192, 0.37, 0.42, False),
])
def test_grid_resolution_is_reported_and_a_coarse_grid_warned(tmp_path, capsys, size, low,
                                                               high, coarse):
    # hyper.txt reports the spacing in units of sqrt(r_nu), about 0.6 for
    # the default P=128 fit.  A grid coarser than 0.5 of them gets no
    # warning: such a rule would fire on every default run and predicts no
    # cycle slip, so neither grid prints any warning line
    grid = FrequencyGrid(-2.5, 2.5, size)
    flag = f"--grid=-2.5,2.5,{size}"
    assert run(["simulate", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert run(["estimate", str(tmp_path / "dataset.csv"), flag, "--out", str(tmp_path)]) == 0
    fit = ftio.read_key_values(tmp_path / "hyper.txt")
    resolution = float(fit["grid_resolution"])
    assert resolution == pytest.approx(grid.spacing / np.sqrt(float(fit["r_nu"])))
    assert low <= resolution <= high and (resolution > 0.5) == coarse
    capsys.readouterr()
    assert run(["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"), flag,
                "--out", str(tmp_path)]) == 0
    track_err = capsys.readouterr().err
    assert run(["eval", "--replicates", "1", "--seed", "1", flag, "--out", str(tmp_path)]) == 0
    eval_err = capsys.readouterr().err
    assert "warning:" not in track_err + eval_err


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
    assert fit["stop_reason"] == "decrement" and fit["converged"] == "True"
    assert 0.0 <= float(fit["decrement"]) <= hyperopt.DECREMENT_TOL
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


def test_every_csv_the_commands_write_ends_each_line_crlf(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "LEVELSET_SIZE", 2)
    assert run(["simulate"] + small_args(tmp_path)) == 0
    ds_path = str(tmp_path / "dataset.csv")
    assert run(["estimate", ds_path, "--levelsets", "--grid=-2.5,2.5,48",
                "--out", str(tmp_path)]) == 0
    assert run(["track", ds_path, str(tmp_path / "hyper.txt"), "--grid=-2.5,2.5,48",
                "--out", str(tmp_path)]) == 0
    assert run(["eval", "--replicates", "2", "--grid=-2.5,2.5,48"] + small_args(tmp_path)) == 0
    written = sorted(path.name for path in tmp_path.glob("*.csv"))
    assert written == ["dataset.csv", "eval_replicates.csv", "hessian_map.csv", "levelsets.csv",
                       "ml_aliased.csv", "ml_unwrapped.csv", "truth.csv", "viterbi_map.csv"]
    for name in written:
        lines = (tmp_path / name).read_bytes().split(b"\n")
        assert lines[-1] == b"" and all(line.endswith(b"\r") for line in lines[:-1]), name


def test_estimate_levelsets(tmp_path, monkeypatch):
    inputs = [
        (["--bins", "24", "--r-nu", "2e-3", "--track-range=-0.8,0.8"], (-2.5, 2.5, 48)),
        # SNR 1000: the box's first point (each r / 10) underflows the forward pass
        (["--r-b", "1e-3"], (-2.5, 2.5, 128)),
    ]
    args_file = tmp_path / "run.args"
    args_file.write_text("--levelset-size=2\n")
    # not a setting
    assert exit_code(["estimate", "dataset.csv", "--levelsets", f"@{args_file}"]) == 1
    monkeypatch.setattr(cli, "LEVELSET_SIZE", 2)
    for i, (simulate, grid) in enumerate(inputs):
        out = tmp_path / str(i)
        out.mkdir()
        assert run(["simulate", "--seed", "3", "--out", str(out)] + simulate) == 0
        assert run(["estimate", str(out / "dataset.csv"), "--levelsets", "--out", str(out),
                    "--grid={},{},{}".format(*grid)]) == 0
        lines = (out / "levelsets.csv").read_text().splitlines()
        assert lines[0] == "r_a,r_b,r_nu,value"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 8 and len({row[:3] for row in rows}) == 8
        criterion = FitCriterion(ftio.read_dataset_csv(out / "dataset.csv"), FrequencyGrid(*grid))
        for r_a, r_b, r_nu, value in rows:
            try:
                expected = hyper_nll(criterion, Hyperparameters(r_a, r_b, r_nu))
            except (HyperparameterError, NumericalError):
                expected = np.inf
            assert value == expected


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


@pytest.mark.filterwarnings("error")
def test_track_rejects_an_energy_over_r_b_that_overflows(tmp_path, capsys):
    # alpha and log beta are finite at r_b = 1e-300, but energy / r_b
    # overflows once the samples are scaled by 1e4: a data error, not a
    # RuntimeWarning that -W error turns into a traceback
    assert run(["simulate", "--seed", "1", "--bins", "16", "--out", str(tmp_path)]) == 0
    dataset = ftio.read_dataset_csv(tmp_path / "dataset.csv")
    ftio.write_dataset_csv(tmp_path / "dataset.csv", DataSet(samples=dataset.samples * 1e4))
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": "1.0", "r_b": "1e-300", "r_nu": "0.001"})
    assert run(["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
                "--out", str(tmp_path)]) == 3
    assert "log beta or energy / r_b non-finite" in capsys.readouterr().err
    assert not (tmp_path / "viterbi_map.csv").exists()


def test_track_rejects_a_truth_of_another_length(tmp_path, capsys):
    assert run(["simulate", "--seed", "1", "--bins", "16", "--out", str(tmp_path)]) == 0
    ftio.write_track_csv(tmp_path / "truth.csv", [0.1] * 5)
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": "1.0", "r_b": "0.1", "r_nu": "0.001"})
    assert run(["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
                "--truth", str(tmp_path / "truth.csv"), "--out", str(tmp_path)]) == 3
    assert "truth has 5 bins but dataset has 16" in capsys.readouterr().err
    assert not (tmp_path / "metrics.txt").exists()


def test_estimate_rejects_a_one_bin_dataset(tmp_path, capsys):
    assert run(["simulate", "--bins", "1", "--out", str(tmp_path)]) == 0
    assert run(["estimate", str(tmp_path / "dataset.csv"), "--out", str(tmp_path)]) == 3
    assert "need at least two bins" in capsys.readouterr().err
    assert not (tmp_path / "hyper.txt").exists()


def _one_jump_dataset(path) -> str:
    # a constant track that jumps by half a cycle at bin 64: the fit starts at
    # r_nu = spacing^2, where the transition weight of that jump is
    # exp(-(0.5 / spacing)^2 / 2), exp(-5233) = 0 on the P=1024 grid, so the
    # start leaves no forward probability at bin 64.  On the default P=128
    # grid it is exp(-81)
    truth = np.where(np.arange(128) < 64, 0.1, 0.6)
    ftio.write_dataset_csv(path / "dataset.csv",
                           synthesize_dataset(truth, Hyperparameters(1.0, 1e-3, 1e-6), 4, seed=0))
    return str(path / "dataset.csv")


def test_estimate_exits_4_when_the_fit_start_underflows_the_forward_pass(tmp_path, capsys,
                                                                        monkeypatch):
    # with no retry left the start's underflow ends the fit; the default P=128
    # grid needs none and succeeds
    dataset = _one_jump_dataset(tmp_path)
    monkeypatch.setattr(hyperopt, "START_RETRIES", 0)
    assert run(["estimate", dataset, "--grid=-2.5,2.5,1024", "--out", str(tmp_path)]) == 4
    assert ("numerical error: forward probability underflowed to zero at bin 64"
            in capsys.readouterr().err)
    assert not (tmp_path / "hyper.txt").exists()
    assert run(["estimate", dataset, "--out", str(tmp_path)]) == 0


def test_estimate_retries_a_start_that_underflows_the_forward_pass_at_4_r_nu(tmp_path):
    # the P=1024 start underflows at r_nu = spacing^2 and at 4 spacing^2, and
    # the fit starts at 16 spacing^2 = 3.8e-4 and converges near the true
    # r_b; both retries count as function evaluations
    dataset = _one_jump_dataset(tmp_path)
    grid = FrequencyGrid(-2.5, 2.5, 1024)
    calls, underflows = [], []

    def counted(criterion, hyper):
        calls.append(hyper)
        try:
            return hyper_nll(criterion, hyper)
        except NumericalError:
            underflows.append(hyper.r_nu)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hyperopt, "hyper_nll", counted)
        report = hyperopt.estimate_ml(ftio.read_dataset_csv(dataset), grid)
    assert underflows == pytest.approx([grid.spacing**2, 4 * grid.spacing**2], rel=1e-12)
    assert np.exp(report.trajectory[0][2]) == pytest.approx(16 * grid.spacing**2, rel=1e-12)
    assert report.function_evals == len(calls)
    assert report.stop_reason == "decrement" and report.converged
    assert report.minimizer.r_b == pytest.approx(1e-3, rel=0.05)


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


def test_grid_without_a_start_state_is_a_usage_error(tmp_path, capsys):
    # the start band (-1/2, +1/2] holds no state of a grid on [0.6, 3]; eval
    # stops before it opens eval_replicates.csv
    argv = ["eval", "--replicates", "1", "--bins", "16", "--grid=0.6,3,16", "--out", str(tmp_path)]
    assert exit_code(argv) == 1
    assert "no grid state falls inside the initial band" in capsys.readouterr().err
    assert not (tmp_path / "eval_replicates.csv").exists()


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
    pytest.param(spec, source, id=spec if source == "flag" else f"{spec}-{source}")
    # a non-finite bound or spacing used to warn in linspace and exit 3 later
    # 0.6,3,16 has no state in the start band (-1/2, 1/2]
    for spec in ["-1,1,1", "1,-1,8", "-inf,2.5,128", "-1e308,1e308,128", "0.6,3,16"]
    # "space" and "file-lines" give the flag and its value as two arguments
    for source in ("flag", "file", "space", "file-lines")])
@pytest.mark.parametrize("command", ["estimate", "track"])
def test_invalid_grid_is_a_usage_error(tmp_path, capsys, command, spec, source):
    _valid_inputs(tmp_path)
    inputs = {"estimate": ["dataset.csv"], "track": ["dataset.csv", "hyper.txt"]}[command]
    args_file = tmp_path / "grid.args"
    args_file.write_text(f"--grid\n{spec}\n" if source == "file-lines" else f"--grid={spec}\n")
    setting = {"flag": [f"--grid={spec}"], "space": ["--grid", spec]}.get(source, [f"@{args_file}"])
    argv = [command, *(str(tmp_path / name) for name in inputs), *setting, "--out", str(tmp_path)]
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
    pytest.param("--bins", "0", "a bin count of at least 2", id="bins=0"),
    # the fit needs two bins
    pytest.param("--bins", "1", "a bin count of at least 2", id="bins=1"),
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


def test_simulate_accepts_one_bin(tmp_path):
    # only eval's fit needs two bins
    assert run(["simulate", "--bins", "1", "--out", str(tmp_path)]) == 0
    assert len(ftio.read_track_csv(tmp_path / "truth.csv")) == 1


def _run_without_scipy(tmp_path, argv, check="pass"):
    # scipy is a test dependency only: with sys.modules["scipy"] = None any
    # import of scipy or of one of its submodules raises ImportError.  check
    # runs in the same process after the command
    _valid_inputs(tmp_path)
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import freqtrack.cli\n"
        f"code = freqtrack.cli.main({argv!r} + ['--out', {str(tmp_path)!r}])\n"
        f"{check}\n"
        "sys.exit(code)\n")
    done = _run_python(script)
    assert done.returncode == 0, done.stderr


def test_estimate_never_imports_scipy_linalg(tmp_path):
    _run_without_scipy(tmp_path, ["estimate", str(tmp_path / "dataset.csv"), "--grid=-1,1,8"])


def test_estimate_never_imports_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call: about 9 ms and 2 MB of
    # every estimate process
    _run_without_scipy(tmp_path, ["estimate", str(tmp_path / "dataset.csv")],
                       "if 'numpy.ma' in sys.modules: sys.exit('estimate imported numpy.ma')")


def test_eval_never_imports_numpy_ma(tmp_path):
    # np.median and np.percentile import numpy.ma on their first call: about
    # 12 ms and 2 MB of every eval process
    _run_without_scipy(tmp_path, ["eval", "--replicates", "2", "--bins", "16",
                                  "--grid=-1.5,1.5,32"],
                       "if 'numpy.ma' in sys.modules: sys.exit('eval imported numpy.ma')")


@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40))
@example([0.25])
@example([0.0, 1.0])
@example([3.0, 1.0, 2.0, 0.5, 7.0, 1.0, 2.0, 9.0, 4.0, 6.0, 5.0])
def test_eval_p90_equals_numpy_percentile_bit_for_bit(values):
    # the RMSE values eval summarizes: finite and not negative; its median,
    # hyperopt._median, has its own test
    values = np.array(values)
    assert cli._p90(values).hex() == float(np.percentile(values, 90)).hex()


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
# a subnormal sample makes the one-bin criterion's slope subnormal: backtracking
# along it once divided by a curvature that underflowed to exactly 0
@example(text="t,n,re,im\n1,1,0.0,1.0\n1,2,2.2250738585e-313,0.0\n")
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


def test_track_memory_is_one_table():
    # Viterbi's cost rows are the only stored (T, P) float table: the argmax
    # baseline computes the periodograms in row blocks and keeps only each
    # bin's peak, Viterbi computes its blocks straight into its cost rows
    # and reads its path back from them, and no log-likelihood table is built
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
    assert peak <= 1.1 * n_bins * n_states * 8


def test_estimate_reports_a_fit_stuck_at_its_start(tmp_path):
    # at r_b = 1e-3 the default bfgs fit finds no decrease from its start
    # and accepts no step: stopped, not converged
    assert run(["simulate", "--seed", "3", "--r-b", "1e-3", "--out", str(tmp_path)]) == 0
    assert run(["estimate", str(tmp_path / "dataset.csv"), "--out", str(tmp_path)]) == 0
    fit = ftio.read_key_values(tmp_path / "hyper.txt")
    assert (fit["strategy"], fit["gradient_evals"]) == ("bfgs", "1")
    assert fit["stop_reason"] == "no_decrease" and fit["converged"] == "False"


def test_estimate_reports_an_unresolvable_r_nu(tmp_path, monkeypatch):
    # a constant track started at r_nu = 1e-8, where the P=128 grid's kernel
    # is the identity and the criterion flat, so the fit stays there
    monkeypatch.setattr(hyperopt, "empirical_init",
                        lambda *args: Hyperparameters(0.627, 0.209, 1e-8))
    ds = synthesize_dataset(np.full(32, 0.2), Hyperparameters(1.0, 1e-6, 1e-3), 4, seed=0)
    ftio.write_dataset_csv(tmp_path / "dataset.csv", ds)
    assert run(["estimate", str(tmp_path / "dataset.csv"), "--out", str(tmp_path)]) == 0
    fit = ftio.read_key_values(tmp_path / "hyper.txt")
    assert fit["stop_reason"] == "r_nu_below_resolution" and fit["converged"] == "False"


RMSE_LIMIT = 0.05  # acceptance criterion 6


# the default 128-state grid loses a whole cycle on these seeds; P=192
# tracks each within 0.019.  ROADMAP item 3 raises the default.
_SLIP_GRIDS = [
    pytest.param([], id="default_grid",
                 marks=pytest.mark.xfail(strict=True, reason="cycle slip at P=128")),
    pytest.param(["--grid=-2.5,2.5,192"], id="P=192"),
]


def _eval_hessian_map_rmse(tmp_path, seed, grid) -> float:
    assert run(["eval", "--replicates", "1", "--seed", str(seed), *grid,
                "--out", str(tmp_path)]) == 0
    return float(ftio.read_key_values(tmp_path / "eval_summary.txt")["mean_rmse_hessian_map"])


@pytest.mark.parametrize("grid", _SLIP_GRIDS)
def test_eval_seed_5015_tracks_within_the_acceptance_rmse(tmp_path, grid):
    # at P=128 the fit returns r_nu = 4.87e-3 and the track slips (RMSE 0.98)
    assert _eval_hessian_map_rmse(tmp_path, 5015, grid) < RMSE_LIMIT


# 855009 slipped at P=128 (RMSE 0.992) only while refinement met the start
# band as a wall; reporting the band copy of its descent gives 0.019
@pytest.mark.parametrize("seed, grid", [
    pytest.param(seed, grid.values[0], id=f"{seed}-{grid.id}",
                 marks=() if seed == 855009 else grid.marks)
    for seed in (51, 855009, 858010) for grid in _SLIP_GRIDS])
def test_eval_cycle_slip_seeds_track_within_the_acceptance_rmse(tmp_path, seed, grid):
    # hessian_map RMSE at P=128: 0.996 on 51 and 0.163 on 858010
    assert _eval_hessian_map_rmse(tmp_path, seed, grid) < RMSE_LIMIT


def test_track_and_eval_warn_when_the_viterbi_track_sits_on_the_grid_edge(tmp_path, capsys):
    # a +-3.5 truth tracked on the default +-2.5 grid: the Viterbi track
    # stops at the edge 2.5 on 6 bins, from bin 29 on.  A track inside the
    # grid prints no such line (test_grid_resolution_is_reported_...).
    assert run(["simulate", "--seed", "1", "--track-range=-3.5,3.5", "--out", str(tmp_path)]) == 0
    ds_path, hyper_path = str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt")
    assert run(["estimate", ds_path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["track", ds_path, hyper_path, "--out", str(tmp_path)]) == 0
    track_err = capsys.readouterr().err
    assert run(["eval", "--replicates", "1", "--seed", "1", "--track-range=-3.5,3.5",
                "--out", str(tmp_path)]) == 0
    eval_err = capsys.readouterr().err
    viterbi = ftio.read_track_csv(tmp_path / "viterbi_map.csv")
    assert np.flatnonzero(np.abs(viterbi) == 2.5).tolist()[:1] == [29]
    for err in (track_err, eval_err):
        edge = [line for line in err.splitlines() if "grid edge" in line]
        assert len(edge) == 1 and edge[0].startswith("warning:")
        assert "edge 2.5 at 6 bins, first bin 29:" in edge[0]
        assert "[-2.5, 2.5]; widen --grid" in edge[0]


def test_eval_names_the_first_replicate_on_the_grid_edge(tmp_path, capsys):
    assert run(["eval", "--replicates", "2", "--seed", "1", "--track-range=-3.5,3.5",
                "--bins", "64", "--out", str(tmp_path)]) == 0
    edge = [line for line in capsys.readouterr().err.splitlines() if "grid edge" in line]
    assert len(edge) == 1 and "in 2 of 2 replicates, first seed 1," in edge[0]
