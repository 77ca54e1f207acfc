import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from freqtrack import io as ftio
from freqtrack.cli import RunConfig, build_config, main, make_parser, rmse
from freqtrack.hyperopt import hyper_nll
from freqtrack.markov import FrequencyGrid
from freqtrack.signal import Hyperparameters, synthesize_dataset


def run(argv):
    return main(argv)


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


@pytest.mark.parametrize("form", ["space", "equals"])
def test_negative_ranges_accepted(tmp_path, form):
    def with_range(argv, option, value):
        return argv + ([option, value] if form == "space" else [f"{option}={value}"])

    simulate = with_range(["simulate", "--out", str(tmp_path), "--bins", "8"],
                          "--track-range", "-.5,0.5")
    cfg = build_config(make_parser().parse_args(simulate))
    assert (cfg.track_lo, cfg.track_hi) == (-0.5, 0.5)
    assert run(simulate) == 0
    ftio.write_key_values(tmp_path / "hyper.txt", {"r_a": "1.0", "r_b": "0.1", "r_nu": "1e-3"})
    track = with_range(["track", str(tmp_path / "dataset.csv"), str(tmp_path / "hyper.txt"),
                        "--out", str(tmp_path)], "--grid", "-4,4,64")
    cfg = build_config(make_parser().parse_args(track))
    assert (cfg.nu_min, cfg.nu_max, cfg.grid_size) == (-4.0, 4.0, 64)
    assert run(track) == 0


def test_config_file_with_flag_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n_bins=32\nseed=5\nr_b=0.2\n")
    parser = make_parser()
    args = parser.parse_args(
        ["simulate", "--config", str(cfg_file), "--seed", "9", "--out", str(tmp_path)]
    )
    cfg = build_config(args)
    assert cfg.n_bins == 32  # from file
    assert cfg.seed == 9  # flag wins
    assert cfg.r_b == 0.2
    assert cfg.r_a == RunConfig().r_a  # untouched default


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
    assert (tmp_path / "hyper.txt").exists()
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
    assert run(["eval", "--replicates", "0"] + small_args(tmp_path)) == 1


def test_estimate_levelsets(tmp_path):
    assert run(["simulate", "--seed", "3"] + small_args(tmp_path)) == 0
    config = tmp_path / "run.cfg"
    config.write_text("levelset_size=2\n")
    assert run(["estimate", str(tmp_path / "dataset.csv"), "--levelsets", "--config", str(config),
                "--out", str(tmp_path), "--grid=-2.5,2.5,48"]) == 0
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


def test_exit_code_bad_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("no_such_key=1\n")
    code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1


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
