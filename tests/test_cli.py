import numpy as np
import pytest

from freqtrack import io as ftio
from freqtrack.cli import RunConfig, build_config, main, make_parser, rmse
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
    options = [("--grid", "-4,4,64"), ("--track-range", "-.5,0.5")]
    argv = ["simulate", "--out", str(tmp_path)]
    for option, value in options:
        argv += [option, value] if form == "space" else [f"{option}={value}"]
    cfg = build_config(make_parser().parse_args(argv))
    assert (cfg.nu_min, cfg.nu_max, cfg.grid_size) == (-4.0, 4.0, 64)
    assert (cfg.track_lo, cfg.track_hi) == (-0.5, 0.5)
    assert run(argv + ["--bins", "8"]) == 0


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
    return ["--out", str(tmp_path), "--bins", "24", "--grid=-2.5,2.5,48",
            "--r-nu", "2e-3", "--track-range=-0.8,0.8"]


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
    code = run(["eval", "--replicates", "2", "--strategy", "vignes"]
               + small_args(tmp_path))
    assert code == 0
    summary = ftio.read_key_values(tmp_path / "eval_summary.txt")
    assert float(summary["mean_rmse_hessian_map"]) >= 0.0
    lines = (tmp_path / "eval_replicates.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 replicates


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


def test_exit_code_bad_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("no_such_key=1\n")
    code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
