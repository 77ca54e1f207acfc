"""The benchmark's workloads: untimed input generation, the timed CLI call,
and the output check of every operation.

One operation is one ``freqtrack.cli.main(argv)`` call, so the ``io`` and
``cli`` costs a user pays are part of it.  Inputs are written by the CLI's
own ``simulate`` command from a seed before the clock starts.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

from freqtrack import cli
from freqtrack import io as ftio

R_A, R_B = 1.0, 0.1
RMSE_LIMIT = 0.05        # acceptance criterion 6
LOG10_ERROR_LIMIT = 0.3  # acceptance criterion 8
TRACKS = ("ml_aliased", "ml_unwrapped", "viterbi_map", "hessian_map")


@dataclass(frozen=True)
class Workload:
    """One named workload.  Ranges go to the CLI in ``--flag=lo,hi`` form:
    argparse reads ``--grid -4,4,512`` as two flags."""

    name: str
    command: str            # "eval", "estimate" or "track"
    bins: int
    grid: str | None        # "lo,hi,P"; None keeps the CLI default (-2.5,2.5,128)
    nominal_s: float        # typical operation time on a 2-CPU x86-64 machine
    track_range: str = "-1.5,1.5"
    r_nu: float = 1e-3

    def outputs(self) -> tuple[str, ...]:
        if self.command == "eval":
            return ("eval_replicates.csv", "eval_summary.txt")
        if self.command == "estimate":
            return ("hyper.txt",)
        return tuple(f"{name}.csv" for name in TRACKS) + ("metrics.txt",)


WORKLOADS = {
    w.name: w for w in (
        Workload("mc_default", "eval", bins=128, grid=None, nominal_s=1.3),
        Workload("estimate_wide", "estimate", bins=128, grid="-3.5,3.5,384", nominal_s=8.0),
        Workload("track_long", "track", bins=4096, grid="-4,4,512", nominal_s=5.8,
                 track_range="-3,3", r_nu=1e-4),
    )
}


class OutputError(Exception):
    """The program's outputs are missing, malformed or inconsistent."""


@dataclass
class Outcome:
    """Result of one operation's output check.

    ``error`` marks a wrong or missing output; ``miss`` marks a well-formed
    output whose accuracy falls outside the acceptance thresholds.
    """

    seed: int
    seconds: float
    error: str | None = None
    miss: str | None = None
    rmse_hessian_map: float | None = None
    hyper_log10_err: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.miss is not None


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def prepare(workload: Workload, seed: int, workdir: Path) -> list[str]:
    """Write the operation's inputs into workdir; return the argv to time."""
    out = ["--out", str(workdir)]
    grid = [f"--grid={workload.grid}"] if workload.grid else []
    if workload.command == "eval":
        return ["eval", "--replicates", "1", "--seed", str(seed),
                "--bins", str(workload.bins), *grid, *out]
    rc = _quiet_main(["simulate", "--seed", str(seed), "--bins", str(workload.bins),
                      f"--track-range={workload.track_range}", "--r-a", repr(R_A),
                      "--r-b", repr(R_B), "--r-nu", repr(workload.r_nu), *out])
    if rc != 0:
        raise RuntimeError(f"simulate exited with {rc}")
    dataset = str(workdir / "dataset.csv")
    if workload.command == "estimate":
        return ["estimate", dataset, *grid, *out]
    ftio.write_key_values(workdir / "hyper.txt",
                          {"r_a": repr(R_A), "r_b": repr(R_B), "r_nu": repr(workload.r_nu)})
    return ["track", dataset, str(workdir / "hyper.txt"),
            "--truth", str(workdir / "truth.csv"), *grid, *out]


def run_op(argv: list[str]) -> tuple[int, float]:
    """Time one CLI call; its console output is discarded."""
    start = time.perf_counter()
    rc = _quiet_main(argv)
    return rc, time.perf_counter() - start


def read_outputs(workload: Workload, workdir: Path) -> dict[str, bytes]:
    """Output files by name; the wall-clock line of metrics.txt is dropped."""
    files = {}
    for name in workload.outputs():
        path = workdir / name
        if not path.is_file():
            raise OutputError(f"missing output {name}")
        lines = path.read_bytes().splitlines(keepends=True)
        files[name] = b"".join(l for l in lines if not l.startswith(b"elapsed_seconds="))
    return files


def _finite(raw: dict, key: str) -> float:
    try:
        value = float(raw[key])
    except (KeyError, ValueError) as exc:
        raise OutputError(f"bad or missing {key!r}") from exc
    if not math.isfinite(value):
        raise OutputError(f"non-finite {key} = {value}")
    return value


def _same(a: float, b: float, what: str) -> None:
    if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12):
        raise OutputError(f"{what}: reported {a!r}, recomputed {b!r}")


def _check_eval(workdir: Path, seed: int) -> tuple[float, float]:
    lines = (workdir / "eval_replicates.csv").read_text().splitlines()
    header = "seed," + ",".join(f"rmse_{n}" for n in TRACKS)
    if len(lines) != 2 or lines[0] != header:
        raise OutputError("eval_replicates.csv: expected a header and one replicate row")
    row = dict(zip(header.split(","), lines[1].split(",")))
    if int(row["seed"]) != seed:
        raise OutputError(f"eval_replicates.csv: seed {row['seed']} != {seed}")
    rmse = _finite(row, "rmse_hessian_map")
    summary = ftio.read_key_values(workdir / "eval_summary.txt")
    _same(_finite(summary, "mean_rmse_hessian_map"), rmse, "mean_rmse_hessian_map")
    err = max(_finite(summary, f"mean_abs_log10_error_{k}") for k in ("r_a", "r_b"))
    return rmse, err


def _check_estimate(workload: Workload, workdir: Path) -> float:
    hyper = ftio.read_key_values(workdir / "hyper.txt")
    errors = []
    for key, truth in (("r_a", R_A), ("r_b", R_B), ("r_nu", workload.r_nu)):
        value = _finite(hyper, key)
        if value <= 0:
            raise OutputError(f"hyper.txt: {key} = {value} is not positive")
        _same(_finite(hyper, f"log10_{key}"), math.log10(value), f"log10_{key}")
        errors.append(abs(math.log10(value) - math.log10(truth)))
    for key in ("function_evals", "gradient_evals", "iterations"):
        if int(_finite(hyper, key)) < 1:
            raise OutputError(f"hyper.txt: {key} < 1")
    return max(errors[:2])  # r_nu is left out: a sine truth is not a random walk


def _check_track(workload: Workload, workdir: Path) -> float:
    truth = ftio.read_track_csv(workdir / "truth.csv")
    metrics = ftio.read_key_values(workdir / "metrics.txt")
    for name in TRACKS:
        track = ftio.read_track_csv(workdir / f"{name}.csv")
        if track.size != workload.bins:
            raise OutputError(f"{name}.csv has {track.size} bins, expected {workload.bins}")
        recomputed = math.sqrt(float(((track - truth) ** 2).mean()))
        if not math.isfinite(recomputed):
            raise OutputError(f"{name}.csv holds non-finite frequencies")
        _same(_finite(metrics, f"rmse_{name}"), recomputed, f"rmse_{name}")
    return _finite(metrics, "rmse_hessian_map")


def check(workload: Workload, workdir: Path, outcome: Outcome) -> None:
    """Fill in outcome.error or outcome.miss and the accuracy figures."""
    try:
        if workload.command == "eval":
            outcome.rmse_hessian_map, outcome.hyper_log10_err = _check_eval(workdir, outcome.seed)
        elif workload.command == "estimate":
            outcome.hyper_log10_err = _check_estimate(workload, workdir)
        else:
            outcome.rmse_hessian_map = _check_track(workload, workdir)
    except (OSError, ValueError, OutputError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
        return
    misses = []
    if outcome.rmse_hessian_map is not None and outcome.rmse_hessian_map >= RMSE_LIMIT:
        misses.append(f"hessian_map rmse {outcome.rmse_hessian_map:.4g} >= {RMSE_LIMIT}")
    if outcome.hyper_log10_err is not None and outcome.hyper_log10_err >= LOG10_ERROR_LIMIT:
        misses.append(f"r_a/r_b |log10 error| {outcome.hyper_log10_err:.4g} >= {LOG10_ERROR_LIMIT}")
    outcome.miss = "; ".join(misses) or None
