"""freqtrack benchmark: one workload per process, from a seed.

    python3 perfbench/run.py --workload mc_default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_SEED = 0
SETUP_BINS = 16

# Before numpy is imported: one BLAS thread, so that timings do not depend
# on the thread pool's first-call start-up or on other load.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
if not (SRC / "freqtrack" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'freqtrack'} not found; run from a freqtrack source checkout")
sys.path.insert(0, str(SRC))

# The import is the first part of set-up time, so it is timed where it happens.
_start = time.perf_counter()
import freqtrack.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _start

if not Path(freqtrack.cli.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported freqtrack from {freqtrack.cli.__file__}, not from {SRC}")

from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def setup_sample(workload: workloads.Workload, workdir: Path) -> float:
    """Import time plus one warm-up operation at T=16, on fixed inputs."""
    argv = workloads.prepare(replace(workload, bins=SETUP_BINS), SETUP_SEED, workdir)
    rc, seconds = workloads.run_op(argv)
    if rc != 0:
        raise RuntimeError(f"warm-up operation exited with {rc}")
    return IMPORT_S + seconds


def setup_seconds(workload: workloads.Workload, workdir: Path) -> list[float]:
    """This process's set-up, then the same in fresh processes."""
    samples = [setup_sample(workload, workdir)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload.name, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    """What a result depends on besides the code; compare runs only when equal."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "freqtrack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def attempt(workload, seed, argv, workdir) -> Outcome:
    """Run one operation; an operation that raises is counted, not fatal."""
    start = time.perf_counter()
    try:
        rc, seconds = workloads.run_op(argv)
    except Exception:  # noqa: BLE001 -- any crash of the program is a failed operation
        return Outcome(seed, time.perf_counter() - start,
                       error=traceback.format_exc(limit=-1).strip().splitlines()[-1])
    outcome = Outcome(seed, seconds)
    if rc != 0:
        outcome.error = f"exit code {rc}"
    else:
        workloads.check(workload, workdir, outcome)
    return outcome


def op_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def op_count(workload, seconds: float) -> int:
    """Operations in a run, fixed by the time asked for and the workload's
    nominal operation time, so that a seed always runs the same operations
    and every accuracy figure repeats exactly."""
    return max(1, round(seconds / workload.nominal_s))


def measure(workload, seed, seconds, workdir):
    """Returns the outcomes and the peak RSS after the first operation:
    later operations raise it by allocator fragmentation."""
    outcomes, rss_mb = [], None
    for k in range(op_count(workload, seconds)):
        argv = workloads.prepare(workload, op_seed(seed, k), workdir)
        outcomes.append(attempt(workload, op_seed(seed, k), argv, workdir))
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcomes, rss_mb


def lower_quartile(values) -> float:
    """Interference from other work on the machine only ever adds time, so
    the lower quartile of operation times is far steadier than the median."""
    values = list(values)
    return values[0] if len(values) == 1 else statistics.quantiles(
        values, n=4, method="inclusive")[0]


def measure_traced(workload, seed, seconds, workdir):
    """Each operation runs twice on the same inputs, untraced and traced, in
    alternating order.  Returns the untraced outcomes, the traced outcomes
    and the per-layer metrics of each traced operation."""
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    for k in range(op_count(workload, seconds / 2)):
        s = op_seed(seed, k)
        argv = workloads.prepare(workload, s, workdir)
        runs = {}
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            with tracer.installed() if with_spans else contextlib.nullcontext():
                outcome = attempt(workload, s, argv, workdir)
            runs[with_spans] = (outcome, workloads.read_outputs(workload, workdir)
                                if outcome.error is None else None)
        layers.append(tracing.op_metrics(tracer.spans))
        (untraced, untraced_files), (outcome, files) = runs[False], runs[True]
        if outcome.error is None and files != untraced_files:
            outcome.error = "traced run wrote different output files"
        plain.append(untraced)
        traced.append(outcome)
    return plain, traced, layers


def check_metrics(outcomes) -> dict[str, float]:
    """Accuracy of the outputs; deterministic for a given seed."""
    rmse = [o.rmse_hessian_map for o in outcomes if o.rmse_hessian_map is not None]
    hyper = [o.hyper_log10_err for o in outcomes if o.hyper_log10_err is not None]
    return {
        "check.rmse_hessian_map": sum(rmse) / len(rmse) if rmse else 0.0,
        "check.hyper_log10_err": max(hyper) if hyper else 0.0,
        "check.failed_frac": sum(o.failed for o in outcomes) / len(outcomes),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print one set-up sample and exit (used internally)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            print(repr(setup_sample(workload, workdir)))
            return 0
        setup = setup_seconds(workload, workdir)
        if args.trace:
            outcomes, traced, layers = measure_traced(workload, args.seed, args.seconds, workdir)
        else:
            outcomes, rss_mb = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)

    print("env " + json.dumps(environment(), sort_keys=True))
    times = [o.seconds for o in outcomes]
    print(f"workload {workload.name} seed {args.seed}: setup samples "
          f"{[round(s, 4) for s in setup]}, {len(times)} operations "
          f"{[round(t, 4) for t in times]}")
    print(f"op_s_p50 {statistics.median(times):.4f} s, mean throughput "
          f"{workload.bins * len(times) / sum(times):.2f} bins/s")
    checks = check_metrics(outcomes)
    print("checks " + json.dumps(checks))
    everything = outcomes + traced if args.trace else outcomes
    for o in everything:
        if o.failed:
            print(f"FAILED operation seed={o.seed}: {o.error or o.miss}")

    if args.trace:
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values.update(checks)
        values["trace.overhead_frac"] = (lower_quartile(o.seconds for o in traced)
                                         / lower_quartile(times) - 1.0)
        print(f"tracing overhead {values['trace.overhead_frac']:+.2%} of op_s_p25")
        wanted = spec["per_layer"]
    else:
        values = {
            "op_s_p25": lower_quartile(times),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(o.error is None for o in everything),
        "attempted": len(everything),
        "failed": sum(o.failed for o in everything),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
