"""Benchmark runner: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload full-train --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout (it needs ``src/repro``). With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the line before it
the full record (host facts, config fingerprints, exact counters,
tracing overhead), which is also written under ``.perfbench/records/``.
The exit code is 1 when an output check failed and 2 when the workload
could not run at all. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import EXACT, importtime_metrics
from workloads import REFERENCE_PROC_S, WORKLOADS, exit_on_signal, reference_time, run_group

WORKLOADS_PY = Path(__file__).resolve().parent / "workloads.py"
# Set-up is timed this many times before the workload and after it, so
# its samples come from both ends of the run.
SETUP_REPEATS = (1, 2)
CHILD_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_iters_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "time_to_acc_s": "s",
    "sweep_cold_s": "s",
    "sweep_warm_s": "s",
    "sweep_resume_s": "s",
    "predict_cli_s": "s",
}
# Reported at the reference machine speed (workloads.SpeedClock and
# workloads.reference_time): times are multiplied by their sample's speed
# factor raised to FACTOR_EXPONENT, rates divided by it.
RATES = ("sim_iters_per_s", "train_samples_per_s")
# The calibration loop and the reference process speed up and slow down
# more than the workloads do, so the full factor over-corrects. Over 15
# runs (5 seeds of each workload, 2-vCPU VM) the spread across runs of
# most metrics was narrowest at 0.75, against 0.5 and 1.0 (and 0, raw).
FACTOR_EXPONENT = 0.75

# The imports each workload's set-up pays; `python -X importtime` splits them.
SETUP_IMPORTS = {
    "sweep-cli": "import repro.cli, repro.experiments.executor, repro.core.runner",
    "full-train": "import repro.core.runner, repro.experiments.config",
}


class BenchError(RuntimeError):
    """The workload could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    return env


def measure_setup(workload: str, seed: int, repeats: int) -> list[list[float]]:
    """Process start to first runnable object, in fresh interpreters;
    ``[wall seconds, speed factor]`` samples, the factor from a reference
    process timed right after each one (workloads.reference_time)."""
    cmd = [sys.executable, str(WORKLOADS_PY), "setup", workload, str(seed)]

    def start_once() -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up of {workload} failed (exit {proc.returncode})")
        return elapsed

    samples = []
    for _ in range(repeats):
        wall = start_once()
        samples.append([wall, REFERENCE_PROC_S / reference_time()])
    return samples


def run_child(workload: str, seed: int, seconds: float, work: Path, *flags: str) -> dict:
    cmd = [sys.executable, str(WORKLOADS_PY), "run", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--work", str(work), *flags]
    proc = run_group(cmd, child_env(), CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {' '.join(flags)} exited {proc.returncode}")
    return json.loads(lines[-1])


def import_split(workload: str) -> dict[str, float]:
    cmd = [sys.executable, "-X", "importtime", "-c", SETUP_IMPORTS[workload]]
    proc = run_group(cmd, child_env(), CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("import of the workload's modules failed")
    return importtime_metrics(proc.stderr)


def host_facts() -> dict:
    sha = None
    if (Path.cwd() / ".git").exists():  # a checkout without .git has no sha
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "platform": platform.platform(),
    }


def end_to_end(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    setup = measure_setup(workload, seed, SETUP_REPEATS[0])
    child = run_child(workload, seed, seconds, work)
    setup += measure_setup(workload, seed, SETUP_REPEATS[1])
    samples = child.pop("samples")
    samples["setup_s"] = setup
    metrics = {"peak_rss_mb": {"value": child["peak_rss_mb"], "unit": UNITS["peak_rss_mb"]}}
    raw = {}
    for name, unit in UNITS.items():
        if name == "peak_rss_mb":
            continue
        pairs = samples.get(name)
        if not pairs:
            child["failures"].append(f"no samples of {name}")
            continue
        if name in RATES:
            values = [value / factor ** FACTOR_EXPONENT for value, factor in pairs]
        else:
            values = [value * factor ** FACTOR_EXPONENT for value, factor in pairs]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        raw[name] = statistics.median(value for value, _ in pairs)
    child.update(
        raw_wall_medians=raw,
        sample_counts={name: len(pairs) for name, pairs in samples.items()},
        samples=samples,
    )
    return metrics, child


def per_layer(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    plain = run_child(workload, seed, seconds, work / "plain", "--once")
    traced = run_child(workload, seed, seconds, work / "traced", "--traced")
    failures = plain["failures"] + traced["failures"]
    layers = traced["layers"]
    for key in EXACT:
        if key not in plain["counters"]:
            continue  # counted inside the CLI's processes, only when traced
        want = plain["counters"][key]
        if layers.get(key, 0) != want:
            failures.append(f"traced {key} = {layers.get(key, 0)}, untraced {want}")
    single = plain["samples"].get("nn.single_worker_samples_per_s", [[0.0, 1.0]])
    layers["nn.single_worker_samples_per_s"] = single[0][0]
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    layers.update(import_split(workload))
    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    record = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failures": failures,
        "counters": plain["counters"],
        "runs": plain["runs"],
        "traced_runs": traced["runs"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
    }
    return metrics, record


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name == "sim.bytes":
        return "bytes"
    return "count"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, exit_on_signal)

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            metrics, record = per_layer(args.workload, args.seed, args.seconds, work)
        else:
            metrics, record = end_to_end(args.workload, args.seed, args.seconds, work)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:  # BenchError too
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = max(record["attempted"], 1)
    failed = min(len(record["failures"]), attempted)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        host=host_facts(), metrics=metrics,
    )
    records = Path.cwd() / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    for failure in record["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
