"""The benchmark's workloads. Each call of this script is a fresh interpreter.

    python perfbench/workloads.py setup <workload> <seed>
    python perfbench/workloads.py run <workload> --seed N --seconds S --work DIR [--once | --traced]

``setup`` imports and builds what the workload runs first, prints
``ready`` and exits; ``run.py`` times it from process start. ``run``
repeats the workload's round for ``--seconds`` seconds and then measures
the end-to-end metrics the workload does not own on short probes.
``--once`` runs a single round and ``--traced`` a single round under the
layer tracer; ``run.py`` compares the two. The last stdout line is a
JSON object.

The seed builds every input: it is the ``RunConfig`` seed of every
simulated run, and it picks the bandwidth of ``repro predict`` (``repro
run fig2/fig3/fig4`` take no seed; fig4 runs at its default bandwidth,
because its cost moves with the bandwidth by up to 15%).

Every timed sample is stored as ``[wall value, speed factor]``; see
:class:`Stopwatch` and, for samples timed around another process (CLI
commands, set-up), :func:`reference_time`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

from layers import (
    EXACT,
    LayerTracer,
    add_counters,
    layer_metrics,
    merge_snapshots,
    run_counters,
    snapshot_delta,
)

WORKLOADS = ("full-train", "sweep-cli")

# full-train: every seed's 8-worker BSP run first reaches TARGET_ACCURACY at
# the evaluation after epoch 3 (the one before sits at 0.40 or less, this
# one at 0.51 or more), so time_to_acc_s measures the same work for every
# seed. A finished run must end above ACCURACY_FLOOR (0.79 at seed 0).
TARGET_ACCURACY = 0.45
ACCURACY_FLOOR = 0.70

CLI_TIMEOUT_S = 150
_STATS = re.compile(r"^sweep stats: (\d+) run\(s\): (\d+) cached, (\d+) executed", re.M)
PREDICT_ALGORITHMS = ("bsp", "asp", "ssp", "easgd", "ar-sgd", "gosgd", "ad-psgd")


# -- processes ---------------------------------------------------------------------


def exit_on_signal(signum, frame):
    """SIGTERM handler: unwind, so ``run_group`` stops its children."""
    raise SystemExit(128 + signum)


def run_group(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """``subprocess.run`` in a process group of its own. If the wait ends
    early (timeout, signal), the whole group, pool workers included, is
    stopped and reaped before the exception propagates."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


# -- machine speed -------------------------------------------------------------------

# The calibration loop's median pass time on the machine the bounds were
# tuned on (2 vCPUs, Python 3.11); values are reported at that speed.
CAL_REFERENCE_S = 0.0140


def _calibration_pass() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(30000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


def calibrate(passes: int = 5) -> float:
    """Median wall time of a few passes of a fixed pure-Python loop."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        _calibration_pass()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedClock:
    """The machine's speed, as the latest time of the calibration loop.

    On a shared host the same work takes up to a third longer for
    seconds to minutes at a time, which no median over one run removes.
    So a fixed loop that never touches ``repro`` is timed before the
    first in-process sample and between the stretches of each one (see
    :class:`Stopwatch`). A stretch's speed factor is ``CAL_REFERENCE_S``
    over the mean of the loop times on either side of it. ``run.py``
    reports times multiplied by their factor and rates divided by it:
    the values the samples would have had at the reference speed. The
    raw wall times stay in the record.

    The loop only tracks the speed of the CPU its own process runs on.
    Work in other processes (the CLI steps, set-up) is scaled by
    :func:`reference_time` instead: there the loop's factors made the
    spread across runs wider, not narrower.
    """

    def __init__(self) -> None:
        self.last = calibrate()


class Stopwatch:
    """Wall time of one in-process sample, raw and scaled to reference
    speed. Each ``split()`` closes a stretch: it calibrates and scales
    the stretch by the loop times on either side. Calibration time is
    left out of both totals."""

    def __init__(self, clock: SpeedClock) -> None:
        self.clock = clock
        self.raw = 0.0
        self.scaled = 0.0
        self.t = time.perf_counter()

    def split(self, passes: int = 5) -> None:
        stretch = time.perf_counter() - self.t
        before = self.clock.last
        self.clock.last = calibrate(passes)
        self.raw += stretch
        self.scaled += stretch * 2 * CAL_REFERENCE_S / (before + self.clock.last)
        self.t = time.perf_counter()

    @property
    def factor(self) -> float:
        return self.scaled / self.raw


# What every CLI command and set-up pays before it reaches repro: a fresh
# interpreter that loads numpy and the stdlib modules the CLI uses, then
# runs the calibration loop once. It runs no repro code.
REFERENCE_CODE = (
    "import argparse, concurrent.futures, json, multiprocessing, numpy\n"
    "t = {}\n"
    "for i in range(30000):\n"
    "    t[i & 1023] = t.get(i & 1023, 0) + len(str(i))\n"
)
# Its median wall time on the machine the bounds were tuned on.
REFERENCE_PROC_S = 0.26


def reference_time() -> float:
    """Wall time of one reference process (see REFERENCE_CODE).

    The metrics timed around another process (set-up and the CLI steps)
    move with the machine's speed at starting processes, which the
    in-process loop does not track. Each of their samples is followed by
    a reference process, and its speed factor is REFERENCE_PROC_S over
    that process's time. The host's slow spells last seconds, so only
    the process right beside a sample tracks it: a factor from the
    median over the whole run left the spread as it was.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", REFERENCE_CODE], capture_output=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"reference process exited {proc.returncode}")
    return elapsed


def seed_bandwidth(seed: int) -> int:
    """Gbps for the seed's ``repro predict``: 10..56."""
    return 10 + (seed * 7919) % 47


# -- configs ------------------------------------------------------------------


def fabric_config(seed: int):
    """sweep-cli's in-process engine probe: timing-mode AR-SGD
    ring-of-rings, N=256, over 4 racks of 16 machines, 4:1
    oversubscribed. It takes the inter-rack network path, which no CLI
    grid of the benchmark takes."""
    from repro.experiments.config import timing_config
    from repro.sim.cluster import hierarchical_cluster

    racks = hierarchical_cluster(machines=64, machines_per_rack=16, oversubscription=4)
    return timing_config("ar-sgd", num_workers=256, collective="hring", cluster=racks,
                         measure_iters=4, warmup_iters=2, seed=seed)


def train_configs(seed: int, *, single: bool = False) -> list:
    """full-train: Table II mini runs, 8 workers, BSP and AR-SGD; with
    ``single`` also the 1-worker BSP run of the same task."""
    from repro.experiments.config import mini_accuracy_config

    configs = [
        mini_accuracy_config("bsp", num_workers=8, seed=seed),
        mini_accuracy_config("ar-sgd", num_workers=8, seed=seed),
    ]
    if single:
        configs.append(mini_accuracy_config("bsp", num_workers=1, seed=seed))
    return configs


# -- simulated runs -------------------------------------------------------------


class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok


class Samples(dict):
    """Metric name -> list of ``[wall value, speed factor]`` samples."""

    def add(self, name: str, value: float, factor: float = 1.0) -> None:
        self.setdefault(name, []).append([value, factor])

    def merge(self, other: dict, *, only_missing: bool = False) -> None:
        for name, values in other.items():
            if not (only_missing and name in self):
                self.setdefault(name, []).extend(values)


def simulate(config, tally: Tally, clock: SpeedClock, *, stop_at_target: bool = False,
             tracer: LayerTracer | None = None) -> dict | None:
    """Build and run one config; return its record (None if it failed).

    Full-mode runs note the wall time into ``run()`` at which the
    history first records a test accuracy at or above TARGET_ACCURACY;
    with ``stop_at_target`` the run stops gracefully right there. They
    also split the stopwatch at every evaluation, so a run of seconds is
    scaled stretch by stretch. Under a tracer the record carries this
    run's own layer split.
    """
    from repro.core.history import TrainingHistory
    from repro.core.runner import DistributedRunner
    from repro.experiments.executor import config_fingerprint

    tally.attempted += 1
    label = f"{config.algorithm}/{config.mode} w={config.num_workers}"
    record_eval = TrainingHistory.record
    before = tracer.snapshot() if tracer is not None else None
    reached: list[float] = []  # raw and scaled seconds at the target
    watch: Stopwatch | None = None
    try:
        runner = DistributedRunner(config)

        def record(history, **fields):
            record_eval(history, **fields)
            watch.split(passes=3)
            if not reached and fields["test_accuracy"] >= TARGET_ACCURACY:
                reached.extend((watch.raw, watch.scaled))
                if stop_at_target:
                    runner.runtime.stopping = True

        if config.mode == "full":
            TrainingHistory.record = record
        watch = Stopwatch(clock)
        result = runner.run()
        watch.split()
    except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
        traceback.print_exc()
        tally.failures.append(f"{label}: {exc!r}")
        return None
    finally:
        TrainingHistory.record = record_eval
    progress = runner.runtime.sample_clock
    rec = {
        "label": label,
        # The unwrapped function: the benchmark's own bookkeeping stays
        # out of the traced experiments layer.
        "fingerprint": getattr(config_fingerprint, "__wrapped__", config_fingerprint)(config),
        "wall_s": watch.raw,
        "speed_factor": watch.factor,
        "worker_iterations": progress.total_iterations,
        "samples": progress.total_samples,
        "counters": run_counters(runner),
    }
    if tracer is not None:
        rec["layers"] = layer_metrics(snapshot_delta(before, tracer.snapshot()))
        rec["layers"].update(rec["counters"])
    if config.mode == "timing":
        rec["counters"]["sim_throughput"] = result.throughput
        return rec
    rec["counters"]["virtual_time"] = result.total_virtual_time
    rec["time_to_acc_s"] = reached[0] if reached else None
    rec["time_to_acc_factor"] = reached[1] / reached[0] if reached else None
    rec["final_accuracy"] = result.final_test_accuracy
    rec["final_loss"] = result.train_loss[-1]
    ok = tally.check(bool(reached), f"{label}: never reached accuracy {TARGET_ACCURACY}")
    if not stop_at_target:
        ok &= tally.check(
            result.final_test_accuracy >= ACCURACY_FLOOR,
            f"{label}: final accuracy {result.final_test_accuracy:.4f} < {ACCURACY_FLOOR}",
        )
        ok &= tally.check(math.isfinite(result.train_loss[-1]), f"{label}: loss not finite")
    return rec if ok else None


# -- CLI sweeps -------------------------------------------------------------------


class Cli:
    """Runs ``repro`` commands as a user would, each in a fresh interpreter."""

    def __init__(self, work: Path, tally: Tally, *, traced: bool) -> None:
        self.work = work
        self.tally = tally
        self.traced = traced
        self.trace_files: list[Path] = []
        # Summed over every finished sweep's ``sweep stats:`` line.
        self.counters = {"experiments.executed": 0, "experiments.cache_hits": 0}
        # PYTHONPATH comes from run.py; the default cache stays in the checkout.
        self.env = dict(os.environ, REPRO_CACHE_DIR=str(work / "default-cache"))

    def __call__(self, args: list[str], *, sessions: Path | None = None,
                 stop_after: int | None = None) -> tuple[int, str, float]:
        """Run one command; return its exit code, stdout and wall time."""
        shim: list[str] = []
        if self.traced:
            path = self.work / f"trace-{len(self.trace_files)}.json"
            self.trace_files.append(path)
            shim += ["--trace", str(path)]
        if stop_after is not None:
            shim += ["--stop-after", str(stop_after)]
        if shim:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), *shim, "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        env = dict(self.env)
        if sessions is not None:
            env["REPRO_SESSION_DIR"] = str(sessions)
        self.tally.attempted += 1

        t0 = time.perf_counter()
        proc = run_group(cmd, env, CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        m = _STATS.search(proc.stdout)
        if m:
            self.counters["experiments.cache_hits"] += int(m.group(2))
            self.counters["experiments.executed"] += int(m.group(3))
        return proc.returncode, proc.stdout, wall

    def timed(self, samples: Samples, metric: str, args: list[str], **kwargs) -> tuple[int, str]:
        """Run a command whose wall time is a sample of ``metric``; return
        its exit code and stdout. The sample's speed factor comes from a
        reference process timed right after it (none when traced)."""
        rc, out, wall = self(args, **kwargs)
        factor = 1.0 if self.traced else REFERENCE_PROC_S / reference_time()
        samples.add(metric, wall, factor)
        return rc, out

    def expect(self, args, rc_want: int, rc: int) -> bool:
        return self.tally.check(rc == rc_want, f"repro {' '.join(args)}: exit {rc}, want {rc_want}")

    def stats(self, args, out: str, total: int, cached: int, executed: int) -> bool:
        m = _STATS.search(out)
        got = tuple(int(g) for g in m.groups()) if m else None
        return self.tally.check(
            got == (total, cached, executed),
            f"repro {' '.join(args)}: sweep stats {got}, want {(total, cached, executed)}",
        )


def _table(out: str) -> str:
    """A sweep's stdout without its ``sweep stats:`` line."""
    return "\n".join(line for line in out.splitlines() if not line.startswith("sweep stats:"))


# The sweep-cli round and the smaller probe run by the other workloads:
# (cold/warm grid, its cells, resumed grid, its cells, resumes). The
# probe's resume takes a second, too short for fewer samples.
SWEEP_MAIN = (["run", "fig2", "--iters", "3"], 60, ["run", "fig4", "--iters", "3"], 36, 3)
SWEEP_PROBE = (["run", "fig3", "--iters", "3"], 16, ["run", "fig3", "--iters", "3"], 16, 3)
# Cold sweep, warm sweep and predict run this many times per round, one
# after the other, so their samples spread over the round. The warm
# sweep, the shortest step, runs WARM_REPEATS times after each cold one.
REPEATS = 3
WARM_REPEATS = 2


def cli_steps(cli: Cli, seed: int, work: Path, samples: Samples, grids=SWEEP_MAIN, *,
              single: bool = False):
    """Cold, warm (WARM_REPEATS times) and predict, REPEATS times, each
    time followed by a resume of a durable sweep that is stopped once,
    after the first predict (as many resumes as the grids say, each from
    a copy of the stopped state); then the resumed sweep read back from
    its cache. Every metric's samples so spread over the whole round.

    A generator: it yields after each command, so the caller can run
    other work between commands (see :func:`drain`). It adds the samples
    of the four CLI metrics to ``samples`` as they are taken and returns
    the stdout that later rounds of the same seed must repeat. With
    ``single`` (the two passes of a traced run) each step runs once.
    """
    cold_args, cold_cells, resume_args, resume_cells, resumes = grids
    repeats, warms = (1, 1) if single else (REPEATS, WARM_REPEATS)
    if single:
        resumes = 1
    bw = str(seed_bandwidth(seed))

    predict = ["predict", "all", "--workers", "1024", "--bandwidth", bw]
    half = resume_cells // 2
    tables, resumed_tables = [], []
    for repeat in range(max(repeats, resumes)):
        if repeat < repeats:
            sweep = [*cold_args, "--jobs", "2", "--cache-dir", str(work / f"cache-{repeat}")]
            rc, cold = cli.timed(samples, "sweep_cold_s", sweep)
            cli.expect(sweep, 0, rc) and cli.stats(sweep, cold, cold_cells, 0, cold_cells)
            yield
            tables.append(_table(cold))
            for _ in range(warms):
                rc, warm = cli.timed(samples, "sweep_warm_s", sweep)
                cli.expect(sweep, 0, rc) and cli.stats(sweep, warm, cold_cells, cold_cells, 0)
                tables.append(_table(warm))
                yield
            rc, predicted = cli.timed(samples, "predict_cli_s", predict)
            if cli.expect(predict, 0, rc):
                rows = [line.split("|")[0].strip() for line in predicted.splitlines() if "| 1024" in line]
                cli.tally.check(sorted(rows) == sorted(PREDICT_ALGORITHMS), f"predict rows {rows}")
            yield
        if repeat == 0:
            stopped = [*resume_args, "--session", "--jobs", "1",
                       "--cache-dir", str(work / "cache-stopped")]
            rc, _, _ = cli(stopped, sessions=work / "sessions-stopped", stop_after=half)
            cli.expect(stopped, 130, rc)
            yield
        if repeat < resumes:
            # Each resume starts from its own copy of the stopped sweep's
            # journal and cache.
            cache = work / f"cache-session-{repeat}"
            sessions = work / f"sessions-{repeat}"
            shutil.copytree(work / "cache-stopped", cache)
            shutil.copytree(work / "sessions-stopped", sessions)
            resume = [*resume_args, "--session", "--jobs", "2", "--cache-dir", str(cache)]
            rc, resumed = cli.timed(samples, "sweep_resume_s", resume, sessions=sessions)
            cli.expect(resume, 0, rc) and cli.stats(resume, resumed, resume_cells, half, resume_cells - half)
            resumed_tables.append(_table(resumed))
            yield
    cli.tally.check(len(set(tables)) == 1, "cold and warm sweep stdout differ")
    reread = [*resume_args, "--jobs", "2", "--cache-dir", str(work / "cache-session-0")]
    rc, again, _ = cli(reread)
    cli.expect(reread, 0, rc) and cli.stats(reread, again, resume_cells, resume_cells, 0)
    yield
    cli.tally.check(len(set(resumed_tables + [_table(again)])) == 1,
                    "resumed sweep stdout differs from its cached re-read")
    # The run cache holds one <config_fingerprint>.json per executed cell.
    fingerprints = {
        grid: sorted(path.stem for path in (work / cache).glob("*.json"))
        for grid, cache in (("cold", "cache-0"), ("resumed", "cache-session-0"))
    }
    return {"stdout": {"cold": tables[0], "resumed": resumed_tables[0]}, "fingerprints": fingerprints}


def drain(steps, between) -> dict:
    """Run a :func:`cli_steps` generator to its end, calling ``between``
    after each command; return the generator's result."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value
        between()


# -- probes: the end-to-end metrics a workload does not own ------------------------


class Probes:
    """Short runs measuring the metrics a workload's own round does not.

    ``step()`` runs the next group of probes in the cycle. The workload
    calls it after each of its own runs or commands, so the probe samples
    are spread over the whole run and see the same spells of machine
    speed as the round's own samples. A ``cli`` probe is one command of a
    SWEEP_PROBE round (:func:`cli_steps`); a new round starts when one
    ends, and ``complete`` says whether one has ended yet.
    """

    def __init__(self, seed: int, tally: Tally, clock: SpeedClock, cli: Cli,
                 groups: tuple[tuple[str, ...], ...]) -> None:
        self.seed = seed
        self.tally = tally
        self.clock = clock
        self.cli = cli
        self.groups = groups
        self.steps = 0
        self.samples = Samples()
        self.cli_rounds = 0
        self.cli_round = None

    @property
    def complete(self) -> bool:
        return self.cli_rounds > 0 or not any("cli" in group for group in self.groups)

    def step(self) -> None:
        if not self.groups:
            return
        group = self.groups[self.steps % len(self.groups)]
        self.steps += 1
        for kind in group:
            getattr(self, f"_{kind}")()

    def _train(self) -> None:
        # The 8-worker BSP run, stopped once it reaches TARGET_ACCURACY.
        rec = simulate(train_configs(self.seed)[0], self.tally, self.clock, stop_at_target=True)
        if rec is not None:
            self.samples.add("train_samples_per_s", rec["samples"] / rec["wall_s"], rec["speed_factor"])
            self.samples.add("time_to_acc_s", rec["time_to_acc_s"], rec["time_to_acc_factor"])

    def _sim(self) -> None:
        rec = simulate(fabric_config(self.seed), self.tally, self.clock)
        if rec is not None:
            self.samples.add("sim_iters_per_s", rec["worker_iterations"] / rec["wall_s"],
                             rec["speed_factor"])

    def _cli(self) -> None:
        while True:
            if self.cli_round is None:
                work = self.cli.work / f"probe-{self.cli_rounds}"
                self.cli_round = cli_steps(self.cli, self.seed, work, self.samples, SWEEP_PROBE)
            try:
                next(self.cli_round)
                return
            except StopIteration:
                self.cli_rounds += 1
                self.cli_round = None


# The probe groups each workload runs after each of its own runs or
# commands, in turn. full-train's finish a SWEEP_PROBE round (17
# commands) in two of its rounds and go on into a second one.
PROBE_GROUPS = {
    "full-train": (("train", "cli", "cli", "cli", "cli", "cli", "cli"),),
    "sweep-cli": (("train",), ("sim",)),
}


# -- one workload round -------------------------------------------------------------


def workload_round(workload: str, seed: int, tally: Tally, clock: SpeedClock, cli: Cli,
                   probes: Probes, index: int, *, single: bool,
                   tracer: LayerTracer | None) -> dict:
    """One round; returns its metric samples, runs and exact counters."""
    if workload == "sweep-cli":
        samples = Samples()
        steps = cli_steps(cli, seed, cli.work / f"round-{index}", samples, single=single)
        out = drain(steps, probes.step)
        return {"samples": samples, "runs": [], "counters": dict(cli.counters),
                "stdout": out["stdout"], "fingerprints": out["fingerprints"]}
    configs = train_configs(seed, single=single)
    runs = []
    for cfg in configs:
        runs.append(simulate(cfg, tally, clock, tracer=tracer))
        probes.step()
    runs = [r for r in runs if r is not None]
    samples = Samples()
    multi = [r for r in runs if not r["label"].endswith(" w=1")]
    if multi:
        # One sample per round: total work over total wall time, at the
        # wall-weighted speed factor of its runs.
        wall = sum(r["wall_s"] for r in multi)
        factor = sum(r["wall_s"] * r["speed_factor"] for r in multi) / wall
        samples.add("sim_iters_per_s", sum(r["worker_iterations"] for r in multi) / wall, factor)
        samples.add("train_samples_per_s", sum(r["samples"] for r in multi) / wall, factor)
        for r in multi:
            if r["label"].startswith("bsp"):
                samples.add("time_to_acc_s", r["time_to_acc_s"], r["time_to_acc_factor"])
    for r in runs:
        if r["label"].endswith(" w=1"):
            samples.add("nn.single_worker_samples_per_s", r["samples"] / r["wall_s"], r["speed_factor"])
    counters: dict[str, int] = {}
    for r in runs:
        add_counters(counters, {k: v for k, v in r["counters"].items() if k in EXACT})
    return {"samples": samples, "runs": runs, "counters": counters, "stdout": {}}


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, and with ``children`` of every
    process it waited for (sweep-cli's CLI commands)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


def run(args: argparse.Namespace) -> dict:
    tally = Tally()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    clock = SpeedClock()
    cli = Cli(work, tally, traced=args.traced)
    tracer = None
    if args.traced:
        tracer = LayerTracer()
        tracer.install()
    single = args.once or args.traced
    # Probes only in the end-to-end run. After each of its own commands,
    # sweep-cli alternates its two in-process probes; after each of its
    # own runs, full-train runs a stopped BSP run and 6 CLI probe commands.
    groups: tuple[tuple[str, ...], ...] = ()
    if not single:
        groups = PROBE_GROUPS[args.workload]
    probes = Probes(args.seed, tally, clock, cli, groups)

    rounds: list[dict] = []
    round_walls: list[float] = []
    rss = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.append(workload_round(args.workload, args.seed, tally, clock, cli, probes,
                                     len(rounds), single=single, tracer=tracer))
        round_walls.append(time.perf_counter() - t0)
        if len(rounds) == 1:
            rss = peak_rss_mb(args.workload == "sweep-cli")  # after the same work in every run
        elapsed = sum(round_walls)
        if single or (probes.complete and elapsed + statistics.mean(round_walls) > args.seconds):
            break

    # Every round of one seed must repeat the first exactly.
    first = rounds[0]
    for later in rounds[1:]:
        tally.check(
            [r["counters"] for r in later["runs"]] == [r["counters"] for r in first["runs"]],
            "exact counters differ between rounds of one seed",
        )
        tally.check(later["stdout"] == first["stdout"], "sweep stdout differs between rounds of one seed")

    samples = Samples()
    for rnd in rounds:
        samples.merge(rnd["samples"])

    result: dict = {
        "rounds": len(rounds),
        "round_walls_s": round_walls,
        "wall_s": sum(round_walls),
        "peak_rss_mb": rss,
        "counters": first["counters"],
        "runs": [{k: v for k, v in r.items() if k != "samples"} for r in first["runs"]],
        "sweep_fingerprints": first.get("fingerprints", {}),
    }
    if tracer is not None:
        tracer.unpatch()
        snaps = [tracer.snapshot()]
        for path in cli.trace_files:
            for part in [path, *sorted(Path(str(path) + ".d").glob("worker-*.json"))]:
                if part.exists():
                    snaps.append(json.loads(part.read_text()))
        result["layers"] = layer_metrics(merge_snapshots(snaps))
    elif not args.once:
        # The stopped BSP runs also add time-to-accuracy samples to
        # full-train, whose round holds a single BSP run.
        samples.merge({"time_to_acc_s": probes.samples.pop("time_to_acc_s", [])})
        samples.merge(probes.samples, only_missing=True)
    result["samples"] = samples
    result["attempted"] = tally.attempted
    result["failures"] = tally.failures
    return result


def setup(workload: str, seed: int) -> None:
    """Imports plus every runner the workload's round builds first."""
    if workload == "sweep-cli":
        import repro.cli  # noqa: F401
        import repro.core.runner  # noqa: F401
        import repro.experiments.executor  # noqa: F401
    else:
        from repro.core.runner import DistributedRunner

        for config in train_configs(seed):
            DistributedRunner(config)
    print("ready", flush=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("workload", choices=WORKLOADS)
    s.add_argument("seed", type=int)
    r = sub.add_parser("run")
    r.add_argument("workload", choices=WORKLOADS)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--work", required=True)
    mode = r.add_mutually_exclusive_group()
    mode.add_argument("--once", action="store_true")
    mode.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.seed)
        return 0
    signal.signal(signal.SIGTERM, exit_on_signal)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
