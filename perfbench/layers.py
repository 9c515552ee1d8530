"""Per-layer tracing for the benchmark: spans around calls into each layer.

The tracer patches public functions of the ``repro`` package from the
outside (nothing in ``src/`` knows about it). Each patched call records
one span: its call count, its inclusive time, and its *self* time — the
span minus the time of the traced spans nested inside it. Spans live in
memory and are written out once, when the traced process finishes.

Tracing never changes what the program computes: wrappers call the
original function with the original arguments and return its result,
so the exact counters (events, messages, bytes, iterations, executed
cells, cache hits) of a traced run equal those of an untraced one. The
benchmark checks that.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections import defaultdict
from pathlib import Path

# Exact counters: deterministic for a given seed, compared between the
# traced and the untraced pass.
EXACT = (
    "sim.events",
    "sim.queue_high_water",
    "sim.messages",
    "sim.bytes",
    "core.iterations",
    "experiments.executed",
    "experiments.cache_hits",
)


class LayerTracer:
    """In-memory span recorder keyed by layer metric name."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop every recorded span (in place: wrappers hold references)."""
        for part in (self.calls, self.total, self.self_time, self.counters,
                     self._stack, self._active):
            part.clear()

    # -- spans -----------------------------------------------------------
    def span(self, key: str, fn, *, reentrant: bool = False):
        """Wrap ``fn`` so every call records a span under ``key``.

        A non-reentrant key records only its outermost call (a subclass
        method calling ``super()``, or ``Sequential.forward`` calling its
        layers, is one span). A reentrant key records nested calls too;
        use it only for keys reported by self time, which never double
        counts.
        """
        perf = time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        active, stack = self._active, self._stack

        def traced(*args, **kwargs):
            if not reentrant and active[key]:
                return fn(*args, **kwargs)
            active[key] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                active[key] -= 1
                calls[key] += 1
                total[key] += dt
                self_time[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__module__ = getattr(fn, "__module__", __name__)
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, key: str, *, reentrant: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(key, original, reentrant=reentrant))

    def patch_class_tree(self, base: type, attrs: tuple[str, ...], key: str) -> None:
        """Patch ``attrs`` on ``base`` and on every subclass defining them."""
        seen: set[type] = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__:
                    self.patch(cls, attr, key)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Patch the public calls of every ``repro`` layer."""
        import repro.experiments.executor as executor_mod
        import repro.experiments.session as session_mod
        import repro.nn.losses as losses_mod
        import repro.nn.models  # noqa: F401 - registers every Module subclass
        import repro.perf as perf_pkg
        import repro.perf.predict as predict_mod
        from repro.comm.endpoints import Node
        from repro.comm.ps import PSShard
        from repro.core.runner import DistributedRunner
        from repro.core.worker import LocalComputation
        from repro.data.loader import BatchLoader
        from repro.nn.module import Module
        from repro.nn.optim import FlatSGD, Optimizer
        from repro.sim.costmodel import ComputeModel
        from repro.sim.engine import Engine
        from repro.sim.network import Network, Port

        # sim
        self.patch(Engine, "run", "sim.run")
        self.patch(Network, "transfer", "sim.transfer")
        self.patch(Network, "transfer_cb", "sim.transfer")
        self.patch(Port, "reserve", "sim.port_reserve")
        self.patch(ComputeModel, "iteration_time", "sim.compute_draw")
        self._patch_spawn(Engine)
        # comm
        self.patch(Node, "send", "comm.send", reentrant=True)
        self.patch(Node, "send_nowait", "comm.send", reentrant=True)
        self.patch(Node, "recv", "comm.recv")
        for attr in ("accumulate_entry", "fold_gradient", "apply_gradient", "apply_entry_gradient"):
            self.patch(PSShard, attr, "comm.ps_apply")
        for attr in ("reply_entry_params", "reply_params"):
            self.patch(PSShard, attr, "comm.ps_reply")
        # core
        self._patch_runner(DistributedRunner)
        self.patch(LocalComputation, "gradient", "core.gradient", reentrant=True)
        self.patch(LocalComputation, "apply_gradient", "core.apply")
        self.patch(LocalComputation, "get_params", "core.params")
        self.patch(LocalComputation, "set_params", "core.params")
        # nn
        self.patch_class_tree(Module, ("forward",), "nn.forward")
        self.patch_class_tree(Module, ("backward",), "nn.backward")
        self.patch_class_tree(Module, ("get_flat_parameters", "get_flat_gradients"), "nn.flat_get")
        self.patch_class_tree(Module, ("set_flat_parameters", "set_flat_gradients"), "nn.flat_set")
        self.patch_class_tree(Module, ("zero_grad",), "nn.zero_grad")
        self.patch_class_tree(Optimizer, ("step",), "nn.optim_step")
        self.patch(FlatSGD, "step", "nn.optim_step")
        self.patch_class_tree(losses_mod.Loss, ("forward", "backward"), "nn.loss")
        # data
        self.patch(BatchLoader, "next_batch", "data.next_batch")
        # experiments
        self._patch_map(executor_mod.SweepExecutor)
        self.patch(executor_mod.RunCache, "get", "experiments.cache_get")
        self.patch(executor_mod.RunCache, "put", "experiments.cache_put")
        self.patch(executor_mod, "config_fingerprint", "experiments.fingerprint")
        self.patch(session_mod.SweepSession, "event", "experiments.journal")
        self.patch(session_mod, "replay_journal", "experiments.replay")
        self._patch_payload(executor_mod)
        # perf
        self.patch(predict_mod, "predict_run", "perf.predict")
        perf_pkg.predict_run = predict_mod.predict_run

    def _patch_spawn(self, engine_cls) -> None:
        tracer = self
        original = engine_cls.__dict__["spawn"]

        def spawn(engine, gen, name=""):
            return original(engine, _TimedGenerator(tracer, gen), name or getattr(gen, "__name__", ""))

        self._patches.append((engine_cls, "spawn", original))
        engine_cls.spawn = spawn

    def _patch_runner(self, runner_cls) -> None:
        self.patch(runner_cls, "__init__", "core.build")
        tracer = self
        original = runner_cls.__dict__["run"]

        def run(runner, *args, **kwargs):
            result = original(runner, *args, **kwargs)
            add_counters(tracer.counters, run_counters(runner))
            return result

        self._patches.append((runner_cls, "run", original))
        runner_cls.run = run

    def _patch_map(self, executor_cls) -> None:
        self.patch(executor_cls, "map", "experiments.map")
        tracer = self
        traced_map = executor_cls.__dict__["map"]

        def map_(executor, *args, **kwargs):
            results = traced_map(executor, *args, **kwargs)
            tracer.counters["experiments.executed"] += executor.last_stats.executed
            tracer.counters["experiments.cache_hits"] += executor.last_stats.cache_hits
            return results

        executor_cls.map = map_

    def _patch_payload(self, executor_mod) -> None:
        """Pool workers inherit the patches by fork; each writes its own
        spans to ``$PERFBENCH_TRACE_DIR`` after every cell it runs."""
        out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
        if not out_dir:
            return
        tracer = self
        original = executor_mod._execute_payload
        parent = os.getpid()

        def execute_payload(config):
            pid = os.getpid()
            if pid == parent:
                return original(config)
            if tracer.pid != pid:  # first cell in a forked worker
                tracer.pid = pid
                tracer.reset()
            try:
                return original(config)
            finally:
                tracer.dump(Path(out_dir) / f"worker-{pid}.json")

        execute_payload.__name__ = original.__name__
        execute_payload.__qualname__ = original.__qualname__
        execute_payload.__module__ = original.__module__
        self._patches.append((executor_mod, "_execute_payload", original))
        executor_mod._execute_payload = execute_payload

    # -- output --------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


class _TimedGenerator:
    """Stands in for a process generator; times every step of it."""

    def __init__(self, tracer: LayerTracer, gen) -> None:
        self.send = tracer.span("core.coroutine", gen.send, reentrant=True)
        self.throw = tracer.span("core.coroutine", gen.throw, reentrant=True)
        self.close = gen.close
        self.__name__ = getattr(gen, "__name__", "process")


def run_counters(runner) -> dict[str, int]:
    """Exact counters of one finished :class:`DistributedRunner`."""
    return {
        "sim.events": runner.engine.events_processed,
        "sim.queue_high_water": runner.engine.queue_high_water,
        "sim.messages": runner.network.total_messages,
        "sim.bytes": runner.network.total_bytes,
        "core.iterations": runner.runtime.sample_clock.total_iterations,
    }


def add_counters(into: dict, counters: dict) -> None:
    """Add exact counters of one more run: sums, but the queue's
    high-water mark is the largest one seen."""
    for key, value in counters.items():
        if key == "sim.queue_high_water":
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def merge_snapshots(snapshots: list[dict]) -> dict:
    merged = {"calls": defaultdict(int), "total": defaultdict(float),
              "self": defaultdict(float), "counters": defaultdict(int)}
    for snap in snapshots:
        for part in ("calls", "total", "self"):
            for key, value in snap[part].items():
                merged[part][key] += value
        add_counters(merged["counters"], snap["counters"])
    return {part: dict(values) for part, values in merged.items()}


def snapshot_delta(before: dict, after: dict) -> dict:
    """Spans recorded between two snapshots (exact counters excluded)."""
    delta = {"counters": {}}
    for part in ("calls", "total", "self"):
        delta[part] = {k: v - before[part].get(k, 0) for k, v in after[part].items()}
    return delta


def layer_metrics(snap: dict) -> dict[str, float]:
    """Map a merged span snapshot to the per-layer metric names."""
    calls, total, self_time = snap["calls"], snap["total"], snap["self"]
    counters = snap["counters"]

    def c(key):
        return calls.get(key, 0)

    def t(key):
        return total.get(key, 0.0)

    def s(key):
        return self_time.get(key, 0.0)

    map_self = s("experiments.map")
    return {
        "sim.events": counters.get("sim.events", 0),
        "sim.queue_high_water": counters.get("sim.queue_high_water", 0),
        "sim.run_s": t("sim.run"),
        "sim.dispatch_self_s": s("sim.run"),
        "sim.transfer_calls": c("sim.transfer"),
        "sim.transfer_s": t("sim.transfer"),
        "sim.port_reserve_calls": c("sim.port_reserve"),
        "sim.port_reserve_s": t("sim.port_reserve"),
        "sim.messages": counters.get("sim.messages", 0),
        "sim.bytes": counters.get("sim.bytes", 0),
        "sim.compute_draws": c("sim.compute_draw"),
        "sim.compute_draw_s": t("sim.compute_draw"),
        "comm.send_calls": c("comm.send"),
        "comm.send_self_s": s("comm.send"),
        "comm.recv_calls": c("comm.recv"),
        "comm.ps_apply_calls": c("comm.ps_apply"),
        "comm.ps_apply_s": t("comm.ps_apply"),
        "comm.ps_reply_calls": c("comm.ps_reply"),
        "comm.ps_reply_s": t("comm.ps_reply"),
        "core.iterations": counters.get("core.iterations", 0),
        "core.build_s": t("core.build"),
        "core.coroutine_self_s": s("core.coroutine"),
        "core.gradient_self_s": s("core.gradient"),
        "core.apply_s": t("core.apply"),
        "core.params_s": t("core.params"),
        "nn.forward_s": t("nn.forward"),
        "nn.backward_s": t("nn.backward"),
        "nn.flat_get_calls": c("nn.flat_get"),
        "nn.flat_get_s": t("nn.flat_get"),
        "nn.flat_set_calls": c("nn.flat_set"),
        "nn.flat_set_s": t("nn.flat_set"),
        "nn.zero_grad_s": t("nn.zero_grad"),
        "nn.optim_step_s": t("nn.optim_step"),
        "nn.loss_s": t("nn.loss"),
        "data.batches": c("data.next_batch"),
        "data.next_batch_s": t("data.next_batch"),
        "experiments.map_s": t("experiments.map"),
        "experiments.wait_s": map_self,
        "experiments.executed": counters.get("experiments.executed", 0),
        "experiments.cache_hits": counters.get("experiments.cache_hits", 0),
        "experiments.cache_get_calls": c("experiments.cache_get"),
        "experiments.cache_get_s": t("experiments.cache_get"),
        "experiments.cache_put_calls": c("experiments.cache_put"),
        "experiments.cache_put_s": t("experiments.cache_put"),
        "experiments.fingerprint_s": t("experiments.fingerprint"),
        "experiments.journal_events": c("experiments.journal"),
        "experiments.journal_s": t("experiments.journal"),
        "experiments.replay_s": t("experiments.replay"),
        "perf.predict_calls": c("perf.predict"),
        "perf.predict_s": t("perf.predict"),
    }


# `python -X importtime` lines: "import time: <self us> | <cumulative us> | <name>",
# the name indented by two spaces per nesting level.
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def importtime_metrics(stderr: str) -> dict[str, float]:
    """Startup split from ``python -X importtime`` output."""
    total = repro = numpy = networkx = 0.0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m is None:
            continue
        cumulative = int(m.group(2)) / 1e6
        depth = len(m.group(3)) // 2
        name = m.group(4)
        if depth == 0:
            total += cumulative
            if name == "repro" or name.startswith("repro."):
                repro += cumulative
        if name == "numpy":
            numpy += cumulative
        if name == "networkx":
            networkx += cumulative
    return {
        "import.total_s": total,
        "import.repro_s": repro,
        "import.numpy_s": numpy,
        "import.networkx_s": networkx,
    }
