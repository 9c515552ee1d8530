"""Run one ``repro`` CLI command in this interpreter, as the benchmark needs it.

Usage::

    python perfbench/cli_shim.py [--stop-after N] [--trace FILE] -- run fig4 --iters 3 ...

``--stop-after N`` plays a user pressing Ctrl-C: once the durable sweep's
journal records its N-th finished run, the process sends itself SIGINT,
which the sweep's signal guard turns into a clean stop (exit 130). Run
the stopped sweep with ``--jobs 1`` so no run is in flight at that point
and exactly N runs are done.

``--trace FILE`` installs the layer tracer before the command runs and
writes its spans to FILE when the command returns. Forked pool workers
write their own spans next to FILE (``FILE.d/worker-<pid>.json``).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stop-after", type=int, default=None)
    parser.add_argument("--trace", type=str, default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tracer = None
    if args.trace:
        from layers import LayerTracer

        workers_dir = Path(args.trace + ".d")
        workers_dir.mkdir(parents=True, exist_ok=True)
        os.environ["PERFBENCH_TRACE_DIR"] = str(workers_dir)
        tracer = LayerTracer()
        tracer.install()

    if args.stop_after is not None:
        from repro.experiments.session import SweepSession

        record_event = SweepSession.event
        done = 0

        def event(session, kind, **fields):
            nonlocal done
            record_event(session, kind, **fields)
            if kind == "run_done":
                done += 1
                if done == args.stop_after:
                    os.kill(os.getpid(), signal.SIGINT)

        SweepSession.event = event

    from repro.cli import main as cli_main

    try:
        return cli_main(command)
    finally:
        if tracer is not None:
            tracer.dump(Path(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
