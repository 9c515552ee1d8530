"""The package's only runtime dependency is numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_and_runner_import_without_networkx_or_scipy():
    """Import the CLI plus the run and comm stacks it loads lazily, in a
    fresh interpreter, and check neither dropped package came along."""
    code = (
        "import sys, repro.cli, repro.comm, repro.core.runner\n"
        "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
