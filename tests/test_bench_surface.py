"""The repo benchmark's import surface.

``bench/workloads.py`` imports program names and ``bench/layers.py``
wraps ~45 methods by name; a deleted or renamed one breaks the bench
only when it runs.  This imports both in a fresh interpreter, as
``bench/run.py --trace 1`` does, and installs every wrapper.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
import layers
import workloads
from tracer import Tracer
layers.install(Tracer(), time_kernel=True)
print("installed", len(workloads.WORKLOADS))
"""


def test_bench_imports_and_wraps_every_name():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "src"),
         str(ROOT / "bench")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed 4"
