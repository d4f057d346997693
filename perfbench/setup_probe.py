"""One set-up of a workload, timed by run.py for ``setup_s``.

    python3 perfbench/setup_probe.py <workload>

Imports imgflib, runs the workload's first warm-up operation, and prints the
monotonic clock (shared by all processes of the machine) when it is done.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].warmup()
print(repr(time.monotonic()))
