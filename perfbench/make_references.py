"""Regenerate perfbench/references.json from the oracles.

    python3 perfbench/make_references.py

The stored values are the quadrature references that the imgf-grid,
metric-sweeps and eps-capacity checks compare against; they depend only on
the fixed workload inputs, never on the routines under test.  Every run
recomputes a seeded sample of them and reports a mismatch as incorrect.
Takes about five minutes on one core.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

COMMAND = "python3 perfbench/make_references.py"


def main() -> int:
    warnings.simplefilter("ignore")
    out = {"command": COMMAND}
    t0 = time.monotonic()
    out["imgf-grid"] = {label: workloads.ImgfGrid.reference(model, s, z)
                        for label, model, s, z in workloads.grid_points()}
    print(f"imgf-grid: {len(out['imgf-grid'])} points, {time.monotonic() - t0:.0f} s",
          file=sys.stderr)
    for w in (workloads.MetricSweeps(), workloads.EpsCapacity()):
        t0 = time.monotonic()
        out[w.name] = {op.key: w.reference(op) for op in w.all_ops()}
        print(f"{w.name}: {len(out[w.name])} operations, {time.monotonic() - t0:.0f} s",
              file=sys.stderr)
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
