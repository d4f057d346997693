"""Split the cost of a one-point sweep into its parts.

    python3 tools/sweep_cost.py [--passes N] [--seed N] [--workload NAME ...]

For each one-point spec of the ``metric-sweeps`` and ``eps-capacity``
benchmark workloads (perfbench's operations, in their seeded order, after
their warm-up, imported and never modified) it prints, per metric and for
the whole workload, what a point costs in microseconds:

- ``run_sweep``: the whole ``cli.run_sweep`` call on the spec;
- ``parse``: the metric's parse of the point's ``fixed`` block;
- ``outside``: the metric's evaluation on the parsed arguments, less the
  ``kernel``, its outermost ``specfun._log_mixture_sum`` calls (``calls``
  counts them per point);
- ``rest``: ``run_sweep`` less the parse and the metric, the sweep's own
  glue (axis values, worker count, row, sort);
- ``off-kernel``: ``run_sweep`` less the kernel.

All of them come from the same ``run_sweep`` calls, with the parse, the
evaluation and the kernel wrapped in timers for the time of the run; each
wrapper's own cost lands in the column that calls it, so the columns read
a little higher than an unwrapped run would.  Each figure is the minimum
over ``--passes`` passes of its mean over the points; every pass runs the
points in the same order, so the caches see what a benchmark round sees.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from imgflib import apps, cli, fading, incomplete, specfun  # noqa: E402

# the modules whose name for the kernel is wrapped (as tools/kernel_replay.py)
_KERNEL_CALLERS = (specfun, incomplete, apps, fading)
_COLUMNS = ("run_sweep", "parse", "outside", "calls", "kernel", "rest", "off-kernel")


def _points(work, seed: int) -> list[tuple[str, dict, str, float]]:
    """(metric, fixed block, axis field, axis value) of each operation, as
    perfbench's _one_point_ops builds its spec from them."""
    return [(metric, fixed, field, v) for metric, _, field, v, fixed in
            (op.data for op in work.ops(seed))]


def _spec(metric: str, fixed: dict, field: str, v: float) -> dict:
    return {"metric": metric, "curve": "",
            "axis": {"field": field, "start": v, "stop": v, "step": 1.0}, "fixed": fixed}


class _Timer:
    """Seconds and outermost calls of each wrapped function since reset."""

    def __init__(self):
        self.seconds, self.calls, self.depth = {}, {}, {}

    def wrap(self, name: str, real):
        self.depth[name] = 0

        def timed(*args, **kwargs):
            self.depth[name] += 1
            start = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                self.depth[name] -= 1
                if not self.depth[name]:
                    self.seconds[name] += time.perf_counter() - start
                    self.calls[name] += 1

        return timed

    def reset(self) -> None:
        self.seconds = dict.fromkeys(self.depth, 0.0)
        self.calls = dict.fromkeys(self.depth, 0)


def _pass(points) -> list[dict[str, float]]:
    """Each point's columns, in seconds (calls as a count), from one
    run_sweep call with its metric's parse and evaluation and the kernel
    wrapped (a wrapper's own cost lands in the column that calls it)."""
    timer, real = _Timer(), (cli._METRICS, specfun._log_mixture_sum)
    cli._METRICS = {name: entry._replace(parse=timer.wrap("parse", entry.parse),
                                         evaluate=timer.wrap("metric", entry.evaluate))
                    for name, entry in real[0].items()}
    kernel = timer.wrap("kernel", real[1])
    for module in _KERNEL_CALLERS:
        module._log_mixture_sum = kernel
    out = []
    try:
        for point in points:
            spec = _spec(*point)
            timer.reset()
            start = time.perf_counter()
            cli.run_sweep(spec)
            whole = time.perf_counter() - start
            seconds = timer.seconds
            out.append({"run_sweep": whole, "parse": seconds["parse"],
                        "outside": seconds["metric"] - seconds["kernel"],
                        "calls": timer.calls["kernel"], "kernel": seconds["kernel"],
                        "rest": whole - seconds["parse"] - seconds["metric"],
                        "off-kernel": whole - seconds["kernel"]})
    finally:
        cli._METRICS = real[0]
        for module in _KERNEL_CALLERS:
            module._log_mixture_sum = real[1]
    return out


def measure(work, seed: int, passes: int) -> dict[str, dict[str, float]]:
    """Each metric's (and 'all' points') columns, per point, in microseconds
    (calls as a count), each the minimum over the passes of its mean."""
    work.warmup()
    points = _points(work, seed)
    groups = {"all": range(len(points))}
    for i, point in enumerate(points):
        groups.setdefault(point[0], []).append(i)
    best = {name: dict.fromkeys(_COLUMNS, math.inf) for name in groups}
    for _ in range(passes):
        rows = _pass(points)
        for name, idx in groups.items():
            for column in _COLUMNS:
                mean = sum(rows[i][column] for i in idx) / len(idx)
                best[name][column] = min(best[name][column],
                                         mean if column == "calls" else 1e6 * mean)
    for name, idx in groups.items():
        best[name]["points"] = len(idx)
    return best


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    names = ("metric-sweeps", "eps-capacity")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=names, action="append")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    for name in args.workload or names:
        table = measure(WORKLOADS[name], args.seed, args.passes)
        print(f"{name}: microseconds per point (calls: kernel calls per point), "
              f"min of {args.passes} passes")
        print(f"  {'metric':<16}{'points':>7}" + "".join(f"{c:>11}" for c in _COLUMNS))
        for metric, row in table.items():
            print(f"  {metric:<16}{row['points']:>7}"
                  + "".join(f"{row[c]:>11.2f}" for c in _COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
