"""The imgflib benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it uses the sources under ``src/``.  The
workload's operations are built from the seed and run in whole rounds for
at least S seconds and 100 operations, each timed on its own.  Every
output is then checked against a reference computed apart from the routine
under test (see workloads.py); check time enters no metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` rounds alternate
between untraced and traced, and the metrics are the per-layer ones of the
traced rounds plus the tracing overhead.  Each run also writes its result,
the failed operations and the machine facts to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import calibrate  # noqa: E402  (needs numpy and scipy only)
RESULTS = HERE / "results"
SETUP_REPEATS = 3


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str) -> float:
    """Median over fresh processes of the time from process start, before
    ``import imgflib``, to the end of the workload's first warm-up operation.
    Not scaled by the calibration: most of it is importing numpy and scipy in
    a new process, which a kernel timed in this one does not track."""
    spans = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr}")
        spans.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(spans)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, Exception) and isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return False


class Rounds:
    """Runs whole rounds of the operations, timing each one, and keeps the
    first round's outputs; later rounds must reproduce them exactly.  Between
    operations, after every calibrate.EVERY_S of timed work, it samples the
    calibration kernel."""

    def __init__(self, ops):
        self.ops = ops
        self.times = []
        self.sample_of = []  # per timed operation: index of the last kernel sample
        self.calibration = []
        self.first = None
        self.changed = set()
        self.count = 0
        self._since_sample = calibrate.EVERY_S

    def run(self) -> float:
        """One round; returns its timed span, calibration excluded."""
        clock = time.perf_counter
        values = {}
        span = 0.0
        for op in self.ops:
            if self._since_sample >= calibrate.EVERY_S:
                self.calibration.append(calibrate.sample())
                self._since_sample = 0.0
            t0 = clock()
            try:
                value = op.call()
            except Exception as exc:  # noqa: BLE001 - a failed operation, counted
                value = exc
            dt = clock() - t0
            self.times.append(dt)
            self.sample_of.append(len(self.calibration) - 1)
            span += dt
            self._since_sample += dt
            values[op.key] = value
        if self.first is None:
            self.first = values
        else:
            self.changed.update(k for k, v in values.items() if not _same(v, self.first[k]))
        self.count += 1
        return span

    def scaled_times(self) -> list[float]:
        """Operation times at the reference speed (see calibrate.py)."""
        speed = calibrate.local_scales(self.calibration)
        return [t * speed[i] for t, i in zip(self.times, self.sample_of)]


def timed_phase(ops, seconds: float, min_ops: int) -> tuple[Rounds, float]:
    """Whole rounds until `seconds` of timed work and min_ops operations."""
    rounds = Rounds(ops)
    elapsed = 0.0
    while elapsed < seconds or rounds.count * len(ops) < min_ops:
        elapsed += rounds.run()
    return rounds, elapsed


def traced_phase(ops, seconds: float, tracer) -> tuple[Rounds, float, float]:
    """Pairs of an untraced and a traced round until `seconds` of timed work;
    returns the rounds and the time spent in each kind."""
    rounds = Rounds(ops)
    plain = traced = 0.0
    while plain + traced < seconds or rounds.count == 0:
        plain += rounds.run()
        with tracer:
            traced += rounds.run()
    return rounds, plain, traced


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def run(work, seed: int, seconds: float, trace: bool, setup_s: float | None = None):
    """Time whole rounds of the workload's operations, then check every
    output; returns the result that is printed and the record that is kept."""
    from perfbench import trace as tracing, workloads
    import numpy

    ops = work.ops(seed)
    work.warmup()
    if trace:
        tracer = tracing.Tracer()
        rounds, plain_s, traced_s = traced_phase(ops, seconds, tracer)
    else:
        rounds, elapsed = timed_phase(ops, seconds, work.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks: nothing below is timed
    failures = {k: f"raised {type(v).__name__}: {v}"
                for k, v in rounds.first.items() if isinstance(v, Exception)}
    ok_values = {k: v for k, v in rounds.first.items() if not isinstance(v, Exception)}
    refs = workloads.load_references(work.name)
    failures.update(work.check([op for op in ops if op.key in ok_values], ok_values, refs))
    failures.update({k: "output differs from the first round" for k in rounds.changed})
    problems = work.spot_check(refs, numpy.random.default_rng(seed))
    unexpected = sorted(set(failures) - set(work.known_faults))
    attempted = rounds.count * len(ops)
    failed = rounds.count * len(failures)

    speed = calibrate.scale(rounds.calibration)
    if trace:
        n_traced = (rounds.count // 2) * len(ops)
        metrics = tracer.per_layer(n_traced, speed)
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
        raw = {}
    else:
        times = sorted(rounds.times)
        raw = {"ops_per_s": attempted / elapsed,
               "op_p50_ms": 1e3 * statistics.median(times),
               "op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8]}
        scaled = rounds.scaled_times()
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / sum(scaled), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
            "op_p90_ms": (1e3 * statistics.quantiles(scaled, n=10)[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result = {"correct": not unexpected and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": work.name, "seed": seed, "seconds": seconds,
              "trace": trace, "rounds": rounds.count, "ops_per_round": len(ops),
              "machine": machine_facts(), "result": result, "as_measured": raw,
              "calibration": {"reference_s": calibrate.REFERENCE_S,
                              "median_s": statistics.median(rounds.calibration),
                              "samples": len(rounds.calibration), "scale": speed},
              "failed_operations": failures, "unexpected_failures": unexpected,
              "reference_problems": problems}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "imgflib" / "__init__.py").is_file():
        _die(f"no imgflib sources at {SRC}")
    # the workloads are single-threaded: no sweep process pool
    os.environ.pop("IMGFLIB_WORKERS", None)
    warnings.simplefilter("ignore")
    import imgflib
    if Path(imgflib.__file__).resolve().parent != SRC / "imgflib":
        _die(f"imported imgflib from {imgflib.__file__}, not from {SRC}")
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload]

    setup_s = None if args.trace else measure_setup(work.name)
    result, record = run(work, args.seed, args.seconds, args.trace, setup_s)
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(RESULTS / f"{work.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{work.name} seed={args.seed}: {record['rounds']} rounds of "
          f"{record['ops_per_round']} operations")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for key, reason in sorted(record["failed_operations"].items()):
        tag = "known fault" if key in work.known_faults else "UNEXPECTED"
        print(f"  failed [{tag}] {key}: {reason}")
    for problem in record["reference_problems"]:
        print(f"  REFERENCE {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
