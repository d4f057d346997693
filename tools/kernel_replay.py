"""Record the gamma-mixture kernel's and the Phi2 series' calls and replay
them bit for bit.

    python3 tools/kernel_replay.py record FILE [--seed N]
    python3 tools/kernel_replay.py compare FILE [--repeats N]

``record`` runs one seeded round of each benchmark workload (perfbench's
operations, after their warm-up, imported and never modified) and stores
every outermost ``specfun._log_mixture_sum`` call, the Marcum functions'
included, and every ``_phi2_unit_first_log`` call made through
``incomplete`` (the name perfbench's tracer times as the Phi2 series): its
arguments and its result, or the type of the exception it raised, with every
float as a hex string.  ``compare`` replays the calls on the sources under
``src/`` next to this script and reports, per workload and kernel, the
calls whose result has the same bits (or the same exception type), the
largest difference between the logs the others return (about their values'
relative difference), the exception mismatches and the minimum over the
repeats of the time the replay took.  It exits 1 unless every call is
identical.  A recording replays only on a kernel with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from imgflib import apps, fading, incomplete, specfun  # noqa: E402

# each recorded kernel (a name in specfun) and the modules whose name for it
# is hooked
_KERNELS = {"_log_mixture_sum": (specfun, incomplete, apps, fading),
            "_phi2_unit_first_log": (incomplete,)}


def _encode(value):
    """JSON form of an argument or result: floats as hex strings."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return {"f": value.hex()}
    if isinstance(value, np.ndarray):
        return {"a": [float(v).hex() for v in value.reshape(-1)], "shape": list(value.shape)}
    if isinstance(value, tuple):
        return {"t": [_encode(v) for v in value], "type": type(value).__name__}
    raise TypeError(f"cannot record a {type(value).__name__}")


def _decode(value):
    if not isinstance(value, dict):
        return value
    if "f" in value:
        return float.fromhex(value["f"])
    if "a" in value:
        return np.array([float.fromhex(v) for v in value["a"]]).reshape(value["shape"])
    items = tuple(_decode(v) for v in value["t"])
    kind = getattr(specfun, value["type"], tuple)
    return kind(*items) if kind is not tuple else items


def _recorder(real, calls: list):
    """real, recording each outermost call into calls."""
    depth = [0]

    def recording(*args, **kwargs):
        depth[0] += 1
        try:
            out = real(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - recorded, then raised again
            out = exc
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            result = ({"raises": type(out).__name__} if isinstance(out, Exception)
                      else _encode(out))
            calls.append({"args": [_encode(a) for a in args],
                          "kwargs": {k: _encode(v) for k, v in kwargs.items()},
                          "result": result})
        if isinstance(out, Exception):
            raise out
        return out

    return recording


def _record_workload(work, seed: int) -> dict[str, list[dict]]:
    """Each kernel's calls in one round of the workload's operations."""
    work.warmup()
    ops = work.ops(seed)
    real = {kernel: getattr(specfun, kernel) for kernel in _KERNELS}
    calls = {kernel: [] for kernel in _KERNELS}
    for kernel, modules in _KERNELS.items():
        recording = _recorder(real[kernel], calls[kernel])
        for module in modules:
            setattr(module, kernel, recording)
    try:
        for op in ops:
            try:
                op.call()
            except Exception:  # noqa: BLE001 - a failed operation; its calls are kept
                pass
    finally:
        for kernel, modules in _KERNELS.items():
            for module in modules:
                setattr(module, kernel, real[kernel])
    return calls


def record(path: Path, seed: int) -> None:
    from perfbench.workloads import WORKLOADS

    out = {"seed": seed, "workloads": {}}
    for name, work in WORKLOADS.items():
        out["workloads"][name] = _record_workload(work, seed)
        print(f"{name}: " + ", ".join(f"{len(calls)} {kernel} calls"
                                      for kernel, calls in out["workloads"][name].items()))
    path.write_text(json.dumps(out))


def _replay(kernel, calls: list[dict]) -> tuple[list, float]:
    """Each call's result (or exception) and the time all of them took."""
    prepared = [([_decode(a) for a in call["args"]],
                 {k: _decode(v) for k, v in call["kwargs"].items()}) for call in calls]
    results = []
    start = time.perf_counter()
    for args, kwargs in prepared:
        try:
            results.append(kernel(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - compared by type
            results.append(exc)
    return results, time.perf_counter() - start


def _floats(value) -> list[float]:
    if isinstance(value, (tuple, list)):
        return [v for item in value for v in _floats(item)]
    return [float(v) for v in np.reshape(value, -1)]


def _distance(got, want) -> float:
    """The largest difference between two results' logs, with the same bits
    counted as 0 (also for two infinities or two NaNs)."""
    worst = 0.0
    for g, w in zip(_floats(got), _floats(want)):
        if g.hex() != w.hex():
            gap = abs(g - w)
            worst = max(worst, gap if gap == gap else math.inf)
    return worst


def compare(path: Path, repeats: int) -> bool:
    recorded = json.loads(path.read_text())["workloads"]
    identical_everywhere = True
    for name, kernel, calls in ((name, kernel, calls) for name, kernels in recorded.items()
                                for kernel, calls in kernels.items()):
        best, results = math.inf, None
        for _ in range(repeats):
            results, elapsed = _replay(getattr(specfun, kernel), calls)
            best = min(best, elapsed)
        same = mismatched = 0
        worst = 0.0
        for call, got in zip(calls, results):
            want = call["result"]
            if isinstance(want, dict) and "raises" in want:
                if isinstance(got, Exception) and type(got).__name__ == want["raises"]:
                    same += 1
                else:
                    mismatched += 1
            elif isinstance(got, Exception):
                mismatched += 1
            else:
                distance = _distance(got, _decode(want))
                same += distance == 0.0
                worst = max(worst, distance)
        identical_everywhere &= same == len(calls)
        print(f"{name} {kernel}: {same}/{len(calls)} identical, worst log difference "
              f"{worst:.3g}, {mismatched} exception mismatches, replay "
              f"{1e3 * best:.1f} ms (min of {repeats})")
    return identical_everywhere


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record one seeded round of every workload")
    rec.add_argument("file", type=Path)
    rec.add_argument("--seed", type=int, default=1)
    cmp_ = sub.add_parser("compare", help="replay a recording on this tree")
    cmp_.add_argument("file", type=Path)
    cmp_.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.file, args.seed)
        return 0
    return 0 if compare(args.file, args.repeats) else 1


if __name__ == "__main__":
    sys.exit(main())
