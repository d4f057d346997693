"""Per-layer tracing from outside the library.

The traced run rebinds, in each calling module, the name through which it
calls an entry point of the layer below (``apps.opsc``, ``apps._deriv_log_scaled``,
``incomplete.marcum_p`` ...), so the library's own code is unchanged.  Each
wrapper records calls and self time: the span's duration minus the spans of
traced calls made inside it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from imgflib import apps, cli, fading, incomplete, laplace, mixture

# (calling module, name it calls through, label of the layer entry point)
HOOKS = (
    (incomplete, "marcum_p", "specfun.marcum"),
    (incomplete, "marcum_q", "specfun.marcum"),
    (incomplete, "_phi2_unit_first_log", "specfun.phi2_series"),
    (incomplete, "pdf", "fading.pdf"),
    (apps, "pdf", "fading.pdf"),
    (incomplete, "mgf", "fading.mgf"),
    (apps, "mgf", "fading.mgf"),
    (fading, "canonicalize", "fading.canonicalize"),
    (mixture, "canonicalize", "fading.canonicalize"),
    (apps, "mixture_from_model", "mixture.mixture_from_model"),
    (laplace, "invert", "laplace.invert"),
    (incomplete, "imgf_lower", "incomplete.imgf_lower"),
    (apps, "imgf_lower", "incomplete.imgf_lower"),
    (incomplete, "imgf_upper", "incomplete.imgf_upper"),
    (apps, "imgf_upper", "incomplete.imgf_upper"),
    (incomplete, "_upper_tail_quadrature", "incomplete.upper_fallback"),
    (incomplete, "imgf_deriv_s", "incomplete.deriv"),
    (apps, "_deriv_log_scaled", "incomplete.deriv"),
    (apps, "opsc", "apps.opsc"),
    (apps, "eps_outage_capacity", "apps.eps_outage_capacity"),
    (apps, "solve_cutoff", "apps.solve_cutoff"),
    (apps, "capacity_side_info", "apps.capacity_side_info"),
    (apps, "aber_adaptive", "apps.aber_adaptive"),
    (cli, "run_sweep", "cli.run_sweep"),
)
# modules whose scipy quadrature calls are counted, as "<module>.quad"
QUAD_CALLERS = (incomplete, apps)

# (metric, unit) reported by the traced run; calls and seconds are per operation
PER_LAYER = (
    ("specfun.marcum.calls", "1/op"), ("specfun.marcum.self_s", "s/op"),
    ("specfun.phi2_series.calls", "1/op"), ("specfun.phi2_series.self_s", "s/op"),
    ("incomplete.imgf_upper.calls", "1/op"), ("incomplete.imgf_upper.self_s", "s/op"),
    ("incomplete.quad.calls", "1/op"), ("incomplete.quad.self_s", "s/op"),
    ("incomplete.upper_fallback_ratio", "1/call"),
    ("incomplete.imgf_lower.calls", "1/op"), ("incomplete.imgf_lower.self_s", "s/op"),
    ("incomplete.deriv.calls", "1/op"), ("incomplete.deriv.self_s", "s/op"),
    ("apps.opsc.calls", "1/op"), ("apps.opsc.self_s", "s/op"),
    ("apps.eps_outage_capacity.self_s", "s/op"),
    ("apps.solve_cutoff.calls", "1/op"), ("apps.solve_cutoff.self_s", "s/op"),
    ("apps.capacity_side_info.self_s", "s/op"),
    ("apps.quad.calls", "1/op"), ("apps.quad.self_s", "s/op"),
    ("fading.pdf.calls", "1/op"), ("fading.pdf.self_s", "s/op"),
    ("apps.aber_adaptive.self_s", "s/op"),
    ("cli.run_sweep.calls", "1/op"), ("cli.run_sweep.self_s", "s/op"),
    ("fading.canonicalize.calls", "1/op"), ("fading.canonicalize.self_s", "s/op"),
    ("fading.mgf.calls", "1/op"),
    ("mixture.mixture_from_model.calls", "1/op"),
    ("laplace.invert.calls", "1/op"), ("laplace.invert.self_s", "s/op"),
    ("trace.overhead_pct", "%"),
)


class _QuadProxy:
    """Stands in for ``scipy.integrate`` in one calling module."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Install with ``with Tracer() as t:``; the names are restored on exit."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._stack = []
        self._saved = []

    def wrap(self, fn, label: str):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                calls[label] += 1
                self_s[label] += span - child[0]
                if stack:
                    stack[-1][0] += span

        return traced

    def __enter__(self):
        wrapped = {}
        for module, name, label in HOOKS:
            orig = getattr(module, name)
            if (orig, label) not in wrapped:
                wrapped[orig, label] = self.wrap(orig, label)
            self._saved.append((module, name, orig))
            setattr(module, name, wrapped[orig, label])
        for module in QUAD_CALLERS:
            label = f"{module.__name__.rsplit('.', 1)[1]}.quad"
            orig = module.integrate
            self._saved.append((module, "integrate", orig))
            module.integrate = _QuadProxy(orig, self.wrap(orig.quad, label))
        return self

    def __exit__(self, *exc):
        for module, name, orig in reversed(self._saved):
            setattr(module, name, orig)
        self._saved.clear()
        return False

    def per_layer(self, n_ops: int, speed: float) -> dict:
        """Per-operation calls and self seconds of every reported layer, the
        seconds scaled to the reference speed (see calibrate.py)."""
        out = {}
        for metric, unit in PER_LAYER:
            label, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = (self.calls[label] / n_ops, unit)
            elif field == "self_s":
                out[metric] = (self.self_s[label] * speed / n_ops, unit)
        uppers = self.calls["incomplete.imgf_upper"]
        out["incomplete.upper_fallback_ratio"] = (
            self.calls["incomplete.upper_fallback"] / uppers if uppers else 0.0, "1/call")
        return out
