"""The four workloads: their inputs, the library call each operation makes,
and the check of each output against a reference computed apart from it.

An operation is one user-visible evaluation: one IMGF value, one grid point
submitted to ``cli.run_sweep`` as a one-point spec, or one
``capacity_side_info`` call.  A round is the workload's full list of
operations; runs attempt whole rounds only, so the share of failed
operations is the same in every run.

Every operation looks its library entry point up at call time (``incomplete.
imgf_lower``, never a bound reference), so that the traced run, which
rebinds those names, sees the same calls.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import optimize

from imgflib import apps, cli, fading, incomplete
from imgflib.fading import FadingModel, db_to_linear, model_from_json
from imgflib.oracles import quad_imgf

from . import oracles

REFERENCES = Path(__file__).resolve().parent / "references.json"

# acceptance tolerances: closed forms vs quadrature, the inversion route,
# lower/upper complementarity, and the capacity dual route
CLOSED_FORM_RTOL = 1e-8
INVERSION_RTOL = 1e-6
COMPLEMENT_RTOL = 1e-10
CAPACITY_RTOL = 1e-6
CUTOFF_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    key: str                      # unique within the workload; names the operation
    call: Callable[[], float]     # the timed call into the library
    data: tuple = ()              # inputs the check needs


def _rel(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / max(abs(ref), 1e-300)


def _seeded_order(ops: list[Op], seed: int) -> list[Op]:
    perm = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in perm]


class Workload:
    """A workload supplies name, warmup(), ops(seed) and check(ops, values,
    refs) -> {failed key: reason}."""

    name: str
    min_ops = 100          # operations per run at least, for a 90th percentile
    known_faults: dict = {}  # operation key -> the fault that makes it fail

    def spot_check(self, refs: dict, rng) -> list[str]:
        """Stored references that a fresh oracle computation contradicts."""
        return []


def load_references(workload: str) -> dict:
    """Stored references of a workload; empty for one that computes its own."""
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


# ---------------------------------------------------------------------------
# imgf-grid
# ---------------------------------------------------------------------------

# the parameter sets of the acceptance grid (tests/test_acceptance.py)
KAPPAS = (0.5, 1.5, 10.0)
MUS = (0.5, 1.0, 2.0, 6.0)
MS = (0.5, 2.0, 12.0)
ETAS = (0.04, 0.5, 0.9)
S_GRID = (-5.0, -1.0, -0.1, 0.0)
Z_RATIOS = (0.1, 1.0, 5.0, 20.0)
GBARS = (1.0, 10.0)
GENERIC_SHARE = 4  # one point in four also goes through imgf_generic


def grid_models() -> list[tuple[str, FadingModel]]:
    out = []
    for g in GBARS:
        for k, mu, m in itertools.product(KAPPAS, MUS, MS):
            out.append((f"kms({k:g},{mu:g},{m:g})@{g:g}",
                        FadingModel.kappa_mu_shadowed(k, mu, m, g)))
        for k, m in itertools.product(KAPPAS, MS):
            out.append((f"rs({k:g},{m:g})@{g:g}", FadingModel.rician_shadowed(k, m, g)))
        for k, mu in itertools.product(KAPPAS, MUS):
            out.append((f"km({k:g},{mu:g})@{g:g}", FadingModel.kappa_mu(k, mu, g)))
        for e, mu in itertools.product(ETAS, MUS):
            out.append((f"em({e:g},{mu:g})@{g:g}", FadingModel.eta_mu(e, mu, g)))
    return out


def grid_points():
    """(point label, model, s, zeta) over the whole acceptance grid; the
    deep-tail corner s=-5, zeta=20*mean is part of every model's points."""
    for label, model in grid_models():
        for s in S_GRID:
            for zr in Z_RATIOS:
                yield f"{label} s={s:g} z={zr:g}m", model, s, zr * model.mean_snr


class ImgfGrid(Workload):
    name = "imgf-grid"
    # kappa-mu upper tails deep in the tail: the Poisson window of
    # specfun._marcum_terms is centred on the mode of a^2/2, while the
    # summand peak lies at much larger k when b >> a
    known_faults = {f"upper {p}": "specfun._marcum_terms window misses the summand peak"
                    for p in (
                        "km(1.5,6)@1 s=-5 z=20m", "km(10,2)@1 s=-5 z=20m",
                        "km(10,2)@1 s=-1 z=20m", "km(10,2)@1 s=-0.1 z=20m",
                        "km(10,2)@1 s=0 z=20m", "km(10,6)@1 s=-5 z=5m",
                        "km(1.5,6)@10 s=-1 z=20m", "km(10,1)@10 s=-1 z=20m",
                        "km(10,2)@10 s=-5 z=5m", "km(10,2)@10 s=-1 z=20m",
                        "km(10,2)@10 s=-0.1 z=20m", "km(10,2)@10 s=0 z=20m",
                        "km(10,6)@10 s=-5 z=5m", "km(10,6)@10 s=-1 z=5m")}

    def warmup(self) -> None:
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, 10.0)
        incomplete.imgf_lower(model, -1.0, 10.0)

    def ops(self, seed: int) -> list[Op]:
        points = list(grid_points())
        generic = set(np.random.default_rng(seed).choice(
            len(points), len(points) // GENERIC_SHARE, replace=False).tolist())
        out = []
        for i, (label, model, s, z) in enumerate(points):
            data = (label, model, s, z)
            out.append(Op(f"lower {label}", lambda m=model, s=s, z=z:
                          incomplete.imgf_lower(m, s, z), data))
            out.append(Op(f"upper {label}", lambda m=model, s=s, z=z:
                          incomplete.imgf_upper(m, s, z), data))
            out.append(Op(f"deriv1 {label}", lambda m=model, s=s, z=z:
                          incomplete.imgf_deriv_s(m, s, z, 1), data))
            if i in generic:
                image = fading.laplace_image(model)
                out.append(Op(f"generic {label}", lambda im=image, s=s, z=z:
                              incomplete.imgf_generic(im, s, z), data))
        return _seeded_order(out, seed)

    @staticmethod
    def reference(model: FadingModel, s: float, z: float) -> list[float]:
        return [quad_imgf(model, s, z, "lower", tol=1e-11),
                quad_imgf(model, s, z, "upper", tol=1e-11),
                oracles.upper_moment(model, s, z, 1)]

    def check(self, ops: list[Op], values: dict, refs: dict) -> dict:
        bad = {}
        for op in ops:
            v = values[op.key]
            kind, label = op.key.split(" ", 1)
            _, model, s, z = op.data
            lower_ref, upper_ref, deriv_ref = refs[label]
            if kind == "lower":
                err = _rel(v, lower_ref)
                if model.kind is fading.Kind.ETA_MU:
                    direct = incomplete.imgf_lower_eta_mu_direct(
                        model.eta, model.mu, model.mean_snr, s, z)
                    err = max(err, _rel(v, direct))
                tol = CLOSED_FORM_RTOL
            elif kind == "upper":
                err = _rel(v, upper_ref)
                tol = CLOSED_FORM_RTOL
                lower = values.get(f"lower {label}")
                if isinstance(lower, float):
                    mv = fading.mgf(model, s)
                    if abs(lower + v - mv) > COMPLEMENT_RTOL * mv:
                        bad[op.key] = f"lower + upper misses M(s) by {abs(lower + v - mv) / mv:.2e}"
                        continue
            elif kind == "deriv1":
                err, tol = _rel(v, deriv_ref), CLOSED_FORM_RTOL
            else:
                err, tol = _rel(v, lower_ref), INVERSION_RTOL
            if not err <= tol:
                bad[op.key] = f"relative error {err:.2e} > {tol:g}"
        return bad

    def spot_check(self, refs: dict, rng) -> list[str]:
        points = list(grid_points())
        problems = []
        for i in rng.choice(len(points), 3, replace=False):
            label, model, s, z = points[i]
            fresh = self.reference(model, s, z)
            if any(_rel(a, b) > 1e-9 for a, b in zip(fresh, refs[label])):
                problems.append(f"stored reference for {label} is stale")
        return problems


# ---------------------------------------------------------------------------
# one-point sweeps (metric-sweeps, eps-capacity)
# ---------------------------------------------------------------------------

def _axis(start: float, stop: float, step: float) -> list[float]:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _one_point_ops(metric: str, curve: str, field: str, values, fixed: dict) -> list[Op]:
    out = []
    for v in values:
        spec = {"metric": metric, "curve": curve,
                "axis": {"field": field, "start": v, "stop": v, "step": 1.0},
                "fixed": fixed}
        out.append(Op(f"{metric} {curve} {field}={v:g}",
                      lambda spec=spec: cli.run_sweep(spec)[0]["value"],
                      (metric, curve, field, v, fixed)))
    return out


def _with_field(fixed: dict, field: str, value: float) -> dict:
    tree = json.loads(json.dumps(fixed))
    node = tree
    parts = field.split(".")
    for p in parts[:-1]:
        node = node[p]
    node[parts[-1]] = value
    return tree


RAYLEIGH_EVE_15DB = {"kind": "rayleigh", "mean_snr_db": 15.0}
# the four-region constellation-switching scheme of the README
ABER_THRESHOLDS = (10.6, 53.0, 222.5, 900.7)
ABER_BITS = (2, 4, 6, 8)


def secrecy_bobs() -> list[tuple[str, dict]]:
    """Legitimate links of presets fig1-fig5."""
    out = []
    for fig, kappa in (("fig1", 1.5), ("fig2", 10.0)):
        for mu, m in itertools.product((1, 2, 6), (0.5, 12)):
            out.append((f"{fig} mu={mu} m={m}", {"kind": "kappa-mu-shadowed",
                                                  "kappa": kappa, "mu": mu, "m": m}))
    for K, m in itertools.product((1.5, 10), (0.5, 12)):
        out.append((f"fig3 K={K} m={m}", {"kind": "rician-shadowed", "K": K, "m": m}))
    for k, mu in itertools.product((1.5, 10), (1, 2, 6)):
        out.append((f"fig4 kappa={k} mu={mu}", {"kind": "kappa-mu", "kappa": k, "mu": mu}))
    for eta, mu in itertools.product((0.04, 0.9), (1, 2, 4)):
        out.append((f"fig5 eta={eta} mu={mu}", {"kind": "eta-mu", "eta": eta, "mu": mu}))
    return out


class MetricSweeps(Workload):
    name = "metric-sweeps"
    known_faults = {
        f"aber kms(1.5,2,2) channel.mean_snr_db={db}":
            "apps.aber_adaptive forms region sums as differences of lower IMGFs and CDFs, "
            "which cancel at low mean SNR"
        for db in (0, 2)}
    snr_axis = _axis(0.0, 60.0, 2.0)

    def warmup(self) -> None:
        self.all_ops()[0].call()

    def all_ops(self) -> list[Op]:
        out = []
        for label, bob in secrecy_bobs():
            out += _one_point_ops("opsc", label, "bob.mean_snr_db", self.snr_axis,
                                  {"bob": {**bob, "mean_snr_db": 0.0},
                                   "eve": RAYLEIGH_EVE_15DB, "rate_rs": 0.1})
        # an interferer with integer m > 1 drives k >= 1 derivative series
        out += _one_point_ops(
            "op-interference", "kms(1.5,2.3,2) nakagami(3)@5dB th=1", "desired.mean_snr_db",
            self.snr_axis,
            {"desired": {"kind": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2.3, "m": 2.0,
                         "mean_snr_db": 0.0},
             "interference": {"kind": "nakagami-m", "m": 3.0, "mean_snr_db": 5.0},
             "gamma_th": 1.0})
        out += _one_point_ops(
            "aber", "kms(1.5,2,2)", "channel.mean_snr_db", self.snr_axis,
            {"channel": {"kind": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2.0, "m": 2.0,
                         "mean_snr_db": 0.0},
             "thresholds": list(ABER_THRESHOLDS), "bits_per_region": list(ABER_BITS)})
        return out

    def ops(self, seed: int) -> list[Op]:
        return _seeded_order(self.all_ops(), seed)

    @staticmethod
    def reference(op: Op) -> float:
        metric, _, field, v, fixed = op.data
        fixed = _with_field(fixed, field, v)
        if metric == "opsc":
            eve = model_from_json(fixed["eve"])
            return oracles.secrecy_outage_rayleigh_eve(
                model_from_json(fixed["bob"]), eve.mean_snr, fixed["rate_rs"])
        if metric == "op-interference":
            inter = model_from_json(fixed["interference"])
            return oracles.interference_outage_nakagami(
                model_from_json(fixed["desired"]), inter.m, inter.mean_snr, fixed["gamma_th"])
        return oracles.aber_regions(model_from_json(fixed["channel"]),
                                    fixed["thresholds"], fixed["bits_per_region"])

    def check(self, ops: list[Op], values: dict, refs: dict) -> dict:
        bad = {}
        for op in ops:
            err = _rel(values[op.key], refs[op.key])
            if not err <= CLOSED_FORM_RTOL:
                bad[op.key] = f"relative error {err:.2e} > {CLOSED_FORM_RTOL:g}"
        return bad

    def spot_check(self, refs: dict, rng) -> list[str]:
        ops = self.all_ops()
        problems = []
        for i in rng.choice(len(ops), 3, replace=False):
            if _rel(self.reference(ops[i]), refs[ops[i].key]) > 1e-9:
                problems.append(f"stored reference for {ops[i].key} is stale")
        return problems


def _eps_fixed(bob: dict, eve_db: float, eps: float) -> dict:
    return {"bob": {**bob, "mean_snr_db": -10.0},
            "eve": {"kind": "rayleigh", "mean_snr_db": eve_db},
            "epsilon": eps, "normalize": True}


class EpsCapacity(Workload):
    name = "eps-capacity"
    known_faults = {
        f"eps-capacity {curve} bob.mean_snr_db={db}":
            "incomplete._deriv_log_series sums from n=0 and exhausts 100000 terms "
            "(s~-2.3e-9, zeta~4.29e9) while bracketing up to R_S=32"
        for curve in ("fig6 kappa=10 mu=6 eps=0.8", "fig7 eta=0.04 mu=1 eps=0.8")
        for db in (48, 50)}

    def warmup(self) -> None:
        self.all_ops()[0].call()

    def all_ops(self) -> list[Op]:
        out = []
        snr = _axis(-10.0, 50.0, 2.0)
        for k, mu in ((1.5, 1), (10, 6)):
            for eps in (0.1, 0.8):
                bob = {"kind": "kappa-mu-shadowed", "kappa": k, "mu": mu, "m": 2}
                out += _one_point_ops("eps-capacity", f"fig6 kappa={k} mu={mu} eps={eps}",
                                      "bob.mean_snr_db", snr, _eps_fixed(bob, -10.0, eps))
        for eta, mu in ((0.04, 1), (0.9, 4)):
            for eps in (0.1, 0.8):
                bob = {"kind": "eta-mu", "eta": eta, "mu": mu}
                out += _one_point_ops("eps-capacity", f"fig7 eta={eta} mu={mu} eps={eps}",
                                      "bob.mean_snr_db", snr, _eps_fixed(bob, -10.0, eps))
        for ge_db in (-10.0, 0.0, 15.0):
            fixed = {"bob": {"kind": "kappa-mu", "kappa": 1.5, "mu": 2, "mean_snr_db": 10.0},
                     "eve": {"kind": "rayleigh", "mean_snr_db": ge_db},
                     "epsilon": 0.05, "normalize": True}
            out += _one_point_ops("eps-capacity", f"fig8 eve_snr_db={ge_db:g}", "epsilon",
                                  _axis(0.05, 0.95, 0.05), fixed)
        return out

    def ops(self, seed: int) -> list[Op]:
        return _seeded_order(self.all_ops(), seed)

    @staticmethod
    def _outage(fixed: dict, norm: float, rate_norm: float) -> float:
        eve = model_from_json(fixed["eve"])
        return oracles.secrecy_outage_rayleigh_eve(model_from_json(fixed["bob"]),
                                                   eve.mean_snr, rate_norm * norm)

    @classmethod
    def reference(cls, op: Op) -> float:
        """The normalized rate R* where the quadrature outage crosses epsilon
        (0 when even a zero rate exceeds epsilon), by Brent's method."""
        _, _, field, v, fixed = op.data
        fixed = _with_field(fixed, field, v)
        eps = fixed["epsilon"]
        norm = math.log2(1.0 + model_from_json(fixed["bob"]).mean_snr)
        f = lambda r: cls._outage(fixed, norm, r) - eps  # noqa: E731
        if f(0.0) > 0.0:
            return 0.0
        # widen by one bit at a time: a rate far past the crossing puts the
        # threshold 2^R - 1 where the density needs very long series
        hi = 1.0 / norm
        while f(hi) <= 0.0:
            hi += 1.0 / norm
        return optimize.brentq(f, 0.0, hi, xtol=1e-15, rtol=1e-13)

    @staticmethod
    def _rate_ok(value: float, ref: float) -> str | None:
        """Outage <= eps at the returned rate, and > eps just above it: with
        the outage increasing in the rate, the returned rate may undershoot
        the crossing R* by the bisection tolerance but never overshoot it."""
        if value > ref * (1.0 + 1e-9) + 1e-12:
            return f"rate {value!r} exceeds the outage crossing {ref!r}"
        if value < ref * (1.0 - 1e-6) - 1e-9:
            return f"rate {value!r} stops short of the outage crossing {ref!r}"
        return None

    def check(self, ops: list[Op], values: dict, refs: dict) -> dict:
        bad = {}
        for op in ops:
            problem = self._rate_ok(values[op.key], refs[op.key])
            if problem:
                bad[op.key] = problem
        # fig8: the capacity must not decrease as epsilon grows
        curves = {}
        for op in ops:
            _, curve, field, v, _ = op.data
            if field == "epsilon":
                curves.setdefault(curve, []).append((v, op.key))
        for points in curves.values():
            points.sort()
            for (_, prev), (_, key) in zip(points, points[1:]):
                if key in values and prev in values and values[key] < values[prev]:
                    bad[key] = f"decreases from {values[prev]!r} as epsilon grows"
        return bad

    def spot_check(self, refs: dict, rng) -> list[str]:
        """Recheck stored crossings: the outage brackets epsilon around R*."""
        ops = self.all_ops()
        problems = []
        for i in rng.choice(len(ops), 2, replace=False):
            op = ops[i]
            _, _, field, v, fixed = op.data
            fixed = _with_field(fixed, field, v)
            norm = math.log2(1.0 + model_from_json(fixed["bob"]).mean_snr)
            r = refs[op.key]
            eps = fixed["epsilon"]
            above = self._outage(fixed, norm, r * (1.0 + 1e-6) + 1e-9)
            below = self._outage(fixed, norm, r * (1.0 - 1e-6)) if r > 0 else -1.0
            if not below <= eps < above:
                problems.append(f"stored reference for {op.key} is stale")
        return problems


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

CAPACITY_CHANNELS = (
    ("rayleigh", lambda g: FadingModel.rayleigh(g)),
    ("nakagami(2)", lambda g: FadingModel.nakagami(2.0, g)),
    ("km(2,2)", lambda g: FadingModel.kappa_mu(2.0, 2.0, g)),
    ("em(0.5,1)", lambda g: FadingModel.eta_mu(0.5, 1.0, g)),
    ("rs(3,2)", lambda g: FadingModel.rician_shadowed(3.0, 2.0, g)),
    ("kms(2,2,3)", lambda g: FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, g)),
)
CAPACITY_SNR_DB = (0.0, 10.0, 20.0)


class Capacity(Workload):
    name = "capacity"

    def warmup(self) -> None:
        apps.capacity_side_info(apps.CapacityScenario(channel=FadingModel.rayleigh(10.0)))

    def ops(self, seed: int) -> list[Op]:
        """Each channel at mean SNRs drawn within 0.1 dB of 0, 10 and 20 dB;
        wider draws let the median operation's cost jump between channels
        from seed to seed."""
        rng = np.random.default_rng(seed)
        out = []
        for label, make in CAPACITY_CHANNELS:
            for base in CAPACITY_SNR_DB:
                db = base + float(rng.uniform(-0.1, 0.1))
                sc = apps.CapacityScenario(channel=make(db_to_linear(db)))
                out.append(Op(f"capacity {label} mean_snr_db={db:.6f}",
                              lambda sc=sc: apps.capacity_side_info(sc), (sc.channel,)))
        return _seeded_order(out, seed)

    def check(self, ops: list[Op], values: dict, refs: dict) -> dict:
        """Against the direct log-quadrature route at a cutoff found by Brent's
        method on an independent quadrature of the power constraint."""
        bad = {}
        for op in ops:
            channel, = op.data
            g0 = optimize.brentq(lambda g: oracles.cutoff_residual(channel, g),
                                 1e-9, 1.0, xtol=1e-15, rtol=1e-15)
            residual = abs(oracles.cutoff_residual(channel, g0))
            ref = apps.capacity_direct(apps.CapacityScenario(channel=channel, cutoff_snr=g0))
            err = _rel(values[op.key], ref)
            if residual > CUTOFF_RESIDUAL_TOL:
                bad[op.key] = f"reference cutoff residual {residual:.2e}"
            elif not err <= CAPACITY_RTOL:
                bad[op.key] = f"relative error {err:.2e} > {CAPACITY_RTOL:g}"
        return bad


WORKLOADS = {w.name: w for w in (ImgfGrid(), MetricSweeps(), EpsCapacity(), Capacity())}
