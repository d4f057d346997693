"""Command-line front end: single-point evaluations, figure-style sweeps with
CSV/JSON output, Monte Carlo validation columns, and a self-check battery.

Every metric is a registry entry: its point subcommand's help and flags,
each flag with the 'fixed' field it sets, a parser from the JSON 'fixed'
block to typed arguments, and the library call on them.  A sweep parses
every axis point before it evaluates any, so a spec error exits 2 with
nothing evaluated; only a failed evaluation exits 3.

dB <-> linear conversion happens only here; the library itself works in
linear SNR units throughout.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import operator
import os
import sys
from typing import Callable, NamedTuple

from scipy.special import chndtr

from . import apps, fading, incomplete, laplace, mixture, oracles, specfun
from .errors import AccuracyError, DomainError
from .fading import FadingModel, _config_number, model_from_json

__all__ = ["main", "run_sweep", "selfcheck", "PRESETS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
_ROW_ORDER = operator.itemgetter("curve", "axis")  # the order of a sweep's rows


# ---------------------------------------------------------------------------
# model argument plumbing
# ---------------------------------------------------------------------------

def _load_json_arg(text: str) -> dict:
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------

def _with_path(tree: dict, dotted: str, value) -> dict:
    """tree with the dotted field set to value, copying only the dicts on the path."""
    head, _, rest = dotted.partition(".")
    if rest:
        if not isinstance(tree.get(head), dict):
            raise DomainError(f"axis field {dotted!r} does not resolve in 'fixed'")
        value = _with_path(tree[head], rest, value)
    return {**tree, head: value}


def _axis_values(axis: dict) -> list[float]:
    start = _config_number(axis["start"], "axis.start")
    stop = _config_number(axis["stop"], "axis.stop")
    step = _config_number(axis["step"], "axis.step")
    if step <= 0 or stop < start:
        raise DomainError("axis range must be nonempty with positive step")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# metric registry: every subcommand and sweep evaluates through it
# ---------------------------------------------------------------------------

def _flag(flag: str, field: str | None = None, convert: Callable | None = None,
          **kwargs) -> tuple:
    """One option of a point subcommand, as a row: the flag, the dotted
    'fixed' field it sets (None: not a scenario field), a converter applied
    after parsing (None: the parsed value as is), and the argparse keywords."""
    return flag, field, convert, kwargs


def _json_flag(name: str, help: str | None = None) -> tuple:
    """A required model, as JSON text or @file; loaded after parsing, so a
    bad or missing file is a configuration error, not a usage error."""
    return _flag(f"--{name}", name, _load_json_arg, required=True, help=help)


class _Metric(NamedTuple):
    """help and flags: the point subcommand.  parse: 'fixed' block -> args,
    or DomainError; evaluate(*args) is the metric, mc(*args, cfg) its Monte
    Carlo (estimate, standard error).  Both look the library function up at
    call time, so a rebinding is seen."""
    help: str
    flags: tuple[tuple, ...]
    parse: Callable[[dict], tuple]
    evaluate: Callable[..., float]
    mc: Callable[..., tuple[float, float]] | None = None


def _parse_imgf(fixed: dict) -> tuple:
    args = (model_from_json(fixed["model"]), _config_number(fixed["s"], "s"),
            _config_number(fixed["zeta"], "zeta"),
            _config_number(fixed.get("deriv_order", 0), "deriv_order", int),
            fixed.get("tail", "lower"))
    incomplete._check_deriv_args(*args[2:])
    return args


def _secrecy(fixed: dict, rate_rs: float) -> apps.SecrecyScenario:
    return apps.SecrecyScenario(
        bob=model_from_json(fixed["bob"]), eve=model_from_json(fixed["eve"]), rate_rs=rate_rs,
        n_eve_antennas=_config_number(fixed.get("n_eve_antennas", 1), "n_eve_antennas", int))


def _parse_interference(fixed: dict) -> tuple:
    desired = model_from_json(fixed["desired"])
    interference = model_from_json(fixed["interference"])
    # built once, which checks it, and kept for the evaluation, as
    # SecrecyScenario keeps its eavesdropper's mixture
    mix = mixture.mixture_from_model(interference)
    gamma_th = _config_number(fixed["gamma_th"], "gamma_th")
    apps._check_threshold(gamma_th)
    return desired, interference, gamma_th, mix


def _parse_capacity(fixed: dict) -> tuple:
    cutoff = fixed.get("cutoff_snr")
    return (apps.CapacityScenario(
        channel=model_from_json(fixed["channel"]),
        cutoff_snr=None if cutoff is None else _config_number(cutoff, "cutoff_snr")),)


def _parse_aber(fixed: dict) -> tuple:
    return (model_from_json(fixed["channel"]), apps.AdaptiveModScheme(
        thresholds=tuple(_config_number(t, "thresholds") for t in fixed["thresholds"]),
        bits_per_region=tuple(_config_number(b, "bits_per_region", int)
                              for b in fixed["bits_per_region"])))


def _parse_eps_capacity(fixed: dict) -> tuple:
    epsilon = _config_number(fixed["epsilon"], "epsilon")
    apps._check_epsilon(epsilon)
    return _secrecy(fixed, 0.0), epsilon, bool(fixed.get("normalize"))


def _eps_capacity(sc: apps.SecrecyScenario, epsilon: float, normalize: bool) -> float:
    val = apps.eps_outage_capacity(sc, epsilon)
    return val / math.log2(1.0 + sc.bob.mean_snr) if normalize else val


_MC_FLAGS = (_flag("--validate", type=int, default=None, metavar="N",
                   help="also run Monte Carlo with N samples"),
             _flag("--seed", type=int, default=oracles.McConfig.seed))
_EVE_ANTENNAS = _flag("--eve-antennas", "n_eve_antennas", type=int, default=1)


def _secrecy_metric(name: str, parse: Callable[[dict], tuple], *flags: tuple) -> _Metric:
    return _Metric(f"{name} for a secrecy scenario",
                   (_json_flag("bob", "bob model JSON (or @file)"),
                    _json_flag("eve", "eve model JSON (or @file)"),
                    *flags, _EVE_ANTENNAS, *_MC_FLAGS),
                   parse, lambda sc: apps.opsc(sc), lambda sc, cfg: oracles.mc_opsc(sc, cfg))


_METRICS = {
    "imgf": _Metric(
        "evaluate one IMGF point",
        (_flag("--model", "model", lambda kind: {"kind": kind}, required=True,
               help="fading model kind, e.g. rayleigh, kappa-mu-shadowed"),
         *(_flag(f"--{name}", f"model.{name}", type=float) for name in fading._FIELDS),
         _flag("--mean-snr-db", "model.mean_snr_db", type=float),
         _flag("--mean-snr", "model.mean_snr", type=float),
         _flag("--s", "s", type=float, required=True),
         _flag("--zeta", "zeta", type=float, required=True),
         _flag("--tail", "tail", choices=("lower", "upper"), default="lower"),
         _flag("--deriv-order", "deriv_order", type=int, default=0)),
        _parse_imgf, lambda *a: incomplete.imgf_deriv_s(*a)),
    "opsc": _secrecy_metric(
        "opsc", lambda f: (_secrecy(f, _config_number(f.get("rate_rs", 0.0), "rate_rs")),),
        _flag("--rate", "rate_rs", type=float, required=True, help="secrecy rate R_S")),
    "spsc": _secrecy_metric("spsc", lambda f: (_secrecy(f, 0.0),)),
    "eps-capacity": _Metric(
        "epsilon-outage secrecy capacity",
        (_json_flag("bob"), _json_flag("eve"),
         _flag("--epsilon", "epsilon", type=float, required=True), _EVE_ANTENNAS,
         _flag("--normalize", "normalize", action="store_true",
               help="divide by log2(1 + mean bob SNR)")),
        _parse_eps_capacity, _eps_capacity),
    "op-interference": _Metric(
        "outage with interference and noise",
        (_json_flag("desired"), _json_flag("interference"),
         _flag("--gamma-th", "gamma_th", type=float, required=True)),
        _parse_interference, lambda d, i, th, mix: apps._interference_outage(d, mix, th),
        # the secrecy outage at the rate log2(1 + gamma_th) is the same probability
        lambda d, i, th, mix, cfg: oracles.mc_opsc(
            apps.SecrecyScenario(bob=d, eve=i, rate_rs=math.log2(1.0 + th)), cfg)),
    "capacity": _Metric(
        "capacity with TX/RX side information",
        (_json_flag("channel"), _flag("--cutoff", "cutoff_snr", type=float, default=None)),
        _parse_capacity, lambda sc: apps.capacity_side_info(sc)),
    "aber": _Metric(
        "adaptive-modulation average BER",
        (_json_flag("channel"),
         _flag("--thresholds", "thresholds", lambda text: text.split(","), required=True,
               help="comma-separated ascending SNR thresholds (linear)"),
         _flag("--bits", "bits_per_region", lambda text: text.split(","), required=True,
               help="comma-separated bits per region")),
        _parse_aber, lambda ch, scheme: apps.aber_adaptive(ch, scheme),
        lambda ch, scheme, cfg: oracles.mc_aber(ch, scheme, cfg)),
}


def _sweep_point(task: tuple) -> dict:
    metric, args, cfg, field, value, curve = task
    try:
        row = {"curve": curve, "axis": value, "value": _METRICS[metric].evaluate(*args)}
        if cfg is not None:
            row["mc_estimate"], row["mc_std_error"] = _METRICS[metric].mc(*args, cfg)
    except (AccuracyError, DomainError, OverflowError) as exc:
        raise AccuracyError(
            f"sweep failed at {field}={value} (curve {curve!r}): {exc}") from exc
    return row


def _worker_count() -> int:
    """IMGFLIB_WORKERS, 1 when unset; DomainError unless an integer >= 1."""
    text = os.environ.get("IMGFLIB_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise DomainError(f"IMGFLIB_WORKERS must be an integer >= 1, got {text!r}")
    return workers


def run_sweep(spec: dict) -> list[dict]:
    """Evaluate a sweep specification and return its rows (sorted).

    Every point is parsed before any is evaluated, so a spec error raises
    DomainError naming its axis point with nothing evaluated (AccuracyError
    where an eavesdropper's mixture coefficients cancel).  A failed
    evaluation raises AccuracyError naming its point."""
    metric = spec.get("metric")
    if metric not in _METRICS:
        raise DomainError(f"metric must be one of {tuple(_METRICS)}, got {metric!r}")
    validate = spec.get("validate")
    cfg = None
    if validate is not None:
        if _METRICS[metric].mc is None:
            raise DomainError(f"Monte Carlo validation is not available for metric {metric!r}")
        cfg = oracles.McConfig(
            n_samples=_config_number(validate.get("n_samples", oracles.McConfig.n_samples),
                                     "validate.n_samples", int),
            seed=_config_number(validate.get("seed", oracles.McConfig.seed),
                                "validate.seed", int))
    axis = spec["axis"]
    field = axis["field"]
    curve = spec.get("curve", "")
    tasks = []
    for v in _axis_values(axis):
        try:
            args = _METRICS[metric].parse(_with_path(spec["fixed"], field, v))
        except (AccuracyError, DomainError) as exc:
            raise type(exc)(f"bad spec at {field}={v} (curve {curve!r}): {exc}") from exc
        tasks.append((metric, args, cfg, field, v, curve))
    workers = _worker_count()
    if workers > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = list(map(_sweep_point, tasks))
    rows.sort(key=_ROW_ORDER)
    return rows


def _write_rows(rows: list[dict], path: str, fmt: str, axis_label: str) -> None:
    if fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    has_mc = any("mc_estimate" in r for r in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["curve", axis_label, "value"]
                        + (["mc_estimate", "mc_std_error"] if has_mc else []))
        for r in rows:
            cells = [r["curve"], _fmt(r["axis"]), _fmt(r["value"])]
            if has_mc:
                cells += [_fmt(r.get("mc_estimate", math.nan)),
                          _fmt(r.get("mc_std_error", math.nan))]
            writer.writerow(cells)


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

def _kms(kappa: float, mu: float, m: float) -> dict:
    return {"kind": "kappa-mu-shadowed", "kappa": kappa, "mu": mu, "m": m}


# the curves of each figure sweeping the bob SNR: (label, bob) for the secrecy
# outage (fig1-fig5), (label, bob, epsilon) for the epsilon-outage capacity
_PRESET_CURVES = {
    "fig1": [(f"mu={mu} m={m}", _kms(1.5, mu, m)) for mu in (1, 2, 6) for m in (0.5, 12)],
    "fig2": [(f"mu={mu} m={m}", _kms(10, mu, m)) for mu in (1, 2, 6) for m in (0.5, 12)],
    "fig3": [(f"K={K} m={m}", {"kind": "rician-shadowed", "K": K, "m": m})
             for K in (1.5, 10) for m in (0.5, 12)],
    "fig4": [(f"kappa={k} mu={mu}", {"kind": "kappa-mu", "kappa": k, "mu": mu})
             for k in (1.5, 10) for mu in (1, 2, 6)],
    "fig5": [(f"eta={eta} mu={mu}", {"kind": "eta-mu", "eta": eta, "mu": mu})
             for eta in (0.04, 0.9) for mu in (1, 2, 4)],
    "fig6": [(f"kappa={k} mu={mu} eps={eps}", _kms(k, mu, 2), eps)
             for (k, mu) in ((1.5, 1), (10, 6)) for eps in (0.1, 0.8)],
    "fig7": [(f"eta={eta} mu={mu} eps={eps}", {"kind": "eta-mu", "eta": eta, "mu": mu}, eps)
             for (eta, mu) in ((0.04, 1), (0.9, 4)) for eps in (0.1, 0.8)],
}


def _curve_spec(curve: str, bob: dict, epsilon: float | None = None) -> dict:
    """A preset curve over the bob SNR in 2 dB steps, against a Rayleigh
    eavesdropper: the secrecy outage at R_S = 0.1 from 0 to 60 dB with eve at
    15 dB, or with epsilon the normalized epsilon-outage capacity from -10
    to 50 dB with eve at -10 dB."""
    if epsilon is None:
        metric, lo, hi, eve_db, rest = "opsc", 0.0, 60.0, 15.0, {"rate_rs": 0.1}
    else:
        metric, lo, hi, eve_db = "eps-capacity", -10.0, 50.0, -10.0
        rest = {"epsilon": epsilon, "normalize": True}
    return {
        "metric": metric,
        "curve": curve,
        "axis": {"field": "bob.mean_snr_db", "start": lo, "stop": hi, "step": 2.0,
                 "unit": "db"},
        "fixed": {"bob": {**bob, "mean_snr_db": lo},
                  "eve": {"kind": "rayleigh", "mean_snr_db": eve_db}, **rest},
    }


def _preset_specs(name: str) -> list[dict]:
    if name in _PRESET_CURVES:
        return [_curve_spec(*curve) for curve in _PRESET_CURVES[name]]
    if name == "fig8":  # eps-capacity over epsilon, one curve per eve SNR
        return [{
            "metric": "eps-capacity",
            "curve": f"eve_snr_db={ge_db}",
            "axis": {"field": "epsilon", "start": 0.05, "stop": 0.95, "step": 0.05,
                     "unit": "linear"},
            "fixed": {"bob": {"kind": "kappa-mu", "kappa": 1.5, "mu": 2, "mean_snr_db": 10.0},
                      "eve": {"kind": "rayleigh", "mean_snr_db": ge_db},
                      "epsilon": 0.05, "normalize": True},
        } for ge_db in (-10.0, 0.0, 15.0)]
    raise DomainError(f"unknown preset {name!r}; figures fig1..fig8 are available")


PRESETS = tuple(f"fig{i}" for i in range(1, 9))


# ---------------------------------------------------------------------------
# self-check battery
# ---------------------------------------------------------------------------

def _selfcheck_list():
    """(name, check, what the check measures, bound): each check returns its
    defect, which passes at or below the bound (0 asks for identical values)."""
    kms = FadingModel.kappa_mu_shadowed(1.5, 2.3, 2.0, 5.0)
    km = FadingModel.kappa_mu(2.0, 1.7, 3.0)
    ray = FadingModel.rayleigh(10.0)

    def complementarity():
        worst = 0.0
        for model in (kms, km, ray):
            for s in (-2.0, -0.4, 0.0):
                for z in (0.5, 3.0, 12.0):
                    lo = incomplete.imgf_lower(model, s, z)
                    up = incomplete.imgf_upper(model, s, z)
                    mv = fading.mgf(model, s)
                    worst = max(worst, abs(lo + up - mv) / mv)
        return worst

    def cdf_identity():
        worst = 0.0
        for model in (kms, km, ray):
            for z in (0.3, 2.0, 9.0):
                worst = max(worst, abs(incomplete.imgf_lower(model, 0.0, z)
                                       - float(fading.cdf_grid(model, [z])[0])))
        return worst

    def reduction_rician_shadowed():
        rs_model = FadingModel.rician_shadowed(3.0, 2.0, 4.0)
        twin = FadingModel.kappa_mu_shadowed(3.0, 1.0, 2.0, 4.0)
        a = incomplete.imgf_lower(rs_model, -0.8, 2.0)
        b = incomplete.imgf_lower(twin, -0.8, 2.0)
        return abs(a - b) / abs(a)

    def reduction_eta_mu():
        em = FadingModel.eta_mu(0.5, 1.25, 2.0)
        a = incomplete.imgf_lower(em, -0.6, 1.7)
        b = incomplete.imgf_lower_eta_mu_direct(0.5, 1.25, 2.0, -0.6, 1.7)
        return abs(a - b) / max(1.0, abs(a), abs(b))

    def inversion_vs_closed():
        worst = 0.0
        for model in (ray, kms):
            img = fading.laplace_image(model)
            for (s, z) in ((-0.5, 1.0), (-1.5, 4.0)):
                num = laplace.imgf_lower_numeric(img, s, z)
                ref = incomplete.imgf_lower(model, s, z)
                worst = max(worst, abs(num - ref) / abs(ref))
        return worst

    def mixture_vs_cdf():
        worst = 0.0
        for (k, mu, m) in ((0.5, 2, 3), (1.5, 3, 1), (10.0, 6, 2)):
            model = FadingModel.kappa_mu_shadowed(k, mu, m, 2.0)
            mix = mixture.mixture_from_model(model)
            for z in (0.2, 1.0, 4.0, 15.0):
                worst = max(worst, abs(mixture.mixture_cdf(mix, z)
                                       - incomplete.imgf_lower(model, 0.0, z)))
        return worst

    def opsc_rayleigh_closed():
        sc = apps.SecrecyScenario(bob=ray, eve=FadingModel.rayleigh(1.0), rate_rs=0.1)
        alpha = 2.0 ** 0.1 - 1.0
        ref = 1.0 - math.exp(-alpha / 10.0) * 10.0 / (10.0 + 2.0 ** 0.1)
        return abs(apps.opsc(sc) - ref)

    def duality():
        eve = FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 2.0)
        rs = 0.37
        a = apps.opsc(apps.SecrecyScenario(bob=kms, eve=eve, rate_rs=rs))
        b = apps.outage_interference(kms, eve, 2.0 ** rs - 1.0)
        return abs(a - b)

    def capacity_dual_route():
        sc = apps.CapacityScenario(channel=ray)
        c1 = apps.capacity_side_info(sc)
        c2 = apps.capacity_direct(sc)
        return abs(c1 - c2) / max(1.0, abs(c1), abs(c2))

    def aber_single_region():
        ch = FadingModel.rayleigh(8.0)
        scheme = apps.AdaptiveModScheme(thresholds=(0.0,), bits_per_region=(4,))
        ref = 0.2 / (1.0 + 1.5 * 8.0 / 15.0)
        return abs(apps.aber_adaptive(ch, scheme) - ref)

    def marcum_bridge():
        # 1 - Q_mu(a, b) is the noncentral chi-square CDF chndtr(b^2, 2 mu, a^2)
        mu, aa, bb = 2.7, 5.0, 1.5
        alpha, beta = math.sqrt(2.0 * bb / aa), math.sqrt(2.0 * aa)
        lhs = 1.0 - specfun.marcum_q(mu, alpha, beta)
        rhs = float(chndtr(beta * beta, 2.0 * mu, alpha * alpha))
        return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    def mgf_moment():
        worst = 0.0
        for model in (kms, km, ray):
            h = 1e-6
            d = (fading.mgf(model, h) - fading.mgf(model, -h)) / (2.0 * h)
            worst = max(worst, abs(d - model.mean_snr) / model.mean_snr)
        return worst

    return [
        ("complementarity", complementarity, "max rel defect", 1e-10),
        ("cdf-identity", cdf_identity, "max abs defect", 1e-10),
        ("reduction-rician-shadowed", reduction_rician_shadowed, "rel diff", 1e-12),
        ("reduction-eta-mu", reduction_eta_mu, "diff", 1e-10),
        ("inversion-vs-closed-form", inversion_vs_closed, "max rel diff", 1e-6),
        ("mixture-vs-cdf", mixture_vs_cdf, "max abs diff", 1e-9),
        ("secrecy-outage-closed-form", opsc_rayleigh_closed, "abs diff", 1e-12),
        ("interference-duality", duality, "abs diff", 0.0),
        ("capacity-dual-route", capacity_dual_route, "diff", 1e-6),
        ("aber-single-region", aber_single_region, "abs diff", 1e-12),
        ("marcum-bridge", marcum_bridge, "diff", 1e-9),
        ("mgf-first-moment", mgf_moment, "max mean defect", 1e-5),
    ]


def selfcheck(out=None) -> int:
    """Run the invariant battery; prints one PASS/FAIL line per check.

    A PASS line states the bound the defect stayed within, so the text does
    not move with rounding-level changes; a FAIL line states the defect."""
    if out is None:
        out = sys.stdout
    failures = 0
    for name, fn, what, bound in _selfcheck_list():
        try:
            defect = fn()
        except Exception as exc:  # noqa: BLE001 - report, never hide
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        else:
            ok = defect <= bound
            if not ok:
                detail = f"{what} {defect:.3e}, bound {bound:g}"
            elif bound == 0.0:
                detail = "bit-identical"
            else:
                detail = f"{what} below {bound:g}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parser and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="imgflib",
                                description="incomplete-MGF toolkit for generalized fading")
    sub = p.add_subparsers(dest="command", required=True)

    for name, metric in _METRICS.items():
        sp = sub.add_parser(name, help=metric.help)
        for flag, _, _, kwargs in metric.flags:
            sp.add_argument(flag, **kwargs)

    sp = sub.add_parser("sweep", help="grid sweep from a spec file or preset")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="sweep spec JSON file")
    group.add_argument("--preset", choices=PRESETS)
    sp.add_argument("--out", help="output path (overrides the spec file)")
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--validate", type=int, default=None, metavar="N")
    sp.add_argument("--seed", type=int, default=oracles.McConfig.seed)

    sub.add_parser("selfcheck", help="run the invariant battery")
    return p


def _fixed_from_args(args) -> dict:
    """The sweep-spec 'fixed' block equivalent to a point subcommand: each
    flag given a value sets its field, converted, in flag order."""
    fixed: dict = {}
    for flag, field, convert, _ in _METRICS[args.command].flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if field is not None and value is not None:
            fixed = _with_path(fixed, field, convert(value) if convert else value)
    return fixed


def _cmd_point(args) -> int:
    metric = _METRICS[args.command]
    parsed = metric.parse(_fixed_from_args(args))
    line = _fmt(metric.evaluate(*parsed))
    if getattr(args, "validate", None):
        est, se = metric.mc(*parsed, oracles.McConfig(n_samples=args.validate, seed=args.seed))
        line += f" mc={_fmt(est)} mc_std_error={_fmt(se)}"
    print(line)
    return EXIT_OK


def _dispatch(args) -> int:
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "selfcheck":
        return selfcheck()
    return _cmd_point(args)


def _cmd_sweep(args) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        specs = [spec]
        out_path = args.out or spec.get("output", {}).get("path")
        fmt = args.format or spec.get("output", {}).get("format", "csv")
    else:
        specs = _preset_specs(args.preset)
        out_path = args.out
        fmt = args.format or "csv"
    if not out_path:
        raise DomainError("an output path is required (--out or spec output.path)")
    if args.validate:
        for s in specs:
            s["validate"] = {"n_samples": args.validate, "seed": args.seed}
    rows = []
    for s in specs:
        rows.extend(run_sweep(s))
    rows.sort(key=_ROW_ORDER)
    axis_label = specs[0]["axis"].get("field", "axis")
    _write_rows(rows, out_path, fmt, axis_label)
    print(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (json.JSONDecodeError, FileNotFoundError, KeyError, TypeError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AccuracyError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
