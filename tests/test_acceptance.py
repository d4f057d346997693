"""Acceptance battery: one test per release criterion, each printing a
PASS/FAIL line with the measured margin.  Tolerances are pinned here and
nowhere else.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from imgflib.apps import (
    AdaptiveModScheme,
    CapacityScenario,
    SecrecyScenario,
    aber_adaptive,
    capacity_direct,
    capacity_side_info,
    opsc,
    outage_interference,
    solve_cutoff,
)
from imgflib.cli import main as cli_main
from imgflib.fading import (
    FadingModel,
    cdf_grid,
    db_to_linear,
    laplace_image,
    mgf,
    pdf,
)
from imgflib.incomplete import (
    imgf_lower,
    imgf_lower_eta_mu_direct,
    imgf_upper,
)
from imgflib.laplace import imgf_lower_numeric
from imgflib.mixture import mixture_cdf, mixture_params
from imgflib.oracles import McConfig, mc_aber, mc_opsc, quad_imgf

KAPPAS = (0.5, 1.5, 10.0)
MUS = (0.5, 1.0, 2.0, 6.0)
MS = (0.5, 2.0, 12.0)
ETAS = (0.04, 0.5, 0.9)
S_GRID = (-5.0, -1.0, -0.1, 0.0)
Z_RATIOS = (0.1, 1.0, 5.0, 20.0)
GBARS = (1.0, 10.0)

# 40-digit evaluation of the Rayleigh/Rayleigh secrecy outage closed form at
# R_S = 0.1, mean SNRs 10 and 1 (the published rounding differs in the 7th
# decimal; the formula itself is authoritative)
OPSC_RAYLEIGH_POINT = 0.1032616836469244


def _grid_models():
    models = []
    for g in GBARS:
        for k, mu, m in itertools.product(KAPPAS, MUS, MS):
            models.append(FadingModel.kappa_mu_shadowed(k, mu, m, g))
        for k, m in itertools.product(KAPPAS, MS):
            models.append(FadingModel.rician_shadowed(k, m, g))
        for k, mu in itertools.product(KAPPAS, MUS):
            models.append(FadingModel.kappa_mu(k, mu, g))
        for e, mu in itertools.product(ETAS, MUS):
            models.append(FadingModel.eta_mu(e, mu, g))
    return models


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


@pytest.mark.slow
def test_criterion_01_closed_forms_vs_definitional_quadrature():
    t0 = time.time()
    worst = {"lower": 0.0, "upper": 0.0}
    for model in _grid_models():
        for s in S_GRID:
            for zr in Z_RATIOS:
                z = zr * model.mean_snr
                for tail, closed_form in (("lower", imgf_lower), ("upper", imgf_upper)):
                    closed = closed_form(model, s, z)
                    oracle = quad_imgf(model, s, z, tail, tol=1e-11)
                    worst[tail] = max(worst[tail],
                                      abs(closed - oracle) / max(abs(oracle), 1e-280))
    elapsed = time.time() - t0
    _report(1, "closed forms vs quadrature",
            max(worst.values()) <= 1e-8 and elapsed <= 300.0,
            f"max rel err lower {worst['lower']:.3e}, upper {worst['upper']:.3e}, "
            f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_02_inversion_route_vs_closed_forms():
    worst = 0.0
    for model in _grid_models():
        img = laplace_image(model)
        for s in S_GRID:
            for zr in Z_RATIOS:
                z = zr * model.mean_snr
                num = imgf_lower_numeric(img, s, z, dps=40)
                ref = imgf_lower(model, s, z)
                worst = max(worst, abs(num - ref) / max(abs(ref), 1e-280))
    _report(2, "inverse-transform route vs closed forms", worst <= 1e-6,
            f"max rel err {worst:.3e}")


def test_criterion_03_cdf_identity_and_complementarity():
    worst_cdf = 0.0
    worst_comp = 0.0
    for model in _grid_models():
        zs = np.array(Z_RATIOS) * model.mean_snr
        ref_cdf = cdf_grid(model, zs)
        for z, fz in zip(zs, ref_cdf):
            worst_cdf = max(worst_cdf, abs(imgf_lower(model, 0.0, float(z)) - fz))
        for s in S_GRID:
            for z in zs:
                mv = mgf(model, s)
                defect = abs(imgf_lower(model, s, float(z))
                             + imgf_upper(model, s, float(z)) - mv)
                worst_comp = max(worst_comp, defect / mv)
    ok = worst_cdf <= 1e-10 and worst_comp <= 1e-10
    _report(3, "CDF identity and complementarity", ok,
            f"max |M_l(0,z)-F| {worst_cdf:.3e}, max rel defect {worst_comp:.3e}")


def test_criterion_04_reduction_chains():
    checks = []

    worst = 0.0
    for (K, m, g) in itertools.product(KAPPAS, MS, GBARS):
        rs_model = FadingModel.rician_shadowed(K, m, g)
        twin = FadingModel.kappa_mu_shadowed(K, 1.0, m, g)
        for (s, zr) in ((-1.0, 0.5), (0.0, 2.0)):
            a = imgf_lower(rs_model, s, zr * g)
            b = imgf_lower(twin, s, zr * g)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-280))
    checks.append(("rician-shadowed", worst, 1e-12))

    worst = 0.0
    for (eta, mu, g) in itertools.product(ETAS, MUS, GBARS):
        em = FadingModel.eta_mu(eta, mu, g)
        for (s, zr) in ((-1.0, 0.5), (0.0, 2.0), (-0.1, 5.0)):
            a = imgf_lower(em, s, zr * g)
            b = imgf_lower_eta_mu_direct(eta, mu, g, s, zr * g)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-280))
    checks.append(("eta-mu mapping", worst, 1e-10))

    worst = 0.0
    for (k, mu) in itertools.product(KAPPAS, MUS):
        km = FadingModel.kappa_mu(k, mu, 1.5)
        approx = FadingModel.kappa_mu_shadowed(k, mu, 1.0e4, 1.5)
        for (s, zr) in ((-1.0, 1.0), (0.0, 3.0)):
            a = imgf_lower(km, s, zr * 1.5)
            b = imgf_lower(approx, s, zr * 1.5)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-280))
    checks.append(("large-m limit", worst, 1e-3))

    worst = 0.0
    gbar = 2.0
    ray = FadingModel.rayleigh(gbar)
    for (s, z) in ((-1.0, 0.7), (-0.2, 3.0), (0.0, 1.0)):
        ref = (1.0 - math.exp(-(1.0 / gbar - s) * z)) / (1.0 - s * gbar)
        worst = max(worst, abs(imgf_lower(ray, s, z) - ref) / abs(ref))
    mhat = 2.7
    nak = FadingModel.nakagami(mhat, gbar)
    for (s, z) in ((-1.0, 0.7), (0.0, 3.0)):
        ref = (1.0 - s * gbar / mhat) ** (-mhat) * sp.gammainc(
            mhat, (mhat / gbar - s) * z)
        worst = max(worst, abs(imgf_lower(nak, s, z) - ref) / abs(ref))
    q = 0.4
    hoyt = FadingModel.hoyt(q, gbar)

    def hoyt_pdf(x):
        # classical Nakagami-q SNR density, bessel form
        c1 = (1.0 + q * q) / (2.0 * q * gbar)
        arg = (1.0 - q ** 4) * x / (4.0 * q * q * gbar)
        return (c1 * math.exp(-((1.0 + q * q) ** 2) * x / (4.0 * q * q * gbar) + arg)
                * float(sp.i0e(arg)))

    for z in (0.5, 2.0):
        ref, _ = integrate.quad(hoyt_pdf, 0.0, z, epsabs=1e-14, epsrel=1e-12)
        worst = max(worst, abs(imgf_lower(hoyt, 0.0, z) - ref) / abs(ref))
    osg = FadingModel.one_sided_gaussian(gbar)
    for z in (0.5, 2.0):
        ref = math.erf(math.sqrt(z / (2.0 * gbar)))
        worst = max(worst, abs(imgf_lower(osg, 0.0, z) - ref) / abs(ref))
    checks.append(("degeneracies", worst, 1e-8))

    ok = all(w <= tol for (_, w, tol) in checks)
    detail = ", ".join(f"{name} {w:.3e} (tol {tol:g})" for (name, w, tol) in checks)
    _report(4, "reduction chains", ok, detail)


def test_criterion_05_mixture_cdf_vs_exact_cdf():
    worst = 0.0
    gbar = 1.7
    for kappa in (0.0, 0.5, 1.5, 10.0):
        for mu in (1, 2, 3, 6):
            for m in (1, 2, 3, 12):
                mix = mixture_params(kappa, mu, m, gbar)
                if kappa == 0.0:
                    model = FadingModel.nakagami(float(mu), gbar)
                else:
                    model = FadingModel.kappa_mu_shadowed(kappa, mu, m, gbar)
                zs = np.linspace(1e-3, 20.0 * gbar, 80)
                ref = cdf_grid(model, zs)
                for z, fz in zip(zs, ref):
                    worst = max(worst, abs(mixture_cdf(mix, float(z)) - fz))
    _report(5, "integer-parameter mixture CDF", worst <= 1e-9,
            f"max abs err {worst:.3e}")


def _figure_scenarios():
    eve = FadingModel.rayleigh(db_to_linear(15.0))
    gb = db_to_linear(20.0)
    sets = []
    for mu in (1.0, 2.0, 6.0):
        for m in (0.5, 12.0):
            sets.append(("fig1", FadingModel.kappa_mu_shadowed(1.5, mu, m, gb)))
            sets.append(("fig2", FadingModel.kappa_mu_shadowed(10.0, mu, m, gb)))
    for K in (1.5, 10.0):
        for m in (0.5, 12.0):
            sets.append(("fig3", FadingModel.rician_shadowed(K, m, gb)))
    for k in (1.5, 10.0):
        for mu in (1.0, 2.0, 6.0):
            sets.append(("fig4", FadingModel.kappa_mu(k, mu, gb)))
    for eta in (0.04, 0.9):
        for mu in (1.0, 2.0, 4.0):
            sets.append(("fig5", FadingModel.eta_mu(eta, mu, gb)))
    return [(tag, SecrecyScenario(bob=bob, eve=eve, rate_rs=0.1)) for tag, bob in sets]


@pytest.mark.slow
def test_criterion_06_secrecy_outage():
    sc = SecrecyScenario(bob=FadingModel.rayleigh(10.0),
                         eve=FadingModel.rayleigh(1.0), rate_rs=0.1)
    point = opsc(sc)
    point_ok = abs(point - OPSC_RAYLEIGH_POINT) <= 1e-6

    worst_z = 0.0
    for i, (tag, scenario) in enumerate(_figure_scenarios()):
        val = opsc(scenario)
        est, se = mc_opsc(scenario, McConfig(n_samples=10_000_000, seed=1000 + i))
        worst_z = max(worst_z, abs(val - est) / se)
    mc_ok = worst_z <= 3.0

    slope_ok = True
    slope_detail = []
    eve = FadingModel.rayleigh(db_to_linear(15.0))
    for mu in (1.0, 2.0):
        p50 = opsc(SecrecyScenario(
            bob=FadingModel.kappa_mu_shadowed(1.5, mu, 2.0, db_to_linear(50.0)),
            eve=eve, rate_rs=0.1))
        p60 = opsc(SecrecyScenario(
            bob=FadingModel.kappa_mu_shadowed(1.5, mu, 2.0, db_to_linear(60.0)),
            eve=eve, rate_rs=0.1))
        slope = math.log10(p50) - math.log10(p60)  # decades per 10 dB
        slope_detail.append(f"mu={mu}: {slope:.3f}")
        if abs(slope - mu) > 0.15 * mu:
            slope_ok = False

    mono = [opsc(SecrecyScenario(
        bob=FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, db_to_linear(g)),
        eve=eve, rate_rs=0.1)) for g in (0.0, 10.0, 20.0, 30.0, 40.0)]
    mono_ok = all(b <= a for a, b in zip(mono, mono[1:]))

    ok = point_ok and mc_ok and slope_ok and mono_ok
    _report(6, "secrecy outage", ok,
            f"closed-form point {point:.9f} (|d|={abs(point - OPSC_RAYLEIGH_POINT):.2e}), "
            f"max MC z {worst_z:.2f}, slopes {{{', '.join(slope_detail)}}}, "
            f"monotone {mono_ok}")


def test_criterion_07_capacity_dual_route():
    worst = 0.0
    worst_res = 0.0
    channels = [FadingModel.rayleigh, lambda g: FadingModel.nakagami(2.0, g),
                lambda g: FadingModel.kappa_mu(2.0, 2.0, g)]
    for make in channels:
        for g in (1.0, 10.0, 100.0):
            model = make(g)
            g0 = solve_cutoff(model)
            constraint, _ = integrate.quad(
                lambda x: (1.0 / g0 - 1.0 / x) * pdf(model, x), g0, np.inf,
                epsabs=1e-13, epsrel=1e-11, limit=400)
            worst_res = max(worst_res, abs(constraint - 1.0))
            sc = CapacityScenario(channel=model, cutoff_snr=g0)
            c1 = capacity_side_info(sc)
            c2 = capacity_direct(sc)
            worst = max(worst, abs(c1 - c2) / abs(c2))
    ok = worst <= 1e-6 and worst_res <= 1e-9
    _report(7, "capacity with side information", ok,
            f"max route mismatch {worst:.3e}, max cutoff residual {worst_res:.3e}")


def test_criterion_08_adaptive_modulation_ber():
    gbar, k = 8.0, 4
    scheme1 = AdaptiveModScheme(thresholds=(0.0,), bits_per_region=(k,))
    single = aber_adaptive(FadingModel.rayleigh(gbar), scheme1)
    ref = 0.2 / (1.0 + 1.5 * gbar / (2.0 ** k - 1.0))
    single_ok = abs(single - ref) <= 1e-10

    th = tuple((2.0 ** kk - 1.0) * math.log(0.2 / 1e-3) / 1.5 for kk in (2, 4, 6, 8))
    scheme4 = AdaptiveModScheme(thresholds=th, bits_per_region=(2, 4, 6, 8))
    snr = db_to_linear(15.0)
    worst = 0.0
    for i, channel in enumerate([FadingModel.rayleigh(snr),
                                 FadingModel.nakagami(2.0, snr),
                                 FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, snr)]):
        val = aber_adaptive(channel, scheme4)
        est, _ = mc_aber(channel, scheme4, McConfig(n_samples=10_000_000, seed=500 + i))
        worst = max(worst, abs(val - est) / est)
    ok = single_ok and worst <= 0.02
    _report(8, "adaptive-modulation BER", ok,
            f"single-region |d|={abs(single - ref):.2e}, max MC rel diff {worst:.3%}")


def test_criterion_09_interference_duality():
    bob = FadingModel.kappa_mu_shadowed(1.5, 2.3, 2.0, 12.0)
    eve = FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 2.0)
    exact = True
    for rs in (0.0, 0.1, 0.37, 1.4):
        a = opsc(SecrecyScenario(bob=bob, eve=eve, rate_rs=rs))
        b = outage_interference(bob, eve, 2.0 ** rs - 1.0)
        exact = exact and (a == b)
    _report(9, "interference/secrecy duality", exact, "bit-identical by delegation")


def test_criterion_10_sweep_determinism(tmp_path):
    spec = {
        "metric": "opsc",
        "axis": {"field": "bob.mean_snr_db", "start": 0, "stop": 20, "step": 10,
                 "unit": "db"},
        "fixed": {
            "bob": {"kind": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2, "m": 2,
                    "mean_snr_db": 0},
            "eve": {"kind": "rayleigh", "mean_snr_db": 15},
            "rate_rs": 0.1,
        },
        "output": {"path": str(tmp_path / "a.csv"), "format": "csv"},
        "validate": {"n_samples": 100_000, "seed": 7},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli_main(["sweep", "--spec", str(spec_path)]) == 0
    assert cli_main(["sweep", "--spec", str(spec_path),
                     "--out", str(tmp_path / "b.csv")]) == 0
    same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    _report(10, "sweep determinism", same, "byte-identical CSV for spec+seed")
