import dataclasses
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, stats
from scipy.integrate import IntegrationWarning

from imgflib.apps import (
    AdaptiveModScheme,
    CapacityScenario,
    SecrecyScenario,
    aber_adaptive,
    capacity_direct,
    capacity_side_info,
    eps_outage_capacity,
    opsc,
    outage_interference,
    solve_cutoff,
    spsc,
)
from imgflib import apps, cli, incomplete
from imgflib.errors import AccuracyError, DomainError
from imgflib.fading import FadingModel, Kind, cdf, db_to_linear, mgf, model_from_json, pdf
from imgflib.mixture import mixture_cdf, mixture_from_model
from imgflib.oracles import McConfig, mc_aber, mc_opsc

# Frozen: 40-digit evaluation of the Rayleigh/Rayleigh secrecy-outage closed
# form 1 - exp(-a/gb) gb/(gb + 2^Rs ge) at Rs=0.1, gb=10, ge=1.
OPSC_RAYLEIGH_POINT = 0.1032616836469244


# Frozen: aber_adaptive on kappa-mu shadowed (1.5, 2, 2) at 0 dB with the
# README scheme (thresholds 10.6/53/222.5/900.7, 2/4/6/8 bits), as computed
# before neighbouring regions shared their threshold IMGFs, then re-frozen
# when the gamma-mixture kernel moved to term recurrences (it was
# 0.0007914599347893599, 1.4e-14 relative below), and again when m = mu made
# the channel a single gamma law at rate b (it was 0.000791459934789371;
# against aber_by_region_quadrature 4.2e-15 relative then, -3.0e-15 now).
ABER_KMS_0DB = 0.0007914599347893654

# one legitimate link per FadingModel kind, heavy shadowing and LOS included
ONE_MODEL_PER_KIND = {
    Kind.KAPPA_MU_SHADOWED: lambda g: FadingModel.kappa_mu_shadowed(10.0, 6.0, 0.5, g),
    Kind.RICIAN_SHADOWED: lambda g: FadingModel.rician_shadowed(3.0, 2.0, g),
    Kind.KAPPA_MU: lambda g: FadingModel.kappa_mu(1.5, 2.0, g),
    Kind.ETA_MU: lambda g: FadingModel.eta_mu(0.04, 1.0, g),
    Kind.RICIAN: lambda g: FadingModel.rician(5.0, g),
    Kind.NAKAGAMI_M: lambda g: FadingModel.nakagami(2.5, g),
    Kind.HOYT: lambda g: FadingModel.hoyt(0.3, g),
    Kind.RAYLEIGH: FadingModel.rayleigh,
    Kind.ONE_SIDED_GAUSSIAN: FadingModel.one_sided_gaussian,
}


def preset_eps_points(names):
    """(bob, eve, epsilon) of every point of the eps-capacity presets."""
    for name in names:
        for spec in cli._preset_specs(name):
            axis = spec["axis"]
            for v in cli._axis_values(axis):
                fixed = spec["fixed"]
                bob, eps = dict(fixed["bob"]), fixed["epsilon"]
                if axis["field"] == "epsilon":
                    eps = v
                else:
                    bob["mean_snr_db"] = v
                yield model_from_json(bob), model_from_json(fixed["eve"]), eps


def record_outages(monkeypatch) -> list:
    """Record (2^R, outage) of every apps._outage_core call."""
    outages = []
    real = apps._outage_core

    def recording(bob, mix, alpha, scale, slope=None):
        outages.append((scale, real(bob, mix, alpha, scale, slope)))
        return outages[-1][1]

    monkeypatch.setattr(apps, "_outage_core", recording)
    return outages


def rayleigh_opsc_reference(rs: float, gb: float, ge: float) -> float:
    alpha = 2.0 ** rs - 1.0
    return 1.0 - math.exp(-alpha / gb) * gb / (gb + 2.0 ** rs * ge)


class TestScenarios:
    def test_eve_must_reduce_to_mixture(self):
        with pytest.raises(DomainError):
            SecrecyScenario(bob=FadingModel.rayleigh(1.0),
                            eve=FadingModel.kappa_mu_shadowed(1.0, 1.5, 2.0, 1.0))

    def test_scheme_validation(self):
        with pytest.raises(DomainError):
            AdaptiveModScheme(thresholds=(), bits_per_region=())
        with pytest.raises(DomainError):
            AdaptiveModScheme(thresholds=(1.0, 0.5), bits_per_region=(2, 4))
        with pytest.raises(DomainError):
            AdaptiveModScheme(thresholds=(1.0, 2.0), bits_per_region=(2,))
        with pytest.raises(DomainError):
            AdaptiveModScheme(thresholds=(1.0,), bits_per_region=(0,))

    def test_capacity_scenario(self):
        with pytest.raises(DomainError):
            CapacityScenario(channel=FadingModel.rayleigh(1.0), cutoff_snr=0.0)


class TestOpsc:
    def test_rayleigh_rayleigh_closed_form(self):
        sc = SecrecyScenario(bob=FadingModel.rayleigh(10.0),
                             eve=FadingModel.rayleigh(1.0), rate_rs=0.1)
        val = opsc(sc)
        assert val == pytest.approx(OPSC_RAYLEIGH_POINT, abs=1e-6)
        assert val == pytest.approx(rayleigh_opsc_reference(0.1, 10.0, 1.0), rel=1e-13)

    def test_symmetric_zero_rate_is_half(self):
        sc = SecrecyScenario(bob=FadingModel.rayleigh(3.0),
                             eve=FadingModel.rayleigh(3.0))
        assert spsc(sc) == pytest.approx(0.5, rel=1e-12)

    def test_spsc_is_zero_rate_opsc(self):
        sc = SecrecyScenario(bob=FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, 20.0),
                             eve=FadingModel.rayleigh(2.0), rate_rs=0.7)
        assert spsc(sc) == opsc(dataclasses.replace(sc, rate_rs=0.0))

    def test_against_monte_carlo(self):
        bob = FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, db_to_linear(20.0))
        eve = FadingModel.rayleigh(db_to_linear(15.0))
        sc = SecrecyScenario(bob=bob, eve=eve, rate_rs=0.1)
        val = opsc(sc)
        est, se = mc_opsc(sc, McConfig(n_samples=2_000_000, seed=42))
        assert abs(val - est) <= 3.0 * se

    def test_integer_eve_against_monte_carlo(self):
        bob = FadingModel.eta_mu(0.5, 1.25, db_to_linear(18.0))
        eve = FadingModel.kappa_mu_shadowed(3.0, 2.0, 3.0, db_to_linear(15.0))
        sc = SecrecyScenario(bob=bob, eve=eve, rate_rs=0.5)
        val = opsc(sc)
        est, se = mc_opsc(sc, McConfig(n_samples=2_000_000, seed=7))
        assert abs(val - est) <= 3.0 * se

    def test_eve_mrc_against_monte_carlo(self):
        bob = FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, db_to_linear(20.0))
        eve = FadingModel.kappa_mu_shadowed(3.0, 2.0, 3.0, db_to_linear(12.0))
        sc = SecrecyScenario(bob=bob, eve=eve, rate_rs=0.5, n_eve_antennas=3)
        val = opsc(sc)
        est, se = mc_opsc(sc, McConfig(n_samples=2_000_000, seed=11))
        assert abs(val - est) <= 3.0 * se

    def test_monotone_in_rate_and_snrs(self):
        base_bob = FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, db_to_linear(15.0))
        eve = FadingModel.rayleigh(db_to_linear(10.0))
        vals = [opsc(SecrecyScenario(bob=base_bob, eve=eve, rate_rs=r))
                for r in (0.0, 0.2, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        vals = [opsc(SecrecyScenario(
            bob=FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, db_to_linear(g)),
            eve=eve, rate_rs=0.1)) for g in (5.0, 10.0, 20.0, 30.0)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        vals = [opsc(SecrecyScenario(
            bob=base_bob, eve=FadingModel.rayleigh(db_to_linear(g)), rate_rs=0.1))
            for g in (0.0, 5.0, 10.0, 20.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_vanishing_eavesdropper(self):
        bob = FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, 10.0)
        rs = 0.3
        sc = SecrecyScenario(bob=bob, eve=FadingModel.rayleigh(1e-5), rate_rs=rs)
        assert opsc(sc) == pytest.approx(cdf(bob, 2.0 ** rs - 1.0), abs=1e-6)


class TestEpsOutageCapacity:
    def test_clamps_to_zero(self):
        sc = SecrecyScenario(bob=FadingModel.rayleigh(0.5),
                             eve=FadingModel.rayleigh(50.0))
        assert eps_outage_capacity(sc, 0.05) == 0.0

    def test_monotone_in_epsilon(self):
        sc = SecrecyScenario(bob=FadingModel.kappa_mu(1.5, 2.0, db_to_linear(10.0)),
                             eve=FadingModel.rayleigh(db_to_linear(-10.0)))
        caps = [eps_outage_capacity(sc, e) for e in (0.1, 0.3, 0.5, 0.8)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))

    def test_fixed_point_residual(self):
        sc = SecrecyScenario(bob=FadingModel.kappa_mu(1.5, 2.0, db_to_linear(10.0)),
                             eve=FadingModel.rayleigh(db_to_linear(-10.0)))
        ce = eps_outage_capacity(sc, 0.5)
        achieved = opsc(dataclasses.replace(sc, rate_rs=ce))
        assert abs(achieved - 0.5) <= 1e-6

    @pytest.mark.parametrize("bob,eve_db,epsilon", [
        (FadingModel.kappa_mu_shadowed(1.5, 1.0, 2.0, db_to_linear(20.0)), -10.0, 0.1),
        (FadingModel.kappa_mu_shadowed(10.0, 6.0, 2.0, db_to_linear(48.0)), -10.0, 0.8),
        (FadingModel.kappa_mu_shadowed(10.0, 6.0, 2.0, db_to_linear(50.0)), -10.0, 0.8),
        (FadingModel.eta_mu(0.04, 1.0, db_to_linear(48.0)), -10.0, 0.8),
        (FadingModel.eta_mu(0.04, 1.0, db_to_linear(50.0)), -10.0, 0.8),
        (FadingModel.eta_mu(0.9, 4.0, db_to_linear(10.0)), -10.0, 0.1),
        (FadingModel.kappa_mu(1.5, 2.0, db_to_linear(10.0)), 0.0, 0.05),
        (FadingModel.kappa_mu(1.5, 2.0, db_to_linear(10.0)), 15.0, 0.75),
        (FadingModel.kappa_mu(1.5, 2.0, db_to_linear(10.0)), -10.0, 0.95),
    ], ids=["fig6-k1.5-20dB", "fig6-k10-48dB", "fig6-k10-50dB", "fig7-eta0.04-48dB",
            "fig7-eta0.04-50dB", "fig7-eta0.9-10dB", "fig8-0dB-0.05", "fig8-15dB-0.75",
            "fig8--10dB-0.95"])
    def test_rate_brackets_the_crossing(self, bob, eve_db, epsilon):
        # outage within epsilon at the returned rate, beyond it one tolerance higher
        sc = SecrecyScenario(bob=bob, eve=FadingModel.rayleigh(db_to_linear(eve_db)))
        ce = eps_outage_capacity(sc, epsilon)
        assert ce > 0.0
        assert opsc(dataclasses.replace(sc, rate_rs=ce)) <= epsilon
        assert opsc(dataclasses.replace(sc, rate_rs=ce + 2.0 * apps._RATE_TOL)) > epsilon

    def test_outage_evaluations_per_solve(self, monkeypatch):
        calls = []
        real = apps._outage_core

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(apps, "_outage_core", counting)
        sc = SecrecyScenario(
            bob=FadingModel.kappa_mu_shadowed(1.5, 1.0, 2.0, db_to_linear(20.0)),
            eve=FadingModel.rayleigh(db_to_linear(-10.0)))
        assert eps_outage_capacity(sc, 0.1) > 0.0
        assert len(calls) <= 9

    def test_presets_solve_in_six_evaluations(self, monkeypatch, kernel_calls):
        # 5.87 evaluations and 9.74 kernel calls per solve by Newton steps on
        # the Weibull scale, 2.85 of the evaluations with the slope (Brent's
        # method on the logit took 7.98 and 13.97, on the outage 10.8)
        outages = record_outages(monkeypatch)
        counts = []
        kernel_calls.clear()
        for bob, eve, eps in preset_eps_points(("fig6", "fig7", "fig8")):
            outages.clear()
            eps_outage_capacity(SecrecyScenario(bob=bob, eve=eve), eps)
            scales = [scale for scale, _ in outages]
            assert len(set(scales)) == len(scales)  # no rate evaluated twice
            counts.append(len(scales))
        assert sum(counts) / len(counts) <= 6.0
        assert len(kernel_calls) / len(counts) <= 10.0

    def test_rate_is_the_safe_end_of_the_final_bracket(self, monkeypatch):
        # the largest evaluated rate with outage within epsilon, and the next
        # evaluated rate above it, outside epsilon, within brentq's tolerance
        outages = record_outages(monkeypatch)
        xtol, rtol = 0.5 * apps._RATE_TOL, 4.0 * np.finfo(float).eps
        for bob, eve, eps in preset_eps_points(("fig6", "fig7", "fig8")):
            outages.clear()
            ce = eps_outage_capacity(SecrecyScenario(bob=bob, eve=eve), eps)
            if ce == 0.0:  # only the zero rate was evaluated
                assert len(outages) == 1 and outages[0][0] == 1.0 and outages[0][1] > eps
                continue
            assert 2.0 ** ce == max(scale for scale, o in outages if o <= eps)
            above = min((scale, o) for scale, o in outages if scale > 2.0 ** ce)
            assert above[1] > eps
            assert math.log2(above[0]) - ce <= xtol + rtol * ce + 1e-15

    @pytest.mark.parametrize("shape", ["step", "plateau"])
    def test_sign_exact_on_degenerate_outages(self, shape, monkeypatch):
        # a step from 0 to 1 (logit -inf to +inf), and an outage equal to
        # epsilon over [1, r0] (logit difference 0): the crossing is r0
        epsilon, r0 = 0.3, 2.345678901

        def step(bob, mix, alpha, scale, slope=None):
            return 0.0 if math.log2(scale) <= r0 else 1.0

        def plateau(bob, mix, alpha, scale, slope=None):
            r = math.log2(scale)
            return epsilon * min(r, 1.0) if r <= r0 else min(1.0, epsilon + (r - r0))

        fake = step if shape == "step" else plateau
        monkeypatch.setattr(apps, "_outage_core", fake)
        sc = SecrecyScenario(bob=FadingModel.rayleigh(100.0), eve=FadingModel.rayleigh(1.0))
        ce = eps_outage_capacity(sc, epsilon)
        assert fake(None, None, 2.0 ** ce - 1.0, 2.0 ** ce) <= epsilon
        assert 0.0 <= r0 - ce <= apps._RATE_TOL

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_zero_rate_outage_is_the_mgf(self, kind, monkeypatch):
        # with a Rayleigh eavesdropper Pr{gamma_b <= gamma_e} = M_b(-1 / Omega_e),
        # the whole-transform term of the kernel route, taken in closed form
        bob = ONE_MODEL_PER_KIND[kind](db_to_linear(10.0))
        omega_e = db_to_linear(-3.0)
        kernel_route = math.exp(incomplete._log_imgf(incomplete._series(bob), -1.0 / omega_e,
                                                     0.0, 0, True))

        def no_kernel(*args, **kwargs):
            raise AssertionError("gamma-mixture kernel called")

        monkeypatch.setattr(incomplete, "_log_mixture_sum", no_kernel)
        monkeypatch.setattr(apps, "_log_mixture_sum", no_kernel)
        val = spsc(SecrecyScenario(bob=bob, eve=FadingModel.rayleigh(omega_e)))
        assert val == pytest.approx(mgf(bob, -1.0 / omega_e), rel=1e-13)
        assert val == pytest.approx(kernel_route, rel=1e-13)

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    def test_zero_rate_higher_orders_use_the_kernel(self, kind, kernel_calls):
        # a Nakagami m = 3 eavesdropper adds the orders k = 1, 2 at
        # beta = 3 / Omega_e, still summed by the kernel
        bob = ONE_MODEL_PER_KIND[kind](db_to_linear(10.0))
        omega_e = db_to_linear(-3.0)
        beta = 3.0 / omega_e
        kernel_route = sum(beta ** k / math.factorial(k)
                           * math.exp(incomplete._log_imgf(incomplete._series(bob), -beta,
                                                           0.0, k, True))
                           for k in range(3))
        kernel_calls.clear()
        val = spsc(SecrecyScenario(bob=bob, eve=FadingModel.nakagami(3.0, omega_e)))
        assert val == pytest.approx(kernel_route, rel=1e-13)
        assert sorted(call["k"] for call in kernel_calls) == [1, 2]

    @pytest.mark.parametrize("kind", list(Kind), ids=lambda k: k.value)
    @pytest.mark.parametrize("mean_db", [-10.0, 60.0])
    @pytest.mark.parametrize("epsilon", [0.05, 0.5, 0.95, 1.0 - 1e-6])
    def test_chernoff_threshold_holds_half_the_excess_mass(self, kind, mean_db, epsilon):
        # the bracket's premise: the outage at log2(1 + t) is at least
        # F_b(t) >= (1 + epsilon) / 2 > epsilon
        bob = ONE_MODEL_PER_KIND[kind](db_to_linear(mean_db))
        t_hi = apps._chernoff_threshold(bob, epsilon)
        assert cdf(bob, t_hi) >= (1.0 + epsilon) / 2.0

    def test_presets_evaluate_no_threshold_past_the_bracket(self, monkeypatch):
        alphas = []
        real = apps._outage_core

        def recording(bob, mix, alpha, scale, slope=None):
            alphas.append(alpha)
            return real(bob, mix, alpha, scale, slope)

        monkeypatch.setattr(apps, "_outage_core", recording)
        for bob, eve, eps in preset_eps_points(("fig6", "fig7", "fig8")):
            alphas.clear()
            eps_outage_capacity(SecrecyScenario(bob=bob, eve=eve), eps)
            t_hi = apps._chernoff_threshold(bob, eps)
            # 2^R - 1 at R = log2(1 + t_hi) may round a few ulps above t_hi
            assert max(alphas) <= t_hi * (1.0 + 1e-12)

    @pytest.mark.parametrize("bob", [FadingModel.eta_mu(0.04, 1.0, 1.0),
                                     FadingModel.kappa_mu_shadowed(10.0, 6.0, 0.5, 1.0)],
                             ids=["eta-mu", "kms"])
    @pytest.mark.parametrize("mean_db", [-10.0, 60.0])
    def test_epsilon_near_one(self, bob, mean_db):
        # a Markov bound 2 mean / (1 - epsilon) would put the bracket end near
        # 2e9 mean, past the kernel's term cap
        epsilon = 1.0 - 1e-9
        sc = SecrecyScenario(bob=dataclasses.replace(bob, mean_snr=db_to_linear(mean_db)),
                             eve=FadingModel.rayleigh(db_to_linear(-10.0)))
        ce = eps_outage_capacity(sc, epsilon)
        assert math.isfinite(ce) and ce > 0.0
        assert opsc(dataclasses.replace(sc, rate_rs=ce)) <= epsilon

    def test_bracket_expansion_failure_raises(self, monkeypatch):
        # an outage that never reaches epsilon leaves no crossing to bracket
        monkeypatch.setattr(apps, "_outage_core", lambda bob, mix, alpha, scale, slope=None: 0.0)
        sc = SecrecyScenario(bob=FadingModel.rayleigh(10.0), eve=FadingModel.rayleigh(1.0))
        with pytest.raises(AccuracyError):
            eps_outage_capacity(sc, 0.5)

    def test_epsilon_domain(self):
        sc = SecrecyScenario(bob=FadingModel.rayleigh(1.0), eve=FadingModel.rayleigh(1.0))
        with pytest.raises(DomainError):
            eps_outage_capacity(sc, 0.0)
        with pytest.raises(DomainError):
            eps_outage_capacity(sc, 1.0)


class TestInterferenceDuality:
    def test_bit_exact_delegation(self):
        bob = FadingModel.kappa_mu_shadowed(1.5, 2.3, 2.0, 12.0)
        eve = FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 2.0)
        for rs in (0.0, 0.1, 0.37, 1.4):
            a = opsc(SecrecyScenario(bob=bob, eve=eve, rate_rs=rs))
            b = outage_interference(bob, eve, 2.0 ** rs - 1.0)
            assert a == b  # same computation, same bits

    def test_rayleigh_point(self):
        val = outage_interference(FadingModel.rayleigh(10.0), FadingModel.rayleigh(1.0),
                                  2.0 ** 0.1 - 1.0)
        assert val == pytest.approx(OPSC_RAYLEIGH_POINT, abs=1e-6)

    def test_zero_threshold(self):
        val = outage_interference(FadingModel.rayleigh(10.0), FadingModel.rayleigh(1.0), 0.0)
        assert val == pytest.approx(1.0 / 11.0, rel=1e-10)  # Pr{gb <= ge}


def quad_over(f, cuts) -> float:
    edges = sorted(set(cuts)) + [np.inf]
    return sum(integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for lo, hi in zip(edges, edges[1:]))


def secrecy_outage_rayleigh_bob(gb: float, eve: FadingModel, rs: float) -> float:
    """Pr{C_S <= R_S} as the Rayleigh bob's closed-form CDF at 2^R_S (1 + g) - 1
    against the eavesdropper's pdf, by quadrature."""
    scale = 2.0 ** rs
    ge = eve.mean_snr
    return quad_over(lambda g: -math.expm1(-(scale - 1.0 + scale * g) / gb) * pdf(eve, g),
                     (0.0, ge, 10.0 * ge, 100.0 * ge))


def interference_outage_nakagami(desired: FadingModel, m: float, mean: float,
                                 gamma_th: float) -> float:
    """Pr{gamma_d <= gamma_th + (1 + gamma_th) gamma_i} for a Nakagami-m
    interferer, as the desired link's pdf against the interferer's gamma
    survival function, by quadrature."""
    def f(g):
        return pdf(desired, g) * stats.gamma.sf(max(g - gamma_th, 0.0) / (1.0 + gamma_th),
                                                m, scale=mean / m)

    spread = (1.0 + gamma_th) * mean
    gd = desired.mean_snr
    return quad_over(f, (0.0, gamma_th, gamma_th + spread, gamma_th + 10.0 * spread,
                         gd, 10.0 * gd, 100.0 * gd))


def secrecy_outage_slope(bob: FadingModel, eve_pdf, eve_mean: float, rs: float) -> float:
    """dO/dR = ln 2 int_alpha^inf (x + 1) f_e((x - alpha)/c)/c f_b(x) dx, alpha = 2^R - 1,
    c = 2^R, as ln 2 c int_0^inf (1 + y) f_e(y) f_b(alpha + c y) dy by quadrature
    over fading.pdf, which uses no gamma-mixture kernel."""
    scale = 2.0 ** rs
    alpha = scale - 1.0
    cuts = [0.0, eve_mean, 10.0 * eve_mean, 100.0 * eve_mean,
            *(max(0.0, (t - alpha) / scale) for t in (bob.mean_snr, 10.0 * bob.mean_snr))]
    return math.log(2.0) * scale * quad_over(
        lambda y: (1.0 + y) * eve_pdf(y) * pdf(bob, alpha + scale * y), cuts)


class TestOutageSlope:
    """_outage_core's rate derivative, from the kernel walks that give the
    outage (T_k one order higher, in pairs), against a quadrature."""

    EVES = {
        "rayleigh": (FadingModel.rayleigh(2.0), lambda y: math.exp(-y / 2.0) / 2.0),
        "nakagami-3": (FadingModel.nakagami(3.0, 2.0),
                       lambda y: stats.gamma.pdf(y, 3.0, scale=2.0 / 3.0)),
        "kms-2-2-3": (FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 2.0),
                      lambda y: pdf(FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 2.0), y)),
    }

    @pytest.mark.parametrize("eve", list(EVES))
    @pytest.mark.parametrize("bob", [FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, 100.0),
                                     FadingModel.kappa_mu(1.5, 2.0, 10.0)],
                             ids=["kms-1.5-2-2-20dB", "km-1.5-2-10dB"])
    @pytest.mark.parametrize("rs", [0.3, 1.5, 4.0])
    def test_against_quadrature(self, eve, bob, rs):
        model, eve_pdf = self.EVES[eve]
        mix, scale = mixture_from_model(model), 2.0 ** rs
        slope = []
        series = incomplete._series(bob)
        value = apps._outage_core(series, mix, scale - 1.0, scale, slope)
        # the outage from the paired kernel walks, against the single ones
        assert value == pytest.approx(apps._outage_core(series, mix, scale - 1.0, scale),
                                      rel=1e-12)
        ref = secrecy_outage_slope(bob, eve_pdf, model.mean_snr, rs)
        assert slope == [pytest.approx(ref, rel=1e-8)]


class TestOutageCancellation:
    """Eavesdroppers with integer mu > m and small kappa, whose mixture
    coefficients alternate in sign, and Nakagami interferers far below the
    threshold, whose partial sums of exp(-alpha beta) alternate: each point
    matches a quadrature that uses no kernel to 1e-9 relative, or raises
    AccuracyError.  must_raise marks the points that returned a wrong value,
    or raised DomainError, before the guard."""

    @staticmethod
    def check(compute, ref: float, must_raise: bool) -> None:
        if must_raise:
            with pytest.raises(AccuracyError):
                compute()
            return
        try:
            val = compute()
        except AccuracyError:
            return
        assert val == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("kappa, mu, m, must_raise", [
        (0.02, 10, 3, True), (0.01, 6, 2, True), (0.005, 6, 2, True), (0.01, 10, 3, True),
        (0.02, 4, 1, False)])
    def test_eavesdropper(self, kappa, mu, m, must_raise):
        eve = FadingModel.kappa_mu_shadowed(kappa, mu, m, 1.0)
        ref = secrecy_outage_rayleigh_bob(10.0, eve, 0.5)
        self.check(lambda: opsc(SecrecyScenario(bob=FadingModel.rayleigh(10.0), eve=eve,
                                                rate_rs=0.5)), ref, must_raise)

    @pytest.mark.parametrize("m, mean, must_raise", [
        (10, 0.05, True), (8, 0.1, True), (6, 0.1, True), (6, 0.05, True),
        (4, 0.1, False), (4, 0.05, False)])
    def test_nakagami_interferer(self, m, mean, must_raise):
        desired = FadingModel.kappa_mu_shadowed(1.5, 2.3, 2.0, 100.0)
        ref = interference_outage_nakagami(desired, m, mean, 3.0)
        self.check(lambda: outage_interference(desired, FadingModel.nakagami(m, mean), 3.0),
                   ref, must_raise)

    @pytest.mark.parametrize("kappa, mu, m", [(0.005, 6, 2), (0.01, 10, 3)])
    def test_cancelling_mixture_is_accuracy_error(self, kappa, mu, m):
        # (0.005, 6, 2) sums to 1 within its rounding bound, so the mixture
        # builds (the noise of that sum refused it before) and mixture_cdf,
        # whose rounding bound passes 1e-9, raises, as the eavesdropper's
        # outage does (test_eavesdropper); the coefficients' sum of
        # (0.01, 10, 3) is 1.125 within a rounding bound of 6.8, which keeps
        # no digit, so building it raises
        with pytest.raises(AccuracyError):
            mixture_cdf(mixture_from_model(FadingModel.kappa_mu_shadowed(kappa, mu, m, 1.0)), 1.0)


class TestHighOrderOutage:
    """An eavesdropper or interferer of Erlang shape m_i sums T_k up to order
    m_i - 1.  Past order 32 (one kernel block) the kernel's closed-form rest
    takes tail masses from orders <= 0 (a NaN before), and at high orders
    beta^k / k! underflows where T_k overflows (a bare OverflowError
    before)."""

    @pytest.mark.parametrize("mean, gamma_th", [(6.0, 1.0), (12.0, 0.1), (20.0, 1.0)])
    def test_nakagami_40_interferer(self, mean, gamma_th):
        desired = FadingModel.kappa_mu_shadowed(10.0, 6.0, 0.5, 30.0)
        got = outage_interference(desired, FadingModel.nakagami(40.0, mean), gamma_th)
        ref = interference_outage_nakagami(desired, 40.0, mean, gamma_th)
        assert got == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("gb, m, ge", [(1e6, 100, 1e4), (1e6, 150, 1e5), (1e5, 200, 1e5)])
    def test_nakagami_eavesdropper_of_high_order(self, gb, m, ge):
        # Rayleigh bob: O = 1 - exp(-alpha/gb) (1 + 2^R ge/(m gb))^-m
        rs = 0.1
        ref = -math.expm1(-(2.0 ** rs - 1.0) / gb - m * math.log1p(2.0 ** rs * ge / (m * gb)))
        got = opsc(SecrecyScenario(bob=FadingModel.rayleigh(gb),
                                   eve=FadingModel.nakagami(m, ge), rate_rs=rs))
        assert got == pytest.approx(ref, rel=1e-9)


class TestNanIsAccuracyError:
    """A NaN from the layer below fails every comparison, so each range check
    is written to fail it: the metric raises AccuracyError, never returns it."""

    SC = SecrecyScenario(bob=FadingModel.rayleigh(10.0), eve=FadingModel.rayleigh(1.0),
                         rate_rs=0.5)

    def test_opsc(self, monkeypatch):
        # the outage sums through incomplete._log_imgf, bound in apps
        monkeypatch.setattr(apps, "_log_imgf", lambda *args, **kwargs: math.nan)
        with pytest.raises(AccuracyError):
            opsc(self.SC)

    def test_eps_outage_capacity(self, monkeypatch):
        # NaN at every rate inside the Chernoff bracket: no rate within
        # epsilon was evaluated, which was a bare ValueError.  The NaNs are
        # the upper-tail terms T_k, single and paired
        t = apps._chernoff_threshold(self.SC.bob, 0.5)
        real = apps._log_imgf

        def nan_terms(series, s, zeta, k, upper, pair=False):
            if upper and zeta < 0.99 * t:
                return (math.nan, math.nan) if pair else math.nan
            return real(series, s, zeta, k, upper, pair)

        monkeypatch.setattr(apps, "_log_imgf", nan_terms)
        with pytest.raises(AccuracyError):
            eps_outage_capacity(self.SC, 0.5)

    def test_aber_adaptive(self, monkeypatch):
        # the BER numerator's lower IMGFs (s < 0) are NaN
        real = apps._log_imgf
        monkeypatch.setattr(apps, "_log_imgf",
                            lambda series, s, z, k, upper: (math.nan if s and not upper
                                                            else real(series, s, z, k, upper)))
        scheme = AdaptiveModScheme(thresholds=(0.0, 5.0), bits_per_region=(2, 4))
        with pytest.raises(AccuracyError):
            aber_adaptive(FadingModel.rayleigh(10.0), scheme)


def outage_by_public_entries(bob: FadingModel, mix, alpha: float, scale: float,
                             with_slope: bool) -> tuple[float, float]:
    """_outage_core's value and rate slope with F_b from imgf_lower and each
    T_k from _deriv_log_scaled (paired where the slope is taken), in the
    same order of floating-point operations: its formulation through the
    public entry points."""
    total = incomplete.imgf_lower(bob, 0.0, alpha)
    rise = 0.0
    logs = {}
    for c, omega, m in mix.terms:
        beta = 1.0 / (scale * omega)
        term, powers, partial = 1.0, [1.0], [1.0]
        for d in range(1, m):
            term *= -alpha * beta / d
            powers.append(term)
            partial.append(partial[-1] + term)
        log_beta, log_bk = math.log(beta), 0.0
        contrib = contrib_rise = 0.0
        for k in range(m):
            if (beta, k) not in logs:
                if with_slope:
                    logs[beta, k], logs[beta, k + 1] = incomplete._deriv_log_scaled(
                        bob, -beta, alpha, k, pair=True)
                else:
                    logs[beta, k] = incomplete._deriv_log_scaled(bob, -beta, alpha, k)
            t_k = math.exp(log_bk + logs[beta, k])
            contrib += partial[m - 1 - k] * t_k
            rise_k = beta * powers[m - 1 - k]
            contrib_rise += (rise_k + k * powers[m - k] if k else rise_k) * t_k
            log_bk += log_beta - math.log(k + 1.0)
        if with_slope:
            if (beta, m) not in logs:
                logs[beta, m] = incomplete._deriv_log_scaled(bob, -beta, alpha, m)
            contrib_rise += m * math.exp(log_bk + logs[beta, m])
        total += c * contrib
        rise += c * contrib_rise
    return min(max(total, 0.0), 1.0), math.log(2.0) * rise


def aber_by_public_entries(channel: FadingModel, scheme: AdaptiveModScheme) -> float:
    """aber_adaptive's region sums from imgf_lower and imgf_upper."""
    edges = list(scheme.thresholds) + [math.inf]
    num = den = 0.0
    for k, lo, hi in zip(scheme.bits_per_region, edges, edges[1:]):
        s = -1.5 / (2.0 ** k - 1.0)
        lower = functools.partial(incomplete.imgf_lower, channel)
        upper = functools.partial(incomplete.imgf_upper, channel)
        f_lo = lower(0.0, lo)
        if f_lo < 0.5:
            num += k * (lower(s, hi) - lower(s, lo))
            den += k * (lower(0.0, hi) - f_lo)
        else:
            num += k * (upper(s, lo) - upper(s, hi))
            den += k * (upper(0.0, lo) - upper(0.0, hi))
    return min(max(0.2 * num / den, 0.0), 0.2)


# a legitimate link or BER channel of each kernel weights family
WEIGHTS_FAMILIES = {
    "unit-mass": FadingModel.nakagami(2.5, 10.0),
    "binomial": FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 10.0),  # m - mu = 1
    "negative-binomial": FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.5, 10.0),
    "poisson": FadingModel.kappa_mu(1.5, 2.0, 10.0),  # m = inf
}
EAVESDROPPERS = {
    "rayleigh": FadingModel.rayleigh(2.0),
    "nakagami-3": FadingModel.nakagami(3.0, 2.0),
    "kms-2-2-3": FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 2.0),
}


class TestPublicEntryIdentity:
    """The metrics sum through incomplete._log_imgf on a series resolved once
    per call; their values are bit for bit those of the public entry points."""

    @pytest.mark.parametrize("eve", list(EAVESDROPPERS))
    @pytest.mark.parametrize("bob", list(WEIGHTS_FAMILIES))
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("with_slope", [False, True], ids=["value", "slope"])
    def test_outage(self, bob, eve, alpha, with_slope):
        model, mix = WEIGHTS_FAMILIES[bob], mixture_from_model(EAVESDROPPERS[eve])
        slope = [] if with_slope else None
        value = apps._outage_core(incomplete._series(model), mix, alpha, alpha + 1.0, slope)
        ref_value, ref_slope = outage_by_public_entries(model, mix, alpha, alpha + 1.0,
                                                        with_slope)
        assert value == ref_value
        assert slope is None or slope == [ref_slope]
        if not with_slope:  # the interference outage is the same sum
            assert outage_interference(model, EAVESDROPPERS[eve], alpha) == ref_value

    @pytest.mark.parametrize("channel", list(WEIGHTS_FAMILIES))
    @pytest.mark.parametrize("mean", [0.5, 10.0, 300.0])
    @pytest.mark.parametrize("thresholds, bits", [
        ((0.0, 5.0), (2, 4)),
        ((0.0, 2.0, 7.0), (2, 2, 4)),  # neighbours with equal bits share s too
        ((10.6, 53.0, 222.5, 900.7), (2, 4, 6, 8)),
    ], ids=["from-0", "equal-bits", "four-regions"])
    def test_aber(self, channel, mean, thresholds, bits):
        model = dataclasses.replace(WEIGHTS_FAMILIES[channel], mean_snr=mean)
        scheme = AdaptiveModScheme(thresholds=thresholds, bits_per_region=bits)
        assert aber_adaptive(model, scheme) == aber_by_public_entries(model, scheme)


class TestSeriesResolvedOnce:
    """A metric call resolves the legitimate link's series once and reaches
    the kernel without the public IMGF entry points."""

    @pytest.fixture
    def resolutions(self, monkeypatch) -> list:
        calls = []
        real = incomplete._series

        def counting(model):
            calls.append(model)
            return real(model)

        def public_entry(*args, **kwargs):
            raise AssertionError("public IMGF entry point called")

        for module in (apps, incomplete):
            monkeypatch.setattr(module, "_series", counting)
        for name in ("imgf_lower", "imgf_upper", "_deriv_log_scaled"):
            monkeypatch.setattr(apps, name, public_entry)
        monkeypatch.setattr(incomplete, "_log_tail", public_entry)
        return calls

    SC = SecrecyScenario(bob=FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.5, 100.0),
                         eve=FadingModel.nakagami(3.0, 0.1), rate_rs=1.0)

    def test_opsc(self, resolutions):
        opsc(self.SC)
        assert resolutions == [self.SC.bob]

    def test_eps_outage_capacity(self, resolutions, monkeypatch):
        outages = record_outages(monkeypatch)
        assert eps_outage_capacity(self.SC, 0.1) > 0.0
        assert len(outages) > 2 and resolutions == [self.SC.bob]

    def test_aber_adaptive(self, resolutions, kernel_calls):
        channel = FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, 10.0)
        scheme = AdaptiveModScheme(thresholds=(0.0, 2.0, 7.0), bits_per_region=(2, 4, 6))
        aber_adaptive(channel, scheme)
        assert resolutions == [channel] and kernel_calls


def quad_tail(model: FadingModel, g0: float, f) -> float:
    """int_g0^inf f(g) pdf(g) dg by quadrature, independent of the
    gamma-mixture series, split as capacity_direct splits it: at the decades
    1e-7 mean, ..., 1e3 mean above g0."""
    cuts = (model.mean_snr * 10.0 ** e for e in range(-7, 4))
    cuts = [g0] + sorted(c for c in cuts if c > g0) + [np.inf]
    return sum(integrate.quad(lambda g: f(g) * pdf(model, g), lo, hi,
                              epsabs=1e-13, epsrel=1e-11, limit=400)[0]
               for lo, hi in zip(cuts, cuts[1:]))


def mp_shadowed_tail(kappa: float, mu: float, m: float, mean: float, g0: float, h) -> float:
    """int_g0^inf h(g, g0) f(g) dg at 30 digits, f the kappa-mu shadowed
    density in its 1F1 form, split at the decades of the mean above g0: a
    reference independent of pdf and of double precision."""
    with mpmath.workdps(30):
        kappa, mu, m, mean, g0 = map(mpmath.mpf, (kappa, mu, m, mean, g0))
        a = mu * (1 + kappa) / mean
        z = a * mu * kappa / (mu * kappa + m)
        amp = (mu ** mu * m ** m * (1 + kappa) ** mu
               / (mpmath.gamma(mu) * mean ** mu * (mu * kappa + m) ** m))
        cuts = [g0] + [mean * 10 ** e for e in range(-8, 5) if mean * 10 ** e > g0]
        return float(mpmath.quad(lambda g: h(g, g0) * amp * g ** (mu - 1) * mpmath.exp(-a * g)
                                 * mpmath.hyp1f1(m, mu, z * g), cuts + [mpmath.inf]))


def quad_cutoff(model: FadingModel) -> float:
    """Cutoff by Brent's method on a pdf quadrature of the power constraint."""
    def residual(g0: float) -> float:
        return quad_tail(model, g0, lambda g: 1.0 / g0 - 1.0 / g) - 1.0

    return optimize.brentq(residual, 1e-9, 1.0, xtol=1e-15, rtol=1e-15)


# the cutoff grid: eleven families at mean SNRs from -30 to 50 dB
CUTOFF_FAMILIES = {
    "rayleigh": FadingModel.rayleigh,
    "nakagami 0.6": lambda g: FadingModel.nakagami(0.6, g),
    "nakagami 2": lambda g: FadingModel.nakagami(2.0, g),
    "kappa-mu 2/2": lambda g: FadingModel.kappa_mu(2.0, 2.0, g),
    "eta-mu 0.5/1": lambda g: FadingModel.eta_mu(0.5, 1.0, g),
    "rician shadowed 3/2": lambda g: FadingModel.rician_shadowed(3.0, 2.0, g),
    "kms 2/2/3": lambda g: FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, g),
    "kms 1.5/0.5/2.5": lambda g: FadingModel.kappa_mu_shadowed(1.5, 0.5, 2.5, g),
    "kms 1.5/0.7/0.6": lambda g: FadingModel.kappa_mu_shadowed(1.5, 0.7, 0.6, g),
    "kms 10/6/0.5": lambda g: FadingModel.kappa_mu_shadowed(10.0, 6.0, 0.5, g),
    "kms 34.32/10.08/0.799": lambda g: FadingModel.kappa_mu_shadowed(34.32, 10.08, 0.799, g),
}
CUTOFF_SNR_DB = (-30, -20, -10, 0, 10, 20, 30, 40, 50)


def solve_cutoff_counted(model: FadingModel, kernel_calls) -> tuple[float, int]:
    """solve_cutoff's root and its number of residual evaluations, one k = 0
    kernel call each."""
    kernel_calls.clear()
    g0 = solve_cutoff(model)
    return g0, sum(call["k"] == 0 for call in kernel_calls)


# channels whose canonical form reaches each branch of the capacity series
SERIES_BRANCH_CHANNELS = {
    "mu<1 nakagami": FadingModel.nakagami(0.6, 10.0),
    "mu<1 one-sided-gaussian": FadingModel.one_sided_gaussian(10.0),
    "mu<1 kappa-mu": FadingModel.kappa_mu(2.0, 0.5, 10.0),
    "mu=1 rician-shadowed": FadingModel.rician_shadowed(3.0, 2.0, 10.0),
    "non-integer mu eta-mu": FadingModel.eta_mu(0.3, 0.75, db_to_linear(5.0)),
    "non-integer mu kms": FadingModel.kappa_mu_shadowed(1.5, 2.3, 2.0, 10.0),
    "finite m kms": FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, 10.0),
    "m<1 kms": FadingModel.kappa_mu_shadowed(2.0, 2.0, 0.5, 10.0),
}

# channels on which the removed quadrature route raised IntegrationWarning
WARNING_CHANNELS = [
    FadingModel.eta_mu(0.3, 0.75, db_to_linear(5.0)),
    FadingModel.nakagami(0.6, 10.0),
    FadingModel.one_sided_gaussian(10.0),
]


class TestCapacity:
    @pytest.mark.parametrize("gbar", [1.0, 10.0])
    def test_dual_route_rayleigh(self, gbar):
        sc = CapacityScenario(channel=FadingModel.rayleigh(gbar))
        c1 = capacity_side_info(sc)
        c2 = capacity_direct(sc)
        assert c1 == pytest.approx(c2, rel=1e-6)

    def test_dual_route_kappa_mu(self):
        sc = CapacityScenario(channel=FadingModel.kappa_mu(2.0, 2.0, 10.0))
        assert capacity_side_info(sc) == pytest.approx(capacity_direct(sc), rel=1e-6)

    @pytest.mark.parametrize("model", SERIES_BRANCH_CHANNELS.values(),
                             ids=SERIES_BRANCH_CHANNELS.keys())
    def test_dual_route_series_branches(self, model):
        sc = CapacityScenario(channel=model, cutoff_snr=quad_cutoff(model))
        assert capacity_side_info(sc) == pytest.approx(capacity_direct(sc), rel=1e-9)

    def test_cutoff_residual(self):
        for mu in (0.5, 0.6, 1.0, 2.0):  # both sides of the E1 term at mu = 1
            model = FadingModel.nakagami(mu, 10.0)
            g0 = solve_cutoff(model)
            tail, _ = integrate.quad(lambda g: (1.0 / g0 - 1.0 / g) * pdf(model, g),
                                     g0, np.inf, epsabs=1e-13, epsrel=1e-11)
            assert abs(tail - 1.0) <= 1e-9, mu
            assert 0.0 < g0 <= 1.0

    def test_cutoff_without_root_raises_accuracy_error(self, monkeypatch):
        # a tail mass of 2 and no inverse-mean term put the root at g0 = 2; the
        # first step passes 1, and the root search must fail as a numerical error
        monkeypatch.setattr(apps, "_log_mixture_sum",
                            lambda lam, m, mu, k, log_r, x, upper: math.log(2.0) if k == 0
                            else -math.inf)
        with pytest.raises(AccuracyError):
            solve_cutoff(FadingModel.rayleigh(10.0))

    @pytest.mark.parametrize("model", WARNING_CHANNELS, ids=lambda ch: ch.kind.value)
    def test_no_integration_warning(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            assert capacity_side_info(CapacityScenario(channel=model)) > 0.0

    @pytest.mark.parametrize("model", [FadingModel.rayleigh(10.0),
                                       FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 10.0)],
                             ids=["rayleigh", "kms"])
    def test_integer_mu_makes_no_quadrature(self, model, monkeypatch):
        reference = capacity_direct(CapacityScenario(channel=model))

        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(apps.integrate, "quad", no_quad)
        g0 = solve_cutoff(model)
        c = capacity_side_info(CapacityScenario(channel=model, cutoff_snr=g0))
        assert c == pytest.approx(reference, rel=1e-9)

    def test_cutoff_evaluates_each_point_once(self, kernel_calls):
        # two kernel calls (k = 0 and k = -1) per residual, none for a check
        # after the solve: no (k, x) pair repeats
        solve_cutoff(FadingModel.nakagami(2.0, db_to_linear(10.0)))
        calls = [(call["k"], call["x"]) for call in kernel_calls]
        assert len(set(calls)) == len(calls)
        xs = {x for _, x in calls}
        assert sorted(calls) == sorted((k, x) for x in xs for k in (0, -1))

    @pytest.mark.parametrize("family", CUTOFF_FAMILIES.values(), ids=CUTOFF_FAMILIES.keys())
    def test_cutoff_grid(self, family, kernel_calls):
        # every solve returns a cutoff in (0, 1], nondecreasing in the mean SNR,
        # within 4 residual evaluations at 0-20 dB and 6 anywhere
        cutoffs = []
        for db in CUTOFF_SNR_DB:
            g0, evaluations = solve_cutoff_counted(family(db_to_linear(db)), kernel_calls)
            assert 0.0 < g0 <= 1.0, db
            assert evaluations <= (4 if 0 <= db <= 20 else 6), db
            cutoffs.append(g0)
        assert all(b >= a for a, b in zip(cutoffs, cutoffs[1:]))

    # kappa-mu shadowed laws of the cutoff grid at -45 and -60 dB: the first
    # evaluation from g0 = 1 (x = 2.1e6 at -45 dB) passed the kernel's term cap
    @pytest.mark.parametrize("db", [-45.0, -60.0])
    @pytest.mark.parametrize("params", [(10.0, 6.0, 0.5), (34.32, 10.08, 0.799)],
                             ids=["kms 10/6/0.5", "kms 34.32/10.08/0.799"])
    def test_cutoff_at_low_mean_snr_against_mpmath(self, params, db):
        mean = db_to_linear(db)
        g0 = solve_cutoff(FadingModel.kappa_mu_shadowed(*params, mean))
        residual = mp_shadowed_tail(*params, mean, g0, lambda g, g0: 1 / g0 - 1 / g) - 1.0
        assert abs(residual) <= 1e-10

    # split only at 10 mean and at the decades 1, 10, ..., the direct route gave
    # 7.51e-5 and 0.0 here
    @pytest.mark.parametrize("params, db", [((10.0, 6.0, 0.5), -45.0),
                                            ((34.32, 10.08, 0.799), -60.0)])
    def test_capacity_direct_at_low_mean_snr_against_mpmath(self, params, db):
        mean = db_to_linear(db)
        model = FadingModel.kappa_mu_shadowed(*params, mean)
        sc = CapacityScenario(channel=model, cutoff_snr=solve_cutoff(model))
        ref = mp_shadowed_tail(*params, mean, sc.cutoff_snr,
                               lambda g, g0: mpmath.log(g / g0)) / math.log(2.0)
        assert capacity_direct(sc) == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert capacity_side_info(sc) == pytest.approx(ref, rel=1e-9, abs=0.0)

    # a density that is not finite leaves the curvature unknown: Newton steps;
    # one that is 0 leaves the tail's share of it, c = 1/2
    @pytest.mark.parametrize("density", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("family, db", [("nakagami 2", 10.0), ("kms 2/2/3", -30.0),
                                            ("rician shadowed 3/2", 50.0),
                                            ("kms 10/6/0.5", 0.0)])
    def test_cutoff_without_a_usable_density(self, family, db, density, monkeypatch):
        model = CUTOFF_FAMILIES[family](db_to_linear(db))
        root = solve_cutoff(model)
        monkeypatch.setattr(apps, "pdf", lambda channel, x: density)
        assert solve_cutoff(model) == pytest.approx(root, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("db", [-30.0, -20.0, 40.0, 50.0])
    @pytest.mark.parametrize("family", ["nakagami 0.6", "kappa-mu 2/2", "rician shadowed 3/2",
                                        "kms 10/6/0.5"])
    def test_cutoff_against_quadrature(self, family, db):
        model = CUTOFF_FAMILIES[family](db_to_linear(db))
        assert solve_cutoff(model) == pytest.approx(quad_cutoff(model), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("db", [-30.0, 0.0, 20.0, 50.0])
    @pytest.mark.parametrize("family", ["rician shadowed 3/2", "kms 2/2/3", "kms 1.5/0.5/2.5"])
    def test_finite_mixture_against_quadrature(self, family, db):
        # m - mu = 1, 1, 2: the binomial gamma mixture at rate b; mu = 0.5
        # takes the k = -1 head Gamma(mu-1, y)
        model = CUTOFF_FAMILIES[family](db_to_linear(db))
        g0 = solve_cutoff(model)
        assert g0 == pytest.approx(quad_cutoff(model), rel=1e-10, abs=0.0)
        capacity = capacity_side_info(CapacityScenario(channel=model, cutoff_snr=g0))
        ref = quad_tail(model, g0, lambda g: math.log2(g / g0))
        assert capacity == pytest.approx(ref, rel=1e-9, abs=0.0)
        direct = capacity_direct(CapacityScenario(channel=model, cutoff_snr=g0))
        assert capacity == pytest.approx(direct, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("db", [-30.0, 0.0, 20.0, 50.0])
    @pytest.mark.parametrize("family", ["rayleigh", "kappa-mu 2/2", "rician shadowed 3/2",
                                        "kms 2/2/3", "kms 10/6/0.5"])
    def test_capacity_direct_at_high_mean_snr(self, family, db):
        # one quad over [g0, inf) missed the mass at 50 dB (off by 1.0
        # relative for Rician shadowed 3/2); the split quadrature must not
        # warn either
        model = CUTOFF_FAMILIES[family](db_to_linear(db))
        sc = CapacityScenario(channel=model, cutoff_snr=solve_cutoff(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            direct = capacity_direct(sc)
        assert direct == pytest.approx(capacity_side_info(sc), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("log_tail, evaluations",
                             [(math.nan, 1), (-math.inf, apps._CUTOFF_ITERATIONS)],
                             ids=["nan", "empty-tail"])
    def test_cutoff_failure_is_accuracy_error(self, log_tail, evaluations, monkeypatch):
        # a NaN residual fails at once; a residual that stays at -1 shrinks g0
        # until the iteration cap
        calls = []

        def kernel(lam, m, mu, k, log_r, x, upper):
            calls.append(k)
            return log_tail if k == 0 else -math.inf

        monkeypatch.setattr(apps, "_log_mixture_sum", kernel)
        with pytest.raises(AccuracyError):
            solve_cutoff(FadingModel.rayleigh(10.0))
        assert len(calls) == 2 * evaluations

    @pytest.mark.parametrize("error", [DomainError, AccuracyError])
    def test_cutoff_passes_kernel_errors_through(self, error, monkeypatch):
        raised = error("kernel")

        def kernel(*args):
            raise raised

        monkeypatch.setattr(apps, "_log_mixture_sum", kernel)
        with pytest.raises(error) as info:
            solve_cutoff(FadingModel.rayleigh(10.0))
        assert info.value is raised

    def test_cutoff_near_one_at_a_very_high_mean_snr(self):
        # at 150 dB the root is within rounding of 1, and so is the last step
        # from below it: 1 is returned (AccuracyError, no root below 1, before)
        g0 = solve_cutoff(CUTOFF_FAMILIES["kms 34.32/10.08/0.799"](db_to_linear(150.0)))
        assert 1.0 - 1e-14 < g0 <= 1.0

    def test_cutoff_with_int_fields(self):
        # m - mu = 1 as an int reaches the finite form's integer test, which
        # must not need int.is_integer (Python 3.12 and later only); the caches
        # are cleared so the int model's own fields are used
        from imgflib import fading
        fading._canonical_params.cache_clear()
        fading._gamma_mixture.cache_clear()
        ints = FadingModel.kappa_mu_shadowed(2, 2, 3, 1)
        g0 = solve_cutoff(ints)
        assert [pdf(ints, x) for x in (0.1, 1.0, 7.0)] == [
            pdf(FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 1.0), x) for x in (0.1, 1.0, 7.0)]
        assert g0 == solve_cutoff(FadingModel.kappa_mu_shadowed(2.0, 2.0, 3.0, 1.0))

    def test_cutoff_monotone_in_mean_snr(self):
        cutoffs = [solve_cutoff(FadingModel.rayleigh(g)) for g in (1.0, 10.0, 100.0)]
        assert all(b >= a for a, b in zip(cutoffs, cutoffs[1:]))

    def test_point_mass_limit(self):
        # nearly deterministic channel: cutoff solves 1/g0 - 1/gbar = 1
        model = FadingModel.nakagami(500.0, 10.0)
        g0 = solve_cutoff(model)
        assert g0 == pytest.approx(1.0 / (1.0 + 0.1), rel=2e-2)
        c1 = capacity_side_info(CapacityScenario(channel=model))
        c2 = capacity_direct(CapacityScenario(channel=model))
        assert c1 == pytest.approx(c2, rel=1e-4)
        assert c1 == pytest.approx(math.log2(10.0 / g0), rel=1e-2)

    def test_small_mean_snr_small_capacity(self):
        c = capacity_direct(CapacityScenario(channel=FadingModel.rayleigh(0.05)))
        assert 0.0 <= c < 0.2

    def test_supplied_cutoff_respected(self):
        model = FadingModel.rayleigh(10.0)
        sc = CapacityScenario(channel=model, cutoff_snr=0.5)
        from scipy import integrate
        ref, _ = integrate.quad(lambda g: math.log2(g / 0.5) * pdf(model, g),
                                0.5, np.inf, epsabs=1e-13, epsrel=1e-11)
        assert capacity_direct(sc) == pytest.approx(ref, rel=1e-9)


class TestAber:
    def test_single_region_rayleigh_exact(self):
        gbar, k = 8.0, 4
        scheme = AdaptiveModScheme(thresholds=(0.0,), bits_per_region=(k,))
        val = aber_adaptive(FadingModel.rayleigh(gbar), scheme)
        ref = 0.2 / (1.0 + 1.5 * gbar / (2.0 ** k - 1.0))
        assert val == pytest.approx(ref, abs=1e-10)
        assert val == pytest.approx(0.2 * mgf(FadingModel.rayleigh(gbar),
                                              -1.5 / (2.0 ** k - 1.0)), rel=1e-12)

    def test_empty_occupancy_regions_ignored(self):
        # regions far beyond the support mass contribute nothing
        ch = FadingModel.rayleigh(1.0)
        base = AdaptiveModScheme(thresholds=(0.5,), bits_per_region=(2,))
        padded = AdaptiveModScheme(thresholds=(0.5, 1e6, 2e6), bits_per_region=(2, 4, 6))
        assert aber_adaptive(ch, padded) == pytest.approx(
            aber_adaptive(ch, base), rel=1e-8)

    def test_four_region_against_monte_carlo(self):
        th = tuple((2.0 ** k - 1.0) * math.log(0.2 / 1e-3) / 1.5 for k in (2, 4, 6, 8))
        scheme = AdaptiveModScheme(thresholds=th, bits_per_region=(2, 4, 6, 8))
        ch = FadingModel.kappa_mu(2.0, 2.0, db_to_linear(15.0))
        val = aber_adaptive(ch, scheme)
        est, se = mc_aber(ch, scheme, McConfig(n_samples=2_000_000, seed=3))
        assert abs(val - est) / est < 0.04
        assert abs(val - est) <= 4.0 * se

    def test_range(self):
        th = (1.0, 5.0)
        scheme = AdaptiveModScheme(thresholds=th, bits_per_region=(2, 6))
        val = aber_adaptive(FadingModel.nakagami(2.0, 5.0), scheme)
        assert 0.0 <= val <= 0.2

    def test_shared_thresholds_evaluated_once(self, kernel_calls):
        scheme = AdaptiveModScheme(thresholds=(10.6, 53.0, 222.5, 900.7),
                                   bits_per_region=(2, 4, 6, 8))
        val = aber_adaptive(FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, 1.0), scheme)
        assert val == ABER_KMS_0DB
        assert len(kernel_calls) <= 15

    @pytest.mark.parametrize("channel", [
        FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, db_to_linear(0.0)),
        FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, db_to_linear(2.0)),
        FadingModel.kappa_mu(10.0, 2.0, db_to_linear(0.0)),
        FadingModel.kappa_mu(10.0, 2.0, db_to_linear(2.0)),
        FadingModel.kappa_mu(10.0, 2.0, db_to_linear(4.0)),
    ])
    def test_low_mean_snr_against_region_quadrature(self, channel):
        # nearly all mass lies below the first threshold, so each region's
        # share is tiny next to the IMGFs that bound it
        scheme = AdaptiveModScheme(thresholds=(10.6, 53.0, 222.5, 900.7),
                                   bits_per_region=(2, 4, 6, 8))
        ref = aber_by_region_quadrature(channel, scheme)
        assert aber_adaptive(channel, scheme) == pytest.approx(ref, rel=1e-8)


def aber_by_region_quadrature(channel, scheme) -> float:
    """0.2 sum_k k int_region exp(s_k g) f(g) dg / sum_k k int_region f(g) dg,
    each region split where the density falls off above its lower edge."""
    edges = list(scheme.thresholds) + [math.inf]
    num = den = 0.0
    for k, lo, hi in zip(scheme.bits_per_region, edges, edges[1:]):
        s = -1.5 / (2.0 ** k - 1.0)
        cuts = [lo] + [c for c in (lo + d * channel.mean_snr for d in (0.01, 0.1, 1.0, 10.0))
                       if c < hi] + [hi]
        for a, b in zip(cuts, cuts[1:]):
            num += k * integrate.quad(lambda g: math.exp(s * g) * pdf(channel, g), a, b,
                                      epsabs=0.0, epsrel=1e-12, limit=500)[0]
            den += k * integrate.quad(lambda g: pdf(channel, g), a, b,
                                      epsabs=0.0, epsrel=1e-12, limit=500)[0]
    return 0.2 * num / den
