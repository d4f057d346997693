import math

import pytest

from imgflib.apps import AdaptiveModScheme, SecrecyScenario
from imgflib.fading import FadingModel, cdf, mgf
from imgflib.incomplete import imgf_upper
from imgflib.oracles import McConfig, mc_aber, mc_opsc, quad_imgf

RAY_LOWER = 0.5179132265677134


class TestQuad:
    def test_lower_is_cdf_at_s_zero(self):
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        for z in (0.5, 2.0):
            assert quad_imgf(model, 0.0, z, "lower") == pytest.approx(
                cdf(model, z), rel=1e-9)

    def test_rayleigh_analytic(self):
        assert quad_imgf(FadingModel.rayleigh(1.0), -0.5, 1.0, "lower") == pytest.approx(
            RAY_LOWER, rel=1e-10)

    def test_upper_at_zero_is_mgf(self):
        model = FadingModel.kappa_mu(2.0, 2.5, 1.5)
        for s in (-1.0, -0.2):
            assert quad_imgf(model, s, 0.0, "upper") == pytest.approx(
                mgf(model, s), rel=1e-9)

    def test_zeta_zero_lower(self):
        assert quad_imgf(FadingModel.rayleigh(1.0), -0.5, 0.0, "lower") == 0.0

    def test_upper_positive_s(self):
        # int_5^inf e^(x/20) e^(-x/10) / 10 dx = 2 e^(-1/4); exp(s x) alone
        # overflows far out where the density has already underflowed to 0
        model = FadingModel.rayleigh(10.0)
        ref = 2.0 * math.exp(-0.25)
        assert quad_imgf(model, 0.05, 5.0, "upper") == pytest.approx(ref, rel=1e-10)
        assert imgf_upper(model, 0.05, 5.0) == pytest.approx(ref, rel=1e-12)


class TestMcOpsc:
    def test_deterministic(self):
        sc = SecrecyScenario(bob=FadingModel.rayleigh(10.0),
                             eve=FadingModel.rayleigh(1.0), rate_rs=0.1)
        a = mc_opsc(sc, McConfig(n_samples=300_000, seed=5))
        b = mc_opsc(sc, McConfig(n_samples=300_000, seed=5))
        assert a == b

    def test_symmetric_half(self):
        sc = SecrecyScenario(bob=FadingModel.rayleigh(2.0),
                             eve=FadingModel.rayleigh(2.0))
        est, se = mc_opsc(sc, McConfig(n_samples=1_000_000, seed=17))
        assert abs(est - 0.5) <= 3.0 * se

    def test_vanishing_eavesdropper(self):
        sc = SecrecyScenario(bob=FadingModel.rayleigh(1000.0),
                             eve=FadingModel.rayleigh(1e-6), rate_rs=0.01)
        est, _ = mc_opsc(sc, McConfig(n_samples=200_000, seed=23))
        assert est < 1e-3

    def test_error_scaling(self):
        # quadrupling the sample count halves the reported standard error
        sc = SecrecyScenario(bob=FadingModel.rayleigh(10.0),
                             eve=FadingModel.rayleigh(1.0), rate_rs=0.1)
        _, se1 = mc_opsc(sc, McConfig(n_samples=250_000, seed=9))
        _, se4 = mc_opsc(sc, McConfig(n_samples=1_000_000, seed=9))
        assert se4 == pytest.approx(0.5 * se1, rel=0.05)


class TestMcAber:
    def test_deterministic(self):
        scheme = AdaptiveModScheme(thresholds=(1.0, 4.0), bits_per_region=(2, 4))
        ch = FadingModel.rayleigh(5.0)
        a = mc_aber(ch, scheme, McConfig(n_samples=200_000, seed=2))
        b = mc_aber(ch, scheme, McConfig(n_samples=200_000, seed=2))
        assert a == b

    def test_single_region_rayleigh(self):
        gbar, k = 8.0, 4
        scheme = AdaptiveModScheme(thresholds=(0.0,), bits_per_region=(k,))
        est, se = mc_aber(FadingModel.rayleigh(gbar), scheme,
                          McConfig(n_samples=1_000_000, seed=31))
        ref = 0.2 / (1.0 + 1.5 * gbar / (2.0 ** k - 1.0))
        assert abs(est - ref) <= 4.0 * se
