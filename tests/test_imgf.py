import math

import mpmath
import numpy as np
import pytest

from imgflib.errors import DomainError
from imgflib.fading import FadingModel, canonicalize, cdf, laplace_image, mgf, smallest_pole
from imgflib.incomplete import (
    MAX_DERIV_ORDER,
    _deriv_log_scaled,
    imgf_deriv_s,
    imgf_generic,
    imgf_lower,
    imgf_lower_eta_mu_direct,
    imgf_upper,
)
from imgflib.oracles import quad_imgf

# Frozen: 40-digit quadrature of exp(-x) f(x) over [0, 2] for the shadowed
# model (kappa=1.5, mu=2, m=3, mean 1).
KMS_GOLDEN = 0.4300566250191814
RAY_LOWER = 0.5179132265677134          # (2/3)(1 - e^-1.5)
RAY_UPPER = 2.0 / 3.0 - RAY_LOWER
RAY_MOMENT = 0.24792240016492203        # e^-1.5 (1/1.5 + 1/1.5^2), by parts

MODELS = [
    FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0),
    FadingModel.kappa_mu_shadowed(10.0, 0.5, 0.5, 2.0),
    FadingModel.rician_shadowed(4.0, 2.0, 1.5),
    FadingModel.kappa_mu(2.0, 2.5, 1.5),
    FadingModel.eta_mu(0.3, 1.25, 3.0),
    FadingModel.nakagami(2.7, 1.0),
    FadingModel.rayleigh(2.0),
]


class TestLower:
    @pytest.mark.parametrize("model", MODELS)
    def test_zeta_zero(self, model):
        assert imgf_lower(model, -0.7, 0.0) == 0.0

    @pytest.mark.parametrize("model", MODELS)
    def test_cdf_identity(self, model):
        for z in (0.3, 1.0, 5.0):
            assert imgf_lower(model, 0.0, z) == pytest.approx(cdf(model, z), rel=1e-12)

    def test_golden_point(self):
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        assert imgf_lower(model, -1.0, 2.0) == pytest.approx(KMS_GOLDEN, rel=1e-8)

    def test_rayleigh_analytic(self):
        assert imgf_lower(FadingModel.rayleigh(1.0), -0.5, 1.0) == pytest.approx(
            RAY_LOWER, rel=1e-12)

    def test_infinite_zeta_is_mgf(self):
        model = MODELS[0]
        assert imgf_lower(model, -0.8, math.inf) == pytest.approx(mgf(model, -0.8), rel=1e-13)

    def test_between_poles_still_defined(self):
        # the lower transform is a finite integral for any s below the
        # LOS-free rate, even past the MGF pole
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        b = smallest_pole(model)
        s = 1.7 * b
        ref = quad_imgf(model, s, 1.0, "lower")
        assert imgf_lower(model, s, 1.0) == pytest.approx(ref, rel=1e-9)

    def test_domain_error_beyond_los_rate(self):
        model = FadingModel.kappa_mu(1.0, 1.0, 1.0)  # decay rate a = 2
        with pytest.raises(DomainError):
            imgf_lower(model, 2.5, 1.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_monotone_in_zeta(self, model):
        rng = np.random.default_rng(9)
        for s in (-2.0, -0.1, 0.0):
            zs = np.sort(rng.uniform(0.01, 10.0, size=8))
            vals = [imgf_lower(model, s, float(z)) for z in zs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestUpper:
    @pytest.mark.parametrize("model", MODELS)
    def test_zeta_zero_is_mgf(self, model):
        assert imgf_upper(model, -0.6, 0.0) == pytest.approx(mgf(model, -0.6), rel=1e-13)

    @pytest.mark.parametrize("model", MODELS)
    def test_survival_at_s_zero(self, model):
        for z in (0.5, 2.0):
            assert imgf_upper(model, 0.0, z) == pytest.approx(1.0 - cdf(model, z), rel=1e-10)

    def test_rayleigh_analytic(self):
        assert imgf_upper(FadingModel.rayleigh(1.0), -0.5, 1.0) == pytest.approx(
            RAY_UPPER, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_complementarity(self, model):
        for s in (-3.0, -0.4, 0.0):
            for z in (0.2, 1.0, 4.0, 20.0):
                mv = mgf(model, s)
                defect = abs(imgf_lower(model, s, z) + imgf_upper(model, s, z) - mv)
                assert defect <= 1e-10 * mv

    def test_cancellation_guard_deep_tail(self):
        # a tail far below the MGF keeps its relative accuracy
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        got = imgf_upper(model, -1.0, 30.0)
        ref = quad_imgf(model, -1.0, 30.0, "upper")
        assert got == pytest.approx(ref, rel=1e-8)
        assert got < 1e-6 * mgf(model, -1.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_monotone_nonincreasing_in_zeta(self, model):
        zs = [0.1, 0.7, 2.0, 6.0]
        for s in (-1.5, 0.0):
            vals = [imgf_upper(model, s, z) for z in zs]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_pole_domain_error(self):
        model = FadingModel.rayleigh(1.0)
        with pytest.raises(DomainError):
            imgf_upper(model, 1.0, 1.0)

    def test_near_pole_heavy_shadowing(self):
        # the upper sum's rest past x ~ 5940 would need more terms than the
        # cap allows; it is added in closed form.  Reference: quad_imgf
        model = FadingModel.kappa_mu_shadowed(34.32, 10.08, 0.799, 0.384)
        assert imgf_upper(model, 1.905, 6.42) == pytest.approx(0.99076908356, abs=1e-9)

    @pytest.mark.parametrize("k", [0, 1])
    def test_near_pole_sweep(self, k):
        # m < 1, kappa mu > 100, s up to 0.999 of the pole, against M^(k)(s)
        # minus the lower tail where that difference loses at most one bit
        rng = np.random.default_rng(20260)
        kept = 0
        for _ in range(60):
            mu = rng.uniform(2.0, 12.0)
            kappa, m = rng.uniform(100.0 / mu, 60.0), rng.uniform(0.3, 1.0)
            model = FadingModel.kappa_mu_shadowed(kappa, mu, m, 10.0 ** rng.uniform(-1, 1))
            s = smallest_pole(model) * rng.uniform(0.5, 0.999)
            zeta = model.mean_snr * 10.0 ** rng.uniform(-0.5, 1.5)
            with mpmath.workdps(30):
                full = float(mpmath.diff(lambda t: mgf(model, t), s, k))
            lower = imgf_deriv_s(model, s, zeta, k, "lower")
            upper = imgf_deriv_s(model, s, zeta, k, "upper")
            if lower <= full / 2.0:
                kept += 1
                assert upper == pytest.approx(full - lower, rel=1e-9)
        assert kept >= 15


class TestDerivatives:
    def test_zeroth_is_plain(self):
        model = MODELS[0]
        assert imgf_deriv_s(model, -0.5, 1.0, 0, "lower") == imgf_lower(model, -0.5, 1.0)
        assert imgf_deriv_s(model, -0.5, 1.0, 0, "upper") == imgf_upper(model, -0.5, 1.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_first_moment(self, model):
        assert imgf_deriv_s(model, 0.0, 0.0, 1, "upper") == pytest.approx(
            model.mean_snr, rel=1e-10)

    def test_rayleigh_truncated_moment(self):
        assert imgf_deriv_s(FadingModel.rayleigh(1.0), -0.5, 1.0, 1, "upper") == pytest.approx(
            RAY_MOMENT, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_finite_differences(self, model):
        h0 = 1e-5
        for (s, z, tail) in [(-1.0, 1.5, "upper"), (-0.3, 0.7, "upper"),
                             (-1.0, 1.5, "lower")]:
            h = h0 * max(1.0, abs(s))
            if tail == "upper":
                fd = (imgf_upper(model, s + h, z) - imgf_upper(model, s - h, z)) / (2 * h)
            else:
                fd = (imgf_lower(model, s + h, z) - imgf_lower(model, s - h, z)) / (2 * h)
            got = imgf_deriv_s(model, s, z, 1, tail)
            assert got == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("model", MODELS)
    def test_matches_quadrature_high_order(self, model):
        for k in (2, 3):
            got = imgf_deriv_s(model, -0.8, 1.2, k, "upper")
            ref = quad_imgf_moment(model, -0.8, 1.2, k)
            assert got == pytest.approx(ref, rel=1e-8)

    def test_lower_plus_upper_is_full_moment(self):
        model = MODELS[0]
        k = 2
        full = imgf_deriv_s(model, -0.5, 0.0, k, "upper")
        lo = imgf_deriv_s(model, -0.5, 2.0, k, "lower")
        up = imgf_deriv_s(model, -0.5, 2.0, k, "upper")
        assert lo + up == pytest.approx(full, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2])
    def test_lower_between_poles_against_quadrature(self, k):
        # past the MGF pole b = 2.5 the lower series still converges for any
        # s below the LOS-free rate a = 5
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        for s in (2.5, 3.4, 4.9):
            for z in (0.3, 1.0, 3.0):
                ref = quad_imgf_moment(model, s, z, k, "lower")
                assert abs(imgf_deriv_s(model, s, z, k, "lower") - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("model", MODELS)
    def test_scaled_log_matches_upper(self, model):
        for k in (1, 3):
            for (s, z) in [(-0.8, 1.2), (0.5 * smallest_pole(model), 4.0)]:
                ref = math.log(imgf_deriv_s(model, s, z, k, "upper"))
                assert _deriv_log_scaled(model, s, z, k) + s * z == pytest.approx(
                    ref, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_lower_domain_error_at_los_rate(self, k):
        # a = 5: the lower tail's domain is s < a at every order
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        for s in (5.0, 6.0):
            with pytest.raises(DomainError):
                imgf_deriv_s(model, s, 1.0, k, "lower")

    @pytest.mark.parametrize("k", [0, 1])
    def test_upper_domain_error_at_pole(self, k):
        # b = 2.5 < a = 5: the upper tail's domain is s < b; its empty tail
        # at zeta = inf is 0 for every s
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        for s in (2.5, 3.0):
            with pytest.raises(DomainError):
                imgf_deriv_s(model, s, 1.0, k, "upper")
            assert imgf_deriv_s(model, s, math.inf, k, "upper") == 0.0

    def test_order_cap(self):
        with pytest.raises(DomainError):
            imgf_deriv_s(MODELS[0], -0.5, 1.0, MAX_DERIV_ORDER + 1)

    def test_infinite_zeta(self):
        model = MODELS[0]
        assert imgf_deriv_s(model, -0.5, math.inf, 1, "upper") == 0.0
        assert imgf_deriv_s(model, -0.5, math.inf, 1, "lower") == pytest.approx(
            imgf_deriv_s(model, -0.5, 0.0, 1, "upper"), rel=1e-12)


def quad_imgf_moment(model, s, zeta, k, tail="upper"):
    from scipy import integrate
    from imgflib.fading import pdf
    lo, hi = (zeta, np.inf) if tail == "upper" else (0.0, zeta)
    val, _ = integrate.quad(lambda x: x ** k * math.exp(s * x) * pdf(model, x),
                            lo, hi, epsabs=1e-300, epsrel=1e-11, limit=400)
    return val


def heavy_shadowing_oracle(kappa, mu, m, gbar, s, zeta, k, densities):
    """int_zeta^inf x^k e^(s x) f(x) dx at dps 30 for kappa-mu shadowed
    fading, apart from the gamma-mixture kernel: M^(k)(s) by mp.diff of the
    closed-form MGF, less mp.quad of the same integrand over [0, zeta] with
    the density from mp.hyp1f1 (the tail itself decays over 1 / (b - s),
    5e4 at 0.99999 of the pole; 30 digits absorb the subtraction).  The
    densities dict keeps f at the quadrature nodes, which every s and k
    share."""
    with mpmath.workdps(30):
        kappa, mu, m, gbar, s = map(mpmath.mpf, (kappa, mu, m, gbar, s))
        a = mu * (1 + kappa) / gbar
        b = a * m / (mu * kappa + m)
        full = mpmath.diff(lambda t: ((a - t) / a) ** (m - mu) * ((b - t) / b) ** (-m), s, k)
        if zeta == 0.0:
            return full
        log_amp = (mu * mpmath.log(mu) + m * mpmath.log(m) + mu * mpmath.log1p(kappa)
                   - mu * mpmath.log(gbar) - m * mpmath.log(mu * kappa + m) - mpmath.loggamma(mu))

        def integrand(x):
            if x not in densities:
                densities[x] = mpmath.exp(log_amp + (mu - 1) * mpmath.log(x) - a * x
                                          + mpmath.log(mpmath.hyp1f1(m, mu, (a - b) * x)))
            return x ** k * mpmath.exp(s * x) * densities[x]

        cuts = [0] + [c for c in (0.1, gbar, 1, 4) if c < zeta] + [zeta]
        return full - mpmath.quad(integrand, cuts)


class TestHeavyShadowingNearPole:
    """kappa-mu shadowed (34.32, 10.08, 0.799), mean 0.384: with m < 1 the
    factor (mu+n)_k puts the summand peak at about (m+k-1) q / (1-q), 3.5e5
    terms out at 0.999 of the pole, while every Q is 1 from about x +
    7 sqrt(x).  The window stops there and the rest is added in closed form."""

    MODEL = (34.32, 10.08, 0.799, 0.384)
    DENSITIES: dict = {}

    @pytest.mark.parametrize("fraction", [0.9, 0.99, 0.999, 0.99999])
    def test_upper_derivatives_against_mpmath(self, fraction):
        model = FadingModel.kappa_mu_shadowed(*self.MODEL)
        s = fraction * smallest_pole(model)
        for k in (1, 2, 3):
            # the kernel's 1e-11, and the value's condition number in s, about
            # (m+k) s / (b-s), times a few units of rounding
            tol = 1e-11 + 1e-15 * (self.MODEL[2] + k) / (1.0 - fraction)
            for zeta in (0.0, 0.0192, 1.15, 15.4):
                ref = float(heavy_shadowing_oracle(*self.MODEL, s, zeta, k, self.DENSITIES))
                got = imgf_deriv_s(model, s, zeta, k, "upper")
                assert got == pytest.approx(ref, rel=tol, abs=0.0), (k, zeta)


class TestReductionCoherence:
    def test_rician_shadowed_structural(self):
        rs = FadingModel.rician_shadowed(3.0, 2.0, 4.0)
        twin = FadingModel.kappa_mu_shadowed(3.0, 1.0, 2.0, 4.0)
        assert canonicalize(rs) == canonicalize(twin)

    def test_rician_shadowed_numerical(self):
        rs = FadingModel.rician_shadowed(3.0, 2.0, 4.0)
        twin = FadingModel.kappa_mu_shadowed(3.0, 1.0, 2.0, 4.0)
        for (s, z) in [(-1.0, 0.5), (-0.2, 3.0), (0.0, 1.0)]:
            a = imgf_lower(rs, s, z)
            b = imgf_lower(twin, s, z)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_eta_mu_direct_row(self):
        for (eta, mu) in [(0.04, 1.5), (0.5, 0.5), (0.9, 2.0)]:
            em = FadingModel.eta_mu(eta, mu, 2.0)
            for (s, z) in [(-1.2, 0.8), (0.0, 2.5)]:
                a = imgf_lower(em, s, z)
                b = imgf_lower_eta_mu_direct(eta, mu, 2.0, s, z)
                assert a == pytest.approx(b, rel=1e-10)


class TestGenericRoute:
    def test_delegates_to_inversion(self):
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        img = laplace_image(model)
        got = imgf_generic(img, -1.0, 2.0)
        assert got == pytest.approx(KMS_GOLDEN, rel=1e-7)

    def test_matches_closed_forms_on_sample(self):
        for model in (MODELS[0], MODELS[3], MODELS[6]):
            img = laplace_image(model)
            for (s, z) in [(-0.5, 1.0), (-2.0, 4.0)]:
                num = imgf_generic(img, s, z, dps=40)
                ref = imgf_lower(model, s, z)
                assert num == pytest.approx(ref, rel=1e-6)


class TestQueryDispatch:
    """imgf_deriv_s checks a (s, zeta, order, tail) query and sends it to
    imgf_lower, imgf_upper or the derivative series (the CLI's imgf path)."""

    def test_query_validation(self):
        model = FadingModel.rayleigh(1.0)
        with pytest.raises(DomainError):
            imgf_deriv_s(model, 0.0, -1.0, 0, "lower")
        with pytest.raises(DomainError):
            imgf_deriv_s(model, 0.0, 1.0, 0, "middle")
        with pytest.raises(DomainError):
            imgf_deriv_s(model, 0.0, 1.0, 13, "lower")

    def test_evaluate(self):
        model = FadingModel.rayleigh(1.0)
        assert imgf_deriv_s(model, -0.5, 1.0, 0, "lower") == pytest.approx(RAY_LOWER, rel=1e-12)
        assert imgf_deriv_s(model, -0.5, 1.0, 0, "upper") == pytest.approx(RAY_UPPER, rel=1e-12)
        assert imgf_deriv_s(model, -0.5, 1.0, 1, "upper") == pytest.approx(RAY_MOMENT, rel=1e-12)
