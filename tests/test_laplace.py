import math

import numpy as np
import pytest

from imgflib import laplace
from imgflib.errors import AccuracyError, DomainError
from imgflib.fading import FadingModel, laplace_image
from imgflib.laplace import (
    InversionResult,
    LaplaceImage,
    imgf_lower_numeric,
    invert,
)

RAY_LOWER = 0.5179132265677134  # (2/3)(1 - e^-1.5), analytic


def talbot_mp_per_call(h, t, nodes, dps):
    """mpmath fixed Talbot sum with the contour recomputed at every call: the
    reference for laplace._talbot's cached contour."""
    from mpmath import mp

    with mp.workdps(dps):
        tt = mp.mpf(t)
        r = mp.mpf(2 * nodes) / 5
        acc = mp.exp(r) / 2 * h(mp.mpc(r / tt)).real
        for k in range(1, nodes):
            theta = mp.pi * k / nodes
            cot = mp.cot(theta)
            p = (r / tt) * theta * mp.mpc(cot, 1)
            w = mp.exp(tt * p) * mp.mpc(1, theta * (1 + cot * cot) - cot)
            acc += (w * h(p)).real
        return float(2 * acc / (5 * tt))


class TestInvert:
    def test_unit_step(self):
        # float64 contour roundoff floors near 1e-8 relative
        for t in (0.2, 1.0, 7.5):
            res = invert(LaplaceImage(lambda p: 1.0 / p), t)
            assert res.value == pytest.approx(1.0, rel=5e-8)
            assert res.error_estimate < 1e-6

    def test_ramp(self):
        res = invert(LaplaceImage(lambda p: 1.0 / p ** 2), 3.0)
        assert res.value == pytest.approx(3.0, rel=1e-8)

    def test_partial_fraction(self):
        # 1/(p(p+1)) inverts to 1 - e^-t
        res = invert(LaplaceImage(lambda p: 1.0 / (p * (p + 1.0))), 2.0)
        assert res.value == pytest.approx(1.0 - math.exp(-2.0), rel=1e-8)

    def test_extended_precision(self):
        res = invert(LaplaceImage(lambda p: 1.0 / (p * (p + 1.0))), 2.0, dps=40)
        assert res.value == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)

    def test_node_doubling_self_consistency(self):
        # doubling the node count moves well-scaled results by less than the target
        cases = [
            (lambda p: 1.0 / p, 1.0, 1.0),
            (lambda p: 1.0 / (p * (p + 1.0)), 2.0, 1.0 - math.exp(-2.0)),
            (lambda p: 1.0 / (p + 0.5) ** 2, 1.5, 1.5 * math.exp(-0.75)),
        ]
        for (h, t, ref) in cases:
            v24 = laplace._talbot(h, t, 24, None)
            v48 = laplace._talbot(h, t, 48, None)
            assert abs(v48 - v24) < 1e-8 * max(1.0, abs(ref))

    def test_exponential_shift(self):
        # image analytic only for Re(p) > 1: L{e^t}(p) = 1/(p-1)
        res = invert(LaplaceImage(lambda p: 1.0 / (p - 1.0), abscissa=1.0), 2.0)
        assert res.value == pytest.approx(math.exp(2.0), rel=1e-7)

    def test_divergence_detection(self):
        # an image violating its analyticity promise must not return silently
        with pytest.raises(AccuracyError):
            invert(LaplaceImage(lambda p: 1.0 / (p - 6.0)), 5.0)

    def test_t_domain(self):
        with pytest.raises(DomainError):
            invert(LaplaceImage(lambda p: 1.0 / p), 0.0)

    def test_result_type(self):
        res = invert(LaplaceImage(lambda p: 1.0 / p), 1.0)
        assert isinstance(res, InversionResult)


class TestImgfNumeric:
    def test_cdf_at_s_zero(self):
        ray = FadingModel.rayleigh(2.0)
        img = laplace_image(ray)
        for z in (0.4, 2.0, 6.0):
            ref = 1.0 - math.exp(-z / 2.0)
            assert imgf_lower_numeric(img, 0.0, z) == pytest.approx(ref, rel=1e-7)

    def test_rayleigh_point(self):
        img = laplace_image(FadingModel.rayleigh(1.0))
        assert imgf_lower_numeric(img, -0.5, 1.0) == pytest.approx(RAY_LOWER, rel=1e-7)

    def test_large_zeta_recovers_mgf(self):
        img = laplace_image(FadingModel.rayleigh(1.0))
        assert imgf_lower_numeric(img, -0.5, 60.0) == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_zeta_zero(self):
        img = laplace_image(FadingModel.rayleigh(1.0))
        assert imgf_lower_numeric(img, -0.5, 0.0) == 0.0

    def test_monotone_in_zeta(self):
        rng = np.random.default_rng(11)
        img = laplace_image(FadingModel.kappa_mu_shadowed(1.2, 1.8, 2.0, 1.5))
        for _ in range(5):
            s = float(rng.uniform(-3.0, 0.0))
            zs = np.sort(rng.uniform(0.05, 8.0, size=6))
            vals = [imgf_lower_numeric(img, s, float(z)) for z in zs]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_pole_domain_error(self):
        img = laplace_image(FadingModel.rayleigh(1.0))  # pole at s = 1
        with pytest.raises(DomainError):
            imgf_lower_numeric(img, 1.0, 1.0)
        with pytest.raises(DomainError):
            imgf_lower_numeric(img, 1.5, 1.0)


class TestTalbotContourCache:
    # models, s and zeta/mean ratios drawn from the acceptance grid
    @pytest.mark.parametrize("model", [
        FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.0, 10.0),
        FadingModel.kappa_mu(10.0, 6.0, 1.0),
        FadingModel.eta_mu(0.04, 1.0, 10.0),
        FadingModel.rician_shadowed(0.5, 0.5, 1.0),
    ], ids=["kms", "kappa-mu", "eta-mu", "rician-shadowed"])
    def test_cached_contour_matches_per_call_contour(self, model, monkeypatch):
        img = laplace_image(model)
        points = [(s, zr * model.mean_snr) for s in (-5.0, -0.1, 0.0) for zr in (0.1, 5.0)]
        cached = [imgf_lower_numeric(img, s, z, dps=40) for s, z in points]
        # the float64 route (its own cached contour) agrees to its roundoff floor
        for (s, z), ref in zip(points, cached):
            assert imgf_lower_numeric(img, s, z) == pytest.approx(ref, rel=1e-7, abs=0.0)
        monkeypatch.setattr(laplace, "_talbot", talbot_mp_per_call)
        fresh = [imgf_lower_numeric(img, s, z, dps=40) for s, z in points]
        for a, b in zip(cached, fresh):
            assert a == pytest.approx(b, rel=1e-14, abs=0.0)
