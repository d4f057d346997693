import cmath
import math

import numpy as np
import pytest

from imgflib import laplace
from imgflib.errors import AccuracyError, DomainError
from imgflib.fading import FadingModel, _gamma_mixture, laplace_image
from imgflib.incomplete import imgf_generic, imgf_lower
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


def talbot_per_node(h, t, nodes):
    """The float64 fixed Talbot sum node by node, the image called on one
    complex number at a time: the reference of laplace._talbot's array sum.
    Also returns (2 / 5t) sum_k |w_k h(u_k / t)|, the scale of its rounding."""
    acc = scale = 0.0
    for u, w in laplace._talbot_contour(nodes, None):
        term = w * h(u / t)
        acc += term.real
        scale += abs(term)
    return 2 * acc / (5 * t), 2 * scale / (5 * t)


# one model per weight family of the gamma-mixture kernel
# (fading._gamma_mixture): its lam and m select it
FAMILY_MODELS = {
    "gamma": FadingModel.nakagami(2.5, 2.0),
    "poisson": FadingModel.kappa_mu(1.5, 2.0, 3.0),
    "negative-binomial": FadingModel.kappa_mu_shadowed(1.5, 2.0, 2.5, 10.0),
    "binomial": FadingModel.rician_shadowed(3.0, 2.0, 1.0),
}
GENERIC_POINTS = [(s, zr) for s in (-5.0, -0.5, 0.0) for zr in (0.1, 1.0, 5.0)]


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
            v24, v48 = laplace._talbot(h, t, (24, 48), None)
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

    @pytest.mark.parametrize("evaluator", [
        lambda p: np.exp(1e3 * p) / p,           # overflows on the contour
        lambda p: np.full(p.shape, np.nan),
        lambda p: np.where(p.real > 5.0, np.inf, 1.0 / p),
    ], ids=["overflow", "nan", "inf"])
    def test_non_finite_sum_is_accuracy_error(self, evaluator):
        with pytest.raises(AccuracyError):
            invert(LaplaceImage(evaluator), 1.0)

    @pytest.mark.parametrize("evaluator", [
        lambda p: 1.0 / (p * (p + 1.0)) if isinstance(p, complex) else 1.0,
        lambda p: cmath.exp(-p) / p,
        lambda p: 1.0 / (p[:1] + 1.0),
    ], ids=["scalar-result", "cmath", "wrong-shape"])
    def test_evaluator_without_arrays_fails_loudly(self, evaluator):
        with pytest.raises(TypeError):
            invert(LaplaceImage(evaluator), 2.0)

    def test_cmath_image_fails_on_generic_route(self):
        # the README's image written with cmath: no number comes back
        image = LaplaceImage(lambda p: cmath.exp(-1.5 * cmath.log(1.0 + 2.0 * p)),
                             abscissa=-0.5)
        with pytest.raises(TypeError):
            imgf_generic(image, -1.0, 3.0)


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

    def test_float64_inversion_calls_the_image_once(self):
        # the 84 contour nodes and -s, where L(-s) = M(s) bounds the result
        seen = []
        image = laplace_image(FadingModel.rayleigh(1.0))

        def counting(p):
            seen.append(p.shape)
            return image.evaluator(p)

        img = LaplaceImage(counting, image.abscissa)
        assert imgf_lower_numeric(img, -0.5, 1.0) == pytest.approx(RAY_LOWER, rel=1e-7)
        assert seen == [(laplace._COMPANION_NODES + laplace._NODES + 1,)]
        # M(s) clips the inversion noise at large zeta: the MGF 2/3, not above
        assert imgf_lower_numeric(img, -0.5, 60.0) <= 2.0 / 3.0

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


class TestFloatRoute:
    """The float64 route sums each contour over one array call of the image;
    the reference is the node-by-node loop over complex numbers."""

    def test_families_are_distinct(self):
        lam_m = {name: _gamma_mixture(model)[:2] for name, model in FAMILY_MODELS.items()}
        assert lam_m["gamma"][0] == 0.0
        assert math.isinf(lam_m["poisson"][1])
        assert 0.0 < lam_m["negative-binomial"][1] < math.inf
        assert lam_m["binomial"][1] < 0.0

    @pytest.mark.parametrize("family", list(FAMILY_MODELS))
    def test_array_sum_matches_per_node_loop(self, family):
        # numpy's and cmath's log and exp agree to a few ulp per node: the
        # sums agree to the rounding the weights' scale allows
        model = FAMILY_MODELS[family]
        ev = laplace_image(model).evaluator
        for s, zr in GENERIC_POINTS:
            t = zr * model.mean_snr
            h = lambda p: ev(p - s) / p  # noqa: E731
            sums = laplace._talbot(h, t, (laplace._COMPANION_NODES, laplace._NODES), None)
            for nodes, got in zip((laplace._COMPANION_NODES, laplace._NODES), sums):
                ref, scale = talbot_per_node(h, t, nodes)
                assert abs(got - ref) <= 64 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("family", list(FAMILY_MODELS))
    def test_generic_matches_closed_form(self, family):
        model = FAMILY_MODELS[family]
        img = laplace_image(model)
        for s, zr in GENERIC_POINTS:
            z = zr * model.mean_snr
            assert imgf_generic(img, s, z) == pytest.approx(imgf_lower(model, s, z),
                                                            rel=1e-6, abs=0.0)

    def test_image_receives_node_arrays(self):
        seen = []

        def image(p):
            seen.append((type(p), p.dtype, p.shape))
            return 1.0 / (p * (p + 1.0))

        invert(LaplaceImage(image), 2.0)
        n = laplace._COMPANION_NODES + laplace._NODES
        assert seen == [(np.ndarray, np.dtype(complex), (n,))]

    def test_contour_is_read_only(self):
        u, w, _ = laplace._float_contours((laplace._COMPANION_NODES, laplace._NODES))
        with pytest.raises(ValueError):
            u[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


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
        monkeypatch.setattr(laplace, "_talbot", lambda h, t, counts, dps: [
            talbot_mp_per_call(h, t, nodes, dps) for nodes in counts])
        fresh = [imgf_lower_numeric(img, s, z, dps=40) for s, z in points]
        for a, b in zip(cached, fresh):
            assert a == pytest.approx(b, rel=1e-14, abs=0.0)
