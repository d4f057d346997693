import math

import numpy as np
import pytest
from scipy import integrate, stats

from imgflib import fading
from imgflib.errors import AccuracyError, DomainError
from imgflib.incomplete import imgf_lower
from imgflib.fading import (
    FadingModel,
    Kind,
    _law,
    canonicalize,
    cdf,
    cdf_grid,
    db_to_linear,
    laplace_image,
    linear_to_db,
    mgf,
    model_from_json,
    model_to_json,
    mrc_combine,
    pdf,
    sample,
    smallest_pole,
)

MODELS = [
    FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0),
    FadingModel.kappa_mu_shadowed(10.0, 0.5, 0.5, 2.0),
    FadingModel.rician_shadowed(4.0, 2.0, 1.5),
    FadingModel.kappa_mu(2.0, 2.5, 1.5),
    FadingModel.eta_mu(0.3, 1.25, 3.0),
    FadingModel.rician(5.0, 2.0),
    FadingModel.nakagami(2.7, 1.0),
    FadingModel.hoyt(0.4, 1.0),
    FadingModel.rayleigh(2.0),
    FadingModel.one_sided_gaussian(1.0),
]


class TestModelValidation:
    def test_missing_parameter(self):
        with pytest.raises(DomainError):
            FadingModel(Kind.KAPPA_MU, 1.0, kappa=1.0)  # mu missing

    def test_foreign_parameter(self):
        with pytest.raises(DomainError):
            FadingModel(Kind.RAYLEIGH, 1.0, kappa=1.0)

    def test_bad_values(self):
        with pytest.raises(DomainError):
            FadingModel.rayleigh(0.0)
        with pytest.raises(DomainError):
            FadingModel.kappa_mu(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            FadingModel.eta_mu(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            FadingModel.hoyt(1.5, 1.0)


class TestCanonicalize:
    def test_rayleigh(self):
        c = canonicalize(FadingModel.rayleigh(2.0))
        assert c.kind is Kind.KAPPA_MU_SHADOWED
        assert c.kappa == 0.0 and c.mu == 1.0 and c.mean_snr == 2.0

    def test_eta_mu_mapping(self):
        c = canonicalize(FadingModel.eta_mu(0.04, 1.5, 1.0))
        assert c.mu == 3.0
        assert c.kappa == pytest.approx(12.0, rel=1e-15)
        assert c.m == 1.5

    def test_eta_above_one_uses_symmetry(self):
        lo = canonicalize(FadingModel.eta_mu(0.25, 1.0, 1.0))
        hi = canonicalize(FadingModel.eta_mu(4.0, 1.0, 1.0))
        assert lo == hi

    def test_rician_shadowed(self):
        c = canonicalize(FadingModel.rician_shadowed(10.0, 2.0, 1.0))
        assert (c.kappa, c.mu, c.m) == (10.0, 1.0, 2.0)

    def test_one_sided_gaussian(self):
        c = canonicalize(FadingModel.one_sided_gaussian(1.0))
        assert (c.kappa, c.mu) == (0.0, 0.5)

    def test_equal_models_canonicalize_once(self, monkeypatch):
        calls = []

        def counting(model):
            calls.append(model)
            return canonicalize(model)

        monkeypatch.setattr(fading, "canonicalize", counting)
        _law.cache_clear()
        first = FadingModel.kappa_mu(2.0, 1.5, 10.0)
        second = FadingModel.kappa_mu(2.0, 1.5, 10.0)
        assert first is not second
        pdf(first, 3.0), mgf(second, -1.0), smallest_pole(second)
        assert len(calls) == 1

    @pytest.mark.parametrize("model", MODELS)
    def test_idempotent_and_mean_preserving(self, model):
        c1 = canonicalize(model)
        assert canonicalize(c1) == c1
        assert c1.mean_snr == model.mean_snr


class TestMgf:
    @pytest.mark.parametrize("model", MODELS)
    def test_normalized_at_zero(self, model):
        assert mgf(model, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_rayleigh_form(self):
        ray = FadingModel.rayleigh(2.0)
        for s in (-4.0, -0.5, 0.3):
            assert mgf(ray, s) == pytest.approx(1.0 / (1.0 - 2.0 * s), rel=1e-13)

    def test_eta_mu_closed_form(self):
        eta, mu, gbar = 0.3, 1.25, 3.0
        em = FadingModel.eta_mu(eta, mu, gbar)
        for s in (-2.0, -0.3):
            ref = (mu ** 2 * (2.0 + 1.0 / eta + eta)
                   / (((1.0 + eta) * mu - gbar * s) * ((1.0 + 1.0 / eta) * mu - gbar * s))) ** mu
            assert mgf(em, s) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("model", MODELS)
    def test_first_moment(self, model):
        h = 1e-6
        d = (mgf(model, h) - mgf(model, -h)) / (2.0 * h)
        assert d == pytest.approx(model.mean_snr, rel=1e-5)

    # kappa = 0 with finite m (kappa-mu shadowed, eta-mu at eta = 1) is a gamma law
    @pytest.mark.parametrize("model", MODELS + [FadingModel.kappa_mu_shadowed(0.0, 2.0, 3.0, 1.0),
                                                FadingModel.eta_mu(1.0, 1.2, 3.0)])
    def test_pole_raises(self, model):
        b = _law(model).b
        assert smallest_pole(model) == b
        with pytest.raises(DomainError):
            mgf(model, b)
        with pytest.raises(DomainError):
            mgf(model, b + 0.5)
        assert 0.0 < mgf(model, b * (1.0 - 1e-2)) < math.inf

    @pytest.mark.parametrize("mean", [0.1, 3.0, 7.0])
    def test_gamma_law_finite_just_below_pole(self, mean):
        # (1 - s/a)^-mu is finite at the last double below the pole a
        for model in (FadingModel.nakagami(2.5, mean), FadingModel.rayleigh(mean),
                      FadingModel.kappa_mu_shadowed(0.0, 3.0, 0.8, mean)):
            b = smallest_pole(model)
            assert 0.0 < mgf(model, math.nextafter(b, -math.inf)) < math.inf

    @pytest.mark.parametrize("model", MODELS, ids=lambda model: model.kind.value)
    def test_last_double_below_pole(self, model):
        # an unshadowed LOS law's exp(kappa mu s / (a - s)) leaves the float
        # range there, which is an AccuracyError naming s and the pole; every
        # other kind's MGF stays finite
        b = smallest_pole(model)
        s = math.nextafter(b, -math.inf)
        kappa, mu, m = _law(model)[:3]
        if kappa > 0.0 and math.isinf(m):
            with pytest.raises(AccuracyError) as info:
                mgf(model, s)
            assert repr(s) in str(info.value) and repr(b) in str(info.value)
        else:
            assert 0.0 < mgf(model, s) < math.inf

    def test_complex_argument_matches_real(self):
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        for s in (-2.0, -0.1):
            assert complex(mgf(model, complex(s, 0.0))).real == pytest.approx(
                mgf(model, s), rel=1e-12)

    def test_pole_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            model = FadingModel.kappa_mu_shadowed(
                float(rng.uniform(0.01, 20.0)), float(rng.uniform(0.2, 8.0)),
                float(rng.uniform(0.2, 20.0)), float(rng.uniform(0.2, 30.0)))
            a, b = _law(model)[4:6]
            assert 0.0 < b <= a

    def test_factorization_matches_mgf(self):
        # M(s) = amplitude * (a - s)^(m - mu) * (b - s)^(-m)
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        kappa, mu, m, gbar, a, b, _ = _law(model)
        amplitude = (mu ** mu * m ** m * (1.0 + kappa) ** mu
                     / (gbar ** mu * (mu * kappa + m) ** m))
        for s in (-3.0, -0.2):
            ref = amplitude * (a - s) ** (m - mu) * (b - s) ** (-m)
            assert mgf(model, s) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_complex_array_matches_complex_scalars(self, model):
        # the float64 inversion's image: NumPy's principal branch, elementwise
        ps = np.array([0.3, 2.0 + 5.0j, -40.0 - 3.0j, -1e3 + 1e3j, 1e-4j])
        got = mgf(model, ps)
        assert isinstance(got, np.ndarray) and got.shape == ps.shape
        for p, g in zip(ps.tolist(), got):
            ref = mgf(model, complex(p))
            assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_laplace_image_is_mgf_mirror(self):
        model = FadingModel.kappa_mu(2.0, 2.5, 1.5)
        img = laplace_image(model)
        assert img.evaluator(0.0) == pytest.approx(1.0, rel=1e-13)
        assert img.evaluator(0.7) == pytest.approx(mgf(model, -0.7), rel=1e-13)
        assert -img.abscissa == pytest.approx(smallest_pole(model))


class TestPdfCdf:
    @pytest.mark.parametrize("model", MODELS)
    def test_pdf_normalization(self, model):
        hi = 60.0 * model.mean_snr
        val, _ = integrate.quad(lambda x: pdf(model, x), 0.0, hi,
                                epsabs=1e-13, epsrel=1e-12, limit=400,
                                points=[model.mean_snr])
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("model", MODELS)
    def test_cdf_at_zero(self, model):
        assert cdf(model, 0.0) == 0.0

    def test_rayleigh_cdf(self):
        assert cdf(FadingModel.rayleigh(2.0), 2.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_cdf_grid_matches_scalar(self, model):
        xs = np.array([0.1, 0.8, 2.0, 7.0]) * model.mean_snr
        grid = cdf_grid(model, xs)
        for x, g in zip(xs, grid):
            assert g == pytest.approx(cdf(model, float(x)), abs=5e-12)

    @pytest.mark.parametrize("scale", [1.0, 3.0], ids=["unscaled", "mean"])
    @pytest.mark.parametrize("kappa, mu, m", [(10.0, 6.0, 2.0), (34.0, 6.0, 0.8),
                                              (34.0, 6.0, 12.5), (34.0, 6.0, 70.0)])
    def test_cdf_grid_over_ten_decades(self, kappa, mu, m, scale):
        # one array call over ten decades: its blocks serve every column, so a
        # seed far from a column's x must keep that column's accuracy (the
        # seed's x^a e^-x / Gamma(a+1) at x << a lost eps a^2/x relative)
        model = FadingModel.kappa_mu_shadowed(kappa, mu, m, 3.0)
        xs = np.logspace(-6, 4, 400) * scale
        grid = cdf_grid(model, xs)
        ref = np.array([imgf_lower(model, 0.0, float(x)) for x in xs])
        assert np.all(np.abs(grid - ref) <= 1e-12 * ref)

    def test_special_cases_match_canonical_closed_forms(self):
        # finite-parameter reductions must agree essentially exactly
        pairs = [
            (FadingModel.rician_shadowed(4.0, 2.0, 1.5),
             FadingModel.kappa_mu_shadowed(4.0, 1.0, 2.0, 1.5)),
            (FadingModel.hoyt(0.4, 1.0),
             FadingModel.eta_mu(0.16, 0.5, 1.0)),
            (FadingModel.rayleigh(2.0),
             FadingModel.nakagami(1.0, 2.0)),
        ]
        for a, b in pairs:
            for x in (0.2, 1.0, 4.0):
                assert pdf(a, x) == pytest.approx(pdf(b, x), rel=1e-10)
                assert cdf(a, x) == pytest.approx(cdf(b, x), rel=1e-10)
            for s in (-1.5, -0.2):
                assert mgf(a, s) == pytest.approx(mgf(b, s), rel=1e-10)

    def test_unshadowed_limit_via_large_m(self):
        # kappa-mu equals kappa-mu shadowed at m = 1e4 to about 1e-3
        km = FadingModel.kappa_mu(2.0, 2.5, 1.5)
        approx = FadingModel.kappa_mu_shadowed(2.0, 2.5, 1.0e4, 1.5)
        for x in (0.3, 1.5, 4.0):
            assert pdf(km, x) == pytest.approx(pdf(approx, x), rel=1e-3)
            assert cdf(km, x) == pytest.approx(cdf(approx, x), rel=1e-3)
        for s in (-2.0, -0.3):
            assert mgf(km, s) == pytest.approx(mgf(approx, s), rel=1e-3)

    @pytest.mark.parametrize("kappa, mu, mean", [(10.0, 2.0, 1.0), (2.0, 2.5, 1.5)])
    @pytest.mark.parametrize("x", [0.3, 1.0, 4.0, 20.0])
    def test_large_m_density_against_mpmath(self, kappa, mu, mean, x):
        # m log m - m log(mu kappa + m) and a - b cancel at m = 1e4
        model = FadingModel.kappa_mu_shadowed(kappa, mu, 1.0e4, mean)
        assert pdf(model, x) == pytest.approx(_mp_shadowed_pdf(kappa, mu, 1.0e4, mean, x),
                                              rel=1e-13, abs=0.0)

    # m - mu = 1, 2, 11, 63: e^-z 1F1(m; mu; z) is Kummer's finite sum, and the
    # density's exponent -a x + z is -b x
    @pytest.mark.parametrize("kappa, mu, m", [(3.0, 1.0, 2.0), (1.5, 0.5, 2.5), (2.0, 2.0, 13.0),
                                              (10.0, 1.0, 64.0)])
    @pytest.mark.parametrize("x", [0.01, 1.0, 30.0, 300.0])
    def test_finite_form_density_against_mpmath(self, kappa, mu, m, x):
        model = FadingModel.kappa_mu_shadowed(kappa, mu, m, 1.0)
        assert pdf(model, x) == pytest.approx(_mp_shadowed_pdf(kappa, mu, m, 1.0, x),
                                              rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x", [300.0, 683.0])
    def test_large_m_density_vanishes_where_1f1_overflows(self, x):
        # 1F1(1e4; 2; z) passes the double range from x = 284 on, z <= 30
        assert pdf(FadingModel.kappa_mu_shadowed(10.0, 2.0, 1.0e4, 1.0), x) == 0.0

    @pytest.mark.parametrize("kappa, mu, x", [(1e-200, 5.0, 1.0), (1e-10, 200.0, 1.0)])
    def test_unshadowed_density_where_the_scaled_bessel_underflows(self, kappa, mu, x):
        # ive(mu - 1, w) is 0 at w = 1e-99 and w = 0.004: log I_nu(w) then comes
        # from 1F1 (DLMF 10.39.5); the density is the gamma limit, not 0
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(40):
            k, u, y = (mp.mpf(v) for v in (kappa, mu, x))
            a = u * (1 + k)
            ref = float(a * mp.exp(-k * u - a * y) * (a * y / (k * u)) ** ((u - 1) / 2)
                        * mp.besseli(u - 1, 2 * mp.sqrt(k * u * a * y)))
        assert pdf(FadingModel.kappa_mu(kappa, mu, 1.0), x) == pytest.approx(
            ref, rel=1e-13, abs=0.0)

    def test_quadrature_where_the_scaled_bessel_underflows(self):
        from imgflib.oracles import quad_imgf

        model = FadingModel.kappa_mu(1e-200, 5.0, 1.0)
        assert cdf(model, 1.0) == pytest.approx(0.559507, rel=1e-6)
        assert quad_imgf(model, 0.0, 1.0) == pytest.approx(cdf(model, 1.0), rel=1e-10)

    @pytest.mark.parametrize("model, intercept", [
        (FadingModel.one_sided_gaussian(1.0), math.inf),
        (FadingModel.kappa_mu(2.0, 0.5, 1.0), math.inf),
        (FadingModel.kappa_mu_shadowed(2.0, 0.5, 3.0, 1.0), math.inf),
        (FadingModel.nakagami(2.5, 1.0), 0.0),
        (FadingModel.kappa_mu(2.0, 2.5, 1.0), 0.0),
        (FadingModel.kappa_mu_shadowed(2.0, 2.5, 3.0, 1.0), 0.0),
        # mu = 1: a, a e^-kappa and a (m/(m + kappa))^m
        (FadingModel.rayleigh(2.0), 0.5),
        (FadingModel.rician(2.0, 1.0), 3.0 * math.exp(-2.0)),
        (FadingModel.kappa_mu_shadowed(2.0, 1.0, 3.0, 1.0), 0.648),
    ])
    def test_density_at_zero(self, model, intercept):
        assert pdf(model, 0.0) == pytest.approx(intercept, rel=1e-12)

    def test_large_m_upper_quadrature_matches_closed_form(self):
        from imgflib.incomplete import imgf_upper
        from imgflib.oracles import quad_imgf

        model = FadingModel.kappa_mu_shadowed(10.0, 2.0, 1.0e4, 1.0)
        closed = imgf_upper(model, -1.0, 2.0)
        assert closed == pytest.approx(2.5333e-4, rel=1e-4)
        assert quad_imgf(model, -1.0, 2.0, "upper") == pytest.approx(closed, rel=1e-10)


class TestSampler:
    def test_deterministic(self):
        model = FadingModel.kappa_mu_shadowed(1.5, 2.0, 3.0, 1.0)
        a = sample(model, 42, 1000)
        b = sample(model, 42, 1000)
        assert np.array_equal(a, b)
        c = sample(model, 43, 1000)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("model", MODELS[:6])
    def test_mean_within_four_standard_errors(self, model):
        n = 10_000_000
        xs = sample(model, 1234, n)
        se = xs.std() / math.sqrt(n)
        assert abs(xs.mean() - model.mean_snr) <= 4.0 * se

    @pytest.mark.parametrize("model", [MODELS[0], MODELS[3], MODELS[4], MODELS[7]])
    def test_kolmogorov_smirnov(self, model):
        xs = sample(model, 777, 1_000_000)
        res = stats.kstest(xs, lambda z: cdf_grid(model, z))
        assert res.pvalue > 0.001

    def test_rayleigh_matches_inverse_cdf_construction(self):
        # -mean * log(U) is the exponential law the Rayleigh SNR must follow
        xs = sample(FadingModel.rayleigh(2.0), 5, 400_000)
        ref = -2.0 * np.log(np.random.Generator(np.random.Philox(99)).random(400_000))
        res = stats.ks_2samp(xs, ref)
        assert res.pvalue > 0.001

    def test_mrc_combine_matches_branch_sum(self):
        base = FadingModel.rayleigh(1.5)
        combined = mrc_combine(base, 3)
        assert canonicalize(combined).mu == 3.0
        assert combined.mean_snr == pytest.approx(4.5)
        gen = np.random.Generator(np.random.Philox(3))
        branch_sum = sum(sample(base, gen, 300_000) for _ in range(3))
        res = stats.kstest(branch_sum, lambda z: cdf_grid(combined, z))
        assert res.pvalue > 0.001


class TestJson:
    def test_round_trip_db(self):
        for db in (-17.3, 0.0, 12.5, 40.0):
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db, rel=1e-12)
        for snr in (0.037, 1.0, 8.25, 1e4):
            assert db_to_linear(linear_to_db(snr)) == pytest.approx(snr, rel=1e-12)

    def test_parse(self):
        m = model_from_json({"kind": "kappa-mu-shadowed", "kappa": 1.5, "mu": 2,
                             "m": 3, "mean_snr_db": 10.0})
        assert m.kind is Kind.KAPPA_MU_SHADOWED
        assert m.mean_snr == pytest.approx(10.0)

    def test_parse_linear_snr(self):
        m = model_from_json({"kind": "rayleigh", "mean_snr": 2.0})
        assert m.mean_snr == 2.0

    def test_round_trip_model(self):
        m = FadingModel.eta_mu(0.3, 1.25, 3.0)
        again = model_from_json(model_to_json(m))
        assert again.eta == m.eta and again.mu == m.mu
        assert again.mean_snr == pytest.approx(m.mean_snr, rel=1e-12)

    def test_errors(self):
        with pytest.raises(DomainError):
            model_from_json({"mean_snr_db": 0.0})
        with pytest.raises(DomainError):
            model_from_json({"kind": "warp-drive", "mean_snr_db": 0.0})
        with pytest.raises(DomainError):
            model_from_json({"kind": "rayleigh"})
        with pytest.raises(DomainError):
            model_from_json({"kind": "rayleigh", "mean_snr_db": 0.0, "mean_snr": 1.0})
        with pytest.raises(DomainError):
            model_from_json({"kind": "rayleigh", "mean_snr_db": 0.0, "bogus": 1})

    @pytest.mark.parametrize("value, expected", [
        (2 ** 64 - 1, 2 ** 64 - 1),  # an int as it is, past the doubles' 53 bits too
        (np.int64(7), 7), (2.0, 2), ("3", 3), ("1e3", 1000)])
    def test_config_integer(self, value, expected):
        got = fading._config_number(value, "seed", int)
        assert got == expected and isinstance(got, int)


def _mp_shadowed_pdf(kappa: float, mu: float, m: float, mean: float, x: float) -> float:
    """The kappa-mu shadowed density in its 1F1 form at 40 digits."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        k, u, m, g, y = (mp.mpf(v) for v in (kappa, mu, m, mean, x))
        return float(u ** u * m ** m * (1 + k) ** u / (mp.gamma(u) * g ** u * (u * k + m) ** m)
                     * y ** (u - 1) * mp.exp(-u * (1 + k) * y / g)
                     * mp.hyp1f1(m, u, u * u * k * (1 + k) * y / ((u * k + m) * g)))
