import dataclasses
import math

import mpmath
import numpy as np
import pytest

from imgflib import mixture
from imgflib.errors import AccuracyError, DomainError
from imgflib.fading import FadingModel, _law, cdf
from imgflib.mixture import (
    GammaMixture,
    mixture_cdf,
    mixture_from_model,
    mixture_params,
    _params_mu_gt_m,
    _params_mu_le_m,
)


class TestParams:
    def test_kappa_zero_single_term(self):
        mix = mixture_params(0.0, 1, 1, 2.5)
        assert mix.terms == ((1.0, 2.5, 1),)
        for x in (0.5, 2.5, 8.0):
            assert mixture_cdf(mix, x) == pytest.approx(-math.expm1(-x / 2.5), rel=1e-12)

    def test_mu_one_m_two_structure(self):
        kappa, gbar = 2.0, 1.3
        mix = mixture_params(kappa, 1, 2, gbar)
        omega_ref = (kappa + 2.0) / 2.0 * gbar / (1.0 + kappa)
        shapes = [t[2] for t in mix.terms]
        assert shapes == [2, 1, 0]
        for (_, omega, mi) in mix.terms:
            assert omega == pytest.approx(omega_ref, rel=1e-14)

    def test_mu3_m1_against_cdf(self):
        model = FadingModel.kappa_mu_shadowed(2.0, 3, 1, 1.0)
        mix = mixture_from_model(model)
        for x in np.linspace(0.1, 10.0, 40):
            assert mixture_cdf(mix, float(x)) == pytest.approx(
                cdf(model, float(x)), abs=1e-9)

    @pytest.mark.parametrize("kappa", [0.5, 1.5, 10.0])
    @pytest.mark.parametrize("mu,m", [(1, 2), (2, 2), (3, 1), (6, 3), (2, 12)])
    def test_matches_exact_cdf(self, kappa, mu, m):
        gbar = 1.7
        model = FadingModel.kappa_mu_shadowed(kappa, mu, m, gbar)
        mix = mixture_params(kappa, mu, m, gbar)
        xs = np.linspace(1e-3, 20.0 * gbar, 60)
        worst = max(abs(mixture_cdf(mix, float(x)) - cdf(model, float(x))) for x in xs)
        assert worst <= 1e-9

    def test_column_boundary_mu_equals_m(self):
        # both printed coefficient columns are applicable at mu = m and must
        # describe the same distribution
        g1 = GammaMixture(terms=tuple(_params_mu_le_m(1.3, 3, 3, 2.0)))
        g2 = GammaMixture(terms=tuple(_params_mu_gt_m(1.3, 3, 3, 2.0)))
        for x in (0.1, 0.7, 2.0, 9.0):
            assert mixture_cdf(g1, x) == pytest.approx(mixture_cdf(g2, x), abs=1e-13)

    @pytest.mark.parametrize("kappa, mu, m", [(2.0, 3, 90), (1.0, 40, 3)])
    def test_exact_binomials(self, kappa, mu, m):
        # each coefficient an exact binomial times powers of p and q: within
        # 1.5 ulp of the same product at 50 digits (a running product of
        # binomial ratios was 2.6 and 1.8 ulp off)
        p, q = m / (mu * kappa + m), mu * kappa / (mu * kappa + m)
        P, Q = mpmath.mpf(p), mpmath.mpf(q)
        with mpmath.workdps(50):
            if mu <= m:
                terms = _params_mu_le_m(kappa, mu, m, 1.0)
                ref = [mpmath.binomial(m - mu, i) * P ** i * Q ** (m - mu - i)
                       for i in range(m - mu + 2)]
            else:
                terms = _params_mu_gt_m(kappa, mu, m, 1.0)
                ref = [0] + [(-1) ** m * mpmath.binomial(m + i - 2, i - 1) * P ** m
                             * Q ** (-m - i + 1) for i in range(1, mu - m + 1)] + [
                    (-1) ** (i - mu + m - 1) * mpmath.binomial(i - 2, i - mu + m - 1)
                    * P ** (i - mu + m - 1) * Q ** (-i + 1) for i in range(mu - m + 1, mu + 1)]
            for (c, _, _), r in zip(terms, ref):
                assert abs(c - r) <= 1.5 * np.finfo(float).eps * abs(r)

    def test_coefficient_sum_within_its_rounding(self):
        # the sum drifts from 1 by rounding alone (by 0.39 and 0.41 of eps
        # sum |C_i| at (0.005, 6, 2) and (0.01, 10, 3)): a mixture builds
        # where its bound 2 n eps sum |C_i| leaves the sum a digit, whatever
        # that noise (some raised AccuracyError before, and some built by
        # luck with a sum that keeps no digit)
        eps = np.finfo(float).eps
        for kappa in (1e-3, 0.005, 0.01, 0.02, 0.1, 1.0, 30.0):
            for mu in range(1, 13):
                for m in range(1, 13):
                    terms = (_params_mu_le_m if mu <= m else _params_mu_gt_m)(kappa, mu, m, 1.0)
                    rounding = 2 * len(terms) * eps * math.fsum(
                        abs(c) for (c, _, mi) in terms if mi > 0)
                    if rounding <= 0.1:
                        mixture_params(kappa, mu, m, 1.0)
                    else:
                        with pytest.raises(AccuracyError):
                            mixture_params(kappa, mu, m, 1.0)

    def test_coefficients_without_digits_are_refused(self):
        # (0.1, 200, 20): coefficients up to about 1e80 summing to 2.6e64,
        # which is 1 within 2 n eps sum |C_i| but carries no digit
        with pytest.raises(AccuracyError):
            mixture_params(0.1, 200, 20, 1.0)
        # a bound of about 178 on a sum of 0
        with pytest.raises(DomainError):
            GammaMixture(terms=((1e17, 1.0, 1), (-1e17, 1.0, 2)))

    def test_nan_sum_is_accuracy_error(self):
        # q^-(mu-1) passes the double range, and the coefficients' sum is NaN
        with pytest.raises(AccuracyError):
            mixture_params(0.02, 300, 50, 1.0)
        with pytest.raises(DomainError):
            GammaMixture(terms=((math.nan, 1.0, 1),))

    @pytest.mark.parametrize("kappa, mu, m", [(1.0, 1, 1100), (0.01, 300, 50)])
    def test_past_double_range_is_accuracy_error(self, kappa, mu, m):
        # C(1099, 550) is past the double range (606 NaN coefficients before);
        # q^-349 at kappa 0.01 overflows (a bare OverflowError before)
        with pytest.raises(AccuracyError):
            mixture_params(kappa, mu, m, 1.0)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            mixture_params(1.0, 1.5, 2, 1.0)
        with pytest.raises(DomainError):
            mixture_params(1.0, 2, 0, 1.0)
        with pytest.raises(DomainError):
            mixture_params(-0.5, 2, 2, 1.0)

    def test_from_model_validation(self):
        with pytest.raises(DomainError):
            mixture_from_model(FadingModel.kappa_mu_shadowed(1.0, 2.5, 2.0, 1.0))
        with pytest.raises(DomainError):
            mixture_from_model(FadingModel.kappa_mu(1.0, 2.0, 1.0))  # m = inf
        mix = mixture_from_model(FadingModel.rayleigh(2.0))
        assert mix.terms == ((1.0, 2.0, 1),)

    def test_equal_models_build_one_mixture(self, monkeypatch):
        calls = []

        def counting(model):
            calls.append(model)
            return _law(model)

        monkeypatch.setattr(mixture, "_law", counting)
        mixture_from_model.cache_clear()
        first = FadingModel.kappa_mu_shadowed(2.0, 2, 3, 10.0)
        second = FadingModel.kappa_mu_shadowed(2.0, 2, 3, 10.0)
        assert first is not second
        assert mixture_from_model(first) is mixture_from_model(second)
        assert len(calls) == 1

    def test_weight_sum_invariant_enforced(self):
        with pytest.raises(DomainError):
            GammaMixture(terms=((0.7, 1.0, 2),))
        with pytest.raises(DomainError):
            GammaMixture(terms=((1.0, -1.0, 2),))
        with pytest.raises(DomainError):
            GammaMixture(terms=((1.0, 1.0, 1.5),))


class TestCdf:
    def test_limits(self):
        mix = mixture_params(1.5, 2, 3, 1.0)
        assert mixture_cdf(mix, 0.0) == 0.0
        assert mixture_cdf(mix, 1e4) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        mix = mixture_params(10.0, 3, 2, 1.0)
        xs = np.linspace(0.0, 30.0, 200)
        vals = [mixture_cdf(mix, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("kappa", [0.05, 0.02])
    def test_cancelling_coefficients_are_accuracy_error(self, kappa):
        # mu > m at small kappa: sum |C_i| of 1.7e9 (0.05) puts the rounding
        # bound at 3.7e-7, and the value was 5.9e-8 off; at 0.02 it left [0, 1]
        mix = mixture_params(kappa, 10, 3, 1.0)
        for z in (0.05, 0.2, 1.0, 4.0, 15.0):
            with pytest.raises(AccuracyError):
                mixture_cdf(mix, z)

    def test_immutable(self):
        mix = mixture_params(1.5, 2, 3, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mix.terms = ()
