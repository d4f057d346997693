import dataclasses
import math

import numpy as np
import pytest

from imgflib import mixture
from imgflib.errors import AccuracyError, DomainError
from imgflib.fading import FadingModel, canonicalize, cdf
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
            return canonicalize(model)

        monkeypatch.setattr(mixture, "canonicalize", counting)
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
