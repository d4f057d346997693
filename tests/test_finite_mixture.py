"""The finite binomial gamma mixture of kappa-mu shadowed laws with an
integer m - mu (fading._Law): values against quadrature of the
defining integral, the routes the kernel takes, and the cross-check with the
Erlang mixture of mixture.mixture_params."""

import itertools
import math

import numpy as np
import pytest
from mpmath import mp

from imgflib import fading, specfun
from imgflib.errors import AccuracyError
from imgflib.fading import FadingModel, _law, cdf, cdf_grid
from imgflib.incomplete import _log_imgf, imgf_lower, imgf_upper
from imgflib.mixture import mixture_params

ORACLE_TOL = 5e-11  # the README's accuracy claim against quadrature
ORACLE_KAPPAS = (1e-3, 1.5, 34.0)
# (mu, m) with m - mu = 0, 2, 1, 11, 2, 6; 2.25 and 4.25 are exact in binary
ORACLE_MU_M = ((0.5, 0.5), (0.5, 2.5), (1.0, 2.0), (1.0, 12.0), (2.25, 4.25), (6.0, 12.0))
ORACLE_ZETAS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)  # in means
ORACLE_MEAN = 2.0


class MpLaw:
    """The kappa-mu shadowed density at mpmath precision, built from 1F1,
    with its values cached by abscissa (quadratures over the same intervals
    reuse the nodes) and its lower tails cached by (s, zeta, k)."""

    def __init__(self, model: FadingModel):
        kappa, mu, m, gbar = (mp.mpf(v) for v in _law(model)[:4])
        self.a = mu * (1 + kappa) / gbar
        self.b = self.a * m / (mu * kappa + m)
        self.amp = (mu ** mu * m ** m * (1 + kappa) ** mu
                    / (mp.gamma(mu) * gbar ** mu * (mu * kappa + m) ** m))
        self.mu, self.m = mu, m
        self.cache, self.lower = {}, {}

    def pdf(self, x):
        if x not in self.cache:
            self.cache[x] = (self.amp * x ** (self.mu - 1) * mp.exp(-self.a * x)
                             * mp.hyp1f1(self.m, self.mu, (self.a - self.b) * x))
        return self.cache[x]

    def mgf(self, s):
        return ((self.a - s) / self.a) ** (self.m - self.mu) * (self.b / (self.b - s)) ** self.m

    def quad(self, s, k: int, cuts):
        """int x^k e^(s x) f(x) dx over the cuts.  mp.quad stops on an
        absolute error bound, so a value far from 1 is integrated again,
        with the integrand divided by the first value."""
        def integrand(x):
            return x ** k * mp.exp(s * x) * self.pdf(x)

        scale = mp.quad(integrand, cuts)
        if not 1e-5 < scale < 1e5:
            scale *= mp.quad(lambda x: integrand(x) / scale, cuts)
        return scale

    def log_imgf(self, s: float, zeta: float, k: int, upper: bool) -> float:
        """log int x^k e^(s x) f(x) dx over [0, zeta] or [zeta, inf).  The
        lower tail's cuts do not depend on s, so every s and k share its
        nodes.  An upper tail that is at least half of the k-th derivative
        of the MGF is that derivative minus the lower tail; a smaller one is
        integrated on the scale 1/(b-s) of its exponential decay."""
        s, zeta = mp.mpf(s), mp.mpf(zeta)
        if (s, zeta, k) not in self.lower:
            cuts = [0] + [zeta * w for w in (1e-3, 1e-2, 0.1)] + [zeta]
            self.lower[s, zeta, k] = self.quad(s, k, cuts)
        lower = self.lower[s, zeta, k]
        if not upper:
            return float(mp.log(lower))
        whole = mp.diff(self.mgf, s, k)
        if lower <= whole / 2:
            return float(mp.log(whole - lower))
        cuts = [zeta] + [zeta + w / (self.b - s) for w in (1, 10, 100)] + [mp.inf]
        return float(mp.log(self.quad(s, k, cuts)))


def oracle_cases():
    """Each model at one zeta, turning over ORACLE_ZETAS; the test takes five
    s and both tails at it, the order k turning with the model and s so each
    k meets every s and tail."""
    models = list(itertools.product(ORACLE_KAPPAS, ORACLE_MU_M))
    for i, (kappa, (mu, m)) in enumerate(models):
        yield kappa, mu, m, ORACLE_ZETAS[i % len(ORACLE_ZETAS)], i


@pytest.mark.parametrize("kappa,mu,m,zeta,index", list(oracle_cases()),
                         ids=[f"kms({c[0]},{c[1]},{c[2]})@{c[3]}" for c in oracle_cases()])
def test_against_quadrature(kappa, mu, m, zeta, index, kernel_calls):
    with mp.workdps(30):
        model = FadingModel.kappa_mu_shadowed(kappa, mu, m, ORACLE_MEAN)
        a, b = _law(model)[4:6]
        assert _law(model).mixture[3] == b  # the finite form at rate b
        law = MpLaw(model)
        for j, s in enumerate((-100.0 * a, -1.0, 0.0, 0.5 * b, 0.999 * b)):
            k = (index + j) % 4
            for upper in (True, False):
                got = _log_imgf(_law(model), s, zeta * ORACLE_MEAN, k, upper)
                ref = law.log_imgf(s, zeta * ORACLE_MEAN, k, upper)
                # relative error of the value, plus 4 ulp of its log for the
                # values past the double range (e^-1.7e6 at s = -100a, zeta =
                # 1e3 means), whose exponent (c-s) zeta rounds in any double
                # evaluation
                assert abs(got - ref) <= ORACLE_TOL + 2.0 ** -50 * abs(ref), (s, k, upper)
    assert all(isinstance(call["lam"], specfun._Trials) for call in kernel_calls)


def test_lower_tail_past_the_pole_takes_the_series(kernel_calls):
    # at b <= s < a the binomial form diverges: NB weights at rate a
    model = FadingModel.kappa_mu_shadowed(1.5, 1.0, 3.0, ORACLE_MEAN)
    kappa, mu, m, gbar, a, b, _ = _law(model)
    s, zeta = 0.5 * (a + b), 0.7 * ORACLE_MEAN
    got = _log_imgf(_law(model), s, zeta, 1, False)
    assert [(call["lam"], call["m"]) for call in kernel_calls] == [(kappa * mu, m)]
    with mp.workdps(30):
        ref = MpLaw(model).log_imgf(s, zeta, 1, False)
    assert math.exp(got - ref) == pytest.approx(1.0, rel=ORACLE_TOL, abs=0.0)


def test_inexact_integer_difference_takes_the_series(kernel_calls):
    # 3.3 - 1.3 = 1.9999999999999998 in doubles: not a binomial trial count
    model = FadingModel.kappa_mu_shadowed(1.5, 1.3, 3.3, ORACLE_MEAN)
    kappa, mu, m, gbar, a, b, _ = _law(model)
    assert _law(model).mixture == (kappa * mu, m, mu, a)
    imgf_lower(model, -1.0, ORACLE_MEAN)
    assert [call["m"] for call in kernel_calls] == [3.3]


def test_cdf_grid_is_the_lower_imgf_at_zero():
    model = FadingModel.kappa_mu_shadowed(1.5, 2.25, 4.25, ORACLE_MEAN)
    xs = ORACLE_MEAN * np.array(ORACLE_ZETAS)
    ref = [imgf_lower(model, 0.0, x) for x in xs]
    assert cdf_grid(model, xs) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("kappa,mu,m", [(1.5, 2.0, 2.0), (1.5, 1.0, 2.0), (1.5, 0.5, 2.5),
                                        (34.0, 6.0, 12.0), (2.0, 1.0, 40.0)])
@pytest.mark.parametrize("k,upper", [(0, False), (2, False), (0, True), (3, True), (-1, True)])
def test_one_walk_without_peak_search(kappa, mu, m, k, upper, monkeypatch):
    # the whole support in one walk from one seed (none for m = mu, a single
    # gamma law): no peak search, no closed-form rest, no tail bound
    model = FadingModel.kappa_mu_shadowed(kappa, mu, m, ORACLE_MEAN)
    seeds, reg_gamma_orders = [], []
    real_seed, real_reg_gamma = specfun._log_reg_gamma_seed, specfun._log_reg_gamma

    def counting_seed(*args):
        seeds.append(args)
        return real_seed(*args)

    def recording_reg_gamma(a, x, upper):
        reg_gamma_orders.append(np.size(a))
        return real_reg_gamma(a, x, upper)

    def no_q_one_order(x):
        raise AssertionError("_q_one_order called")

    monkeypatch.setattr(specfun, "_log_reg_gamma_seed", counting_seed)
    monkeypatch.setattr(specfun, "_log_reg_gamma", recording_reg_gamma)
    monkeypatch.setattr(specfun, "_q_one_order", no_q_one_order)
    for s, zeta in ((-1.0, 0.3), (0.0, 3.0), (0.5 * fading.smallest_pole(model), 30.0)):
        seeds.clear()
        if k < 0:
            lam, shape, mu_, rate = _law(model).mixture
            specfun._log_mixture_sum(lam, shape, mu_, k, 0.0, rate * zeta, upper)
        else:
            _log_imgf(_law(model), s, zeta * ORACLE_MEAN, k, upper)
        assert len(seeds) == (0 if m == mu else 1)
    assert all(size == 1 for size in reg_gamma_orders)  # no vector of orders


def test_series_accuracy_error_point_is_summed():
    # kappa-mu shadowed (300, 10, 11) at a 53 dB mean, lower tail, k = 2: the
    # series ran out of its 100000 terms here; the finite form sums 2 terms.
    # Reference: mpmath quadrature at dps 30
    model = FadingModel.kappa_mu_shadowed(300.0, 10.0, 11.0, 211604.1983200031)
    got = _log_imgf(_law(model), 5.191461449796036e-05, 10576795.42422124, 2, False)
    assert got == pytest.approx(83.56759471391764, rel=ORACLE_TOL, abs=0.0)
    lam, m, mu, rate = _law(model).mixture
    kappa, mu, m_, gbar, a, b, _ = _law(model)
    with pytest.raises(AccuracyError):
        specfun._log_mixture_sum(kappa * mu, m_, mu, 2, -math.log1p(-5.191461449796036e-05 / a),
                                 (a - 5.191461449796036e-05) * 10576795.42422124, False)


@pytest.mark.parametrize("kappa", [0.4, 1.5, 34.0])
@pytest.mark.parametrize("mu,m", [(1, 1), (1, 2), (2, 3), (3, 9), (6, 12)])
def test_binomial_weights_are_the_erlang_mixture(kappa, mu, m):
    # two derivations of one law: Binomial(N, p) weights over Gamma(mu+n,
    # rate b), p and 1 - p from the odds p/(1-p), and the nonzero terms
    # (C_i, Omega_i, m_i) of mixture_params
    model = FadingModel.kappa_mu_shadowed(kappa, float(mu), float(m), ORACLE_MEAN)
    (trials, odds), shape, mu_, rate = _law(model).mixture
    assert trials == m - mu and shape is None and mu_ == mu
    p, q = odds / (1.0 + odds), 1.0 / (1.0 + odds)
    ours = {mu + n: (math.comb(trials, n) * p ** n * q ** (trials - n), 1.0 / rate)
            for n in range(trials + 1)}
    theirs = {m_i: (c, omega) for c, omega, m_i in mixture_params(kappa, mu, m, ORACLE_MEAN).terms
              if c != 0.0}
    assert ours.keys() == theirs.keys()
    for shape_n, (w, scale) in ours.items():
        assert w == pytest.approx(theirs[shape_n][0], rel=1e-14, abs=0.0), shape_n
        assert scale == pytest.approx(theirs[shape_n][1], rel=1e-14, abs=0.0), shape_n


@pytest.mark.parametrize("mu,m", [(1.0, 2.0), (2.0, 5.0), (0.5, 3.5)])
@pytest.mark.parametrize("kappa", [1e4, 1e6, 1e8, 1e12, 1e16, 1e17])
def test_binomial_weights_near_p_one(kappa, mu, m):
    # p = kappa mu/(kappa mu + m) -> 1: the weights' 1 - p must keep its
    # digits (formed as lam + m = -N (1 - p), it kept eps kappa mu/m
    # relative and p rounded to 1 at kappa = 1e17).  Reference: the N + 1
    # gamma laws at dps 50, from the canonical parameters and rate b
    model = FadingModel.kappa_mu_shadowed(kappa, mu, m, 1.0)
    kappa_, mu_, m_, gbar, a, b, _ = _law(model)
    trials = int(m - mu)
    with mp.workdps(50):
        odds = mp.mpf(kappa_) * mp.mpf(mu_) / mp.mpf(m_)
        w = [mp.binomial(trials, n) * odds ** n / (1 + odds) ** trials for n in range(trials + 1)]

        def imgf(s, x, upper):
            c = mp.mpf(b) - s
            return float(sum(w[n] * (b / c) ** (mu_ + n) * mp.gammainc(
                mu_ + n, *((c * x, mp.inf) if upper else (0, c * x)), regularized=True)
                for n in range(trials + 1)))

        for x in (1e-12, 1e-6, 1e-3, 0.1, 1.0):
            assert cdf(model, x) == pytest.approx(imgf(0.0, x, False), rel=1e-12, abs=0.0), x
            for s in (-1.0, 0.0):
                assert imgf_lower(model, s, x) == pytest.approx(
                    imgf(s, x, False), rel=1e-12, abs=0.0), (s, x)
                assert imgf_upper(model, s, x) == pytest.approx(
                    imgf(s, x, True), rel=1e-12, abs=0.0), (s, x)
