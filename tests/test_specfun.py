import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats
from scipy import special as sp

from imgflib import imgf_lower, specfun
from imgflib.apps import CapacityScenario, SecrecyScenario, capacity_side_info, opsc
from imgflib.errors import AccuracyError, DomainError
from imgflib.fading import FadingModel
from imgflib.specfun import (
    _Trials,
    _log_betainc,
    _log_gamma_below,
    _log_hyp1f1_peak_sum,
    _log_hyp1f1_pos,
    _log_mixture_sum,
    _log_poisson_term,
    _phi2_unit_first_log,
    marcum_p,
    marcum_q,
)

# Frozen oracle values.  Sources: 40-digit mpmath evaluations of the defining
# series (Poisson-weighted regularized gammas for Marcum Q, brute-force double
# sums for Phi2), or exact analytic identities noted inline.
MARCUM_Q_1_1_1 = 0.7328798037968202       # mpmath series, dps=40
KUMMER_HALF = 0.5707922624166007          # 1F1(1/2; 3/2; -2.25), mpmath
PHI2_POINT = 0.4350204583649838           # Phi2(1,2;4;-0.5,-1.5), mpmath double sum
PHI2_MED = 0.004016099791052346           # Phi2(1.1,1.2;3.3;-30,-10), mpmath
PHI2_BIG = 2.0130663312540855e-05         # Phi2(1.1,1.2;3.3;-300,-100), mpmath


class TestMarcumQ:
    def test_q1_zero_a_identity(self):
        # Q_1(0, sqrt(2x)) = exp(-x)
        for x in (0.25, 1.0, 3.7, 12.0):
            assert marcum_q(1.0, 0.0, math.sqrt(2.0 * x)) == pytest.approx(
                math.exp(-x), rel=1e-12)

    def test_b_zero_is_one(self):
        assert marcum_q(2.5, 1.3, 0.0) == 1.0

    def test_frozen_point(self):
        assert marcum_q(1.0, 1.0, 1.0) == pytest.approx(MARCUM_Q_1_1_1, rel=1e-12)

    def test_monotone_nonincreasing_in_b(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            nu = float(rng.uniform(0.3, 8.0))
            a = float(rng.uniform(0.0, 6.0))
            bs = np.sort(rng.uniform(0.0, 12.0, size=8))
            qs = [marcum_q(nu, a, float(b)) for b in bs]
            assert all(q1 >= q2 - 1e-13 for q1, q2 in zip(qs, qs[1:]))
            assert 0.0 <= min(qs) and max(qs) <= 1.0

    def test_nan_sum_is_accuracy_error(self, monkeypatch):
        # a NaN fails every comparison, so the range check is written to fail it
        monkeypatch.setattr(specfun, "_log_mixture_sum", lambda *args: math.nan)
        with pytest.raises(AccuracyError):
            marcum_q(1.0, 1.0, 1.0)

    def test_limits(self):
        assert marcum_q(1.7, 2.0, 1e-9) == pytest.approx(1.0, abs=1e-12)
        assert marcum_q(1.7, 2.0, 60.0) < 1e-100

    def test_integer_order_erlang_composition(self):
        # For integer totals the regularized gamma is a finite Erlang sum.
        # Rebuilt here without scipy's gammaincc as an independent route.
        def erlang_p(shape: int, x: float) -> float:
            term = math.exp(-x)
            acc = term
            for r in range(1, shape):
                term *= x / r
                acc += term
            return 1.0 - acc

        for (n, a, b) in [(1, 1.0, 1.0), (2, 0.7, 2.2), (4, 3.0, 1.5), (6, 2.0, 5.0)]:
            lam = 0.5 * a * a
            x = 0.5 * b * b
            total = 0.0
            k = 0
            while True:
                w = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) if lam > 0 else (1.0 if k == 0 else 0.0)
                total += w * erlang_p(n + k, x)
                if k > lam and (w < 1e-18 or lam == 0.0):
                    break
                k += 1
            assert marcum_p(n, a, b) == pytest.approx(total, abs=1e-12)
            assert marcum_q(n, a, b) == pytest.approx(1.0 - total, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.7, 6.0])
    def test_noncentral_chi2_cdf(self, mu):
        # P_mu(alpha, beta) is the noncentral chi-square CDF
        # chndtr(beta^2, 2 mu, alpha^2), evaluated by scipy independently
        for a in (0.5, 5.0, 17.3, 40.0):
            for b in (0.0, 1.2, 17.9, 40.0):
                alpha, beta = math.sqrt(2.0 * b / a), math.sqrt(2.0 * a)
                ref = float(sp.chndtr(beta * beta, 2.0 * mu, alpha * alpha))
                assert marcum_p(mu, alpha, beta) == pytest.approx(ref, rel=1e-9)

    def test_p_at_tiny_b(self):
        # x = b^2/2 down to 5e-29: the lower-tail terms grow by about 1/x a
        # step from the seed at the window's top, past the double range,
        # and the block is split
        for b in (1e-3, 1e-6, 1e-10, 1e-14):
            ref = float(sp.chndtr(b * b, 3.0, 4.0))
            assert marcum_p(1.5, 2.0, b) == pytest.approx(ref, rel=1e-12), b

    def test_p_q_complementarity(self):
        for (nu, a, b) in [(0.5, 0.3, 1.0), (2.7, 4.0, 3.0), (6.0, 1.0, 8.0)]:
            assert marcum_p(nu, a, b) + marcum_q(nu, a, b) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu,a,b", [(1.0, 10.0, 40.0), (2.0, 10.0, 40.0),
                                        (2.5, 8.0, 35.0), (2.0, 3.0, 12.0)])
    def test_deep_tail_against_density_quadrature(self, nu, a, b):
        # b >> a: the Poisson terms that matter lie near k ~ a b / 2, far
        # above the mode a^2 / 2 of the weights
        ref = noncentral_chi2_tail(2.0 * nu, a * a, b * b)
        assert ref < 1e-18
        assert abs(marcum_q(nu, a, b) - ref) <= 1e-10 * ref

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            marcum_q(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            marcum_q(1.0, -0.1, 1.0)
        with pytest.raises(DomainError):
            marcum_q(1.0, math.inf, 1.0)


def noncentral_chi2_tail(dof: float, nc: float, x0: float) -> float:
    """Pr{X > x0} for X noncentral chi-square, by quadrature of its density
    0.5 e^(-(x+nc)/2) (x/nc)^(dof/4-1/2) I_(dof/2-1)(sqrt(nc x)), with the
    Bessel function from scipy's exponentially scaled ive."""
    order = 0.5 * dof - 1.0

    def density(x: float) -> float:
        z = math.sqrt(nc * x)
        return math.exp(z - 0.5 * (x + nc) + 0.5 * order * math.log(x / nc)
                        + math.log(0.5 * sp.ive(order, z)))

    # beyond x0 the density falls by about e per 2 / (1 - sqrt(nc / x0))
    step = 2.0 / (1.0 - math.sqrt(nc / x0))
    cuts = [x0] + [x0 + c * step for c in (1.0, 4.0, 16.0, 64.0)] + [math.inf]
    return sum(integrate.quad(density, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(cuts, cuts[1:]))


# (lam, m, mu): unit mass, Poisson and negative binomial weights (m < 1 and
# m >= 1), with the order mu - 1 of the first k = -1 term on both sides of 0
KERNEL_FAMILIES = [(0.0, math.inf, 0.6), (0.0, math.inf, 1.0), (3.0, math.inf, 0.5),
                   (20.0, math.inf, 2.0), (5.0, 0.5, 1.0), (20.0, 3.0, 2.3), (8.0, 0.7, 0.4)]


def weights(lam: float, m: float, n: np.ndarray, survival: bool) -> np.ndarray:
    if lam == 0.0:
        return np.where(n == 0, 0.0 if survival else 1.0, 0.0)
    law = stats.poisson(lam) if math.isinf(m) else stats.nbinom(m, m / (lam + m))
    return law.sf(n) if survival else law.pmf(n)


def direct_sum(lam, m, mu, k, x, survival, terms=3000):
    """sum_n w_n Gamma(mu+n+k, x) / Gamma(mu+n) (k in {-1, 0, 1}) term by term
    over a fixed range, the order-(mu-1) <= 0 term from mpmath."""
    n = np.arange(terms, dtype=float)
    order = mu + n + k
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = sp.gammaincc(order, x) * np.exp(sp.gammaln(order) - sp.gammaln(mu + n))
    if order[0] <= 0.0:
        factor[0] = float(mpmath.gammainc(order[0], x) / mpmath.gamma(mu))
    return float(np.sum(weights(lam, m, n, survival) * factor))


def mp_mixture_sum(lam, m, mu, k, log_r, x, upper, survival=False):
    """log sum_n w_n r^(mu+n) (mu+n)_k R(mu+n+k, x) at dps 30, term by term as
    w_n r^(mu+n) Gamma(mu+n+k, x) / Gamma(mu+n), with the lower gamma for the
    lower tail.  The incomplete gammas come from mp.gammainc at one end of
    the range and Gamma(a+1, x) = a Gamma(a, x) + x^a e^-x run the way it
    adds (up for the upper, down for the lower gamma); the range doubles
    until a geometric bound puts the rest below 1e-25 of the sum."""
    if isinstance(lam, _Trials) and not lam.n:
        lam = 0.0
    if lam == 0.0 and survival:
        return -math.inf
    with mpmath.workdps(30):
        if isinstance(lam, _Trials):  # the negative binomial law of shape -N
            lam, m = lam.n * mpmath.mpf(lam.odds) / (1 + lam.odds), float(-lam.n)
        x, r, mu = mpmath.mpf(x), mpmath.exp(mpmath.mpf(log_r)), mpmath.mpf(mu)
        poisson = math.isinf(m)
        theta = 0 if poisson else mpmath.mpf(lam) / (lam + m)

        def weight_ratio(n):  # w(n+1)/w(n), and a bound on it for every later n
            now = lam / mpmath.mpf(n + 1) if poisson else theta * (m + n) / (n + 1)
            return now, (now if poisson or m >= 1 else theta)

        # where the terms have fallen (the doubling below finds the rest)
        span = float(r * x) + lam + 60.0 / (1.0 - min(float(r * theta), 0.9))
        size = 64 * 2 ** math.ceil(math.log2(1.0 + span / 64.0))
        while True:
            w = [mpmath.mpf(1)] if lam == 0.0 else [
                mpmath.exp(-lam) if poisson else (1 - theta) ** m]
            for n in range(size - 1):
                w.append(0 if lam == 0.0 else w[-1] * weight_ratio(n)[0])
            if survival:  # S_n = sum_{j>n} w_j, from the tail mass past the range
                s = (mpmath.gammainc(size, 0, lam, regularized=True) if poisson
                     else mpmath.betainc(size, m, 0, theta, regularized=True))
                for n in reversed(range(size)):
                    w[n], s = s, s + w[n]
            pure = [w[0] * r ** mu / mpmath.gamma(mu)]  # w_n r^(mu+n) / Gamma(mu+n)
            for n in range(size - 1):
                pure.append(pure[-1] * (w[n + 1] / w[n] if w[n] else 0) * r / (mu + n))
            a = [mu + n + k for n in range(size)]
            total = mpmath.mpf(0)
            if upper:
                g, step = mpmath.gammainc(a[0], x, mpmath.inf), x ** a[0] * mpmath.exp(-x)
                for n in range(size):
                    total += pure[n] * g
                    g, step = a[n] * g + step, step * x
                edge = pure[-1] * mpmath.gamma(a[-1])  # Q <= 1
            else:
                g, step = mpmath.gammainc(a[-1], 0, x), x ** (a[-1] - 1) * mpmath.exp(-x)
                edge = pure[-1] * g  # P falls as the order rises
                for n in reversed(range(size)):
                    total += pure[n] * g
                    if n:
                        g, step = (g + step) / a[n - 1], step / x
            if lam == 0.0:
                return float(mpmath.log(total))
            ratio = weight_ratio(size - 1)[1] * r * max(1, (mu + size - 1 + k) / (mu + size - 1))
            if not upper:  # P(a+1, x) <= P(a, x) x/(a+1)
                ratio *= min(1, x / (a[-1] + 1))
            if ratio < 1 and edge * ratio / (1 - ratio) < mpmath.mpf(10) ** -25 * total:
                return float(mpmath.log(total))
            size *= 2


# (lam, m): negative binomial weights with m < 1 and m > 1, Poisson, unit mass
ORACLE_FAMILIES = [(3.0, 0.5), (3.0, 2.0), (20.0, math.inf), (0.0, math.inf)]
ORACLE_X = (1e-3, 0.7, 30.0, 400.0, 3e3)  # 3e3: the upper R underflow in scipy


def oracle_points(upper: bool) -> list:
    """(mu, k, log_r, x): every order the callers use and beyond, on both
    sides of the peak; the lower tail at k = -1 needs mu > 1."""
    mu = 0.6 if upper else 1.7
    return [(mu, k, 0.0 if x < 100.0 else -1.5, x)  # r < 1 keeps deep sums short
            for k in (-1, 0, 1, 3, 12) for x in ORACLE_X]


ORACLE_CASES = [
    pytest.param(lam, m, upper, survival, oracle_points(upper),
                 id=f"{lam}-{m}-{upper}-{survival}")
    for lam, m in ORACLE_FAMILIES
    for upper, survival in ((True, False), (True, True), (False, False))
    if lam or not survival]  # a unit mass at 0 has no survival weights
# orders k past the closed-form rest's start (32 terms, one block): its tail
# masses from order start - i <= 0 on are the whole mass, not a NaN
# (the secrecy outage's T_k of a Nakagami-40 eavesdropper)
ORACLE_CASES.append(pytest.param(
    60.0, 0.5, True, False, [(6.0, k, -math.log1p(3.5 / 2.2), 0.4104) for k in (33, 40)],
    id="60.0-0.5-rest-from-order-0"))
# deep upper tails of the benchmark's imgf-grid, where the plan's bisection
# runs on R from Legendre's fraction: Poisson 60 at x = 2320, negative
# binomial (60, 0.5) at x = 1340 and (144, 6) at x = 780
ORACLE_CASES += [
    pytest.param(60.0, math.inf, True, False, [(6.0, 0, -0.5639354490799391, 2320.0)],
                 id="60.0-inf-deep-tail"),
    pytest.param(60.0, 0.5, True, False, [(6.0, 1, -0.015037877364540516, 1340.0)],
                 id="60.0-0.5-deep-tail"),
    pytest.param(144.0, 6.0, True, False, [(12.0, 1, 0.0, 780.0)], id="144.0-6.0-deep-tail")]


class TestMixtureKernel:
    @pytest.mark.parametrize("lam,m,upper,survival,points", ORACLE_CASES)
    def test_against_mpmath_sum(self, lam, m, upper, survival, points):
        for mu, k, log_r, x in points:
            ref = mp_mixture_sum(lam, m, mu, k, log_r, x, upper, survival)
            got = _log_mixture_sum(lam, m, mu, k, log_r, x, upper, survival)
            assert math.exp(got - ref) == pytest.approx(1.0, rel=1e-11, abs=0.0), (k, x)

    @pytest.mark.parametrize("lam", [0.0, 3.0])
    def test_divergent_lower_sum_is_domain_error(self, lam):
        # P of order mu-1 <= 0 is infinite; the upper sum has Gamma(mu-1, x)
        with pytest.raises(DomainError):
            _log_mixture_sum(lam, math.inf, 0.6, -1, 0.0, 1.0, False)
        assert math.isfinite(_log_mixture_sum(lam, math.inf, 0.6, -1, 0.0, 1.0, True))

    @pytest.mark.parametrize("lam,m,mu,log_r,xs,oracle", [
        *[pytest.param(lam, m, 1.7, -0.1, ORACLE_X, False, id=f"{lam}-{m}")
          for lam, m in ORACLE_FAMILIES[:3]],
        # past specfun._LONG_WALK terms a float x walks by cumulative products
        # and an array x by the loop, so these compare the two forms: about
        # 800 terms around n = 5000 in one block on either tail; and an
        # upper block from n = 42 to 390 whose R ratio leaves the double
        # range while the loop's terms do not, so it is split
        pytest.param(5000.0, math.inf, 2.0, 0.0, (4900.0, 5000.0, 5100.0), True,
                     id="long-poisson-5000"),
        pytest.param(3.0, 0.5, 9.0, -1.5, (2900.0, 3e3, 3100.0), True,
                     id="long-r-ratio-overflow")])
    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
    def test_vector_matches_scalar(self, lam, m, mu, log_r, xs, oracle, upper):
        # one call over an array of x runs the same recurrences as the float
        # calls, with array state.  Its blocks are shared by every column, so
        # each column may stop at another term than its float call: within
        # _MIXTURE_TOL = 1e-12 of the sum, where logs near -1e3 have an ulp
        # of 1.1e-13
        for k in (0, 1, 3):
            got = _log_mixture_sum(lam, m, mu, k, log_r, np.array(xs), upper)
            ref = [_log_mixture_sum(lam, m, mu, k, log_r, x, upper) for x in xs]
            assert np.exp(got - ref) == pytest.approx(np.ones(len(xs)), rel=1e-12, abs=0.0), k
            if oracle:
                mp_ref = mp_mixture_sum(lam, m, mu, k, log_r, xs[1], upper)
                assert math.exp(ref[1] - mp_ref) == pytest.approx(1.0, rel=1e-11, abs=0.0), k

    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
    def test_one_incomplete_gamma_call_per_block(self, upper, monkeypatch):
        # Poisson weights with mean 5000 put the sum on about 800 terms around
        # n = 5000; scipy is asked for R at scalar orders only: one per step
        # of the plan's bisection, O(log n) of them, and one per block, never
        # term by term
        sizes = []

        class CountingSpecial:
            def __getattr__(self, name):
                return getattr(sp, name)

            def gammainc(self, a, x):
                sizes.append(np.size(a))
                return sp.gammainc(a, x)

            def gammaincc(self, a, x):
                sizes.append(np.size(a))
                return sp.gammaincc(a, x)

        monkeypatch.setattr(specfun, "sp", CountingSpecial())
        got = _log_mixture_sum(5000.0, math.inf, 2.0, 0, 0.0, 5000.0, upper)
        monkeypatch.undo()
        assert got == pytest.approx(mp_mixture_sum(5000.0, math.inf, 2.0, 0, 0.0, 5000.0, upper),
                                    rel=1e-11, abs=0.0)
        assert sizes and all(n == 1 for n in sizes), sizes
        # the plan brackets the peak in [0, 2 guess + 16] and halves it; the
        # window is a few blocks
        plan_steps = math.ceil(math.log2(2 * 5000 + 16)) + 1
        assert len(sizes) <= plan_steps + 4, sizes

    # negative binomial shapes far below 1: the walk's first weight ratio is
    # r theta m itself (r theta + r theta (m - 1) cancelled to eps/m), and the
    # n = 0 weight takes Gamma(m), not Gamma(1 + (m - 1)); AccuracyError below
    # m = 2.2e-4 before.  The cdf of a kappa-mu shadowed (1, 1, m) law at mean
    # 1, x = 2, is the lower sum at r = 1, x = 4
    @pytest.mark.parametrize("m", [1e-3, 1e-4, 1e-6, 1e-8, 1e-12])
    @pytest.mark.parametrize("upper, log_r", [(False, 0.0), (True, -0.5)],
                             ids=["lower", "upper"])
    def test_tiny_shape_against_mpmath(self, m, upper, log_r):
        for k in (0, 1):
            ref = mp_mixture_sum(1.0, m, 1.0, k, log_r, 4.0, upper)
            got = _log_mixture_sum(1.0, m, 1.0, k, log_r, 4.0, upper)
            assert math.exp(got - ref) == pytest.approx(1.0, rel=1e-12, abs=0.0), k

    @pytest.mark.parametrize("lam,m,mu", KERNEL_FAMILIES)
    @pytest.mark.parametrize("survival", [False, True], ids=["weights", "survival"])
    def test_upper_orders_against_direct_sum(self, lam, m, mu, survival):
        for k in (-1, 0, 1):
            for x in (0.05, 0.5, 2.0, 40.0, 300.0):
                ref = direct_sum(lam, m, mu, k, x, survival)
                got = math.exp(_log_mixture_sum(lam, m, mu, k, 0.0, x, True, survival))
                assert got == pytest.approx(ref, rel=1e-11, abs=0.0), (k, x)

    def test_vectorised_order_minus_one(self):
        xs = np.array([0.05, 2.0, 40.0])
        got = np.exp(_log_mixture_sum(3.0, math.inf, 0.5, -1, 0.0, xs, True))
        ref = [direct_sum(3.0, math.inf, 0.5, -1, x, False) for x in xs]
        assert got == pytest.approx(ref, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.6, 0.7, 1.0])
    def test_log_gamma_below(self, mu):
        # x = 699/701 straddle the switch from E1 to the fraction at mu = 1,
        # 1 the switch to the fraction below; the rest span 1e-3 to 1e3
        for x in (1e-6, 0.5, 1.0, 1.5, 20.0, 600.0, 699.0, 701.0, 900.0,
                  *np.logspace(-3.0, 3.0, 13).tolist()):
            ref = mpmath.log(mpmath.gammainc(mu - 1.0, x) / mpmath.gamma(mu))
            got = _log_gamma_below(mu, x)
            assert type(got) is float
            assert got == pytest.approx(float(ref), rel=1e-13), x
            # an array x runs element by element: the same bits
            assert np.array_equal(_log_gamma_below(mu, np.full(3, x)), np.full(3, got)), x

    @pytest.mark.parametrize("mu", [0.99, 0.999, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_log_gamma_below_near_order_zero(self, mu):
        # order mu-1 just below 0 and x < 1, where the recurrence through
        # Gamma(mu, x) would cancel by about 1.7 / (1-mu)
        with mpmath.workdps(30):
            for x in (0.01, 0.1, 0.5, 0.99):
                ref = mpmath.gammainc(mpmath.mpf(mu) - 1, x) / mpmath.gamma(mu)
                got = math.exp(_log_gamma_below(mu, x))
                assert got == pytest.approx(float(ref), rel=1e-13), x

    def test_log_betainc_in_and_past_underflow(self):
        for a in (5.0, 2000.0, 9000.0):
            for b in (0.7, 3.0):
                for x in (0.5, 0.9):
                    ref = float(mpmath.log(mpmath.betainc(a, b, 0, x, regularized=True)))
                    assert _log_betainc(a, b, x) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("a, x", [(40.0, 1e-5), (25.0, 1e-14), (40.0, 1e-16),
                                      (40.0, 19.0), (40.0, 21.0), (300.0, 700.0)])
    def test_log_poisson_term(self, a, x):
        # x << a loses eps a^2/x through log1p(x/a - 1), and raises at 1e-16
        with mpmath.workdps(40):
            ref = float(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))
        assert _log_poisson_term(a, x) == pytest.approx(ref, rel=1e-14)
        got = _log_poisson_term(np.array([a]), np.array([x]))
        assert float(got[0]) == pytest.approx(ref, rel=1e-14)

    def test_far_tail_region_of_log_reg_gamma(self):
        # P(3000, 1500): x < 0.6 a and a + x >= 1000, where scipy's P was
        # 6.2e-12 relative off (exp of a rounded exponent) and every log R
        # now takes the far-tail series; also through the public imgf_lower
        # of a Nakagami-3000 law at mean 1, the CDF at 0.5
        with mpmath.workdps(40):
            ref = mpmath.log(mpmath.gammainc(3000, 0, 1500, regularized=True))
        got = specfun._log_reg_gamma(3000.0, 1500.0, False)
        assert math.exp(got - float(ref)) == pytest.approx(1.0, rel=1e-12, abs=0.0)
        value = imgf_lower(FadingModel.nakagami(3000.0, 1.0), 0.0, 0.5)
        assert math.exp(math.log(value) - float(ref)) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a,upper,xs", [
        (1.0, False, (0.5, 3.0)), (2.5, True, (0.0, 1.0, 40.0)),
        (3000.0, False, (1500.0, 2900.0)), (40.0, True, (100.0, 1e4))])
    def test_seed_against_mpmath(self, a, upper, xs):
        # log R and d/R, d = d(a) (upper) or d(a-1), d(b) = x^b e^-x /
        # Gamma(b+1), for a float x and over an array: at the lower seed's
        # a = 1, d(0) = e^-x has no Stirling form; at x = 0 on the upper
        # tail d = 0; the far tail and past scipy's underflow take the far
        # forms' d/R
        with np.errstate(all="ignore"):
            got = specfun._log_reg_gamma_seed(a, np.array(xs), upper)
        with mpmath.workdps(40):
            for i, x in enumerate(xs):
                r = (mpmath.gammainc(a, x, mpmath.inf, regularized=True) if upper
                     else mpmath.gammainc(a, 0, x, regularized=True))
                b = a if upper else a - 1
                d = mpmath.mpf(x) ** b * mpmath.exp(-x) / mpmath.gamma(b + 1)
                log_r, d_r = float(mpmath.log(r)), float(d / r)
                for value in (specfun._log_reg_gamma_seed(a, x, upper), (got[0][i], got[1][i])):
                    assert math.exp(value[0] - log_r) == pytest.approx(1.0, rel=1e-12, abs=0.0), x
                    assert value[1] == pytest.approx(d_r, rel=1e-13, abs=0.0), x

    # upper tails with a + x < 1000, where the block seed's d/R taken as
    # R(a+1)/R(a) - 1 from two scipy values put the sum 1.0e-12 to 1.3e-12
    # off; d/R = exp(log d - log R) from one keeps it within the kernel's
    # 1e-12: (lam, m, mu, k, log_r, x)
    @pytest.mark.parametrize("lam,m,mu,k,log_r,x", [
        (24.0, 1.0, 2.0, 1, 0.0, 520.0), (24.0, 1.0, 2.0, 0, 0.0, 520.0),
        (20.0, 0.5, 2.0, 0, 0.0, 440.0), (10.0, 0.7, 1.3, 0, 0.0, 300.0)])
    def test_seed_within_the_kernel_bound(self, lam, m, mu, k, log_r, x):
        ref = mp_mixture_sum(lam, m, mu, k, log_r, x, True)
        got = _log_mixture_sum(lam, m, mu, k, log_r, x, True)
        assert math.exp(got - ref) == pytest.approx(1.0, rel=1e-12, abs=0.0)


def pair_battery(seed: int, size: int) -> list:
    """Seeded (lam, m, mu, k, log_r, x, upper) over the four weight families
    (unit mass, binomial with N = 0..40, negative binomial, Poisson), the
    upper tail (the one the pair mode sums), k = -1..12 and x from 1e-3 to
    1e4."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < size:
        family = rng.integers(4)
        if family == 0:
            lam, m = 0.0, 1.0
        elif family == 1:
            trials, p = int(rng.choice([0, 1, 2, 5, 13, 40])), float(rng.uniform(0.01, 0.99))
            lam, m = _Trials(trials, p / (1.0 - p)), None
        elif family == 2:
            lam, m = 10.0 ** rng.uniform(-2.0, 3.0), float(rng.choice([0.2, 0.8, 1.0, 3.0, 60.0]))
        else:
            lam, m = 10.0 ** rng.uniform(-2.0, 3.0), math.inf
        mu = float(rng.choice([0.3, 0.5, 1.0, 2.5, 10.0, 40.0]))
        k, upper = int(rng.integers(-1, 13)), bool(rng.integers(2))
        if not upper and mu + k <= 0.0:
            continue
        log_r = -rng.uniform(0.0, 3.0) if rng.integers(2) else 0.0
        x = 10.0 ** rng.uniform(-3.0, 4.0)
        if upper:
            cases.append((lam, m, mu, k, log_r, x, upper))
    return cases


def check_pair(args) -> None:
    """Each order of the pair mode within 1e-12 of its single-order call
    (plus 4 ulp of the log); where the two round further apart (both sums
    are long walks of their own), each within the kernel's 1e-11 of mpmath."""
    lam, m, mu, k, log_r, x, upper = args
    got = _log_mixture_sum(lam, m, mu, k, log_r, x, upper, pair=True)
    for order, value in zip((k, k + 1), got):
        ref = _log_mixture_sum(lam, m, mu, order, log_r, x, upper)
        if abs(value - ref) <= 1e-12 + 4.0 * np.finfo(float).eps * abs(ref):
            continue
        exact = mp_mixture_sum(lam, m, mu, order, log_r, x, upper)
        assert abs(value - exact) <= 1e-11 and abs(ref - exact) <= 1e-11, (args, order)


class TestPairMode:
    """_log_mixture_sum(..., pair=True): the orders k and k+1 from one plan
    and one walk, each against its own single-order call."""

    @pytest.mark.parametrize("seed", [2101, 2102, 2103])
    def test_battery(self, seed):
        for args in pair_battery(seed, 300):
            check_pair(args)

    @pytest.mark.parametrize("trials", [0, 1, 2, 7])
    def test_binomial_support_end(self, trials):
        # the order-(k+1) term at n = N lies one step past the walk
        for k in range(-1, 4):
            for mu in (0.5, 1.0, 3.5):
                check_pair((_Trials(trials, 0.4 / 0.6), None, mu, k, -0.3, 2.5, True))

    @pytest.mark.parametrize("lam, m, mu, k, log_r, x", [
        # heavy shadowing with q = r theta = 0.999: the rest lies far out
        *[(346.0, 0.799, 10.08, k, math.log(0.999 * (346.0 + 0.799) / 346.0), 5.0)
          for k in (0, 1, 3, 12)],
        # the rest from orders start - i <= 0 on (the whole mass)
        (60.0, 0.5, 6.0, 33, -math.log1p(3.5 / 2.2), 0.4104)])
    def test_closed_form_rest(self, lam, m, mu, k, log_r, x, monkeypatch):
        # both sums take their rest past n1 in closed form
        rests = []
        real = specfun._Weights.log_rest
        monkeypatch.setattr(specfun._Weights, "log_rest",
                            lambda self, start, order: rests.append(order) or real(self, start,
                                                                                   order))
        _log_mixture_sum(lam, m, mu, k, log_r, x, True, pair=True)
        assert sorted(rests) == [k, k + 1]
        check_pair((lam, m, mu, k, log_r, x, True))

    @pytest.mark.parametrize("k", [-1, 2])
    def test_lower_tail_is_domain_error(self, k):
        # the pair mode sums the upper tail only (the lower one, which no
        # caller pairs, took two single-order sums or diverged)
        with pytest.raises(DomainError):
            _log_mixture_sum(3.0, math.inf, 0.6, k, 0.0, 1.0, False, pair=True)


def mp_rest(lam, m, mu, log_r, start, order):
    """log sum_(n >= start) w_n r^(mu+n) (mu+n)_order at 40 digits, term by
    term until the terms fall below 1e-32 of the sum at a ratio below 0.99."""
    with mpmath.workdps(40):
        lam_mp, mu_mp, r = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.exp(mpmath.mpf(log_r))
        if math.isinf(m):
            log_w = start * mpmath.log(lam_mp) - lam_mp - mpmath.loggamma(start + 1)

            def step(n):
                return lam_mp / (n + 1)
        else:
            theta = lam_mp / (lam_mp + m)
            log_w = (mpmath.loggamma(m + start) - mpmath.loggamma(m) - mpmath.loggamma(start + 1)
                     + start * mpmath.log(theta) + m * mpmath.log1p(-theta))

            def step(n):
                return theta * (m + n) / (n + 1)
        term = mpmath.exp(log_w + (mu_mp + start) * mpmath.log(r)) * mpmath.rf(mu_mp + start,
                                                                                order)
        total, n = mpmath.mpf(0), start
        while True:
            total += term
            ratio = step(n) * r * (mu_mp + n + order) / (mu_mp + n)
            term *= ratio
            n += 1
            if ratio < 0.99 and term < mpmath.mpf(10) ** -32 * total:
                return float(mpmath.log(total))


class TestScalarKernelParts:
    """The closed-form rest, the survival weights and the k = -1 head run on
    Python floats: each against mpmath, and a float call's arrays confined
    to the NumPy pass."""

    @pytest.mark.parametrize("lam, m, mu, log_r, start", [
        # Poisson of mean lam r = 41: from below the mean (start - i <= 0 for
        # the higher orders: the whole mass), past it, and far past it, where
        # scipy's P underflows
        *[(50.0, math.inf, 1.5, -0.2, start) for start in (5, 30, 60, 700)],
        # negative binomial with q = r theta = 0.9; from 7000 on scipy's
        # incomplete beta underflows
        *[(20.0, 2.5, 1.5, math.log(0.9 * 22.5 / 20.0), start) for start in (5, 10, 100, 7000)]])
    def test_log_rest(self, lam, m, mu, log_r, start):
        # 1e-12: at start = 7000 the rest is q^7000 times a sum of O(1), so
        # the rounding of q alone moves it by up to 7000 eps (5e-13 to
        # 6.8e-13 measured; 4.3e-12 to 7.7e-12 with scipy's betaln)
        weights = specfun._weights(lam, m, mu, log_r, False)
        for order in (0, 1, 3, 12):
            got = weights.log_rest(start, order)
            ref = mp_rest(lam, m, mu, log_r, start, order)
            assert math.exp(got - ref) == pytest.approx(1.0, rel=1e-12, abs=0.0), order

    @pytest.mark.parametrize("lam, m, mu", [
        (4.0, math.inf, 2.0), (30.0, math.inf, 1.0), (300.0, math.inf, 1.5),
        (3.0, 0.5, 0.6), (20.0, 3.0, 2.3), (200.0, 1.5, 1.0), (1.0, 1.0, 2.0)])
    def test_capacity_survival_sum(self, lam, m, mu, monkeypatch):
        # capacity_side_info's sum over the survival weights at order mu + 1,
        # k = -1, with the tail bound tightened from 1e-12 to 1e-16 so that
        # it measures the weights, not the truncation (which alone leaves up
        # to 6.5e-13 here)
        monkeypatch.setattr(specfun, "_MIXTURE_TOL", 1e-16)
        for y in (0.03, 0.6, 2.3, 10.0, 60.0):
            got = _log_mixture_sum(lam, m, mu + 1.0, -1, 0.0, y, True, survival=True)
            ref = mp_mixture_sum(lam, m, mu + 1.0, -1, 0.0, y, True, survival=True)
            assert math.exp(got - ref) == pytest.approx(1.0, rel=1e-13, abs=0.0), y

    @pytest.mark.parametrize("mu", [0.3, 0.6, 1.0])
    def test_diverging_head_at_x_zero(self, mu):
        # Gamma(mu-1, 0) is infinite for mu <= 1, and so is every upper k = -1
        # sum at x = 0 (the mixture's looped for ever at mu = 0.3 and 1,
        # where its edge bound formed inf * 0; the unit mass gave NaN at 0.6)
        for lam, m in ((0.0, math.inf), (3.0, math.inf), (3.0, 0.5)):
            assert _log_mixture_sum(lam, m, mu, -1, 0.0, 0.0, True) == math.inf, (lam, m)

    @pytest.mark.parametrize("mu", [0.6, 1.0])
    def test_diverging_head_at_x_zero_in_an_array(self, mu):
        # an array x holding 0 gives inf there, as the float call does, and
        # the float calls' values elsewhere (it walked to the term cap and
        # raised AccuracyError naming the largest x)
        xs = np.array([0.0, 1.0, 0.0, 30.0])
        for lam, m in ((3.0, 0.5), (3.0, math.inf), (_Trials(3, 0.5), None)):
            got = _log_mixture_sum(lam, m, mu, -1, 0.0, xs, True)
            assert got[0] == got[2] == math.inf, (lam, m)
            for x, value in zip(xs[[1, 3]], got[[1, 3]]):
                want = _log_mixture_sum(lam, m, mu, -1, 0.0, float(x), True)
                assert value == pytest.approx(want, rel=1e-12, abs=0.0), (lam, m, x)
        assert np.all(_log_mixture_sum(3.0, 0.5, mu, -1, 0.0, np.zeros((2, 2)), True)
                      == math.inf)

    def test_float_call_makes_no_array_call(self, monkeypatch):
        # every NumPy and scipy.special call in specfun checked for an array
        # argument or result: none outside _walk_numpy for an opsc point
        # whose kernel calls take the closed-form rest, and a capacity call
        # at mu < 1 (the k = -1 head of the mixture and of the gamma law)
        # with its survival sum
        inside, arrays, rests = [False], [], []

        class Checked:
            def __init__(self, module):
                self.module = module

            def __getattr__(self, name):
                real = getattr(self.module, name)
                if not callable(real) or isinstance(real, type):
                    return real

                def call(*args, **kwargs):
                    out = real(*args, **kwargs)
                    if not inside[0] and any(isinstance(v, np.ndarray)
                                             for v in (*args, *kwargs.values(), out)):
                        arrays.append(name)
                    return out
                return call

        walk_numpy, log_rest = specfun._walk_numpy, specfun._Weights.log_rest

        def walk(*args):
            inside[0] = True
            try:
                return walk_numpy(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(specfun, "np", Checked(np))
        monkeypatch.setattr(specfun, "sp", Checked(sp))
        monkeypatch.setattr(specfun, "_walk_numpy", walk)
        monkeypatch.setattr(specfun._Weights, "log_rest",
                            lambda self, *a: rests.append(a) or log_rest(self, *a))
        bob = FadingModel.kappa_mu_shadowed(1.5, 6.0, 0.5, 10.0 ** 0.8)
        opsc(SecrecyScenario(bob=bob, eve=FadingModel.rayleigh(10.0 ** 1.5), rate_rs=0.1))
        assert rests
        for channel in (FadingModel.kappa_mu_shadowed(2.0, 0.8, 1.5, 3.0),
                        FadingModel.nakagami(0.7, 3.0)):
            capacity_side_info(CapacityScenario(channel=channel))
        assert not arrays


class TestKummer:
    """1F1 for positive parameters, in log space: fading.pdf's finite-m
    densities go through it (negative arguments by Kummer's transformation)."""

    def test_empty_series(self):
        assert _log_hyp1f1_pos(3.7, 1.2, 0.0) == 0.0

    def test_exp_identity(self):
        # 1F1(1; 2; x) = (e^x - 1) / x, on both sides of the log-space switch
        for x in (1.0, 50.0):
            got = math.exp(_log_hyp1f1_pos(1.0, 2.0, x))
            assert got == pytest.approx(math.expm1(x) / x, rel=1e-10)
        got = math.exp(-3.0 + _log_hyp1f1_pos(1.0, 2.0, 3.0))  # 1F1(1; 2; -3)
        assert got == pytest.approx((math.exp(-3) - 1) / -3, rel=1e-10)

    def test_frozen_negative_argument(self):
        # 1F1(1/2; 3/2; -2.25) = e^-2.25 1F1(1; 3/2; 2.25)
        got = math.exp(-2.25 + _log_hyp1f1_pos(1.0, 1.5, 2.25))
        assert got == pytest.approx(KUMMER_HALF, rel=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(0.3, 6.0))
            x = float(rng.uniform(0.0, 80.0))
            ref = float(sp.hyp1f1(a, b, x))
            assert math.exp(_log_hyp1f1_pos(a, b, x)) == pytest.approx(ref, rel=1e-8)

    # 1F1(m; mu; (a - b) x) behind fading.pdf below the log-space switch at 30,
    # so behind the quadrature oracles; (0.5, 60) rises for five terms first
    @pytest.mark.parametrize("a,b,z", [(60.0, 6.0, 29.9), (0.5, 6.0, 29.9), (12.0, 0.5, 29.9),
                                       (0.5, 60.0, 29.9), (2.0, 2.3, 5.0), (3.0, 1.0, 15.0),
                                       (12.0, 6.0, 0.7), (0.5, 0.5, 1e-3)])
    def test_series_against_mpmath(self, a, b, z):
        with mpmath.workdps(30):
            ref = mpmath.hyp1f1(a, b, z)
            assert abs(mpmath.mpf(specfun._kummer_series(a, b, z)) / ref - 1) <= 1e-13

    # (a, b) = (m, mu) of canonical finite-m models fading.pdf evaluates:
    # kappa-mu shadowed (10, 6, 2) and (10, 6, 0.5), eta-mu (0.04, 1) (m = 1,
    # mu = 2), Rician shadowed (K, m = 0.5) and kappa-mu shadowed (1.5, 2, 2)
    @pytest.mark.parametrize("a,b", [(2.0, 6.0), (0.5, 6.0), (1.0, 2.0), (0.5, 1.0),
                                     (2.0, 2.0)])
    @pytest.mark.parametrize("z", [50.0, 1e3, 4.3e7, 4.3e8])
    def test_large_argument_against_mpmath(self, a, b, z):
        ref = float(mpmath.log(mpmath.hyp1f1(a, b, z)))
        got, terms = _log_hyp1f1_peak_sum(a, b, z)
        assert got == pytest.approx(ref, rel=1e-12)
        assert _log_hyp1f1_pos(a, b, z) == got
        # a window about the peak: O(sqrt z) terms, not the z of the plain series
        assert terms <= 24.0 * math.sqrt(z) + 100

    # a - b = n a nonnegative integer below 64: e^z times n + 1 positive terms;
    # b + n - b must be n exactly in floats, as m - mu must for fading.pdf; n = 63
    # is the cap
    @pytest.mark.parametrize("n", [0, 1, 2, 11, 63])
    @pytest.mark.parametrize("b", [0.5, 1.0, 10.25])
    @pytest.mark.parametrize("z", [1e-3, 0.7, 29.9, 50.0, 1e3, 4.3e7, 4.3e8])
    def test_finite_form_against_mpmath(self, n, b, z):
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.hyp1f1(mpmath.mpf(b) + n, b, z)))
        got = z + specfun._log_kummer_finite(b + n, b, z)
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("a,b,z", [(2.5, 2.0, 10.0), (66.0, 2.0, 10.0), (1.0, 2.0, 10.0),
                                       (3.0, 1e-300, 10.0)])
    def test_finite_form_only_where_it_applies(self, a, b, z):
        # a - b not an integer, past the cap, negative, or z / b past 1e300
        assert specfun._log_kummer_finite(a, b, z) is None

    def test_window_grows_past_a_skewed_peak(self):
        # a >> b puts the upper tail beyond the initial +-10 sqrt(z) window
        a, b, z = 3000.0, 2.0, 100.0
        got, terms = _log_hyp1f1_peak_sum(a, b, z)
        assert terms > 2 * (int(10.0 * math.sqrt(z)) + 16)
        assert got == pytest.approx(float(mpmath.log(mpmath.hyp1f1(a, b, z))), rel=1e-12)


def _phi2_structural(b1, b2, x, y):
    """Phi2(b1, b2; 1 + b1 + b2; x, y) for x, y <= 0 through the reduced series:
    smaller argument first, then Phi2 = e^x Phi2(1, b2; c; -x, y - x)."""
    if y < x:
        b1, b2, x, y = b2, b1, y, x
    return math.exp(_phi2_unit_first_log(b2, 1.0 + b1 + b2, -x, y - x))


def _phi2_unit_first_mpmath(b2, c, u, v):
    """log of exp(-u) Phi2(1, b2; c; u, v) at 30 digits: Gamma(c) u^(1-c)
    sum_n (b2)_n (v/u)^n / n! P(c + n - 1, u), summed past its peak until a
    term falls below 1e-25 of the sum."""
    with mpmath.workdps(30):
        b2, c, u, v = map(mpmath.mpf, (b2, c, u, v))
        total, n = mpmath.mpf(0), 0
        while True:
            term = (mpmath.rf(b2, n) * (v / u) ** n / mpmath.factorial(n)
                    * mpmath.gammainc(c + n - 1, 0, u, regularized=True))
            total += term
            if n > b2 * v / (u - v) and term < total * mpmath.mpf(10) ** -25:
                return mpmath.log(mpmath.gamma(c) * u ** (1 - c) * total)
            n += 1


class TestPhi2:
    # (eta, mu, mean, s, zeta / mean) of imgf_lower_eta_mu_direct on the
    # acceptance grid: its Phi2 series has b2 = mu, c = 2 mu + 1,
    # u = (h1 - s) zeta and v = (h1 - h2) zeta
    @pytest.mark.parametrize("eta,mu,mean,s,zr", [(0.04, 6.0, 1.0, -5.0, 5.0),
                                                  (0.04, 6.0, 10.0, -1.0, 20.0),
                                                  (0.5, 2.0, 10.0, -0.1, 1.0),
                                                  (0.9, 0.5, 1.0, 0.0, 0.1)])
    def test_eta_mu_series_against_mpmath(self, eta, mu, mean, s, zr):
        h1, h2 = mu * (1.0 + eta) / (eta * mean), mu * (1.0 + eta) / mean
        args = (mu, 2.0 * mu + 1.0, (h1 - s) * zr * mean, (h1 - h2) * zr * mean)
        ref = _phi2_unit_first_mpmath(*args)
        assert abs(mpmath.expm1(_phi2_unit_first_log(*args) - ref)) <= 1e-13

    # v/u > 1 (s between the two eta-mu rates): the terms peak hundreds of n
    # out, where scipy's P(c + n - 1, u) underflows to 0, so P must be taken
    # in log space (1.3 and 532 short in log otherwise)
    @pytest.mark.parametrize("args", [(6.0, 13.0, 10.0, 300.0), (2.0, 5.0, 1.0, 1000.0)])
    def test_series_past_incomplete_gamma_underflow(self, args):
        ref = _phi2_unit_first_mpmath(*args)
        assert _phi2_unit_first_log(*args) == pytest.approx(float(ref), rel=1e-15)

    def test_equal_argument_confluence(self):
        # Phi2(b1, b2; c; x, x) = 1F1(b1 + b2; c; x), here from scipy
        for x in (-50.0, -20.0, -5.0, -0.5):
            got = _phi2_structural(1.2, 0.9, x, x)
            ref = float(sp.hyp1f1(2.1, 3.1, x))
            assert abs(got - ref) <= 1e-9 * max(abs(ref), 1e-300)

    def test_frozen_points(self):
        assert _phi2_structural(1, 2, -0.5, -1.5) == pytest.approx(PHI2_POINT, rel=1e-10)
        assert _phi2_structural(1.1, 1.2, -30.0, -10.0) == pytest.approx(PHI2_MED, rel=1e-10)
        assert _phi2_structural(1.1, 1.2, -300.0, -100.0) == pytest.approx(PHI2_BIG, rel=1e-10)


# the kernel's infinite weights families, the ones with ratio bounds (a finite
# one is walked whole): (lam, m) for specfun._weights, and the log weights
# log w_n of n = 0 .. size - 1 and their survival function (mpmath)
BOUND_FAMILIES = {
    "poisson": (6.0, math.inf),
    **{f"negative-binomial(m={m})": (6.0, m) for m in (0.3, 1.0, 7.0)},
}


def true_weights(lam, m, size: int, survival: bool) -> list:
    """w_n (or S_n = sum_{j>n} w_j) for n < size at dps 30, each exponent
    formed by mpmath's log and log-gamma, and mpmath's regularized incomplete
    gamma and beta for the survival function's far end."""
    with mpmath.workdps(30):
        if math.isinf(m):
            w = [mpmath.exp(n * mpmath.log(lam) - lam - mpmath.loggamma(n + 1))
                 for n in range(size + 1)]
            tail = mpmath.gammainc(size + 1, 0, lam, regularized=True)
        else:
            theta = mpmath.mpf(lam) / (lam + m)
            w = [mpmath.exp(mpmath.loggamma(m + n) - mpmath.loggamma(m) - mpmath.loggamma(n + 1))
                 * theta ** n * (1 - theta) ** m for n in range(size + 1)]
            tail = mpmath.betainc(size + 1, m, 0, theta, regularized=True)
        if survival:  # S_n = S_(n+1) + w_(n+1), down from S_size = the tail mass past size
            s = [tail]
            for n in reversed(range(size)):
                s.append(s[-1] + w[n + 1])
            w = s[::-1]
        return w


class TestWeightFamilies:
    """Each family's weight-ratio bounds hold for every n they cover,
    against weights computed apart from the kernel."""

    @pytest.mark.parametrize("m", [0.0, -3.0, math.nan])
    def test_shape_not_positive_is_domain_error(self, m):
        # a shape that is not > 0 is named as such, not met as an
        # AccuracyError about log(1 - theta) (m = 0) or a ValueError (m < 0)
        with pytest.raises(DomainError, match=r"\(lam, m\) = \(2.0, "):
            specfun._weights(2.0, m, 1.0, 0.0, False)
        with pytest.raises(DomainError):
            _log_mixture_sum(2.0, m, 1.0, 0, 0.0, 1.0, False)

    @pytest.mark.parametrize("lam, m, lo, hi", [
        (4.0, math.inf, 0, 60), (1000.0, math.inf, 0, 400), (1000.0, math.inf, 950, 1100),
        (3.0, 0.5, 0, 200), (20.0, 3.0, 5, 90), (400.0, 7.0, 0, 300)])
    def test_survival_block(self, lam, m, lo, hi):
        # the survival weights' step ratios from one scalar tail at the top
        # and S_n = S_(n+1) + w_(n+1) down, and the seed's log weight at
        # either end, against S_n at 40 digits; at lam = 1000 the block from
        # n = 0 reaches where S_n/w(n+1) passes the double range
        with mpmath.workdps(40):  # S_n for n < hi, every step at 40 digits
            lam_mp = mpmath.mpf(lam)
            if math.isinf(m):
                s = [mpmath.gammainc(hi, 0, lam_mp, regularized=True)]
                w = lambda n: mpmath.exp(n * mpmath.log(lam_mp) - lam_mp - mpmath.loggamma(n + 1))
            else:
                theta = lam_mp / (lam_mp + m)
                s = [mpmath.betainc(hi, m, 0, theta, regularized=True)]
                w = lambda n: mpmath.exp(mpmath.loggamma(m + n) - mpmath.loggamma(m)
                                         - mpmath.loggamma(n + 1) + n * mpmath.log(theta)
                                         + m * mpmath.log1p(-theta))
            for j in range(hi - 1, 0, -1):  # S_(j-1) = S_j + w_j
                s.append(s[-1] + w(j))
            s = s[::-1]
        for r in (0.7, 1.0):
            weights = specfun._weights(lam, m, 1.5, math.log(r), True)
            for seed in (lo, hi - 1):
                log_w, ratios = weights.block(lo, hi, seed)
                ref = (1.5 + seed) * math.log(r) + float(mpmath.log(s[seed]))
                # scipy's tail to within about 8 eps (the incomplete beta)
                assert log_w == pytest.approx(ref, rel=1e-15, abs=4e-15), seed
            # the top ratio carries the rounding of log w - log S, about
            # eps |log S| (2.8e-14 at S = 3e-48), which shrinks going down
            for j, ratio in enumerate(ratios, lo + 1):
                assert ratio == pytest.approx(float(s[j] / s[j - 1]) * r, rel=1e-13, abs=0.0), j
            assert weights.step(hi - 1) == ratios[-1]

    @pytest.mark.parametrize("survival", [False, True], ids=["weights", "survival"])
    @pytest.mark.parametrize("family", list(BOUND_FAMILIES))
    def test_ratio_bounds(self, family, survival):
        lam, m = BOUND_FAMILIES[family]
        w = true_weights(lam, m, 560, survival)
        for r in (0.5, 1.0, 3.0):
            weights = specfun._weights(lam, m, 1.5, math.log(r), survival)
            for top in (0, 3, 40):  # w(n+1) r/w(n) for every n in [top, top + 500]
                bound = weights.forward(top)
                for n in range(top, top + 501):
                    assert bound >= float(w[n + 1] / w[n]) * r * (1.0 - 1e-12), (r, top, n)
            for low in (1, 3, 40):  # w(n-1)/(w(n) r) for every 1 <= n <= low
                bound = weights.backward(low)
                for n in range(1, low + 1):
                    assert bound >= float(w[n - 1] / w[n]) / r * (1.0 - 1e-12), (r, low, n)


@pytest.mark.parametrize("x", [1e3, 1e8, 4e18, 1e25, 4e30, 1e33])
def test_q_one_order_far_out(x):
    # an order above x whose Chernoff exponent f(a) = a log(a/x) - a + x
    # passes -log(_MIXTURE_TOL), with the margin of 1 that absorbs a's
    # rounding, and is not far past it, also where a/x - 1 is 1e-8 and
    # less, so that f taken as a difference of numbers near x cancels
    a = specfun._q_one_order(x)
    with mpmath.workdps(60):
        am, xm = mpmath.mpf(a), mpmath.mpf(x)
        f = am * mpmath.log(am / xm) - am + xm
    assert a > x
    assert specfun._LOG_Q_ONE - 1.0 <= f <= 2.0 * specfun._LOG_Q_ONE, (a, float(f))


def plan_cases(seed: int, size: int) -> list:
    """Seeded (lam, m, mu, k, log_r, x, upper): Poisson and negative binomial
    laws (m >= 1) on both tails, k = 0..3, whose plan finds the peak by
    bisection (it lies past one block from n = 0)."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < size:
        lam = 10.0 ** rng.uniform(2.0, 4.0)
        m = math.inf if rng.integers(2) else float(rng.uniform(1.0, 30.0))
        mu, k, upper = float(rng.uniform(0.5, 5.0)), int(rng.integers(4)), bool(rng.integers(2))
        log_r, x = -float(rng.uniform(0.0, 1.0)), 10.0 ** rng.uniform(0.0, 4.0)
        weights = specfun._weights(lam, m, mu, log_r, False)
        t = specfun._Summand(weights, mu, k, x, upper, False)
        if specfun._plan(t)[2] == 8.0:  # the spare of a bisected window
            cases.append((lam, m, mu, k, log_r, x, upper))
    return cases


@pytest.mark.parametrize("seed", [2301, 2302])
def test_plan_centres_the_peak(seed):
    # the window's centre lies within a sixteenth of its block of the
    # largest term, found by brute force over every n up to well past it
    for lam, m, mu, k, log_r, x, upper in plan_cases(seed, 20):
        weights = specfun._weights(lam, m, mu, log_r, False)
        center, block, spare, n1 = specfun._plan(specfun._Summand(weights, mu, k, x, upper,
                                                                  False))
        n = np.arange(0.0, 4.0 * center + 1000.0)
        if math.isinf(m):
            log_w = n * math.log(lam) - lam - sp.gammaln(n + 1.0)
        else:
            theta = lam / (lam + m)
            log_w = (sp.gammaln(m + n) - sp.gammaln(m) - sp.gammaln(n + 1.0) + n * math.log(theta)
                     + m * math.log1p(-theta))
        with np.errstate(divide="ignore"):  # R underflows far from the peak
            log_r_n = specfun._log_reg_gamma(mu + n + k, x, upper)
        log_terms = (log_w + (mu + n) * log_r + sp.gammaln(mu + n + k) - sp.gammaln(mu + n)
                     + log_r_n)
        peak = int(np.argmax(log_terms))
        assert abs(center - peak) <= block / 16.0, (lam, m, mu, k, log_r, x, upper, center, peak)
