"""Lower/upper incomplete MGFs of the fading family, with s-derivatives.

Every canonical density is a gamma-scale mixture sum_n w_n Gamma(mu + n, 1/c)
with negative binomial (finite m), Poisson (m = inf) or single-term
(kappa = 0) weights at the LOS-free decay rate c = a, or, when m - mu is a
small nonnegative integer N, the N + 1 terms with binomial weights at the
MGF pole c = b (fading._gamma_mixture).  Each lower or upper IMGF and each
s-derivative is therefore one positive series of regularized incomplete
gammas,

    sum_n w_n (mu+n)_k (c/(c-s))^(mu+n) R(mu+n+k, (c-s) zeta),   R = P or Q,

which specfun._log_mixture_sum sums in log space, outward from its peak or,
for binomial weights, over their whole support; no tail is formed as a
difference, so deep tails keep full relative accuracy.
_log_imgf maps a model's resolved series (_series: its rates and mixtures,
looked up once) and (s, zeta, k, tail) to one kernel call, and holds the
rules for the endpoints zeta = 0 and zeta = inf.  imgf_lower, imgf_upper
and imgf_deriv_s resolve the series per call and exponentiate the result,
AccuracyError past the double range; the metrics in apps resolve it once
per metric call and sum through _log_imgf directly.

A generic numerical route through the inverse Laplace transform of
M(s - p) / p is available for arbitrary user-supplied MGFs and doubles as an
independent cross-check of the closed forms.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import integrate

from .errors import DomainError
from . import laplace
from .fading import FadingModel, pdf, _canonical_params, _from_log, _log_mgf, _mixture
from .fading import mgf  # noqa: F401  unused; perfbench/trace.py hooks incomplete.mgf
from .specfun import (
    marcum_p,  # noqa: F401  unused; perfbench/trace.py hooks incomplete.marcum_p
    marcum_q,  # noqa: F401  unused; perfbench/trace.py hooks incomplete.marcum_q
    _log_mixture_sum,
    _phi2_unit_first_log,
)

__all__ = [
    "imgf_lower",
    "imgf_upper",
    "imgf_deriv_s",
    "imgf_generic",
    "MAX_DERIV_ORDER",
]

MAX_DERIV_ORDER = 12
_OVERFLOW = "IMGF overflows at s={}, zeta={}"


@functools.lru_cache(maxsize=256)
def _series(model: FadingModel) -> tuple:
    """(model, a, b, the mixture at its rate c, the mixture at rate a): the
    model, its LOS-free decay rate a and MGF pole b (fading._canonical_params),
    and the kernel's (lam, m, mu, rate) of fading._gamma_mixture and of the
    series at rate a, which is the same law where the finite form at rate
    b diverges; resolved once per public evaluation or metric call, and
    passed to _log_imgf."""
    params = _canonical_params(model)
    kappa, mu, m, gbar, a, b = params
    return model, a, b, _mixture(*params), (kappa * mu, m, mu, a)


def _log_imgf(series: tuple, s: float, zeta: float, k: int, upper: bool,
              pair: bool = False):
    """log of the k-th s-derivative of the upper (or lower) IMGF of a
    resolved series (_series) at zeta in [0, inf]: the module docstring's
    series times (c-s)^-k, -inf where it underflows.  The endpoints: -inf
    for the empty tail (lower at 0, upper at inf) at every real s; for the
    whole transform (lower at inf, upper at 0) the closed-form log MGF
    (k = 0) or the upper series from 0 (k >= 1).  With pair=True the logs
    at orders k and k+1, from one kernel walk at a positive finite zeta
    (from two evaluations at the endpoints).  The upper series converges
    for s below the MGF pole b, the lower one at rate a for every s below
    the LOS-free decay rate a >= b; outside (s = -inf too), DomainError.  A
    lower tail at b <= s < a, where the finite form at rate b diverges,
    takes rate a.  s and zeta are not checked for NaN here (_log_tail)."""
    if pair and not 0.0 < zeta < math.inf:
        return _log_imgf(series, s, zeta, k, upper), _log_imgf(series, s, zeta, k + 1, upper)
    model, a, b, mixture, at_a = series
    if zeta == (math.inf if upper else 0.0):
        return -math.inf
    if zeta == (0.0 if upper else math.inf):
        if k == 0:
            return _log_mgf(model, s)
        zeta, upper = 0.0, True
    limit = b if upper else a
    if not -math.inf < s < limit:
        raise DomainError(f"{'upper' if upper else 'lower'} IMGF series requires "
                          f"-inf < s < {limit}, got s={s}")
    lam, shape, mu, rate = mixture if s < mixture[3] else at_a
    log_r, x, log_c = -math.log1p(-s / rate), (rate - s) * zeta, math.log(rate - s)
    if pair:
        log_k, log_k1 = _log_mixture_sum(lam, shape, mu, k, log_r, x, upper, pair=True)
        return log_k - k * log_c, log_k1 - (k + 1) * log_c
    return _log_mixture_sum(lam, shape, mu, k, log_r, x, upper) - k * log_c


def _log_tail(model: FadingModel, s: float, zeta: float, k: int, upper: bool) -> float:
    """_log_imgf of a model, for the public entry points: DomainError for a
    NaN s and a NaN or negative zeta; the empty tail is -inf before the
    model's series is resolved, so it holds for a model whose rates leave
    the double range too."""
    if math.isnan(s) or not zeta >= 0.0:
        raise DomainError(f"IMGF needs a number s and zeta >= 0, got s={s}, zeta={zeta}")
    if zeta == (math.inf if upper else 0.0):
        return -math.inf
    return _log_imgf(_series(model), s, zeta, k, upper)


def imgf_lower(model: FadingModel, s: float, zeta: float) -> float:
    """Lower IMGF int_0^zeta exp(s x) f(x) dx.

    At s = 0 this is the CDF.  Defined for any real s < mu(1+kappa)/mean_snr
    (for s at or beyond that rate the closed forms leave their domain and a
    DomainError is raised).
    """
    return _from_log(_log_tail(model, s, zeta, 0, False), _OVERFLOW, s, zeta)


# unused; perfbench/trace.py hooks incomplete._upper_tail_quadrature
def _upper_tail_quadrature(model: FadingModel, s: float, zeta: float, k: int,
                           tol: float) -> float:
    if k == 0:
        f = lambda x: pdf(model, x) * math.exp(s * x)  # noqa: E731
    else:
        f = lambda x: (x ** k) * pdf(model, x) * math.exp(s * x)  # noqa: E731
    val, err = integrate.quad(f, zeta, np.inf, epsabs=1e-300,
                              epsrel=max(tol, 1e-12), limit=400)
    return val


def imgf_upper(model: FadingModel, s: float, zeta: float) -> float:
    """Upper IMGF int_zeta^inf exp(s x) f(x) dx = M(s) - lower IMGF.

    Requires s strictly below the smallest MGF pole (the empty tail at
    zeta = inf is 0 for every s).  Summed directly as a series of upper
    incomplete gammas, so it keeps its relative accuracy however small it is
    next to M(s).
    """
    return _from_log(_log_tail(model, s, zeta, 0, True), _OVERFLOW, s, zeta)


def _check_deriv_args(zeta: float, k: int, tail: str) -> None:
    """DomainError unless 0 <= k <= MAX_DERIV_ORDER, tail is 'lower' or
    'upper' and zeta >= 0: imgf_deriv_s's domain apart from s."""
    if not 0 <= k <= MAX_DERIV_ORDER:
        raise DomainError(f"derivative order must be in [0, {MAX_DERIV_ORDER}], got {k}")
    if tail not in ("lower", "upper"):
        raise DomainError(f"tail must be 'lower' or 'upper', got {tail!r}")
    if not zeta >= 0:
        raise DomainError("zeta must be nonnegative")


def imgf_deriv_s(model: FadingModel, s: float, zeta: float, k: int,
                 tail: str = "upper") -> float:
    """k-th partial s-derivative of the selected IMGF tail.

    Equals the truncated moment transform int x^k exp(s x) f(x) dx over the
    tail interval.  k = 0 returns the plain IMGF.  Orders above
    MAX_DERIV_ORDER are rejected.  Domain: s < a, the LOS-free decay rate,
    for the lower tail; s < b, the MGF pole, for the upper tail and for the
    full transform (lower tail at zeta = inf); DomainError outside.  The
    empty tails (lower at zeta = 0, upper at zeta = inf) are 0 for every s.
    """
    _check_deriv_args(zeta, k, tail)
    return _from_log(_log_tail(model, s, zeta, k, tail == "upper"), _OVERFLOW, s, zeta)


def _deriv_log_scaled(model: FadingModel, s: float, zeta: float, k: int,
                      pair: bool = False):
    """log of int_zeta^inf x^k exp(s (x - zeta)) f(x) dx  (upper tail at a
    finite zeta, prescaled by exp(-s*zeta)); overflow-free building block
    for weighted sums with exp(+s*zeta)-sized outer factors.  At zeta = 0
    and k = 0 it is the whole MGF, in closed form, as imgf_upper takes it.
    With pair=True the logs at orders k and k+1, from one kernel walk at a
    positive finite zeta (from two calls at the endpoints)."""
    if not pair:
        return -s * zeta + _log_tail(model, s, zeta, k, True)
    if not 0.0 < zeta < math.inf:
        return tuple(_deriv_log_scaled(model, s, zeta, j) for j in (k, k + 1))
    return tuple(-s * zeta + v for v in _log_imgf(_series(model), s, zeta, k, True,
                                                  pair=True))


def imgf_generic(mgf_image: laplace.LaplaceImage, s: float, zeta: float,
                 dps: int | None = None) -> float:
    """Model-agnostic lower IMGF for any MGF supplied as a Laplace image.

    Delegates to the fixed-Talbot inversion of M(s - p) / p at t = zeta, in
    float64, where the image's evaluator receives a complex ndarray of
    contour nodes, or, with dps set, in mpmath at dps digits, one node at a
    time; see laplace.LaplaceImage and laplace.imgf_lower_numeric for the
    contract.
    """
    return laplace.imgf_lower_numeric(mgf_image, s, zeta, dps)


def imgf_lower_eta_mu_direct(eta: float, mu: float, mean_snr: float, s: float,
                             zeta: float) -> float:
    """Lower IMGF of the eta-mu law (format 1) evaluated from its own closed
    form rather than through canonicalization; retained as an independent
    cross-check of the parameter mapping."""
    if zeta < 0:
        raise DomainError("zeta must be nonnegative")
    if zeta == 0.0:
        return 0.0
    if eta > 1.0:
        eta = 1.0 / eta
    h1 = mu * (1.0 + eta) / (eta * mean_snr)   # faster decay rate
    h2 = mu * (1.0 + eta) / mean_snr
    if s >= h1:
        raise DomainError(f"eta-mu closed form requires s < {h1}")
    log_pref = ((2.0 * mu - 1.0) * math.log(mu) - math.log(2.0) - math.lgamma(2.0 * mu)
                - 2.0 * mu * math.log(mean_snr)
                + mu * math.log((1.0 + eta) ** 2 / eta) + 2.0 * mu * math.log(zeta))
    log_phi2 = _phi2_unit_first_log(mu, 2.0 * mu + 1.0, (h1 - s) * zeta,
                                    (h1 - h2) * zeta)
    return math.exp(log_pref + log_phi2)

