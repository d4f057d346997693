"""Reference values computed apart from the routines under test.

Every reference here is a definitional integral over ``fading.pdf`` evaluated
by adaptive quadrature.  None of them calls the closed forms, the series kernels or the metric code
they are used to check.  Nothing in this module is ever timed.
"""

from __future__ import annotations

import math

from scipy import integrate
from scipy import special as sp

from imgflib import fading
from imgflib.fading import FadingModel

_EPSREL = 1e-12


def _quad(f, lo: float, hi: float) -> float:
    val, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=_EPSREL, limit=500)
    return val


def integral(f, lo: float, hi: float, scales=()) -> float:
    """int_lo^hi f for a nonnegative f, split at lo + c * (1, 10, 50) for
    every scale c so that adaptive quadrature resolves each piece to its own
    relative tolerance (pieces may differ by hundreds of decades)."""
    cuts = {lo + c * k for c in scales for k in (1.0, 10.0, 50.0)}
    edges = [lo, *sorted(x for x in cuts if lo < x < hi), hi]
    return sum(_quad(f, a, b) for a, b in zip(edges, edges[1:]))


def tail_limit(model: FadingModel, lo: float, weight_scale: float = math.inf) -> float:
    """Finite stand-in for the upper limit infinity of int_lo^inf w f, where
    the weight w <= 1 decays on the scale weight_scale (inf: no decay).

    The density decays as exp(-b x) beyond its peak, which lies within a few
    mean SNRs, b being the smallest MGF pole; past this limit the integrand
    is below exp(-750) of its size, so the truncation is exact in double
    precision.  A finite limit also keeps ``fading.pdf`` away from arguments
    where its 1F1 series would need millions of terms.
    """
    b = fading.smallest_pole(model)
    return lo + min(750.0 * weight_scale, 10.0 * model.mean_snr + 750.0 / b)


def _pdf(model: FadingModel):
    return lambda x: fading.pdf(model, x)


def cdf(model: FadingModel, x: float) -> float:
    """F(x) = int_0^x f."""
    if x <= 0.0:
        return 0.0
    return integral(_pdf(model), 0.0, x, scales=(model.mean_snr,))


def secrecy_outage_rayleigh_eve(bob: FadingModel, eve_mean: float, rate: float) -> float:
    """Pr{log2((1+g_b)/(1+g_e)) <= R} for a Rayleigh eavesdropper:

        F_b(alpha) + int_alpha^inf f_b(x) exp(-(x - alpha) / (2^R Omega_e)) dx,

    with alpha = 2^R - 1."""
    scale = 2.0 ** rate
    alpha = scale - 1.0
    c = scale * eve_mean
    pdf = _pdf(bob)
    tail = integral(lambda x: pdf(x) * math.exp(-(x - alpha) / c), alpha,
                    tail_limit(bob, alpha, c), scales=(c, bob.mean_snr))
    return cdf(bob, alpha) + tail


def interference_outage_nakagami(desired: FadingModel, m_i: float, mean_i: float,
                                 gamma_th: float) -> float:
    """Pr{g_d <= g_th + (1 + g_th) g_i} for a Nakagami-m interferer, whose
    complementary CDF is the regularized upper incomplete gamma Q(m, m y / Omega)."""
    c = (1.0 + gamma_th) * mean_i / m_i
    pdf = _pdf(desired)
    tail = integral(lambda x: pdf(x) * float(sp.gammaincc(m_i, (x - gamma_th) / c)),
                    gamma_th, tail_limit(desired, gamma_th, 2.0 * c),
                    scales=(c, desired.mean_snr))
    return cdf(desired, gamma_th) + tail


def aber_regions(channel: FadingModel, thresholds, bits) -> float:
    """Adaptive-modulation BER from per-region integrals:
    0.2 sum_j k_j int_{g_j}^{g_j+1} exp(-1.5 x / (2^k_j - 1)) f / sum_j k_j int f."""
    pdf = _pdf(channel)
    edges = [*thresholds, math.inf]
    num = den = 0.0
    for k, lo, hi in zip(bits, edges, edges[1:]):
        s = -1.5 / (2.0 ** k - 1.0)
        scales = (channel.mean_snr, 1.0 / -s)
        num += k * integral(lambda x: math.exp(s * x) * pdf(x), lo,
                            min(hi, tail_limit(channel, lo, 1.0 / -s)), scales)
        den += k * integral(pdf, lo, min(hi, tail_limit(channel, lo)), scales)
    return 0.2 * num / den


def upper_moment(model: FadingModel, s: float, zeta: float, k: int = 1) -> float:
    """int_zeta^inf x^k exp(s x) f(x) dx."""
    pdf = _pdf(model)
    hi = tail_limit(model, zeta, 1.0 / -s if s < 0.0 else math.inf)
    return integral(lambda x: x ** k * math.exp(s * x) * pdf(x), zeta, hi,
                    scales=(model.mean_snr,) + ((1.0 / -s,) if s < 0.0 else ()))


def cutoff_residual(channel: FadingModel, g0: float) -> float:
    """Water-filling constraint int_g0^inf (1/g0 - 1/g) f(g) dg - 1."""
    pdf = _pdf(channel)
    val, _ = integrate.quad(lambda g: (1.0 / g0 - 1.0 / g) * pdf(g), g0,
                            tail_limit(channel, g0), epsabs=1e-13, epsrel=1e-11, limit=500)
    return val - 1.0

