"""Finite gamma-mixture form of the kappa-mu shadowed CDF for integer mu, m.

For integer fading parameters the CDF collapses to a finite sum of Erlang
tails,

    F(g) = 1 - sum_i C_i exp(-g / Omega_i) sum_{r < m_i} (g / Omega_i)^r / r!,

which is what makes the secrecy-outage expression a finite combination of
IMGF derivatives.  The published coefficient table carries a dangling index
in the C_i formulas; it is read as the row index and that reading is checked
numerically against the exact CDF, not assumed (see tests).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import AccuracyError, DomainError
from .fading import FadingModel, canonicalize

__all__ = ["GammaMixture", "mixture_params", "mixture_from_model", "mixture_cdf"]

_CDF_ATOL = 1e-9  # mixture_cdf's bound on its absolute error


def _binom_general(n: int, k: int) -> float:
    """Binomial coefficient with integer k >= 0 and any integer n
    (falling-factorial convention, so C(-1, 0) = 1 and C(0, 2) = 0)."""
    if k < 0:
        return 0.0
    out = 1.0
    for j in range(k):
        out *= (n - j) / (j + 1)
    return out


@dataclass(frozen=True)
class GammaMixture:
    """Terms (C_i, Omega_i, m_i) of the finite Erlang mixture; immutable."""

    terms: tuple  # of (weight, scale, shape) with integer shape >= 0

    def __post_init__(self):
        total = 0.0
        for (c, omega, mi) in self.terms:
            if not omega > 0:
                raise DomainError("mixture scales must be positive")
            if mi < 0 or mi != int(mi):
                raise DomainError("mixture shapes must be nonnegative integers")
            if mi > 0:
                total += c
        if abs(total - 1.0) > 1e-9:
            raise DomainError(
                f"mixture weights with positive shape must sum to 1, got {total!r}"
            )


def _params_mu_le_m(kappa: float, mu: int, m: int, mean_snr: float):
    count = m - mu + 1
    omega = (mu * kappa + m) / m * mean_snr / (mu * (1.0 + kappa))
    p = m / (mu * kappa + m)
    q = mu * kappa / (mu * kappa + m)
    terms = []
    for i in range(count + 1):
        c = _binom_general(m - mu, i) * p ** i * q ** (m - mu - i)
        terms.append((c, omega, m - i))
    return terms


def _params_mu_gt_m(kappa: float, mu: int, m: int, mean_snr: float):
    omega_a = mean_snr / (mu * (1.0 + kappa))
    omega_b = (mu * kappa + m) / m * omega_a
    p = m / (mu * kappa + m)
    q = mu * kappa / (mu * kappa + m)
    terms = [(0.0, omega_a, mu - m + 1)]
    for i in range(1, mu - m + 1):
        c = ((-1.0) ** m * _binom_general(m + i - 2, i - 1)
             * p ** m * q ** (-m - i + 1))
        terms.append((c, omega_a, mu - m - i + 1))
    for i in range(mu - m + 1, mu + 1):
        c = ((-1.0) ** (i - mu + m - 1) * _binom_general(i - 2, i - mu + m - 1)
             * p ** (i - mu + m - 1) * q ** (-i + 1))
        terms.append((c, omega_b, mu - i + 1))
    return terms


def mixture_params(kappa: float, mu: int, m: int, mean_snr: float) -> GammaMixture:
    """Mixture coefficients for integer mu >= 1, m >= 1, kappa >= 0.

    kappa = 0 degenerates the coefficient formulas (0^0 powers), so that case
    is built directly from its analytic limit: a single gamma term of shape mu.
    """
    # each check is written so that NaN and inf fail it
    if not (1 <= mu < math.inf and mu == int(mu)):
        raise DomainError(f"mu must be a positive integer, got {mu}")
    if not (1 <= m < math.inf and m == int(m)):
        raise DomainError(f"m must be a positive integer, got {m}")
    if not 0 <= kappa < math.inf:
        raise DomainError(f"kappa must be nonnegative and finite, got {kappa}")
    if not 0 < mean_snr < math.inf:
        raise DomainError(f"mean_snr must be positive and finite, got {mean_snr}")
    mu, m = int(mu), int(m)
    if kappa == 0.0:
        return GammaMixture(terms=((1.0, mean_snr / mu, mu),))
    if mu <= m:
        terms = _params_mu_le_m(kappa, mu, m, mean_snr)
    else:
        terms = _params_mu_gt_m(kappa, mu, m, mean_snr)
    # the mu > m coefficients alternate in sign and grow like q^-(mu-1): at
    # small kappa they cancel, and their sum drifts from 1 by rounding alone
    total = sum(c for (c, _, mi) in terms if mi > 0)
    if abs(total - 1.0) > 1e-9:
        raise AccuracyError(f"mixture coefficients cancel: their sum is {total!r}, not 1")
    return GammaMixture(terms=tuple(terms))


@functools.lru_cache(maxsize=256)
def mixture_from_model(model: FadingModel) -> GammaMixture:
    """Mixture for a model whose canonical form has integer (mu, m), or is a
    gamma law (kappa = 0, integer mu; m then irrelevant).  Built once per
    (frozen, hashable) model; the mixture is immutable, so sharing it is safe."""
    c = canonicalize(model)
    if c.kappa == 0.0:
        if c.mu != int(c.mu):
            raise DomainError(
                f"gamma-law mixture requires integer mu, got mu={c.mu}"
            )
        return mixture_params(0.0, int(c.mu), 1, c.mean_snr)
    if math.isinf(c.m) or c.m != int(c.m) or c.mu != int(c.mu):
        raise DomainError(
            f"mixture form requires integer mu and m, got mu={c.mu}, m={c.m}"
        )
    return mixture_params(c.kappa, int(c.mu), int(c.m), c.mean_snr)


def mixture_cdf(mix: GammaMixture, gamma: float) -> float:
    """Evaluate the mixture CDF; in [0, 1] and nondecreasing, within 1e-9.

    The coefficients alternate in sign for mu > m, and the rounding error of
    the sum tracks machine epsilon times sum |C_i|: AccuracyError where that
    bound exceeds 1e-9, and where the value leaves [0, 1]."""
    if not gamma >= 0:  # a NaN fails it too
        raise DomainError(f"SNR support is [0, inf), got {gamma}")
    if gamma == 0.0:
        return 0.0
    if gamma == math.inf:
        return 1.0
    acc = scale = 0.0
    for (c, omega, mi) in mix.terms:
        if c == 0.0 or mi <= 0:
            continue
        z = gamma / omega
        # e^-z * sum_{r<mi} z^r / r!, built by upward recurrence
        term = math.exp(-z)
        partial = term
        for r in range(1, int(mi)):
            term *= z / r
            partial += term
        acc += c * partial
        scale += abs(c)
    rounding = sys.float_info.epsilon * scale
    if rounding > _CDF_ATOL:
        raise AccuracyError(f"mixture CDF coefficients cancel: rounding bound "
                            f"{rounding:.3e} exceeds {_CDF_ATOL:g}")
    val = 1.0 - acc
    if not -1e-8 <= val <= 1.0 + 1e-8:
        raise AccuracyError(f"mixture CDF left [0,1]: {val}")
    return min(max(val, 0.0), 1.0)
