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
from .fading import FadingModel, _law
from .fading import canonicalize  # noqa: F401  unused; perfbench/trace.py hooks it here

__all__ = ["GammaMixture", "mixture_params", "mixture_from_model", "mixture_cdf"]

_CDF_ATOL = 1e-9  # mixture_cdf's bound on its absolute error


def _check_weight_sum(terms, error) -> None:
    """Raise error unless the coefficients of positive shape sum to 1 within
    max(1e-9, 2 n eps sum |C_i|) over the n terms, and that rounding bound
    leaves the sum a digit (is at most 0.1; see mixture_params)."""
    weights = [c for (c, _, mi) in terms if mi > 0]
    total = sum(weights)
    rounding = 2.0 * len(terms) * sys.float_info.epsilon * sum(map(abs, weights))
    if not (rounding <= 0.1 and abs(total - 1.0) <= max(1e-9, rounding)):  # NaN fails
        raise error(f"mixture weights with positive shape must sum to 1, got {total!r} "
                    f"with a rounding bound of {rounding:.3e}")


@dataclass(frozen=True)
class GammaMixture:
    """Terms (C_i, Omega_i, m_i) of the finite Erlang mixture; immutable."""

    terms: tuple  # of (weight, scale, shape) with integer shape >= 0

    def __post_init__(self):
        for (c, omega, mi) in self.terms:
            if not omega > 0:
                raise DomainError("mixture scales must be positive")
            if mi < 0 or mi != int(mi):
                raise DomainError("mixture shapes must be nonnegative integers")
        _check_weight_sum(self.terms, DomainError)


def _params_mu_le_m(kappa: float, mu: int, m: int, mean_snr: float):
    count = m - mu + 1
    omega = (mu * kappa + m) / m * mean_snr / (mu * (1.0 + kappa))
    p = m / (mu * kappa + m)
    q = mu * kappa / (mu * kappa + m)
    terms = []
    for i in range(count + 1):
        c = math.comb(m - mu, i) * p ** i * q ** (m - mu - i)
        terms.append((c, omega, m - i))
    return terms


def _params_mu_gt_m(kappa: float, mu: int, m: int, mean_snr: float):
    omega_a = mean_snr / (mu * (1.0 + kappa))
    omega_b = (mu * kappa + m) / m * omega_a
    p = m / (mu * kappa + m)
    q = mu * kappa / (mu * kappa + m)
    terms = [(0.0, omega_a, mu - m + 1)]
    for i in range(1, mu - m + 1):
        c = ((-1.0) ** m * math.comb(m + i - 2, i - 1)
             * p ** m * q ** (-m - i + 1))
        terms.append((c, omega_a, mu - m - i + 1))
    # at mu = m (the column boundary) i = 1 takes C(-1, 0) = 1 as C(0, 0)
    for i in range(mu - m + 1, mu + 1):
        c = ((-1.0) ** (i - mu + m - 1) * math.comb(max(i - 2, 0), i - mu + m - 1)
             * p ** (i - mu + m - 1) * q ** (-i + 1))
        terms.append((c, omega_b, mu - i + 1))
    return terms


def mixture_params(kappa: float, mu: int, m: int, mean_snr: float) -> GammaMixture:
    """Mixture coefficients for integer mu >= 1, m >= 1, kappa >= 0.

    kappa = 0 degenerates the coefficient formulas (0^0 powers), so that case
    is built directly from its analytic limit: a single gamma term of shape mu.

    The coefficients of positive shape sum to 1.  Each is an exact binomial
    times powers of p and q, so their sum drifts from 1 by rounding alone,
    which n terms keep below n eps sum |C_i| (0.75 n eps sum |C_i| at most
    over 11 200 points, kappa 1e-3 to 1e3, mu and m 1 to 20, and up to m =
    1000): AccuracyError where the sum is further off than the larger of
    1e-9 and twice that, or NaN, where twice that passes 0.1 (the sum keeps
    no digit), and where a binomial or a power of q passes the double range.  Mildly cancelling coefficients
    build; mixture_cdf and the outages bound their own rounding, and raise
    where it matters.
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
    try:
        terms = (_params_mu_le_m if mu <= m else _params_mu_gt_m)(kappa, mu, m, mean_snr)
    except OverflowError:  # an exact binomial or a power of q past the double range
        raise AccuracyError(f"mixture coefficients of (kappa, mu, m) = ({kappa}, {mu}, {m}) "
                            f"pass the double range") from None
    # the mu > m coefficients alternate in sign and grow like q^-(mu-1): at
    # small kappa they cancel, and their sum drifts from 1 by rounding alone
    _check_weight_sum(terms, AccuracyError)
    return GammaMixture(terms=tuple(terms))


@functools.lru_cache(maxsize=256)
def mixture_from_model(model: FadingModel) -> GammaMixture:
    """Mixture for a model whose canonical form has integer (mu, m), or is a
    gamma law (kappa = 0, integer mu; m then irrelevant).  Built once per
    (frozen, hashable) model from its law's canonical fields (fading._law);
    the mixture is immutable, so sharing it is safe.  DomainError also where
    the law's rates are not positive finite doubles, as for a subnormal mean
    SNR."""
    c = _law(model)
    if c.kappa == 0.0:
        if c.mu != int(c.mu):
            raise DomainError(f"gamma-law mixture requires integer mu, got mu={c.mu}")
        return mixture_params(0.0, int(c.mu), 1, c.mean_snr)
    if math.isinf(c.m) or c.m != int(c.m) or c.mu != int(c.mu):
        raise DomainError(f"mixture form requires integer mu and m, got mu={c.mu}, m={c.m}")
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
