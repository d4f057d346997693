"""Scalar special-function kernels: Marcum Q, Kummer 1F1, log-space
regularized incomplete gammas and the reduced Humbert Phi2 series.

All kernels are pure double-precision scalar functions, reentrant and
thread-safe.  Accuracy is controlled by an AccuracyBudget; running out of the
term budget raises AccuracyError rather than silently truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, DomainError

__all__ = [
    "AccuracyBudget",
    "DEFAULT_ACCURACY",
    "marcum_q",
    "marcum_p",
    "kummer_1f1",
]


@dataclass(frozen=True)
class AccuracyBudget:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-300
    max_terms: int = 100_000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_ACCURACY = AccuracyBudget()


def _check_c_parameter(c: float, name: str = "c") -> None:
    if c <= 0 and c == round(c):
        raise DomainError(f"{name}={c} is zero or a negative integer (series pole)")


# ---------------------------------------------------------------------------
# incomplete gammas
# ---------------------------------------------------------------------------

def _log_reg_upper_gamma(a: float, x: float) -> float:
    """log Q(a, x), usable deep in the tail where Q underflows.

    Switches to the asymptotic expansion Q ~ x^(a-1) e^-x / Gamma(a) once the
    direct value underflows; there x >> a, so the expansion is sharp.
    """
    q = sp.gammaincc(a, x)
    if q > 1e-280:
        return math.log(q)
    # asymptotic series sum_j (a-1)(a-2)...(a-j) / x^j
    corr = 1.0
    term = 1.0
    for j in range(1, 40):
        term *= (a - j) / x
        if abs(term) < 1e-18 * abs(corr):
            break
        corr += term
    return -x + (a - 1.0) * math.log(x) - math.lgamma(a) + math.log(max(corr, 1e-300))


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def _marcum_terms(nu: float, a: float, b: float, acc: AccuracyBudget):
    """Poisson weights in a^2/2 and the gamma-tail arguments for Marcum sums.

    Weights are taken on a window around the Poisson mode (central-term-outward
    truncation); the neglected probability mass bounds the truncation error
    because every gamma factor lies in [0, 1].
    """
    lam = 0.5 * a * a
    x = 0.5 * b * b
    if lam == 0.0:
        return np.array([1.0]), np.array([nu]), x, 0.0
    half = 12.0 * math.sqrt(lam) + 40.0
    k_lo = max(0, int(lam - half))
    k_hi = int(lam + half) + 1
    if k_hi - k_lo > acc.max_terms:
        raise AccuracyError(
            f"Marcum Q needs more than max_terms={acc.max_terms} Poisson terms (a={a})"
        )
    k = np.arange(k_lo, k_hi, dtype=float)
    logw = k * math.log(lam) - lam - sp.gammaln(k + 1.0)
    w = np.exp(logw)
    missing = abs(1.0 - float(w.sum()))
    if missing > 100.0 * acc.rel_tol:
        raise AccuracyError(
            f"Marcum Q Poisson window lost mass {missing:.3e} (a={a}, b={b})"
        )
    return w, nu + k, x, missing


def marcum_q(nu: float, a: float, b: float, acc: AccuracyBudget = DEFAULT_ACCURACY) -> float:
    """Generalized Marcum Q_nu(a, b) for real order nu > 0.

    Q_nu(a, b) = sum_k Pois(k; a^2/2) Q(nu + k, b^2/2), the tail probability
    of a noncentral chi-square law.  Nonincreasing in b, with Q(a, 0) = 1.
    """
    if not nu > 0:
        raise DomainError(f"order must be positive, got nu={nu}")
    if a < 0 or b < 0:
        raise DomainError("Marcum Q arguments must be nonnegative")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("Marcum Q arguments must be finite")
    if b == 0.0:
        return 1.0
    w, shapes, x, missing = _marcum_terms(nu, a, b, acc)
    q = float(np.dot(w, sp.gammaincc(shapes, x)))
    # truncation can only lose nonnegative mass; fold it into a bound check
    if q > 1.0 + 1e-12:
        raise AccuracyError(f"Marcum Q left [0,1]: {q}")
    return min(max(q, 0.0), 1.0)


def marcum_p(nu: float, a: float, b: float, acc: AccuracyBudget = DEFAULT_ACCURACY) -> float:
    """Complementary Marcum function 1 - Q_nu(a, b), summed directly.

    Direct summation avoids the cancellation of forming 1 - Q when the result
    is small (noncentral chi-square CDF near the origin).
    """
    if not nu > 0:
        raise DomainError(f"order must be positive, got nu={nu}")
    if a < 0 or b < 0:
        raise DomainError("Marcum arguments must be nonnegative")
    if b == 0.0:
        return 0.0
    w, shapes, x, missing = _marcum_terms(nu, a, b, acc)
    p = float(np.dot(w, sp.gammainc(shapes, x)))
    if p > 1.0 + 1e-12:
        raise AccuracyError(f"Marcum P left [0,1]: {p}")
    return min(max(p, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Kummer 1F1
# ---------------------------------------------------------------------------

def _kummer_series(a: float, b: float, x: float, acc: AccuracyBudget) -> float:
    # Plain ascending series with term recurrence and Kahan accumulation.
    total = 1.0
    comp = 0.0
    term = 1.0
    small_streak = 0
    for j in range(acc.max_terms):
        term *= (a + j) * x / ((b + j) * (j + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(total) > 1e305 or abs(term) > 1e305:
            raise OverflowError(
                f"1F1({a};{b};{x}) overflows double precision during summation"
            )
        if abs(term) <= acc.rel_tol * abs(total) + acc.abs_tol:
            small_streak += 1
            if small_streak >= 2 and j > abs(x):
                return total
        else:
            small_streak = 0
    raise AccuracyError(f"1F1({a};{b};{x}) did not converge in {acc.max_terms} terms")


def kummer_1f1(a: float, b: float, x: float, acc: AccuracyBudget = DEFAULT_ACCURACY) -> float:
    """Confluent hypergeometric 1F1(a; b; x) for real arguments.

    Negative x is routed through the Kummer transformation
    1F1(a; b; x) = e^x 1F1(b - a; b; -x) so the series has no exponentially
    growing alternating terms.
    """
    _check_c_parameter(b, "b")
    if x == 0.0:
        return 1.0
    if x < 0:
        if b - a > 0 and b > 0:
            # transformed series has positive terms; assemble in log space so
            # huge |x| stays representable
            return math.exp(x + _log_hyp1f1_pos(b - a, b, -x))
        return math.exp(x) * _kummer_series(b - a, b, -x, acc)
    if x > 700.0:
        raise OverflowError(f"1F1 argument x={x} exceeds the double-precision range")
    return _kummer_series(a, b, x, acc)


def _log_hyp1f1_pos(a: float, b: float, z: float) -> float:
    """log 1F1(a; b; z) for a, b > 0 and z >= 0 (all series terms positive).

    Anchored log-space summation; immune to overflow for large z.
    """
    if z == 0.0:
        return 0.0
    if z <= 30.0:
        return math.log(_kummer_series(a, b, z, DEFAULT_ACCURACY))
    n_hi = int(z + 12.0 * math.sqrt(z) + 80.0 + 4.0 * abs(a - b))
    k = np.arange(0, n_hi, dtype=float)
    logt = (sp.gammaln(a + k) - sp.gammaln(a) - sp.gammaln(b + k) + sp.gammaln(b)
            + k * math.log(z) - sp.gammaln(k + 1.0))
    anchor = float(logt.max())
    return anchor + math.log(float(np.exp(logt - anchor).sum()))


# ---------------------------------------------------------------------------
# reduced Humbert Phi2 series
# ---------------------------------------------------------------------------

def _phi2_unit_first_log(b2: float, c: float, u: float, v: float,
                         acc: AccuracyBudget) -> float:
    """log of exp(-u) * Phi2(1, b2; c; u, v) for u > 0, v >= 0.

    Uses the reduction of the inner unit-parameter series to a regularized
    lower incomplete gamma,

        exp(-u) 1F1(1; c + n; u) = Gamma(c + n) u^(1 - c - n) P(c + n - 1, u),

    which turns the double series into a single series of positive terms

        Gamma(c) u^(1-c) sum_n (b2)_n (v/u)^n / n! * P(c + n - 1, u).

    Positive terms mean no cancellation at any argument size; everything is
    assembled in log space so the result can represent values far outside the
    double-precision range of the unscaled Phi2.
    """
    if not u > 0:
        raise DomainError("reduced Phi2 series requires u > 0")
    if v < 0:
        raise DomainError("reduced Phi2 series requires v >= 0")
    log_pref = math.lgamma(c) + (1.0 - c) * math.log(u)
    if v == 0.0 or b2 == 0.0:
        p0 = sp.gammainc(c - 1.0, u)
        if p0 <= 0.0:
            return log_pref + _log_reg_lower_gamma_far(c - 1.0, u)
        return log_pref + math.log(float(p0))

    rho = v / u
    log_rho = math.log(rho)
    lg_b2 = math.lgamma(b2)
    block = 512
    total = 0.0
    anchor = -math.inf
    n0 = 0
    # summand peak of the weight factor alone (geometric-Poisson balance)
    nb_peak = 0.0 if rho >= 1.0 else max(0.0, (b2 * rho - 1.0) / (1.0 - rho))
    while n0 < acc.max_terms:
        n = np.arange(n0, n0 + block, dtype=float)
        logw = (sp.gammaln(b2 + n) - lg_b2 - sp.gammaln(n + 1.0) + n * log_rho)
        pvals = sp.gammainc(c - 1.0 + n, u)
        with np.errstate(divide="ignore"):
            logt = log_pref + logw + np.log(pvals)
        m = float(np.max(logt))
        if m > anchor:
            if anchor > -math.inf:
                total *= math.exp(anchor - m)
            anchor = m
        contrib = float(np.exp(logt - anchor).sum())
        total += contrib
        n0 += block
        if total > 0.0 and n0 > nb_peak:
            # conservative geometric tail bound once the term ratio is < 1
            last = math.exp(logt[-1] - anchor) if np.isfinite(logt[-1]) else 0.0
            ratio = rho * (b2 + n0) / (n0 + 1.0)
            if ratio < 1.0 and last / (1.0 - ratio) <= acc.rel_tol * total:
                return anchor + math.log(total)
            if last == 0.0 and contrib <= acc.rel_tol * total:
                return anchor + math.log(total)
    raise AccuracyError(
        f"reduced Phi2 series needed more than {acc.max_terms} terms "
        f"(b2={b2}, c={c}, u={u}, v={v})"
    )


def _log_reg_lower_gamma_far(a: float, x: float) -> float:
    """log P(a, x) when P underflows (x << a): leading series term in log space."""
    # P(a, x) ~ x^a e^-x / Gamma(a + 1) for x -> 0
    return a * math.log(x) - x - math.lgamma(a + 1.0)
