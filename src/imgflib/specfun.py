"""Special-function kernels: the gamma-mixture sum behind every closed form
(and the Marcum functions built on it), log-space regularized incomplete
gammas, the positive-term Kummer 1F1 and the reduced Humbert Phi2 series.
The last two, kept apart from the mixture sum as kernel-free oracles, share
one summer (_log_window_sum) of positive terms given by their logs, outward
from a first window in blocks, each direction stopped by a geometric bound.

The mixture sum _log_mixture_sum is built from three parts:

- one weights family per kind of weights (_UnitMass, _Binomial,
  _NegativeBinomial, _Poisson, each with its survival form), which owns its
  log weight, its step ratio and, for an infinite family, its ratio bounds,
  its closed-form rest and its peak guess;
- the plan (_plan), which places the first window on the summand peak,
  found by bisection on the term ratio, one scalar incomplete gamma per
  step, and gives the order past which every Q is 1;
- the walkers, which take scipy's incomplete gamma once per block of terms
  and walk the block by the recurrences between neighbouring orders: a loop
  in plain float (or, over an array of x, array) arithmetic that forms each
  step's ratios itself (_walk_loop), its twin that also sums the next order
  (_walk_pair), and, for a float x and a block longer than _LONG_WALK terms,
  one NumPy pass of cumulative products and sums (_walk_numpy).

A float x's call keeps its bookkeeping on Python floats and math, and so do
the weights families (the survival weights, the closed-form rest) and the
first k = -1 term for every x: a float x's call makes no NumPy array outside
the NumPy pass.

Every regularized incomplete gamma R the kernels take comes from scipy
except in one region (_scipy_reg_gamma): where R underflows, or where it is
small and scipy's exponent rounds (|x - a| > 0.4 a, a + x >= 1000),
Legendre's continued fraction or the ascending series with a Stirling-form
prefactor take its place (_far_reg_gamma).  A block seed takes one R and
forms d/R = exp(log d - log R), d = x^a e^-x / Gamma(a+1), or takes both
from the far forms in their region.

All kernels are pure double-precision functions, reentrant and
thread-safe.  Running out of the term budget raises AccuracyError rather than
silently truncating; no array the mixture sum makes is longer than it.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, DomainError

__all__ = [
    "marcum_q",
    "marcum_p",
]

_MIXTURE_TOL = 1e-12    # the kernel's geometric tail bound, relative to its sum
_SERIES_TOL = 1e-16     # Kummer and Phi2 series' geometric tail bounds, relative
_HYP1F1_TOL = 1e-17     # large-argument Kummer sum's geometric tail bound, relative
_MAX_TERMS = 100_000    # term cap of every series; past it AccuracyError
# the cap on the integer n = m - mu of the finite forms, 1F1(mu + n; mu; z) as
# n + 1 terms (_log_kummer_finite) and fading._Law's binomial mixture: a
# walk of this many terms costs about what the series' fixed work (peak
# search, tail bounds) does
_BINOMIAL_TRIALS = 64
_LN2 = math.log(2.0)
_PHI2_FIRST = 64        # the Phi2 series' first window, from n = 0 ...
_PHI2_BLOCK = 256       # ... and its later blocks


# ---------------------------------------------------------------------------
# regularized incomplete gammas in log space
# ---------------------------------------------------------------------------

_UNDERFLOW = 1e-280
_FAR_ITERATIONS = 20_000


def _every(cond) -> bool:
    """cond.all() for an array, cond itself for a Python bool."""
    return cond if isinstance(cond, bool) else bool(np.all(cond))


def _scipy_reg_gamma(a, x, upper: bool):
    """scipy's R(a, x), R = Q (upper) or P, and where _far_reg_gamma is to
    take its place (a bool for a float a and x, else an array): where R
    underflows, and where R is small, |x - a| > 0.4 a (x > 1.4 a for Q,
    x < 0.6 a for P) and a + x >= 1000.  There scipy forms x^a e^-x /
    Gamma(a) as exp(a log x - x - log Gamma(a)), whose rounding error (about
    2e-12 relative at a, x ~ 3000) would carry over to every term summed
    from it.  The one rule for every R the kernels take; a float call in
    that region makes no scipy call (R is 0)."""
    far = (x > 1.4 * a if upper else x < 0.6 * a) & (a + x >= 1000.0)
    if far is True:  # a float a and x in the far tail
        return 0.0, True
    r = (sp.gammaincc if upper else sp.gammainc)(a, x)
    # a float call's far is False here; False | a NumPy bool would cost 0.6 us
    return r, r < _UNDERFLOW if far is False else far | (r < _UNDERFLOW)


def _log_reg_gamma(a, x, upper: bool):
    """log Q(a, x) (upper) or log P(a, x): on Python floats (math) for a
    float a and x, else over broadcast arrays; scipy's R, or _far_reg_gamma's
    where _scipy_reg_gamma says."""
    r, far = _scipy_reg_gamma(a, x, upper)
    if isinstance(a, float) and isinstance(x, float):
        return _far_reg_gamma(a, x, upper)[0] if far else math.log(r)
    out = np.log(r)
    if far.any():
        a, x = np.broadcast_to(a, r.shape)[far], np.broadcast_to(x, r.shape)[far]
        out[far] = _far_reg_gamma(a, x, upper)[0]
    return out


def _log_reg_gamma_seed(a: float, x, upper: bool):
    """log R(a, x) and d/R, with R = Q and d = d(a) (upper) or R = P and
    d = d(a-1) (lower), d(a) = x^a e^-x / Gamma(a+1): the seed of the
    recurrences Q(a+1, x) = Q(a, x) + d(a) and P(a-1, x) = P(a, x) + d(a-1).
    From one scipy R, d/R = exp(log d - log R), log d by _log_poisson_term:
    R(a+-1)/R(a) - 1 from two would carry both values' rounding, amplified
    by R/d.  Where _scipy_reg_gamma says, _far_reg_gamma gives both, its
    d/R directly: log R - log d there is small beside log d (x = 4e18 at
    a = 2e9), so their difference would keep no digit.  On Python floats
    for a float x, else over the array x."""
    r, far = _scipy_reg_gamma(a, x, upper)
    if isinstance(x, float):
        if far:
            return _far_reg_gamma(a, x, upper)
        log_r = math.log(r)  # d/R <= 1/R (upper) or a/x (lower): below 1e281 here
        return log_r, math.exp(_log_poisson_term(a if upper else a - 1.0, x) - log_r)
    log_r = np.log(r)
    d_r = np.exp(_log_poisson_term(a if upper else a - 1.0, x) - log_r)
    if far.any():
        log_r[far], d_r[far] = _far_reg_gamma(a, x[far], upper)
    return log_r, d_r


def _stirling_rest(a):
    """c(a) = log Gamma(a) - (a-1/2) log a + a - log(2 pi)/2 by Stirling's
    series 1/(12a) - 1/(360a^3) + ..., to 2e-15 for a >= 20."""
    b = 1.0 / (a * a)
    return ((((b / 1188.0 - 1.0 / 1680.0) * b + 1.0 / 1260.0) * b - 1.0 / 360.0) * b
            + 1.0 / 12.0) / a


def _log_poisson_term(a, x):
    """log d(a) = log(x^a e^-x / Gamma(a+1)) over broadcast arrays or for
    floats, a >= 0, x >= 0 (-inf at x = 0 for a > 0).  For a >= 20 it is -a (t - log(x/a)) -
    log(2 pi a)/2 - c(a), t = x/a - 1, whose rounding error is about
    eps |x - a|, where that of a log x - x - log Gamma(a+1) is eps a log x.
    log(x/a) is taken as log1p(t) from x = a/2 up; below, t's rounding,
    eps, would be eps a/x relative in 1 + t (eps a^2/x in the result), so
    log(x/a) itself is taken there."""
    if isinstance(a, float) and isinstance(x, float):
        if x == 0.0:  # d(a) = 0 for a > 0
            return -math.inf
        if a < 20.0:
            return a * math.log(x) - x - math.lgamma(a + 1.0)
        t = x / a - 1.0
        log_ratio = math.log(x / a) if t < -0.5 else math.log1p(t)
        return -a * (t - log_ratio) - 0.5 * math.log(2.0 * math.pi * a) - _stirling_rest(a)
    if isinstance(a, float) and a < 20.0:  # one low order, d(0) too: no Stirling form
        return a * np.log(x) - x - sp.gammaln(a + 1.0)
    t = x / a - 1.0
    log_ratio = np.where(t < -0.5, np.log(x / a), np.log1p(np.maximum(t, -0.5)))
    return np.where(a >= 20.0,
                    -a * (t - log_ratio) - 0.5 * np.log(2.0 * np.pi * a) - _stirling_rest(a),
                    a * np.log(x) - x - sp.gammaln(a + 1.0))


def _log_gamma_ratio(z: float, d: float) -> float:
    """log Gamma(z+d) / Gamma(z) for z, z+d > 0.  Past 20 by Stirling's series,
    (z-1/2) log1p(d/z) + d log(z+d) - d + c(z+d) - c(z), whose rounding error
    is about eps |d| log z, where a difference of log-gammas has eps z log z."""
    if min(z, z + d) < 20.0:
        return math.lgamma(z + d) - math.lgamma(z)
    return ((z - 0.5) * math.log1p(d / z) + d * math.log(z + d) - d
            + _stirling_rest(z + d) - _stirling_rest(z))


def _far_reg_gamma(a, x, upper: bool):
    """log R(a, x) and d/R as in _log_reg_gamma_seed, where scipy's R is not
    used (_scipy_reg_gamma): Q = d(a) a h with Gamma(a, x) = x^a e^-x h by
    Legendre's continued fraction (x > a), P = d(a) sum_j x^j / ((a+1)...
    (a+j)) by the ascending series (x < a), both fast that far from x ~ a.
    On Python floats (math) for a float x, else over the array x."""
    log_d = _log_poisson_term(a, x)
    scalar = isinstance(x, float)
    log = math.log if scalar else np.log
    if upper:
        log_ah = log(a) + _log_legendre_fraction(a, x)
        if not scalar:
            return log_d + log_ah, np.exp(-log_ah)
        # d/R = 1/(a h) passes the double range only for x near 1e308
        return log_d + log_ah, math.exp(-log_ah) if log_ah > -709.0 else math.inf
    term = total = x * 0.0 + 1.0
    for j in range(1, _FAR_ITERATIONS):
        term = term * x / (a + j)
        total = total + term
        if _every(term < 1e-16 * total):
            return log_d + log(total), a / (x * total)
    raise AccuracyError("regularized incomplete gamma did not converge in its tail")


def _log_legendre_fraction(a, x) -> np.ndarray:
    """log h for Gamma(a, x) = x^a e^-x h, Legendre's continued fraction
    (modified Lentz), at any real order a and x > a + 1; on arrays or floats
    (a Python float x by math)."""
    b = x + 1.0 - a
    c, d = b * 0.0 + 1e300, 1.0 / b
    h = d
    for i in range(1, _FAR_ITERATIONS):
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * d * c
        if _every(abs(d * c - 1.0) < 1e-15):
            return _log_float(h) if type(h) is float else np.log(h)
    raise AccuracyError("incomplete gamma continued fraction did not converge")


def _log_betainc(a: float, b: float, x: float) -> float:
    """log I_x(a, b) for floats a, b > 0 and 0 < x < 1, by math.

    Where scipy's value underflows it is rebuilt in log space from
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * sum_j (a+b)_j / (a+1)_j x^j,
    with log B(a, b) = log Gamma(b) - log Gamma(a+b) / Gamma(a).
    """
    r = sp.betainc(a, b, x)
    if r >= _UNDERFLOW:
        return math.log(r)
    term = total = 1.0
    for j in range(_FAR_ITERATIONS):
        term = term * x * (a + b + j) / (a + 1.0 + j)
        total = total + term
        if term < 1e-16 * total:
            return (a * math.log(x) + b * math.log1p(-x) - math.log(a)
                    - (math.lgamma(b) - _log_gamma_ratio(a, b)) + math.log(total))
    raise AccuracyError("regularized incomplete beta did not converge in its tail")


# ln Gamma(1+a) = -euler_gamma a + sum_(k>=2) zeta(k) (-a)^k / k: zeta(k) / k from k = 59 down
_ZETA_HORNER = (sp.zeta(np.arange(59.0, 1.0, -1.0)) / np.arange(59.0, 1.0, -1.0)).tolist()
_EXP_C = [(-1.0) ** (n + 1) / math.factorial(n) for n in range(1, 21)]  # (-1)^(n+1) / n!


def _log_gamma_below(mu: float, x):
    """log Gamma(mu-1, x) / Gamma(mu) for 0 < mu <= 1, where the order mu-1 is
    not positive.  At mu = 1 this is log E1(x), from E1 up to x = 700 (where it
    is still a normal double) and Legendre's continued fraction beyond; for
    mu < 1 the fraction serves x >= 1.  Below, with a = mu-1, for mu >= 1/2
    the expansion

        Gamma(a, x) = (Gamma(1+a) - 1) / a - expm1(a ln x) / a
                      + x^a sum_{n>=1} (-1)^(n+1) x^n / (n! (a+n)),

    whose first term comes from the zeta series of ln Gamma(1+a), so nothing
    cancels as a -> 0; for mu < 1/2 the recurrence
    (1-mu) Gamma(mu-1, x) = x^(mu-1) e^-x - Gamma(mu, x).  At x = 0 it
    diverges: inf.  On Python floats (math) for a float x; an array x
    element by element."""
    if not isinstance(x, float):
        return np.array([_log_gamma_below(mu, v) for v in np.reshape(x, -1).tolist()])
    if x == 0.0:
        return math.inf
    if x > 700.0 if mu == 1.0 else x >= 1.0:
        return ((mu - 1.0) * math.log(x) - x - math.lgamma(mu)
                + _log_legendre_fraction(mu - 1.0, x))
    if mu == 1.0:
        return math.log(sp.exp1(x))
    a = mu - 1.0
    if mu >= 0.5:
        zeta_sum = 0.0
        for c in _ZETA_HORNER:
            zeta_sum = zeta_sum * -a + c
        log_gamma_mu = -np.euler_gamma * a + zeta_sum * a * a
        ax = a * math.log(x)
        series, power = 0.0, 1.0
        for n, c in enumerate(_EXP_C, 1):
            power *= x
            series += power * c / (a + n)
        return (math.log(math.expm1(log_gamma_mu) / a - math.expm1(ax) / a
                         + math.exp(ax) * series) - log_gamma_mu)
    log_head = a * math.log(x) - x - math.lgamma(mu)
    log_q = _log_reg_gamma(mu, x, True)
    return log_head + math.log1p(-math.exp(log_q - log_head)) - math.log1p(-mu)


# ---------------------------------------------------------------------------
# the gamma-mixture kernel: weights families, the plan and the walkers
# ---------------------------------------------------------------------------

_LOG_Q_ONE = 1.0 - math.log(_MIXTURE_TOL)
_LONG_WALK = 100  # a float x's blocks longer than this walk by cumulative products
_MAX_ORDER = 2.0 ** 53  # past it consecutive orders n round to one double: no walk
_FLOAT_STATE = contextlib.nullcontext()  # a float x's call runs outside np.errstate


def _q_one_order(x: float) -> float:
    """An order a from which P(a', x) <= _MIXTURE_TOL / e for every a' >= a.

    By the Chernoff bound P(a, x) <= exp(-f(a)), f(a) = a log(a/x) - a + x
    for a > x; f is convex and rises, so Newton's method on f(a) = 1 -
    log(_MIXTURE_TOL) from a = x + sqrt(2 L x) + L, where f is already past
    it, stays above the root (the 1 keeps the last iterate's rounding safe).
    f is taken as x g(t), t = a/x - 1, g(t) = (1+t) log1p(t) - t, by g's
    series sum_(i>=2) (-t)^i / (i (i-1)) to i = 6 for t < 1e-3, where the
    plain form cancels: a difference of numbers near x keeps no digit once t
    is about 1e-8 (x ~ 1e18).  From x ~ 4.6e33 on, a/x rounds to 1 and a
    itself is kept.
    """
    if x == 0.0:
        return 0.0
    a = x + math.sqrt(2.0 * _LOG_Q_ONE * x) + _LOG_Q_ONE
    for _ in range(3):
        t = a / x - 1.0
        log_ratio = math.log1p(t)
        if log_ratio == 0.0:
            break
        g = (t * t * (1 / 2 - t * (1 / 6 - t * (1 / 12 - t * (1 / 20 - t / 30))))
             if t < 1e-3 else (1.0 + t) * log_ratio - t)
        a -= (x * g - _LOG_Q_ONE) / log_ratio
    return a


def _remaining(edge, ratio, ref, total):
    """Terms to add past an edge term exp(edge), whose followers fall at most
    by ratio each, before their geometric tail bound is below _MIXTURE_TOL of
    the sum exp(ref) total (<= 0: none, also for an edge term of 0; nan: the
    edge is not yet past the peak).  By math for a float ratio."""
    if isinstance(ratio, float):
        if not 0.0 < ratio < 1.0:
            return math.nan
        log_ratio = math.log(ratio)
        return (math.log(_MIXTURE_TOL * total * (1.0 - ratio)) - (edge - ref) - log_ratio) \
            / log_ratio
    log_ratio = np.log(ratio)
    return (np.log(_MIXTURE_TOL * total * (1.0 - ratio)) - (edge - ref) - log_ratio) / log_ratio


def _log_float(v: float) -> float:
    """log v for a float v >= 0, -inf at 0 (as np.log)."""
    return math.log(v) if v > 0.0 else -math.inf


def _larger(need, need2):
    """The larger of two _remaining counts; a nan from either wins."""
    return need if need >= need2 else need2 if need2 >= need else math.nan


class _Weights:
    """A weights family: log w_n r^(mu+n) over n >= 0 (r^(mu+n) folded in,
    log r = log_r), or with survival=True the survival function S_n =
    sum_{j>n} w_j in place of w_n.  A family gives

    - over a block, the seed's log weight and, for survival weights, every
      step ratio (block), from one scalar tail at its top (two, where the
      seed is at its foot); log_mass is log w_n r^(mu+n) at one n, with the
      log-gamma differences that round to about eps n in a plain sum taken
      accurately;
    - its step ratio, the weight ratio w(j) r/w(j-1) into n = j (step), for
      the walkers as rw1 + rw01/j for j > 1 and rw0 at j = 1, from
      w(n+1)/w(n) = (w0 + w1 n)/(n+1); rw0 = r theta m itself, not r theta +
      r theta (m - 1), which cancels to eps/m relative (survival weights
      take their ratios from block);
    - for an infinite family (a finite one is walked whole), bounds on the
      weight ratio, forward (w(n+1) r/w(n) for every n >= top) and backward
      (w(n-1)/(w(n) r) for every 1 <= n <= low), for S(n+1)/S(n) <=
      max_{j>n} w(j+1)/w(j) and S(n-1)/S(n) = 1 + w(n)/S(n) <= 1 +
      w(n)/w(n+1) from the weights' own: each factor of the summand
      but the weights (for m < 1) and their survival function is log-concave
      in n, so these bounds and the term ratio at a block's edge bound every
      ratio beyond it;
    - where rest is set, its upper sum from an n on where every Q is 1, in
      closed form (log_rest, one scalar tail per order);
    - a guess at its summand peak (peak).

    support is the number of terms of a finite family, None for an infinite
    one; log_sum, where it is set, gives the whole sum in closed form.  No
    code outside the families tests which one it is.  Everything here runs
    on Python floats (math and scalar scipy calls), for a float x's call and
    an array x's alike."""
    support = log_sum = None
    rest = False

    def __init__(self, mu: float, log_r: float, survival: bool, w0: float, w1: float):
        self.mu, self.log_r, self.survival = mu, log_r, survival
        self.r = r = math.exp(log_r)
        self.w0, self.w1 = float(w0), float(w1)
        self.rw0, self.rw1, self.rw01 = float(r * w0), float(r * w1), float(r * (w0 - w1))

    def block(self, lo: int, hi: int, seed: int):
        """The log weight at seed and, for survival weights, the step ratios
        into lo+1 .. hi-1 as a list (else None).

        Survival weights take their ratios from g_n = w(n+1)/S_n in (0, 1],
        from one scalar tail at n = hi-1 down by S_n = S_(n+1) + w(n+1):
        g_n = g_(n+1)/(g_(n+1) + v), v = w(n+2)/w(n+1), which adds positive
        terms and shrinks an error in g on every step down, and the ratio
        into n+1 is r v/(g_(n+1) + v).  Far below the weights' peak g
        underflows to 0 (ratio r), where S_n/w(n+1) would overflow."""
        if not self.survival:
            return self.log_mass(seed), None
        top, log_r = hi - 1, self.log_r
        log_top = self.log_tail(top)  # log S_top
        g = math.exp(self.log_mass(hi) - (self.mu + hi) * log_r - log_top)
        w0, w1, r = self.w0, self.w1, self.r
        ratios = [0.0] * (hi - lo - 1)
        for n in range(hi - 2, lo - 1, -1):
            v = (w0 + w1 * (n + 1)) / (n + 2)
            d = g + v
            ratios[n - lo] = r * v / d
            g = g / d
        log_seed = log_top if seed == top else self.log_tail(seed)
        return (self.mu + seed) * log_r + log_seed, ratios

    def step(self, j: int) -> float:
        """The weight ratio into n = j."""
        if self.survival:
            return self.block(j - 1, j + 1, j)[1][0]
        return self.rw1 + self.rw01 / j if j > 1 else self.rw0

    def log_rest(self, start: int, order: int) -> float:
        """log sum_{n >= start} w_n r^(mu+n) (mu+n)_order, the upper sum where
        every Q is 1.  (mu+n)_o = sum_i C(o,i) (mu+i)_(o-i) n!/(n-i)!, and each
        falling-factorial moment of the weights' tail is a tail mass of the
        same family (moment, one scalar tail each).  The tail from an order
        start - i <= 0 on is the whole mass, whose log is 0.  Where scipy's
        tail underflows, the far-tail series take over (_log_reg_gamma,
        _log_betainc)."""
        mu = self.mu
        lg_order, lg_mu_order = math.lgamma(order + 1.0), math.lgamma(mu + order)
        log_parts = [lg_order - math.lgamma(i + 1.0) - math.lgamma(order - i + 1.0)
                     + lg_mu_order - math.lgamma(mu + i) + self.moment(start - i, i)
                     for i in range(order + 1)]
        top = max(log_parts)
        return mu * self.log_r + (top + math.log(math.fsum(math.exp(p - top)
                                                           for p in log_parts)))


class _UnitMass(_Weights):
    """A unit mass at n = 0 (lam = 0), whose sum is its first term."""

    def __init__(self, survival: bool):
        self.survival = survival

    def log_sum(self, mu: float, k: int, log_r: float, xs, upper: bool, shape: tuple):
        """log r^mu (mu)_k R(mu+k, x) (_log_reg_gamma), or, at an order mu+k
        <= 0, log r^mu Gamma(mu-1, x) / Gamma(mu) (_log_gamma_below), for a
        float x and an array alike; -inf for the survival weights (S_0 = 0)."""
        if self.survival:
            return np.full(shape, -np.inf) if shape else -math.inf
        out = mu * log_r + (
            _log_gamma_below(mu, xs) if mu + k <= 0.0
            else (math.lgamma(mu + k) - math.lgamma(mu) + _log_reg_gamma(mu + k, xs, upper)))
        return out.reshape(shape) if shape else out


class _Poisson(_Weights):
    """Poisson weights of mean lam (m = inf): w_n = e^-lam lam^n / n!."""

    def __init__(self, lam: float, mu: float, log_r: float, survival: bool):
        super().__init__(mu, log_r, survival, lam, 0.0)
        self.lam, self.m, self.rest = lam, math.inf, not survival
        self.slope = log_r + math.log(lam)

    def log_mass(self, n: int) -> float:  # lam^n / n! (r^n e^-lam)
        lam, log_r = self.lam, self.log_r
        return (_log_poisson_term(float(n), lam * self.r) + lam * math.expm1(log_r)
                + self.mu * log_r)

    def log_tail(self, n: int) -> float:  # log S_n
        return _log_reg_gamma(n + 1.0, float(self.lam), False)

    def forward(self, top: int) -> float:
        return self.lam / ((top + 1 if self.survival else top) + 1.0) * self.r

    def backward(self, low: int) -> float:
        return (1.0 + (low + 1.0) / self.lam if self.survival else low / self.lam) / self.r

    def peak(self, xc: float, k: int) -> float:
        return self.lam * self.r + k

    def moment(self, tail_order: int, i: int) -> float:
        """log sum_(n >= tail_order + i) w_n r^n n!/(n-i)!: the i-th
        falling-factorial moment times a tail mass of Poisson of mean lam r."""
        lam = self.lam
        log_mom = lam * math.expm1(self.log_r) + i * self.slope
        if tail_order <= 0:
            return log_mom
        return log_mom + _log_reg_gamma(float(tail_order), lam * self.r, False)


class _NegativeBinomial(_Weights):
    """Negative binomial weights of mean lam and shape m > 0, theta =
    lam/(lam+m): w_n = (m)_n theta^n (1-theta)^m / n!, whose log plus (mu+n)
    log r is n slope + const - log n! + log Gamma(m+n).  Where log(1 -
    theta) = log(m/(lam+m)) leaves the double range (m = 1e-300 at lam =
    1e300) they raise AccuracyError."""

    def __init__(self, lam: float, m: float, mu: float, log_r: float, survival: bool):
        theta = lam / (lam + m)
        super().__init__(mu, log_r, survival, theta * m, theta)
        self.lam, self.m, self.theta, self.rest = lam, m, theta, not survival
        self.q = self.r * theta
        one_m_theta = m / (lam + m)
        if not one_m_theta > 0.0:
            raise AccuracyError(f"negative binomial weights of shape m = {m} and mean lam = "
                                f"{lam}: log(1 - theta) = log(m/(lam+m)) leaves the double range")
        self.log_1m_theta = math.log(one_m_theta)
        self.slope = log_r - math.log1p(m / lam)
        self.const = mu * log_r - (math.lgamma(m) - m * self.log_1m_theta)

    def log_mass(self, n: int) -> float:
        # at n = 0, Gamma(m) itself: n + 1 + (m - 1) would round m's low bits off
        m = self.m
        return n * self.slope + self.const + (_log_gamma_ratio(n + 1.0, m - 1.0) if n
                                              else math.lgamma(m))

    def log_tail(self, n: int) -> float:  # log S_n
        return _log_betainc(n + 1.0, self.m, self.theta)

    def forward(self, top: int) -> float:
        t = top + 1 if self.survival else top
        return self.theta * max(1.0, (self.m + t) / (t + 1.0)) * self.r

    def backward(self, low: int) -> float:
        theta, m = self.theta, self.m
        if self.survival:
            return (1.0 + ((low + 1.0) / (theta * (m + low)) if m >= 1.0
                           else 2.0 / (theta * (m + 1.0)))) / self.r
        return (low / (theta * (m + low - 1.0)) if m >= 1.0 else 1.0 / (theta * m)) / self.r

    def peak(self, xc: float, k: int) -> float:
        q = self.q
        return q * (self.m + k) / (1.0 - q) if q < 1.0 else q * (xc + self.m + k)

    def moment(self, tail_order: int, i: int) -> float:
        """As _Poisson.moment, with a tail mass of the negative binomial of
        shape m+i and ratio q; 1 - q = (m - lam (r-1)) / (lam + m) keeps its
        digits as q -> 1."""
        m, lam = self.m, self.lam
        log_1mq = math.log((m - lam * math.expm1(self.log_r)) / (lam + m))
        log_mom = (m * (self.log_1m_theta - log_1mq) + math.lgamma(m + i) - math.lgamma(m)
                   + i * (self.slope - log_1mq))
        if tail_order <= 0:
            return log_mom
        return log_mom + _log_betainc(float(tail_order), m + i, self.q)


class _Trials(NamedTuple):
    """Binomial weights of n trials whose success probability p has the odds
    p/(1-p): the kernel's lam for them (its m is then unused)."""
    n: int
    odds: float


class _Binomial(_Weights):
    """Binomial weights of N trials at odds o = p/(1-p), whose log plus
    (mu+n) log r is n slope + const + log C(N, n), with slope = log r + log o
    and const = mu log r - N log(1 + o): p = o/(1+o) and 1 - p = 1/(1+o)
    keep their digits as p -> 1.  The finite support [0, N] (S_N = 0, so
    the survival weights' is [0, N-1]), walked whole: no ratio bounds."""

    def __init__(self, trials: int, odds: float, mu: float, log_r: float, survival: bool):
        super().__init__(mu, log_r, survival, trials * odds, -odds)
        self.trials, self.p = trials, odds / (1.0 + odds)
        self.support = trials + (0 if survival else 1)
        self.slope = log_r + math.log(odds)
        self.const = mu * log_r - trials * math.log1p(odds)

    def log_mass(self, n: int) -> float:
        return n * self.slope + self.const + math.log(math.comb(self.trials, n))

    def log_tail(self, n: int) -> float:  # log S_n
        return _log_betainc(n + 1.0, float(self.trials - n), self.p)


def _weights(lam, m: float, mu: float, log_r: float, survival: bool) -> _Weights:
    """The family of a kernel call's (lam, m)."""
    if isinstance(lam, _Trials):
        return _Binomial(*lam, mu, log_r, survival) if lam.n else _UnitMass(survival)
    if lam == 0.0:
        return _UnitMass(survival)
    if not m > 0.0:  # a NaN fails it too
        raise DomainError(f"negative binomial weights need a shape m > 0: (lam, m) = ({lam}, {m})")
    if math.isinf(m):
        return _Poisson(lam, mu, log_r, survival)
    return _NegativeBinomial(lam, m, mu, log_r, survival)


# the helpers on a float x's Python floats (by math) and on an array x's arrays
_Ops = namedtuple("_Ops", "every largest minimum maximum isfinite exp log")
_ON_FLOAT = _Ops(bool, float, min, max, math.isfinite, math.exp, _log_float)
_ON_ARRAY = _Ops(np.all, np.max, np.minimum, np.maximum, np.isfinite, np.exp, np.log)


class _Summand:
    """The terms t_n = w_n r^(mu+n) (mu+n)_k R(mu+n+k, x) of one call, R = Q
    if upper else P, with the bounds on their ratios.  A float x keeps them
    on Python floats and math, an array x on NumPy (ops).  The step from n
    to n+1 at j = n+1 takes the weight ratio, the Pochhammer ratio
    (mu+n+k)/(mu+n) = 1 + k/(j + mu1) and d(a+1)/d(a) = x/(j + mk), a =
    mu+n+k (upper); down, d(a-2)/d(a-1) = (j + mk1)/x."""

    def __init__(self, weights: _Weights, mu: float, k: int, xs, upper: bool, pair: bool):
        self.weights, self.mu, self.k, self.xs, self.upper = weights, mu, k, xs, upper
        self.pair, self.scalar = pair, isinstance(xs, float)
        self.ops = _ON_FLOAT if self.scalar else _ON_ARRAY
        self.xmax = xs if self.scalar else float(np.max(xs))
        self.inv_x = 1.0 / xs if not self.scalar or xs else math.inf
        self.mu1, self.mk, self.mk1 = float(mu - 1.0), float(mu + k), float(mu + k - 1.0)

    def shift(self, n: int) -> float:
        """The order-(k+1) term at n-1 over the order-k term at n, (mu+n-1)
        over the weight ratio into n; 0 at n = 0, below the first term."""
        return (n + self.mu1) / self.weights.step(n) if n else 0.0

    def forward_ratio(self, top: int, rg, order: int):
        """Bound on the term ratio t(n+1)/t(n) for every n >= top at the
        order; rg is Q(a+1)/Q(a) at n = top (upper tail).  1/(mu+n-1) falls:
        its ratio stays below 1."""
        w, mu = self.weights.forward(top), self.mu
        if not self.upper:
            rg = self.ops.minimum(1.0, self.xs / (mu + top + order + 1.0))
        return w * (mu + top + order) / (mu + top) * rg if order >= 0 else w * rg

    def backward_ratio(self, low: int, rg, order: int):
        """Bound on the term ratio t(n-1)/t(n) for every 1 <= n <= low at the
        order; rg is P(a-1)/P(a) at n = low (lower tail).  Gamma(b-1, x) <=
        Gamma(b, x) / x at every real order b."""
        w, mu = self.weights.backward(low), self.mu
        if self.upper and order < 0:
            return w * (mu + low - 1.0) * self.inv_x
        if self.upper:
            rg = self.ops.minimum(1.0, (mu + low + order - 1.0) * self.inv_x)
        return w * (mu + low - 1.0) / (mu + low + order - 1.0) * rg

    def ahead(self, last, rg, hi: int, ref, total, ref2, total2):
        """Terms to add past n = hi - 1 (_remaining), of both orders in the
        pair mode, whose order-(k+1) edge is one n lower."""
        need = _remaining(last, self.forward_ratio(hi - 1, rg, self.k), ref, total)
        if not self.pair:
            return need
        return _larger(need, _remaining(last + math.log(self.shift(hi - 1)),
                                        self.forward_ratio(hi - 2, rg, self.k + 1), ref2, total2))

    def behind(self, first, rg, lo: int, ref, total, ref2, total2):
        """Terms to add below n = lo, as ahead; the order-(k+1) sum's first
        n = 0 is at lo = 1."""
        need = _remaining(first, self.backward_ratio(lo, rg, self.k), ref, total)
        if not self.pair or lo <= 1:
            return need
        return _larger(need, _remaining(first + math.log(self.shift(lo)),
                                        self.backward_ratio(lo - 1, rg, self.k + 1), ref2, total2))


def _rises(t: _Summand, n: int, xc: float) -> bool:
    """Whether the median column's term at n+1 is at least its term at n:
    Q(a+1)/Q(a) = 1 + d/Q(a) at a = mu+n+k (upper), P(a+1)/P(a) = 1/(1 +
    d/P(a+1)) (lower), d = d(a), with d/R from _log_reg_gamma_seed, as a
    block's seed takes it."""
    j = n + 1
    u = t.weights.step(j)
    if t.k:
        u = u * (1.0 + t.k / (j + t.mu1))
    d_r = _log_reg_gamma_seed(t.mu + (n if t.upper else j) + t.k, xc, t.upper)[1]
    return u * (1.0 + d_r) >= 1.0 if t.upper else u >= 1.0 + d_r


def _plan(t: _Summand):
    """The first window of an infinite family's sum, as (center, block,
    spare, n1): the window is [max(0, center - block), center + block), its
    edges must pass the tail bounds with spare terms to spare, and from n1
    on every Q(mu+n+k, x) is 1 to within _MIXTURE_TOL (None: no order of
    the call has a closed-form rest; in the pair mode at k = -1 only order
    0 has one).

    The window is centred on the summand peak of the median column: Q pulls
    it from the weights' peak up to about x, P down.  Where one block from
    n = 0 does not cover that guess, the peak is found by bisection on the
    sign of t(n+1)/t(n) - 1 (_rises), the ratio formed from the walk's own
    pieces (the weight ratio, the Pochhammer ratio and R's ratio 1 + d/R,
    d/R from _log_reg_gamma_seed, as a block's seed takes it), to within a
    sixteenth of the block: O(log n) scalar calls.  Log-concave terms cross
    1 once; where they are not (m < 1), a misplaced centre costs walking,
    never accuracy, since the tail bounds, not the plan, certify the sum.
    A window centred on the peak passes its first bounds with 8 terms to
    spare, as every grown block does, so it truncates well below
    _MIXTURE_TOL, not up to it.  When the guess lies past n1 and order k
    closes, the window is centred on n1 and the terms past it are the
    closed-form rest, so a peak far out (heavy shadowing near the pole)
    costs no walk.  A window may be longer than _MAX_TERMS (a narrow
    summand far out, whose first bounds pass at once), but no sum grows past
    it; a window that reaches order _MAX_ORDER = 2^53, where consecutive n
    are one double, raises AccuracyError before any walk."""
    xc = t.xs if t.scalar else float(np.median(t.xs))
    guess = max(0.0, t.weights.peak(xc, t.k))
    guess = max(guess, xc) if t.upper else min(guess, xc + math.sqrt(guess * xc))
    closes = t.upper and t.k + t.pair >= 0 and t.weights.rest
    n1 = max(0, math.ceil(_q_one_order(t.xmax) - t.mu - t.k)) if closes else None
    hi = 2.0 * guess + 16.0
    if n1 is not None and guess > n1 and t.k >= 0:
        center, spare = n1, 0.0
    elif hi <= 256.0:
        return 0, int(hi), 0.0, n1
    else:
        lo, hi = 0, int(hi)  # the peak lies in (lo, hi]
        while _rises(t, hi, xc):
            lo, hi = hi, 16 * hi
        while 16 * (hi - lo) > 32.0 + 6.0 * math.sqrt(hi):
            mid = (lo + hi) // 2
            if _rises(t, mid, xc):
                lo = mid
            else:
                hi = mid
        center, spare = hi, 8.0
    block = 32 + int(6.0 * math.sqrt(center))
    if center + block > _MAX_ORDER:
        raise _too_long(t)
    return center, block, spare, n1


def _walk(t: _Summand, lo: int, hi: int):
    """The terms n in [lo, hi): log of their sum, of the first and of the
    last one, and R's ratio one step past the end the walk stops at,
    R(a+1)/R(a) above hi-1 (upper) or R(a-1)/R(a) below lo (lower), and the
    log of the order-(k+1) sum over n in [max(lo, 1) - 1, hi - 1) in the
    pair mode (else None).

    The block takes R and d/R once (_log_reg_gamma_seed), at the end from
    which the recurrence Q(a+1, x) = Q(a, x) + d_a (upward) or
    P(a, x) = P(a+1, x) + d_a (downward), d_a = x^a e^-x / Gamma(a+1), adds
    positive terms only, and a walker goes to its other end: each term is
    the last one times the weight ratio, the Pochhammer ratio and R's ratio,
    all relative to the seed term, with d following from d(a+1) = d(a) x /
    (a+1) (Gil, Segura and Temme, ch. 4).  A float x's block longer than
    _LONG_WALK terms takes the NumPy pass, any other a loop.  The seed
    term's weight is taken in Stirling form, so a block far out keeps the
    accuracy of its first term.  A block longer than _MAX_TERMS (only a
    first window or a finite support can be), or whose terms outgrow the
    double range of its seed, or whose R/R_0 does in the NumPy pass, is
    split in two, so no array is longer than the term cap."""
    upper, pair, ops = t.upper, t.pair, t.ops
    if lo == 0 and t.mk <= 0.0:  # k = -1, mu <= 1: w_0 r^mu Gamma(mu-1, x) / Gamma(mu)
        head = t.weights.block(0, 1, 0)[0] + _log_gamma_below(t.mu, t.xs)
        if hi == 1:
            return head, head, head, math.nan, -math.inf if pair else None
        log_sum, _, last, ratio, log_sum2 = _walk(t, 1, hi)
        return np.logaddexp(head, log_sum), head, last, ratio, log_sum2
    if hi - lo <= _MAX_TERMS:
        seed = lo if upper else hi - 1
        log_rg, d_r = _log_reg_gamma_seed(t.mu + seed + t.k, t.xs, upper)
        log_w, ratios = t.weights.block(lo, hi, seed)
        log_seed = log_w + (_log_gamma_ratio(t.mu + seed, t.k) if t.k else 0.0) + log_rg
        total2 = None
        if t.scalar and ratios is None and hi - lo > _LONG_WALK:
            term, total, rise, total2 = _walk_numpy(t, lo, hi, d_r)
        elif pair:
            term, total, rise, total2 = _walk_pair(t, lo, hi, d_r)
        else:
            term, total, rise = _walk_loop(t, lo, hi, d_r, ratios)
        if ops.every(ops.isfinite(total)) and not (pair and not math.isfinite(total2)):
            log_end = log_seed + ops.log(term)
            log_sum = log_seed + ops.log(total)
            log_sum2 = log_seed + ops.log(total2) if pair else None
            if upper:
                return log_sum, log_seed, log_end, rise, log_sum2
            return log_sum, log_end, log_seed, rise, log_sum2
    # a block past the term cap, or whose terms outgrew the double range
    mid = (lo + hi) // 2
    first, second = _walk(t, lo, mid), _walk(t, mid, hi)
    return (np.logaddexp(first[0], second[0]), first[1], second[2],
            (second if upper else first)[3],
            np.logaddexp(first[4], second[4]) if pair else None)


def _walk_loop(t: _Summand, lo: int, hi: int, d_r, ratios):
    """The last term and the sum over [lo, hi), both relative to the seed
    term, and R's ratio past the end, by a loop that forms each step's
    ratios in plain arithmetic and carries d/R, so that R's ratio from one
    term to the next is 1 + d/R: on floats for a float x, with array state
    for an array x.  ratios are the survival weights' step ratios, else
    None."""
    rw0, rw1, rw01, k, mu1, xs = t.weights.rw0, t.weights.rw1, t.weights.rw01, t.k, t.mu1, t.xs
    term = total = 1.0
    if t.upper:
        mk = t.mk
        for j in range(lo + 1, hi):
            u = ratios[j - lo - 1] if ratios else rw1 + rw01 / j if j > 1 else rw0
            if k:
                u = u * (1.0 + k / (j + mu1))
            rise = 1.0 + d_r
            term = term * u * rise
            d_r = d_r * xs * (1.0 / (j + mk)) / rise
            total = total + term
        return term, total, 1.0 + d_r
    mk1, inv_x = t.mk1, t.inv_x  # the walk going down, from n = j to j-1
    for j in range(hi - 1, lo, -1):
        u = ratios[j - lo - 1] if ratios else rw1 + rw01 / j if j > 1 else rw0
        if k:
            u = u * (1.0 + k / (j + mu1))
        rise = 1.0 + d_r
        term = term * (1.0 / u) * rise
        d_r = d_r * inv_x * (j + mk1) / rise
        total = total + term
    return term, total, 1.0 + d_r


def _walk_pair(t: _Summand, lo: int, hi: int, d_r: float):
    """_walk_loop's pair twin for a float x and the upper tail, which also
    returns the order-(k+1) sum relative to the same seed term.  The
    order-(k+1) term at n is the order-k term at n times (mu+n+k) and R's
    ratio R(a+1)/R(a), a = mu+n+k, which the walk forms anyway; equally, it
    is the order-k term at n+1 times (mu+n)/u, u the weight ratio of that
    step before its Pochhammer factor (shift, used at the window's edges and
    in the NumPy pass).  So the pair adds one multiply-add per term: the
    order-(k+1) term at n = j-1 is (j + mk1) times the order-k term there
    times R's rise to j."""
    rw0, rw1, rw01, k, mu1, mk, mk1, xs = (t.weights.rw0, t.weights.rw1, t.weights.rw01, t.k,
                                           t.mu1, t.mk, t.mk1, t.xs)
    term = total = 1.0
    total2 = t.shift(lo)
    for j in range(lo + 1, hi):
        u = rw1 + rw01 / j if j > 1 else rw0
        if k:
            u = u * (1.0 + k / (j + mu1))
        rise = 1.0 + d_r
        term = term * rise
        total2 = total2 + term * (j + mk1)
        term = term * u
        d_r = d_r * xs * (1.0 / (j + mk)) / rise
        total = total + term
    return term, total, 1.0 + d_r, total2


def _walk_numpy(t: _Summand, lo: int, hi: int, d_r: float):
    """_walk_loop's (or _walk_pair's) results for a float x from one NumPy
    pass over [lo, hi): d/R_0 over the block is a cumulative product, R/R_0
    the cumulative sum of it, and the terms the cumulative product of weight
    ratio times R's step ratio.  The two are multiplied before the product,
    as in the loop, because either alone can under- or overflow where the
    term is a normal double; an R ratio past the double range (inf or nan)
    splits the block.  The crossover, _LONG_WALK = 100, was measured on the
    benchmark's kernel calls (64 to 160 cost about the same); the pass
    rounds differently from the loop, and the two sums agree to 4e-12
    relative on those calls."""
    weights, k, mu1 = t.weights, t.k, t.mu1
    with np.errstate(all="ignore"):
        j = np.arange(lo + 1.0, hi)
        u = weights.rw1 + weights.rw01 / j
        if lo == 0:
            u[0] = weights.rw0
        if t.pair:  # shift(n) at n = lo .. hi-1
            shifts = np.concatenate(([t.shift(lo)], (j + mu1) / u))
        if k:
            u *= 1.0 + k / (j + mu1)
        grow = np.empty(hi - lo + 1)
        grow[:2] = 1.0, d_r
        if t.upper:
            grow[2:] = t.xs / (j + t.mk)
        else:
            u, grow[2:] = 1.0 / u[::-1], (j[::-1] + t.mk1) * t.inv_x
        # a_i the i-th order walked: R(a_(i+1)) - R(a_i), then R(a_i), over R(a_0)
        np.cumprod(grow[1:], out=grow[1:])
        np.cumsum(grow, out=grow)
        rise = grow[1:] / grow[:-1]
        terms = np.cumprod(u * rise[:-1])
        total = float(1.0 + terms.sum()) if rise[-1] < math.inf else math.inf
        total2 = float(shifts[0] + terms @ shifts[1:]) if t.pair else None
    return float(terms[-1]), total, float(rise[-1]), total2


def _grow(t: _Summand, size: int, need, length: int) -> int:
    """The block after a window of length terms: twice the last (size), or
    what the bound asks for if fewer; AccuracyError past _MAX_TERMS terms
    (and for size 0)."""
    size = int(min(2 * size, t.ops.largest(need) + 8.0, _MAX_TERMS - length))
    if size < 2:
        raise _too_long(t)
    return size


def _too_long(t: _Summand) -> AccuracyError:
    """The error of a sum that needs more terms than the kernel walks."""
    return AccuracyError(f"gamma-mixture sum needed more than {_MAX_TERMS} terms (lam="
                         f"{t.weights.lam}, m={t.weights.m}, mu={t.mu}, k={t.k}, x={t.xmax})")


def _add(ref, total, log_part, ops=_ON_FLOAT):
    """exp(ref) total + exp(log_part), as a new (ref, total)."""
    new = ops.maximum(ref, log_part)
    return new, total * ops.exp(ref - new) + ops.exp(log_part - new)


def _log_mixture_sum(lam: float, m: float, mu: float, k: int, log_r: float, x,
                     upper: bool, survival: bool = False, pair: bool = False):
    """log sum_n w_n r^(mu+n) (mu+n)_k R(mu+n+k, x), R = Q if upper else P;
    with pair=True (a float x, no survival weights, the upper tail; else
    DomainError) the logs at orders k and k+1 as a tuple, from one plan and
    one walk.

    The weights w_n (_weights) are negative binomial with mean lam and
    shape m > 0, Poisson when m = inf, binomial when lam is a _Trials(N,
    odds), and a unit mass at n = 0 when lam = 0 (or N = 0); survival=True
    sums their survival function S_n = sum_{j>n} w_j in their place.  The
    densities of the family are gamma-scale mixtures with these weights at a
    rate c (fading._Law), so with r = c/(c-s) and x = (c-s) zeta this
    one sum gives every incomplete MGF, its s-derivatives, the CDF, the
    Marcum functions and (at k = -1, upper tail only, where (mu+n)_-1
    Q(mu+n-1, x) = Gamma(mu+n-1, x) / Gamma(mu+n) also for mu+n-1 <= 0) the
    capacity sums.  Vectorised over x, which must be positive for the lower
    tail; a lower sum whose first order mu + k is not positive diverges and
    raises DomainError.

    A finite family is summed in one walk (_walk), with no plan and no tail
    bound; in the pair mode the order-(k+1) term at its last n, one step
    past the walk, is the order-k term there times (mu+n+k) R(a+1)/R(a),
    a = mu+n+k.  An infinite family starts from
    the window of _plan and works outward in doubling blocks (the
    central-term windowing of Gil, Segura and Temme for the Marcum
    function): a direction stops once the geometric tail that the term ratio
    at its edge bounds is below _MIXTURE_TOL of the sum.  Q rises with n,
    so past n1, where it is 1, the upper sum's rest has a closed form, taken
    once it is longer than the window so far.  In the pair mode each order
    keeps its own reference and tail bounds, the order-(k+1) ones at edges
    one n lower, and takes the closed-form rest its single-order call would
    take, the order-(k+1) one from n = hi - 1.  At k >= 0 both orders close
    there and the forward walk stops; at k = -1 only order 0 has a rest
    (solve_cutoff's tail beside its inverse mean), added once the walk has
    passed n1, and order -1 walks on alone.  Without it the tail would keep
    the tail bound's truncation, up to 9e-13 off its own call.  A float x
    runs on Python floats, math and scalar scipy calls, far cheaper than
    1-element arrays; NumPy arrays, under np.errstate, only in the NumPy
    pass.
    """
    shape = () if isinstance(x, (int, float)) else np.shape(x)
    xs = np.asarray(x, dtype=float).reshape(-1) if shape else float(x)
    mu = float(mu)  # an int order would take _log_reg_gamma's array path
    if not upper and mu + k <= 0.0:
        raise DomainError(f"the lower sum diverges: P of order mu + k = {mu + k} <= 0")
    if pair and not upper:
        raise DomainError("the pair mode sums the upper tail only")
    if shape and upper and mu + k <= 0.0 and not np.all(xs):
        # Gamma(mu+k, 0) diverges, and an inf column stalls the tail bounds:
        # each x = 0 takes the float call's value, the rest one array call
        out, zero = np.empty(xs.size), xs == 0.0
        out[zero] = _log_mixture_sum(lam, m, mu, k, log_r, 0.0, upper, survival)
        if not zero.all():
            out[~zero] = _log_mixture_sum(lam, m, mu, k, log_r, xs[~zero], upper, survival)
        return out.reshape(shape)
    weights = _weights(lam, m, mu, log_r, survival)
    with np.errstate(all="ignore") if shape else _FLOAT_STATE:
        if weights.log_sum is not None:  # a unit mass: a one-term sum per order
            if pair:
                return tuple(weights.log_sum(mu, j, log_r, xs, upper, shape) for j in (k, k + 1))
            return weights.log_sum(mu, k, log_r, xs, upper, shape)
        t = _Summand(weights, mu, k, xs, upper, pair)
        if weights.support is not None:
            log_sum, _, last, rise, log_sum2 = _walk(t, 0, weights.support)
            if not pair:
                return log_sum.reshape(shape) if shape else float(log_sum)
            # the order-(k+1) term at the last n, one past the walk
            log_top = last + math.log((mu + (weights.support - 1) + k) * rise)
            return float(log_sum), float(np.logaddexp(log_sum2, log_top))
        center, size, spare, n1 = _plan(t)
        lo, hi = max(0, center - size), center + size
        ref, first, last, ratio, ref2 = _walk(t, lo, hi)
        total = total2 = 1.0  # the sums relative to exp(ref) and, in the pair mode, exp(ref2)
        ops = t.ops
        ahead = t.ahead(last, ratio, hi, ref, total, ref2, total2) + spare
        behind = t.behind(first, ratio, lo, ref, total, ref2, total2) + spare if lo else 0.0
        block = size
        while not ops.every(ahead <= 0.0):
            if n1 is not None and hi > n1 and not ops.every(ahead <= hi - lo):
                if pair:
                    ref2, total2 = _add(ref2, total2, weights.log_rest(hi - 1, k + 1))
                if k < 0:  # only order 0 closes: order k walks on alone
                    t.pair, n1 = False, None
                    ahead = t.ahead(last, ratio, hi, ref, total, ref2, total2) + spare
                    continue
                ref, total = _add(ref, total, weights.log_rest(hi, k), ops)
                break
            size = _grow(t, size, ahead, hi - lo)
            log_part, _, last, ratio, log_part2 = _walk(t, hi, hi + size)
            hi += size
            ref, total = _add(ref, total, log_part, ops)
            if t.pair:
                ref2, total2 = _add(ref2, total2, log_part2)
            ahead = t.ahead(last, ratio, hi, ref, total, ref2, total2)
        t.pair, size = pair, block
        while not ops.every(behind <= 0.0):
            size = _grow(t, size, behind, hi - lo)
            top, lo = lo, max(0, lo - size)
            log_part, first, _, ratio, log_part2 = _walk(t, lo, top)
            ref, total = _add(ref, total, log_part, ops)
            if pair:
                ref2, total2 = _add(ref2, total2, log_part2)
            behind = t.behind(first, ratio, lo, ref, total, ref2, total2) if lo else 0.0
        out = ref + ops.log(total)
    if pair:
        return float(out), float(ref2 + math.log(total2))
    return out.reshape(shape) if shape else float(out)


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def _marcum(nu: float, a: float, b: float, upper: bool) -> float:
    """sum_k Pois(k; a^2/2) R(nu + k, b^2/2), R = Q if upper else P.  Where
    one half square leaves the double range (from about 1.9e154), the value
    is its limit, which the other's finite square leaves exact in doubles."""
    if not 0 < nu < math.inf:
        raise DomainError(f"order must be positive and finite, got nu={nu}")
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise DomainError("Marcum arguments must be finite and nonnegative")
    if b == 0.0:
        return 1.0 if upper else 0.0
    lam, x = 0.5 * a * a, 0.5 * b * b
    if lam == x == math.inf:
        raise DomainError(f"Marcum arguments a={a}, b={b}: a^2/2 and b^2/2 both overflow")
    if math.inf in (lam, x):  # Q = 1 as a^2/2 -> inf, Q = 0 as b^2/2 -> inf
        return float((lam == math.inf) == upper)
    v = math.exp(_log_mixture_sum(lam, math.inf, nu, 0, 0.0, x, upper))
    if not 0.0 <= v <= 1.0 + 1e-12:  # a NaN fails it too
        raise AccuracyError(f"Marcum {'Q' if upper else 'P'} left [0,1]: {v}")
    return min(max(v, 0.0), 1.0)


def marcum_q(nu: float, a: float, b: float) -> float:
    """Generalized Marcum Q_nu(a, b) for real order nu > 0.

    Q_nu(a, b) = sum_k Pois(k; a^2/2) Q(nu + k, b^2/2), the tail probability
    of a noncentral chi-square law.  Nonincreasing in b, with Q(a, 0) = 1.
    Where a^2/2 overflows a double (a past about 1.896e154) and b^2/2 does
    not, it is 1; where b^2/2 alone overflows, 0; where both do,
    DomainError.
    """
    return _marcum(nu, a, b, True)


def marcum_p(nu: float, a: float, b: float) -> float:
    """Complementary Marcum function 1 - Q_nu(a, b), summed directly.

    Direct summation avoids the cancellation of forming 1 - Q when the result
    is small (noncentral chi-square CDF near the origin).  Where a^2/2
    overflows a double (a past about 1.896e154) and b^2/2 does not, it is 0;
    where b^2/2 alone overflows, 1; where both do, DomainError.
    """
    return _marcum(nu, a, b, False)


# ---------------------------------------------------------------------------
# positive series summed outward from a window (1F1 and Phi2)
# ---------------------------------------------------------------------------

def _log_window_sum(log_terms, lo: int, hi: int, step: int, after, before, tol: float):
    """log sum_n t_n of positive terms t_n, n >= 0, and the number of terms
    summed, from the first window [lo, hi) outward in blocks of step terms;
    log_terms(i, j) gives log t_n over [i, j) as an array.

    after(hi) bounds the ratio t(n+1)/t(n) for every n >= hi - 1, and
    before(lo) the ratio t(n-1)/t(n) for every 1 <= n <= lo (a bound of 1 or
    more: not yet).  A direction stops once the geometric tail past its edge
    term t_e, t_e r/(1-r), is below tol of the sum: summing outward from the
    peak with geometric tail bounds, after Gil, Segura and Temme, Numerical
    Methods for Special Functions (SIAM 2007), ch. 4.  The sum is kept
    relative to exp(anchor), the largest log term so far."""
    logt = log_terms(lo, hi)
    anchor = float(logt.max())
    total = float(np.exp(logt - anchor).sum())
    log_first, log_last = float(logt[0]), float(logt[-1])

    def beyond(log_edge: float, r: float) -> bool:  # the tail past an edge is negligible
        return r < 1.0 and log_edge - anchor + math.log(r / (1.0 - r)) \
            <= math.log(tol * total)

    def add(logt):
        top = float(logt.max())
        if top > anchor:  # a rising block: rescale the sum so far to its top
            return top, total * math.exp(anchor - top) + float(np.exp(logt - top).sum())
        return anchor, total + float(np.exp(logt - anchor).sum())

    while not beyond(log_last, after(hi)):
        logt = log_terms(hi, hi + step)
        anchor, total = add(logt)
        log_last = float(logt[-1])
        hi += step
    while lo > 0 and not beyond(log_first, before(lo)):
        new_lo = max(0, lo - step)
        logt = log_terms(new_lo, lo)
        anchor, total = add(logt)
        log_first = float(logt[0])
        lo = new_lo
    return anchor + math.log(total), hi - lo


# ---------------------------------------------------------------------------
# Kummer 1F1
# ---------------------------------------------------------------------------

def _kummer_series(a: float, b: float, x: float) -> float:
    """1F1(a; b; x) for a, b > 0 and x >= 0 by the plain ascending series,
    with term recurrence and Kahan accumulation.

    The term ratio r_j = t_(j+1) / t_j = x (a+j) / ((b+j)(j+1)) falls for
    j >= k0, the larger root of (a+j)(b+j) = (b-a)(j+1), so there the terms
    past t_j sum to at most t_j r_j / (1 - r_j) once r_j < 1; the sum stops
    when that bound is below _SERIES_TOL of it.
    """
    disc0 = a * a - a * b + b - a
    k0 = -a + math.sqrt(disc0) if disc0 > 0.0 else 0.0
    total = 1.0
    comp = 0.0
    term = 1.0
    for j in range(_MAX_TERMS):
        term *= (a + j) * x / ((b + j) * (j + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(total) > 1e305 or abs(term) > 1e305:
            raise OverflowError(
                f"1F1({a};{b};{x}) overflows double precision during summation"
            )
        r = (a + j + 1.0) * x / ((b + j + 1.0) * (j + 2.0))
        if j + 1 >= k0 and r < 1.0 and term * r <= _SERIES_TOL * (1.0 - r) * total:
            return total
    raise AccuracyError(f"1F1({a};{b};{x}) did not converge in {_MAX_TERMS} terms")


def _log_kummer_finite(a: float, b: float, z: float) -> float | None:
    """log(e^-z 1F1(a; b; z)) where a - b = n is an integer in
    [0, _BINOMIAL_TRIALS) and z < 1e300 b; None elsewhere.

    By Kummer's transformation e^-z 1F1(b + n; b; z) = 1F1(-n; b; -z) =
    sum_{k<=n} C(n, k) z^k / (b)_k, n + 1 positive terms.  Horner's rule
    sums them from the top term down, S_k = 1 + r_k S_(k+1) with the ratio
    r_k = (n - k) z / ((k + 1)(b + k)) <= n z / b < 64e300.  frexp keeps S
    in [0.5, 1) times a power of 2, so r_k S stays a finite double, and the
    scaling rounds nothing."""
    n = a - b
    if not (0.0 <= n < _BINOMIAL_TRIALS and float(n).is_integer() and z < 1e300 * b):
        return None
    n = int(n)
    s, e = 1.0, 0  # S_(k+1) = s 2^e
    for k in range(n - 1, -1, -1):
        s, de = math.frexp(math.ldexp(1.0, -e) + (n - k) / (k + 1.0) * (z / (b + k)) * s)
        e += de
    return math.log(s) + e * _LN2


def _log_hyp1f1_pos(a: float, b: float, z: float) -> float:
    """log 1F1(a; b; z) for a, b > 0 and z >= 0 (all series terms positive).

    The plain series up to z = 30, where it is the more accurate (within
    7.3e-15 relative of mpmath at 400 random points with a in [0.2, 100],
    b in [0.3, 40], against 1.4e-13 for the peak sum); the anchored
    log-space peak sum past 30 and where the plain series would overflow.
    """
    if z == 0.0:
        return 0.0
    if z <= 30.0:
        try:
            return math.log(_kummer_series(a, b, z))
        except OverflowError:  # the plain series passed 1e305; its log does not
            pass
    return _log_hyp1f1_peak_sum(a, b, z)[0]


def _log_hyp1f1_peak_sum(a: float, b: float, z: float) -> tuple[float, int]:
    """log 1F1(a; b; z) for a, b, z > 0, and the number of terms summed.

    The term ratio r(k) = t_(k+1) / t_k = z (a+k) / ((b+k)(k+1)) rises at
    most once (up to k0 below sqrt(b)) and then falls, so the terms peak where
    r crosses 1 and spread over a few sqrt(z) around it.  The sum
    (_log_window_sum) starts in a window of +-10 sqrt(z) about the peak and
    grows each edge until the geometric bound on what lies beyond it, with r
    the largest ratio past the edge, is below _HYP1F1_TOL of the sum:
    O(sqrt z) terms instead of the z of the plain series.  Kept apart from
    the gamma-mixture kernel, since fading.pdf feeds the quadrature oracles.
    """
    log_z = math.log(z)

    def log_terms(lo: int, hi: int) -> np.ndarray:  # log t_k, k in [lo, hi)
        k = np.arange(lo, hi, dtype=float)
        return sp.gammaln(a + k) - sp.gammaln(b + k) + k * log_z - sp.gammaln(k + 1.0)

    def ratio(k: float) -> float:
        return z * (a + k) / ((b + k) * (k + 1.0))

    # the peak is the larger root of (b+k)(k+1) = z(a+k); r(k) < 1 for all k
    # when there is none.  r rises until k0, the larger root of
    # (a+k)(b+k) = (b-a)(k+1): r(hi-1) bounds the ratios past hi-1 from k0 on.
    c = z - b - 1.0
    disc = c * c + 4.0 * (a * z - b)
    peak = max(0, int(0.5 * (c + math.sqrt(disc))) + 1) if disc > 0.0 else 0
    disc0 = a * a - a * b + b - a
    k0 = -a + math.sqrt(disc0) if disc0 > 0.0 else 0.0
    width = int(10.0 * math.sqrt(z)) + 16
    log_sum, terms = _log_window_sum(
        log_terms, max(0, peak - width), peak + width, width // 2,
        lambda hi: ratio(hi - 1) if hi - 1 >= k0 else math.inf,
        # going down, t_(k-1) / t_k = 1 / r(k-1) <= 1 / min(r(0), r(lo-1)) for k <= lo
        lambda lo: 1.0 / min(ratio(0.0), ratio(lo - 1.0)), _HYP1F1_TOL)
    return float(log_sum + sp.gammaln(b) - sp.gammaln(a)), terms


# ---------------------------------------------------------------------------
# reduced Humbert Phi2 series
# ---------------------------------------------------------------------------

def _phi2_unit_first_log(b2: float, c: float, u: float, v: float) -> float:
    """log of exp(-u) * Phi2(1, b2; c; u, v) for u > 0, v >= 0.

    Uses the reduction of the inner unit-parameter series to a regularized
    lower incomplete gamma,

        exp(-u) 1F1(1; c + n; u) = Gamma(c + n) u^(1 - c - n) P(c + n - 1, u),

    which turns the double series into a single series of positive terms

        Gamma(c) u^(1-c) sum_n (b2)_n (v/u)^n / n! * P(c + n - 1, u).

    Positive terms mean no cancellation at any argument size; everything is
    assembled in log space, P included (_log_reg_gamma, where scipy's
    underflows), so the result can represent values far outside the
    double-precision range of the unscaled Phi2.  _log_window_sum sums it
    from a first window of _PHI2_FIRST terms at n = 0 on in blocks of
    _PHI2_BLOCK terms until the geometric tail past the edge n is below
    _SERIES_TOL of the sum, with the ratio bound
    rho max(1, (b2+n)/(n+1)) min(1, u/(c+n)), rho = v/u: the weight ratio
    (b2+n) rho/(n+1) tends to rho monotonically, and P(a+1, u)/P(a, u) <=
    min(1, u/(a+1)) falls with a, so it holds past every edge, for any rho.
    The sizes were picked on the eta-mu grids' calls, four in five of which
    stop within the first window: on a 2-core Intel Xeon a block costs about
    14 us plus 0.065 us a term, and one that runs far past u also pays for
    log P where scipy's P underflows, so longer blocks cost more there.
    """
    if not u > 0:
        raise DomainError("reduced Phi2 series requires u > 0")
    if v < 0:
        raise DomainError("reduced Phi2 series requires v >= 0")
    log_pref = math.lgamma(c) + (1.0 - c) * math.log(u)
    if v == 0.0 or b2 == 0.0:
        with np.errstate(divide="ignore"):
            return log_pref + float(_log_reg_gamma(np.array([c - 1.0]), u, False)[0])

    rho = v / u
    log_rho = math.log(rho)
    lg_b2 = math.lgamma(b2)

    def log_terms(lo: int, hi: int) -> np.ndarray:
        n = np.arange(lo, hi, dtype=float)
        logw = (sp.gammaln(b2 + n) - lg_b2 - sp.gammaln(n + 1.0) + n * log_rho)
        with np.errstate(divide="ignore"):
            return log_pref + logw + _log_reg_gamma(c - 1.0 + n, u, False)

    def after(hi: int) -> float:
        if hi >= _MAX_TERMS:
            raise AccuracyError(f"reduced Phi2 series needed more than {_MAX_TERMS} terms "
                                f"(b2={b2}, c={c}, u={u}, v={v})")
        n = hi - 1.0
        return rho * max(1.0, (b2 + n) / (n + 1.0)) * min(1.0, u / (c + n))

    return _log_window_sum(log_terms, 0, _PHI2_FIRST, _PHI2_BLOCK, after, None, _SERIES_TOL)[0]
