"""Special-function kernels: the gamma-mixture sum behind every closed form
(and the Marcum functions built on it), log-space regularized incomplete
gammas, the positive-term Kummer 1F1 and the reduced Humbert Phi2 series.

The mixture sum finds its summand peak by bisection on the term ratio, one
scalar incomplete gamma per step, then takes scipy's incomplete gamma once
per block of terms and walks the block by the recurrences between
neighbouring orders.  The walk has two forms: a loop in plain float (or,
over an array of x, array) arithmetic that forms each step's ratios
itself, and, for a float x and a block longer than _LONG_WALK terms, one
NumPy pass of cumulative products and sums.  A float x's call keeps its
bookkeeping on Python floats and math.  Where scipy's value underflows or
rounds poorly, Legendre's continued fraction or the ascending series with
a Stirling-form prefactor take its place.

All kernels are pure double-precision functions, reentrant and
thread-safe.  Running out of the term budget raises AccuracyError rather than
silently truncating.
"""

from __future__ import annotations

import contextlib
import math

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


# ---------------------------------------------------------------------------
# regularized incomplete gammas in log space
# ---------------------------------------------------------------------------

_UNDERFLOW = 1e-280
_FAR_ITERATIONS = 20_000


def _every(cond) -> bool:
    """cond.all() for an array, cond itself for a Python bool."""
    return cond if isinstance(cond, bool) else bool(np.all(cond))


def _log_reg_gamma(a, x, upper: bool) -> np.ndarray:
    """log Q(a, x) (upper) or log P(a, x) over broadcast arrays, for x > 0.

    Where scipy's value underflows it is rebuilt in log space by
    _far_reg_gamma.
    """
    r = sp.gammaincc(a, x) if upper else sp.gammainc(a, x)
    out = np.log(r)
    if not (r < _UNDERFLOW).any():
        return out
    far = r < _UNDERFLOW
    a, x = np.broadcast_to(a, r.shape)[far], np.broadcast_to(x, r.shape)[far]
    out[far] = _far_reg_gamma(a, x, upper)[0]
    return out


def _log_reg_gamma_seed(a: float, x, upper: bool):
    """log R(a, x) and d/R, with R = Q and d = d(a) (upper) or R = P and
    d = d(a-1) (lower), d(a) = x^a e^-x / Gamma(a+1): the seed of the
    recurrences Q(a+1, x) = Q(a, x) + d(a) and P(a-1, x) = P(a, x) + d(a-1).
    1 + d/R is scipy's R(a+1)/R(a) (upper) or R(a-1)/R(a) (lower), which
    keeps their full relative accuracy.  _far_reg_gamma takes over where R
    underflows, and also where R is small, |x - a| > 0.4 a and a + x >= 1000:
    there scipy forms x^a e^-x / Gamma(a) as exp(a log x - x - log Gamma(a)),
    whose rounding error (about 2e-12 relative at a, x ~ 3000) would carry
    over to every term of the block.  On Python floats for a float x, else
    over the array x."""
    reg = sp.gammaincc if upper else sp.gammainc
    step = 1.0 if upper else -1.0
    own = (x > 1.4 * a if upper else x < 0.6 * a) & (a + x >= 1000.0)
    if isinstance(x, float):
        if not own:
            r0 = float(reg(a, x))
            if r0 >= _UNDERFLOW:  # R(a+-1) >= R(a): neither underflows
                return math.log(r0), float(reg(a + step, x)) / r0 - 1.0
        log_r, d_r = _far_reg_gamma(a, x, upper)
        return float(log_r), float(d_r)
    r0, r1 = reg(np.array([[a], [a + step]]), x)
    log_r, d_r = np.log(r0), r1 / r0 - 1.0
    far = own | (r0 < _UNDERFLOW)
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
    floats, a >= 0, x > 0.  For a >= 20 it is -a (t - log(x/a)) -
    log(2 pi a)/2 - c(a), t = x/a - 1, whose rounding error is about
    eps |x - a|, where that of a log x - x - log Gamma(a+1) is eps a log x.
    log(x/a) is taken as log1p(t) from x = a/2 up; below, t's rounding,
    eps, would be eps a/x relative in 1 + t (eps a^2/x in the result), so
    log(x/a) itself is taken there."""
    if isinstance(a, float) and isinstance(x, float):
        if a < 20.0:
            return a * math.log(x) - x - math.lgamma(a + 1.0)
        t = x / a - 1.0
        log_ratio = math.log(x / a) if t < -0.5 else math.log1p(t)
        return -a * (t - log_ratio) - 0.5 * math.log(2.0 * math.pi * a) - _stirling_rest(a)
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
    """log R(a, x) and d/R as in _log_reg_gamma_seed, where scipy's R
    underflows: Q = d(a) a h with Gamma(a, x) = x^a e^-x h by Legendre's
    continued fraction (x > a), P = d(a) sum_j x^j / ((a+1)...(a+j)) by the
    ascending series (x < a), both fast that far from x ~ a.  On Python
    floats (math) for a float x, else over the array x."""
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
            return math.log(h) if type(h) is float else np.log(h)
    raise AccuracyError("incomplete gamma continued fraction did not converge")


def _log_betainc(a, b, x: float) -> np.ndarray:
    """log I_x(a, b) over broadcast arrays a, b, for 0 < x < 1.

    Where scipy's value underflows it is rebuilt in log space from
    I_x(a, b) = x^a (1-x)^b / (a B(a, b)) * sum_j (a+b)_j / (a+1)_j x^j.
    """
    r = sp.betainc(a, b, x)
    with np.errstate(divide="ignore"):
        out = np.log(r)
    if not (r < _UNDERFLOW).any():
        return out
    far = r < _UNDERFLOW
    a, b = np.broadcast_to(a, r.shape)[far], np.broadcast_to(b, r.shape)[far]
    log_pref = a * math.log(x) + b * math.log1p(-x) - np.log(a) - sp.betaln(a, b)
    term = total = np.ones_like(a)
    for j in range(_FAR_ITERATIONS):
        term = term * x * (a + b + j) / (a + 1.0 + j)
        total = total + term
        if (term < 1e-16 * total).all():
            out[far] = log_pref + np.log(total)
            return out
    raise AccuracyError("regularized incomplete beta did not converge in its tail")


_ZETA_K = np.arange(2.0, 60.0)
_ZETA = sp.zeta(_ZETA_K)  # ln Gamma(1+a) = -euler_gamma a + sum_k zeta(k) (-a)^k / k
_EXP_N = np.arange(1.0, 21.0)
_EXP_C = (-1.0) ** (_EXP_N + 1.0) / sp.gamma(_EXP_N + 1.0)  # (-1)^(n+1) / n!


def _log_gamma_below(mu: float, x) -> np.ndarray:
    """log Gamma(mu-1, x) / Gamma(mu) for 0 < mu <= 1, where the order mu-1 is
    not positive.  At mu = 1 this is log E1(x), from E1 up to x = 700 (where it
    is still a normal double) and Legendre's continued fraction beyond; for
    mu < 1 the fraction serves x >= 1.  Below, with a = mu-1, for mu >= 1/2
    the expansion

        Gamma(a, x) = (Gamma(1+a) - 1) / a - expm1(a ln x) / a
                      + x^a sum_{n>=1} (-1)^(n+1) x^n / (n! (a+n)),

    whose first term comes from the zeta series of ln Gamma(1+a), so nothing
    cancels as a -> 0; for mu < 1/2 the recurrence
    (1-mu) Gamma(mu-1, x) = x^(mu-1) e^-x - Gamma(mu, x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    far = x > 700.0 if mu == 1.0 else x >= 1.0
    xf, xn = x[far], x[~far]
    if xf.size:
        # a single x runs on a numpy scalar, far cheaper than a 1-element array
        log_h = _log_legendre_fraction(mu - 1.0, xf[0] if xf.size == 1 else xf)
        out[far] = (mu - 1.0) * np.log(xf) - xf - math.lgamma(mu) + log_h
    if mu == 1.0:
        out[~far] = np.log(sp.exp1(xn))
    elif mu >= 0.5:
        a = mu - 1.0
        log_gamma_mu = -np.euler_gamma * a + float(np.sum(_ZETA * (-a) ** _ZETA_K / _ZETA_K))
        ax = a * np.log(xn)
        series = (xn[:, None] ** _EXP_N * _EXP_C / (a + _EXP_N)).sum(axis=1)
        out[~far] = (np.log(math.expm1(log_gamma_mu) / a - np.expm1(ax) / a
                            + np.exp(ax) * series) - log_gamma_mu)
    elif xn.size:
        log_head = (mu - 1.0) * np.log(xn) - xn - math.lgamma(mu)
        log_q = _log_reg_gamma(np.array([mu]), xn, True)
        out[~far] = log_head + np.log1p(-np.exp(log_q - log_head)) - math.log1p(-mu)
    return out


# ---------------------------------------------------------------------------
# the gamma-mixture kernel
# ---------------------------------------------------------------------------

_LOG_Q_ONE = 1.0 - math.log(_MIXTURE_TOL)
_LONG_WALK = 100  # a float x's blocks longer than this walk by cumulative products
_FLOAT_STATE = contextlib.nullcontext()  # a float x's call runs outside np.errstate


def _q_one_order(x: float) -> float:
    """An order a from which P(a', x) <= _MIXTURE_TOL / e for every a' >= a.

    By the Chernoff bound P(a, x) <= exp(-f(a)), f(a) = a log(a/x) - a + x
    for a > x; f is convex and rises, so Newton's method on f(a) = 1 -
    log(_MIXTURE_TOL) from a = x + sqrt(2 L x) + L, where f is already past
    it, stays above the root (the 1 keeps the last iterate's rounding safe).
    """
    if x == 0.0:
        return 0.0
    a = x + math.sqrt(2.0 * _LOG_Q_ONE * x) + _LOG_Q_ONE
    for _ in range(3):
        log_ratio = math.log(a / x)
        a -= (a * log_ratio - a + x - _LOG_Q_ONE) / log_ratio
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


def _log_mixture_sum(lam: float, m: float, mu: float, k: int, log_r: float, x,
                     upper: bool, survival: bool = False, pair: bool = False):
    """log sum_n w_n r^(mu+n) (mu+n)_k R(mu+n+k, x), R = Q if upper else P;
    with pair=True (a float x, no survival weights) the logs at orders k and
    k+1 as a tuple, from one plan and one walk.

    The weights w_n are negative binomial with mean lam and shape m, Poisson
    when m = inf, binomial with N = -m trials and mean lam when m < 0 (the
    negative binomial law of shape -N), and a unit mass at n = 0 when
    lam = 0; survival=True sums their survival function S_n = sum_{j>n} w_j
    in their place.  The densities of the family are gamma-scale mixtures
    with these weights at a rate c (fading._gamma_mixture), so with
    r = c/(c-s) and x = (c-s) zeta this one sum gives every incomplete MGF,
    its s-derivatives, the CDF, the Marcum functions and (at k = -1, upper
    tail only, where (mu+n)_-1 Q(mu+n-1, x) = Gamma(mu+n-1, x) / Gamma(mu+n)
    also for mu+n-1 <= 0) the capacity sums.  Vectorised over x, which must
    be positive for the lower tail; a lower sum whose first order mu + k is
    not positive diverges and raises DomainError.

    Binomial weights have the finite support [0, N]: one walk sums all of it
    (S_N = 0, so the survival sum stops at N - 1), with no peak search and
    no tail bound.  The other families are summed as follows.

    Summation starts at the summand peak and works outward in doubling
    blocks (the central-term windowing of Gil, Segura and Temme for the
    Marcum function).  Each factor of the summand is log-concave in n, so
    the term ratio at a block edge bounds every ratio beyond it (the factors
    that are not, the weights and their survival function for m < 1 and
    1/(mu+n-1), get explicit bounds); a direction stops once the geometric
    tail so bounded is below _MIXTURE_TOL of the sum.  Once every later Q is
    1 to within _MIXTURE_TOL, the upper sum's rest is added in closed form;
    when the peak estimate lies beyond that point, the window is centred
    there, so a peak far out (heavy shadowing near the pole) costs no walk.

    The plan, made once per call: where one block from n = 0 does not cover
    the peak estimate, the peak of the median column is found by bisection
    on the sign of t(n+1)/t(n) - 1, the ratio formed from the walk's own
    pieces (the weight ratio, the Pochhammer ratio and R's ratio 1 + d/R
    from one scalar _log_reg_gamma_seed), to within a sixteenth of the
    block: O(log n) scalar calls.  Log-concave terms cross 1 once; where
    they are not (m < 1), a misplaced centre costs walking, never accuracy,
    since the tail bounds, not the plan, certify the sum.  That window's
    edges must pass the bounds with 8 terms to spare, as a grown block's do.

    A block takes R and R's next value once (_log_reg_gamma_seed), at the
    end from which the recurrence Q(a+1, x) = Q(a, x) + d_a (upward) or
    P(a, x) = P(a+1, x) + d_a (downward), d_a = x^a e^-x / Gamma(a+1), adds
    positive terms only, and walks to its other end: each term is the last
    one times the weight ratio, the Pochhammer ratio and R's ratio, all
    relative to the seed term, with d following from d(a+1) = d(a) x / (a+1)
    (Gil, Segura and Temme, ch. 4).  The weight ratio from n = 0 to 1 is
    r theta m itself, not the general r theta (n + m)/(n + 1) = r theta +
    r theta (m - 1)/(n + 1), which cancels to eps/m relative there.  The
    walk has two forms.  A loop forms each step's ratios in plain arithmetic
    and carries d/R, so R's ratio is 1 + d/R; it runs on floats for a float
    x and with array state for an array x, at any length.  A float x's
    block longer than _LONG_WALK terms takes one NumPy pass instead: d/R_0
    over the block is a cumulative product, R/R_0 the cumulative sum of it,
    and the terms are the cumulative product of weight ratio times R's step
    ratio.  The two are multiplied before the product, as in the loop,
    because either alone can under- or overflow where the term is a normal
    double.  The crossover, 100, was measured on the benchmark's kernel
    calls (64 to 160 cost about the same); the pass rounds differently from
    the loop, and the two sums agree to 4e-12 relative on those calls.  The
    seed term's weight is taken in Stirling form, so a block far out keeps
    the accuracy of its first term.  A block whose terms outgrow the double
    range of its seed, or whose R/R_0 does in the NumPy pass, is split in
    two.  A float x's bookkeeping (the plan, the bounds, the logs of the
    sums) runs on Python floats and math; NumPy, under np.errstate, only in
    the NumPy pass, the closed-form rest, the survival weights and the
    order mu - 1 <= 0 of the first k = -1 term.

    The pair mode walks order k and carries the order-(k+1) sum beside it.
    The order-(k+1) term at n is the order-k term at n times (mu+n+k) and
    R's ratio R(a+1)/R(a), a = mu+n+k, which the walk forms anyway; equally,
    it is the order-k term at n+1 times (mu+n)/u, u the weight ratio of that
    step before its Pochhammer factor (shift, used at the window's edges and
    in the NumPy pass).  So each walk form adds one multiply-add per term,
    and the single-order walk is left as it is.  The window [lo, hi) of
    order k holds the order-(k+1) terms at [lo-1, hi-1), down to n = 0.
    Each sum keeps its own reference and tail bounds, the order-(k+1) ones
    at those shifted edges, and takes its own closed-form rest (log_rest at
    k+1).  Binomial weights add the order-(k+1) term at n = N, one step past
    the walk, on their own.

    Negative binomial weights whose log(1 - theta) = log(m/(lam+m)) leaves
    the double range (m = 1e-300 at lam = 1e300) raise AccuracyError.
    """
    # a float x runs on Python floats, far cheaper than 1-element arrays;
    # every, largest, minimum, maximum, isfinite, exp and log act on either
    shape = () if isinstance(x, (int, float)) else np.shape(x)
    xs = np.asarray(x, dtype=float).reshape(-1) if shape else float(x)
    xmax = float(np.max(xs)) if shape else xs
    every, largest, minimum, maximum, isfinite, exp, log = (
        (np.all, np.max, np.minimum, np.maximum, np.isfinite, np.exp, np.log) if shape
        else (bool, float, min, max, math.isfinite, math.exp, _log_float))
    if not upper and mu + k <= 0.0:
        raise DomainError(f"the lower sum diverges: P of order mu + k = {mu + k} <= 0")
    if lam == 0.0:  # a unit mass at n = 0: the sum is its first term
        if pair:
            return tuple(_log_mixture_sum(lam, m, mu, j, log_r, x, upper) for j in (k, k + 1))
        if survival:
            return np.full(shape, -np.inf) if shape else -math.inf
        if not shape:  # on scalars, unless R underflows or E1 needs its fraction
            # (np.log, as on the arrays below: math.log rounds differently near 1)
            if mu + k > 0.0:
                rg = (sp.gammaincc if upper else sp.gammainc)(mu + k, xs)
                if rg >= _UNDERFLOW:
                    return float(mu * log_r + (math.lgamma(mu + k) - math.lgamma(mu)
                                               + np.log(rg)))
            elif mu == 1.0 and xs <= 700.0:
                return float(mu * log_r + np.log(sp.exp1(xs)))
        with np.errstate(divide="ignore"):
            out = mu * log_r + (
                _log_gamma_below(mu, xs) if mu + k <= 0.0
                else (math.lgamma(mu + k) - math.lgamma(mu)
                      + _log_reg_gamma(np.array([mu + k]), xs, upper)))
        return out.reshape(shape) if shape else float(out[0])
    poisson = math.isinf(m)
    binomial = m < 0.0  # theta = -p/(1-p), p = lam/N the success probability
    theta = 0.0 if poisson else lam / (lam + m)
    r = math.exp(log_r)
    q = r * theta
    one_m_theta = 1.0 if poisson else m / (lam + m)
    if not one_m_theta > 0.0:
        raise AccuracyError(f"negative binomial weights of shape m = {m} and mean lam = "
                            f"{lam}: log(1 - theta) = log(m/(lam+m)) leaves the double range")
    # log w_n + (mu+n) log r = n * slope + const - log n! [+ log Gamma(m+n)],
    # for binomial weights n * slope + const + log C(N, n)
    log_1m_theta = math.log(one_m_theta)
    slope = log_r + (math.log(lam) if poisson else math.log(-theta) if binomial
                     else -math.log1p(m / lam))
    const = mu * log_r - (lam if poisson else (0.0 if binomial else math.lgamma(m))
                          - m * log_1m_theta)
    w0, w1 = (lam, 0.0) if poisson else (theta * m, theta)  # w_(n+1)/w_n = (w0 + w1 n)/(n+1)

    def log_survival(n: np.ndarray) -> np.ndarray:
        """log S_n r^(mu+n) over an array of n (under np.errstate)."""
        return (mu + n) * log_r + (_log_reg_gamma(n + 1.0, lam, False) if poisson
                                   else _log_betainc(n + 1.0, -m - n, lam / -m) if binomial
                                   else _log_betainc(n + 1.0, m, theta))

    def log_weight(n: int) -> float:
        """log w_n r^(mu+n) (or S_n r^(mu+n)) at one n, with the log-gamma
        differences that round to about eps n in a plain sum taken accurately."""
        if survival:
            with np.errstate(all="ignore"):
                return float(log_survival(np.array([float(n)]))[0])
        if poisson:  # lam^n / n! (r^n e^-lam)
            return _log_poisson_term(float(n), lam * r) + lam * math.expm1(log_r) + mu * log_r
        if binomial:
            return n * slope + const + math.log(math.comb(int(-m), n))
        # at n = 0, Gamma(m) itself: n + 1 + (m - 1) would round m's low bits off
        return n * slope + const + (_log_gamma_ratio(n + 1.0, m - 1.0) if n else math.lgamma(m))

    first_below = mu + k <= 0.0  # k = -1, mu <= 1: no R of order mu-1 at n = 0

    def log_head(x):
        """log of the n = 0 term w_0 r^mu Gamma(mu-1, x) / Gamma(mu), over x."""
        with np.errstate(all="ignore"):
            return log_weight(0) + _log_gamma_below(mu, x)

    # the step from n to n+1 at j = n+1: the weight ratio
    # w(n+1) r^(mu+n+1)/(w(n) r^(mu+n)) = r (w0 + w1 n)/(n+1) = rw1 + rw01/j,
    # rw0 at j = 1, the Pochhammer ratio (mu+n+k)/(mu+n) = 1 + k/(j + mu1), and
    # d(a+1)/d(a) = x/(j + mk), a = mu+n+k (upper); down, d(a-2)/d(a-1) = (j + mk1)/x
    rw0, rw1, rw01 = float(r * w0), float(r * w1), float(r * (w0 - w1))
    mu1, mk, mk1 = float(mu - 1.0), float(mu + k), float(mu + k - 1.0)

    if pair:
        def shift(n: int) -> float:
            """The order-(k+1) term at n-1 over the order-k term at n,
            (mu+n-1) over the weight ratio into n; 0 at n = 0, below the
            first term."""
            return (n + mu1) / (rw1 + rw01 / n if n > 1 else rw0) if n else 0.0

    def walk(lo: int, hi: int):
        """The terms n in [lo, hi): log of their sum, of the first and of the
        last one, and R's ratio one step past the end the walk stops at,
        R(a+1)/R(a) above hi-1 (upper) or R(a-1)/R(a) below lo (lower), and
        the log of the order-(k+1) sum over n in [max(lo, 1) - 1, hi - 1) in
        the pair mode (else None)."""
        if first_below and lo == 0:
            head = log_head(xs) if shape else float(log_head(xs)[0])
            if hi == 1:
                return head, head, head, math.nan, -math.inf if pair else None
            log_sum, _, last, ratio, log_sum2 = walk(1, hi)
            return np.logaddexp(head, log_sum), head, last, ratio, log_sum2
        seed = lo if upper else hi - 1
        log_rg, d_r = _log_reg_gamma_seed(mu + seed + k, xs, upper)
        if survival:  # S(j) r^(mu+j) / (S(j-1) r^(mu+j-1)) at index j - lo - 1
            with np.errstate(all="ignore"):
                logw = log_survival(np.arange(lo, hi, dtype=float))
                ratios = np.exp(np.diff(logw)).tolist()
        log_seed = ((float(logw[seed - lo]) if survival else log_weight(seed))
                    + (_log_gamma_ratio(mu + seed, k) if k else 0.0) + log_rg)
        term = total = 1.0
        if not (shape or survival) and hi - lo > _LONG_WALK:
            term, total, rise, total2 = long_walk(lo, hi, d_r)
        elif pair:  # the order-(k+1) term at n = j-1 is (j + mk1) times
            if upper:  # the order-k term there times R's rise to j
                total2 = shift(lo)
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
                rise = 1.0 + d_r
            else:  # the order-k term at j over u
                total2 = 0.0
                for j in range(hi - 1, lo, -1):
                    u = rw1 + rw01 / j if j > 1 else rw0
                    if k:
                        u = u * (1.0 + k / (j + mu1))
                    rise = 1.0 + d_r
                    a = j + mk1  # the order of R at n = j-1
                    term = term * (1.0 / u)
                    total2 = total2 + term * a
                    term = term * rise
                    d_r = d_r * inv_x * a / rise
                    total = total + term
                rise = 1.0 + d_r
                total2 = total2 + term * shift(lo)
        elif upper:
            for j in range(lo + 1, hi):
                u = ratios[j - lo - 1] if survival else rw1 + rw01 / j if j > 1 else rw0
                if k:
                    u = u * (1.0 + k / (j + mu1))
                rise = 1.0 + d_r  # R's ratio from this term to the next
                term = term * u * rise
                d_r = d_r * xs * (1.0 / (j + mk)) / rise
                total = total + term
            rise = 1.0 + d_r
        else:  # the walk going down, from n = j to j-1
            for j in range(hi - 1, lo, -1):
                u = ratios[j - lo - 1] if survival else rw1 + rw01 / j if j > 1 else rw0
                if k:
                    u = u * (1.0 + k / (j + mu1))
                rise = 1.0 + d_r
                term = term * (1.0 / u) * rise
                d_r = d_r * inv_x * (j + mk1) / rise
                total = total + term
            rise = 1.0 + d_r
        if not every(isfinite(total)) or pair and not math.isfinite(total2):
            # the terms outgrew the double range
            mid = (lo + hi) // 2
            first, second = walk(lo, mid), walk(mid, hi)
            return (np.logaddexp(first[0], second[0]), first[1], second[2],
                    (second if upper else first)[3],
                    np.logaddexp(first[4], second[4]) if pair else None)
        log_end = log_seed + log(term)
        log_sum = log_seed + log(total)
        log_sum2 = log_seed + log(total2) if pair else None
        if upper:
            return log_sum, log_seed, log_end, rise, log_sum2
        return log_sum, log_end, log_seed, rise, log_sum2

    def long_walk(lo: int, hi: int, d_r: float):
        """walk's last term, sum (both relative to the seed term), final R
        ratio and, in the pair mode, order-(k+1) sum (else None) for a float
        x, by cumulative products and sums over [lo, hi)."""
        with np.errstate(all="ignore"):
            j = np.arange(lo + 1.0, hi)
            u = rw1 + rw01 / j
            if lo == 0:
                u[0] = rw0
            if pair:  # shift(n) at n = lo .. hi-1
                shifts = np.concatenate(([shift(lo)], (j + mu1) / u))
            if k:
                u *= 1.0 + k / (j + mu1)
            grow = np.empty(hi - lo + 1)
            grow[:2] = 1.0, d_r
            if upper:
                grow[2:] = xs / (j + mk)
            else:
                u, grow[2:] = 1.0 / u[::-1], (j[::-1] + mk1) * inv_x
            # a_i the i-th order walked: R(a_(i+1)) - R(a_i), then R(a_i), over R(a_0)
            np.cumprod(grow[1:], out=grow[1:])
            np.cumsum(grow, out=grow)
            rise = grow[1:] / grow[:-1]
            # one product of weight and R ratios: either alone may leave the range
            terms = np.cumprod(u * rise[:-1])
            # an R ratio past the double range (inf or nan) splits the block
            total = float(1.0 + terms.sum()) if rise[-1] < math.inf else math.inf
            total2 = None
            if pair:  # the terms walked up end at hi-1, those walked down at lo
                total2 = float(shifts[0] + terms @ shifts[1:] if upper
                               else shifts[-1] + terms @ shifts[-2::-1])
        return float(terms[-1]), total, float(rise[-1]), total2

    def log_rest(start: int, order: int = k) -> float:
        """log sum_{n >= start} w_n r^(mu+n) (mu+n)_order, the upper sum where
        every Q is 1.  (mu+n)_o = sum_i C(o,i) (mu+i)_(o-i) n!/(n-i)!, and each
        falling-factorial moment of the weights' tail is a tail mass of the
        same family: Poisson with mean lam r, negative binomial with shape m+i
        and ratio q.  The tail from an order start - i <= 0 on is the whole
        mass, whose log is 0."""
        i = np.arange(order + 1.0)
        with np.errstate(all="ignore"):
            log_c = (math.lgamma(order + 1.0) - sp.gammaln(i + 1.0)
                     - sp.gammaln(order - i + 1.0) + math.lgamma(mu + order) - sp.gammaln(mu + i))
            tail_order = np.maximum(start - i, 1.0)  # any positive order where masked below
            if poisson:
                log_tail = _log_reg_gamma(tail_order, lam * r, False)
                log_mom = lam * math.expm1(log_r) + i * slope
            else:  # 1 - q = (m - lam (r-1)) / (lam + m) keeps its digits as q -> 1
                log_tail = _log_betainc(tail_order, m + i, q)
                log_1mq = math.log((m - lam * math.expm1(log_r)) / (lam + m))
                log_mom = (m * (log_1m_theta - log_1mq) + sp.gammaln(m + i)
                           - math.lgamma(m) + i * (slope - log_1mq))
            log_mom = log_mom + np.where(i < start, log_tail, 0.0)
            log_parts = log_c + log_mom
            top = log_parts.max()
            return mu * log_r + float(top + np.log(np.exp(log_parts - top).sum()))

    def forward_ratio(top: int, rg, order: int = k):
        """Bound on the term ratio t(n+1)/t(n) for every n >= top at the
        order; rg is Q(a+1)/Q(a) at n = top (upper tail)."""
        # w(n+1)/w(n) for n >= t, and S(n+1)/S(n) <= max_{j>n} w(j+1)/w(j);
        # 1/(mu+n-1) falls, its ratio stays below 1
        t = top + 1 if survival else top
        w = lam / (t + 1.0) if poisson else theta * max(1.0, (m + t) / (t + 1.0))
        if not upper:
            rg = minimum(1.0, xs / (mu + top + order + 1.0))
        return w * r * (mu + top + order) / (mu + top) * rg if order >= 0 else w * r * rg

    def backward_ratio(low: int, rg, order: int = k):
        """Bound on the term ratio t(n-1)/t(n) for every 1 <= n <= low at the
        order; rg is P(a-1)/P(a) at n = low (lower tail)."""
        if survival:  # S(n-1)/S(n) = 1 + w(n)/S(n) <= 1 + w(n)/w(n+1)
            w = 1.0 + ((low + 1.0) / lam if poisson
                       else (low + 1.0) / (theta * (m + low)) if m >= 1.0
                       else 2.0 / (theta * (m + 1.0)))
        else:
            w = (low / lam if poisson else low / (theta * (m + low - 1.0)) if m >= 1.0
                 else 1.0 / (theta * m))
        if upper and order < 0:  # Gamma(b-1, x) <= Gamma(b, x) / x at every real order b
            return w / r * (mu + low - 1.0) * inv_x
        if upper:
            rg = minimum(1.0, (mu + low + order - 1.0) * inv_x)
        return w / r * (mu + low - 1.0) / (mu + low + order - 1.0) * rg

    def rises(n: int) -> bool:
        """Whether the median column's term at n+1 is at least its term at n."""
        j = n + 1
        if survival:
            with np.errstate(all="ignore"):
                u = float(np.exp(np.diff(log_survival(np.array([n, j], dtype=float))))[0])
        else:
            u = rw1 + rw01 / j if j > 1 else rw0
        if k:
            u = u * (1.0 + k / (j + mu1))
        if upper:  # Q(a+1)/Q(a) = 1 + d/Q at a = mu+n+k
            return u * (1.0 + _log_reg_gamma_seed(mu + n + k, xc, True)[1]) >= 1.0
        # P(a+1)/P(a) = 1/(1 + d/P), d/P from the seed at a+1
        return u >= 1.0 + _log_reg_gamma_seed(mu + j + k, xc, False)[1]

    with np.errstate(all="ignore") if shape else _FLOAT_STATE:
        inv_x = 1.0 / xs if shape or xs else math.inf
        if binomial:
            trials = int(-m)
            log_sum, _, last, rise, log_sum2 = walk(0, trials + (0 if survival else 1))
            if not pair:
                return log_sum.reshape(shape) if shape else float(log_sum)
            # the order-(k+1) term at n = N: the order-k term there times
            # (mu+N+k) R(a+1)/R(a) (upper), or from its own R
            if upper and mu + trials + k > 0.0:
                log_top = last + math.log((mu + trials + k) * rise)
            else:
                log_top = (log_weight(trials) + _log_gamma_ratio(mu + trials, k + 1)
                           + _log_reg_gamma_seed(mu + trials + k + 1.0, xs, upper)[0])
            return float(log_sum), float(np.logaddexp(log_sum2, log_top))
        # the peak of the median column (Q pulls it from the weights' peak up
        # to about x, P down), by bisection unless one block from n = 0 covers it
        xc = float(np.median(xs)) if shape else xs
        guess = max(0.0, lam * r + k if poisson else q * (m + k) / (1.0 - q) if q < 1.0
                    else q * (xc + m + k))
        guess = max(guess, xc) if upper else min(guess, xc + math.sqrt(guess * xc))
        closed_rest = upper and k >= 0 and not survival
        if closed_rest:  # every Q(mu+n+k, x) is 1 to within _MIXTURE_TOL from n1 on
            n1 = max(0, math.ceil(_q_one_order(xmax) - mu - k))
        hi = 2.0 * guess + 16.0
        spare = 0.0  # terms the first window's edges must pass the bounds by
        if closed_rest and guess > n1:
            # the terms past n1 are the closed-form rest: sum up to it
            center, block = n1, 32 + int(6.0 * math.sqrt(n1))
        elif hi <= 256.0:
            center, block = 0, int(hi)
        else:  # the peak lies in (lo, hi]
            lo, hi = 0, int(hi)
            while rises(hi):
                lo, hi = hi, 16 * hi
            while 16 * (hi - lo) > 32.0 + 6.0 * math.sqrt(hi):
                mid = (lo + hi) // 2
                if rises(mid):
                    lo = mid
                else:
                    hi = mid
            # a window centred on the peak passes its first bounds with 8
            # terms to spare, as every grown block does (grow adds 8), so it
            # truncates well below _MIXTURE_TOL, not up to it
            center, block, spare = hi, 32 + int(6.0 * math.sqrt(hi)), 8.0

        lo, hi = max(0, center - block), center + block
        ref, first, last, ratio, ref2 = walk(lo, hi)
        total = total2 = 1.0  # the sums relative to exp(ref) and, in the pair mode, exp(ref2)

        def grow(size: int, need) -> int:
            """The next block: doubled, or what the bound asks for if fewer."""
            size = int(min(2 * size, largest(need) + 8.0, _MAX_TERMS - (hi - lo)))
            if size < 2:
                raise AccuracyError(
                    f"gamma-mixture sum needed more than {_MAX_TERMS} terms "
                    f"(lam={lam}, m={m}, mu={mu}, k={k}, x={xmax})")
            return size

        def add(log_part, log_part2):
            nonlocal ref, total, ref2, total2
            new = maximum(ref, log_part)
            total = total * exp(ref - new) + exp(log_part - new)
            ref = new
            if pair:
                new = max(ref2, log_part2)
                total2 = total2 * math.exp(ref2 - new) + math.exp(log_part2 - new)
                ref2 = new

        if pair:  # the order-(k+1) sum's edges are one n lower, its first n = 0 at lo = 1
            def ahead2(last, rg):
                return _remaining(last + math.log(shift(hi - 1)),
                                  forward_ratio(hi - 2, rg, k + 1), ref2, total2)

            def behind2(first, rg):
                if lo <= 1:
                    return -math.inf
                return _remaining(first + math.log(shift(lo)),
                                  backward_ratio(lo - 1, rg, k + 1), ref2, total2)

        ahead = _remaining(last, forward_ratio(hi - 1, ratio), ref, total) + spare
        behind = (_remaining(first, backward_ratio(lo, ratio), ref, total) + spare if lo
                  else ref * 0.0)
        if pair:
            ahead = _larger(ahead, ahead2(last, ratio) + spare)
            behind = _larger(behind, behind2(first, ratio) + spare)
        size = block
        while not every(ahead <= 0.0):
            # Q rises with n, so past n1, where it is 1, the rest has a closed
            # form; taken when it is longer than the window so far
            if closed_rest and hi > n1 and not every(ahead <= hi - lo):
                add(log_rest(hi), log_rest(hi - 1, k + 1) if pair else None)
                break
            size = grow(size, ahead)
            log_part, _, last, ratio, log_part2 = walk(hi, hi + size)
            hi += size
            add(log_part, log_part2)
            ahead = _remaining(last, forward_ratio(hi - 1, ratio), ref, total)
            if pair:
                ahead = _larger(ahead, ahead2(last, ratio))
        size = block
        while not every(behind <= 0.0):
            size = grow(size, behind)
            top, lo = lo, max(0, lo - size)
            log_part, first, _, ratio, log_part2 = walk(lo, top)
            add(log_part, log_part2)
            behind = _remaining(first, backward_ratio(lo, ratio), ref, total) if lo else ref * 0.0
            if pair:
                behind = _larger(behind, behind2(first, ratio))
        out = ref + log(total)
    if pair:
        return float(out), float(ref2 + math.log(total2))
    return out.reshape(shape) if shape else float(out)


# ---------------------------------------------------------------------------
# Marcum Q
# ---------------------------------------------------------------------------

def _marcum(nu: float, a: float, b: float, upper: bool) -> float:
    """sum_k Pois(k; a^2/2) R(nu + k, b^2/2), R = Q if upper else P."""
    if not 0 < nu < math.inf:
        raise DomainError(f"order must be positive and finite, got nu={nu}")
    if not (0.0 <= a < math.inf and 0.0 <= b < math.inf):
        raise DomainError("Marcum arguments must be finite and nonnegative")
    if b == 0.0:
        return 1.0 if upper else 0.0
    v = math.exp(_log_mixture_sum(0.5 * a * a, math.inf, nu, 0, 0.0, 0.5 * b * b, upper))
    if not 0.0 <= v <= 1.0 + 1e-12:  # a NaN fails it too
        raise AccuracyError(f"Marcum {'Q' if upper else 'P'} left [0,1]: {v}")
    return min(max(v, 0.0), 1.0)


def marcum_q(nu: float, a: float, b: float) -> float:
    """Generalized Marcum Q_nu(a, b) for real order nu > 0.

    Q_nu(a, b) = sum_k Pois(k; a^2/2) Q(nu + k, b^2/2), the tail probability
    of a noncentral chi-square law.  Nonincreasing in b, with Q(a, 0) = 1.
    """
    return _marcum(nu, a, b, True)


def marcum_p(nu: float, a: float, b: float) -> float:
    """Complementary Marcum function 1 - Q_nu(a, b), summed directly.

    Direct summation avoids the cancellation of forming 1 - Q when the result
    is small (noncentral chi-square CDF near the origin).
    """
    return _marcum(nu, a, b, False)


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
    r crosses 1 and spread over a few sqrt(z) around it.  The sum starts in a
    window of +-10 sqrt(z) about the peak and grows each edge until the
    geometric bound on what lies beyond it, t_edge r / (1 - r) with r the
    largest ratio past the edge, is below _HYP1F1_TOL of the sum: O(sqrt z)
    terms instead of the z of the plain series.  Kept apart from the
    gamma-mixture kernel, since fading.pdf feeds the quadrature oracles.
    """
    log_z = math.log(z)

    def log_terms(lo: int, hi: int) -> np.ndarray:  # log t_k, k in [lo, hi)
        k = np.arange(lo, hi, dtype=float)
        return sp.gammaln(a + k) - sp.gammaln(b + k) + k * log_z - sp.gammaln(k + 1.0)

    def ratio(k: float) -> float:
        return z * (a + k) / ((b + k) * (k + 1.0))

    # the peak is the larger root of (b+k)(k+1) = z(a+k); r(k) < 1 for all k
    # when there is none.  r rises until k0, the larger root of
    # (a+k)(b+k) = (b-a)(k+1).
    c = z - b - 1.0
    disc = c * c + 4.0 * (a * z - b)
    peak = max(0, int(0.5 * (c + math.sqrt(disc))) + 1) if disc > 0.0 else 0
    disc0 = a * a - a * b + b - a
    k0 = -a + math.sqrt(disc0) if disc0 > 0.0 else 0.0
    width = int(10.0 * math.sqrt(z)) + 16
    lo, hi = max(0, peak - width), peak + width
    logt = log_terms(lo, hi)
    anchor = float(logt.max())
    total = float(np.exp(logt - anchor).sum())
    log_first, log_last = float(logt[0]), float(logt[-1])

    def beyond(log_edge: float, r: float) -> bool:  # tail past an edge is negligible
        return r < 1.0 and log_edge - anchor + math.log(r / (1.0 - r)) \
            <= math.log(_HYP1F1_TOL * total)

    while not (hi - 1 >= k0 and beyond(log_last, ratio(hi - 1))):
        logt = log_terms(hi, hi + width // 2)
        total += float(np.exp(logt - anchor).sum())
        log_last = float(logt[-1])
        hi += width // 2
    # going down, t_(k-1) / t_k = 1 / r(k-1) <= 1 / min(r(0), r(lo-1)) for k <= lo
    while lo > 0 and not beyond(log_first, 1.0 / min(ratio(0.0), ratio(lo - 1.0))):
        new_lo = max(0, lo - width // 2)
        logt = log_terms(new_lo, lo)
        total += float(np.exp(logt - anchor).sum())
        log_first = float(logt[0])
        lo = new_lo
    log_sum = anchor + math.log(total) + sp.gammaln(b) - sp.gammaln(a)
    return float(log_sum), hi - lo


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
    assembled in log space so the result can represent values far outside the
    double-precision range of the unscaled Phi2.
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
    block = 512
    total = 0.0
    anchor = -math.inf
    n0 = 0
    # summand peak of the weight factor alone (geometric-Poisson balance)
    nb_peak = 0.0 if rho >= 1.0 else max(0.0, (b2 * rho - 1.0) / (1.0 - rho))
    while n0 < _MAX_TERMS:
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
            if ratio < 1.0 and last / (1.0 - ratio) <= _SERIES_TOL * total:
                return anchor + math.log(total)
            if last == 0.0 and contrib <= _SERIES_TOL * total:
                return anchor + math.log(total)
    raise AccuracyError(
        f"reduced Phi2 series needed more than {_MAX_TERMS} terms "
        f"(b2={b2}, c={c}, u={u}, v={v})"
    )
