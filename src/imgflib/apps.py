"""IMGF-based performance metrics: secrecy outage, outage under interference,
capacity with transmitter/receiver side information, and adaptive-modulation
average BER.

The secrecy outage (and its interference-outage twin) reduces to the CDF of
the legitimate link plus a finite, mixture-weighted combination of upper-IMGF
s-derivatives.  The capacity and its water-filling cutoff are sums of the
gamma-mixture kernel over the canonical mixture; the adaptive-modulation BER
combines IMGF increments region by region.  What remains here is
bracketing and root finding around those sums, with derivatives from the
sums themselves: for the cutoff, Halley's method from the fixed-power
cutoff on a convex residual whose slope is one of the sums it already holds
and whose curvature adds the density; for the epsilon-outage secrecy
capacity, Newton's method on the outage on a Weibull scale against
the log threshold, whose rate derivative comes from the same kernel walks
as the outage, with the eavesdropper mixture the scenario built and the
rate bracketed a priori by a Chernoff bound on the legitimate link.  Both
solves evaluate each point once; the capacity is the largest evaluated rate
whose outage is within epsilon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import integrate, special

from .errors import AccuracyError, DomainError
from .fading import (FadingModel, _canonical_params, _from_log, _gamma_mixture, _log_mgf,
                     mrc_combine, pdf, smallest_pole)
from .fading import mgf  # noqa: F401  unused; perfbench/trace.py hooks apps.mgf
from .incomplete import _deriv_log_scaled, imgf_lower, imgf_upper
from .mixture import GammaMixture, mixture_from_model
from .specfun import _MIXTURE_TOL, _log_mixture_sum

__all__ = [
    "SecrecyScenario",
    "AdaptiveModScheme",
    "CapacityScenario",
    "opsc",
    "spsc",
    "eps_outage_capacity",
    "outage_interference",
    "capacity_side_info",
    "capacity_direct",
    "solve_cutoff",
    "aber_adaptive",
]

_RATE_TOL = 1e-9          # eps_outage_capacity's bound on the undershoot of the crossing
_RATE_ITERATIONS = 100    # eps_outage_capacity's cap on outage evaluations
_EPS = float(np.finfo(float).eps)  # the rate tolerance is _RATE_TOL/2 + 4 _EPS R, as brentq's was
_CUTOFF_RESIDUAL = 1e-10  # solve_cutoff's bound on the power-constraint residual
_CUTOFF_ITERATIONS = 100  # solve_cutoff's cap on residual evaluations
_LOG_LOG_4 = math.log(math.log(4.0))  # solve_cutoff's largest step down in log g0
_OUTAGE_RTOL = 1e-8       # _outage_core's bound on its error, relative to the outage
_MAX_EXPONENT = 1024      # 2.0 ** x is a finite double for every x below it
_LOG_FLOAT_MAX = 709.78   # math.exp(x) is a finite double for every x below it
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SecrecyScenario:
    """Wiretap setting: legitimate link (any model), eavesdropper link whose
    canonical form has integer (mu, m) or is a gamma law, target secrecy rate
    in bits/s/Hz, and the eavesdropper's MRC antenna count.  The
    eavesdropper's (MRC-combined) mixture is built at construction, which
    checks it, and kept for the outages."""

    bob: FadingModel
    eve: FadingModel
    rate_rs: float = 0.0
    n_eve_antennas: int = 1
    _eve_mixture: GammaMixture = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.rate_rs < _MAX_EXPONENT:  # a NaN fails it too
            raise DomainError(f"secrecy rate must be nonnegative and below 1024 (2^R_S a "
                              f"finite double), got {self.rate_rs}")
        if self.n_eve_antennas < 1:
            raise DomainError("need at least one eavesdropper antenna")
        # validate both links eagerly so misconfigurations fail at construction
        _canonical_params(self.bob)
        object.__setattr__(self, "_eve_mixture",
                           mixture_from_model(mrc_combine(self.eve, self.n_eve_antennas)))


@dataclass(frozen=True)
class AdaptiveModScheme:
    """Constellation switching plan: ascending SNR thresholds g_0 < g_1 < ...
    (the last region extends to infinity) and bits per symbol per region."""

    thresholds: tuple
    bits_per_region: tuple

    def __post_init__(self):
        th = tuple(float(t) for t in self.thresholds)
        bits = tuple(int(b) for b in self.bits_per_region)
        object.__setattr__(self, "thresholds", th)
        object.__setattr__(self, "bits_per_region", bits)
        if not th:
            raise DomainError("scheme needs at least one region")
        if len(bits) != len(th):
            raise DomainError("one bits-per-symbol entry per region is required")
        # a NaN fails every comparison, so it fails this check wherever it is
        if not (0 <= th[0] and all(a < b for a, b in zip(th, th[1:])) and th[-1] < math.inf):
            raise DomainError("thresholds must be finite, nonnegative and strictly ascending")
        if not all(1 <= b < _MAX_EXPONENT for b in bits):
            raise DomainError("bits per region must be integers from 1 to 1023 "
                              "(2^k a finite double)")


@dataclass(frozen=True)
class CapacityScenario:
    channel: FadingModel
    cutoff_snr: float | None = None  # solved from the power constraint if absent

    def __post_init__(self):
        if self.cutoff_snr is not None and not 0 < self.cutoff_snr < math.inf:
            raise DomainError(f"cutoff SNR must be positive and finite, got {self.cutoff_snr}")


def _clamp_probability(p: float, where: str, tol: float = 1e-8) -> float:
    if not -tol <= p <= 1.0 + tol:  # a NaN fails it too
        raise AccuracyError(f"{where} produced {p!r}, outside [0,1] beyond tolerance")
    return min(max(p, 0.0), 1.0)


def _check_threshold(gamma_th: float) -> None:
    """DomainError unless the outage threshold is nonnegative and finite."""
    if not 0 <= gamma_th < math.inf:  # a NaN fails it too
        raise DomainError(f"threshold must be nonnegative and finite, got {gamma_th}")


def _check_epsilon(epsilon: float) -> None:
    """DomainError unless the outage budget epsilon lies in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")


def _outage_core(bob: FadingModel, eve_mixture: GammaMixture, alpha: float,
                 scale: float, slope: list | None = None) -> float:
    """Pr{gamma_b <= alpha + scale * gamma_e} for a mixture-form eavesdropper.

    Expanding the eavesdropper CDF termwise turns the probability into

      F_b(alpha) + sum_i C_i sum_{k<m_i} W_ik * int_alpha^inf x^k
                                      exp(-beta_i (x - alpha)) f_b(x) dx,

    with beta_i = 1 / (scale * Omega_i) and polynomial weights
    W_ik = beta_i^k / k! * sum_{d <= m_i-1-k} (-alpha beta_i)^d / d!.
    The integrals T_k are exp(alpha beta_i)-scaled upper-IMGF derivatives,
    which the transform layer provides in that prescaled form, as logs.
    At high orders beta^k / k! underflows where T_k overflows, so their
    logs are added before the exponential; AccuracyError is raised where
    the product itself is past the double range.

    The signs of C_i and of the partial sums' terms alternate, so the sum can
    cancel.  Its magnitude M, the same sum with every sign made positive,
    bounds the error: each integral is within _MIXTURE_TOL relative, so
    AccuracyError is raised when M _MIXTURE_TOL exceeds _OUTAGE_RTOL of the
    result.

    Given a list as slope, the derivative in the rate of the secrecy outage
    (alpha = 2^R - 1, scale = 2^R) is appended to it:

      dO/dR = ln 2 int_alpha^inf (x + 1) f_e((x - alpha)/scale)/scale f_b(x) dx
            = ln 2 sum_i C_i sum_{k<=m_i} (beta_i a_k + k a_(k-1)) beta_i^k/k! T_k,

    a_d = (-alpha beta_i)^(m_i-1-d) / (m_i-1-d)! for 0 <= d < m_i and 0
    otherwise (for a Rayleigh eavesdropper, ln 2 beta (T_0 + T_1)).  It
    takes each T_k one order higher, up to m_i, and the orders come in pairs
    from one kernel walk each.  The slope is inf where a top-order term
    overflows; it has no cancellation guard of its own.
    """
    _check_threshold(alpha)
    total = magnitude = imgf_lower(bob, 0.0, alpha)
    rise = 0.0  # dO/dR / ln 2
    cache: dict[tuple[float, int], float] = {}  # log T_k
    for (c_i, omega_i, m_i) in eve_mixture.terms:
        if c_i == 0.0 or m_i <= 0:
            continue
        beta = 1.0 / (scale * omega_i)
        ab = alpha * beta
        # W_k via the partial exponential sums of exp(-alpha*beta), and the
        # same sums of |terms|
        term = 1.0
        powers = [1.0]  # (-alpha beta)^d / d!
        partial = [1.0]
        partial_abs = [1.0]
        for d in range(1, m_i):
            term *= -ab / d
            powers.append(term)
            partial.append(partial[-1] + term)
            partial_abs.append(partial_abs[-1] + abs(term))
        log_beta = math.log(beta)
        log_bk = 0.0  # log(beta^k / k!)
        contrib = contrib_abs = contrib_rise = 0.0
        for k in range(m_i):
            if (beta, k) not in cache:
                if slope is None:
                    cache[beta, k] = _deriv_log_scaled(bob, -beta, alpha, k)
                else:
                    cache[beta, k], cache[beta, k + 1] = _deriv_log_scaled(bob, -beta, alpha, k,
                                                                           pair=True)
            t_k = _from_log(log_bk + cache[beta, k], "outage term of order {} overflows "
                            "at beta = {!r}, alpha = {!r}", k, beta, alpha)  # beta^k / k! T_k
            contrib += partial[m_i - 1 - k] * t_k
            contrib_abs += partial_abs[m_i - 1 - k] * t_k
            if slope is not None:  # (beta a_k + k a_(k-1)) t_k, a_d = powers[m_i - 1 - d]
                rise_k = beta * powers[m_i - 1 - k]
                contrib_rise += (rise_k + k * powers[m_i - k] if k else rise_k) * t_k
            log_bk += log_beta - math.log(k + 1.0)
        if slope is not None:  # the top order m_i, whose coefficient is m_i a_(m_i - 1) = m_i
            if (beta, m_i) not in cache:
                cache[beta, m_i] = _deriv_log_scaled(bob, -beta, alpha, m_i)
            log_t = log_bk + cache[beta, m_i]
            contrib_rise += m_i * (math.exp(log_t) if log_t < _LOG_FLOAT_MAX else math.inf)
        total += c_i * contrib
        magnitude += abs(c_i) * contrib_abs
        rise += c_i * contrib_rise
    if magnitude * _MIXTURE_TOL > _OUTAGE_RTOL * total:
        raise AccuracyError(f"outage sum cancels: magnitude {magnitude:.3e} against "
                            f"result {total:.3e}")
    if slope is not None:
        slope.append(_LN2 * rise)
    return _clamp_probability(total, "outage probability")


def opsc(scenario: SecrecyScenario) -> float:
    """Outage probability of the secrecy capacity, Pr{C_S <= R_S}.

    Exact whenever the (MRC-combined) eavesdropper admits the finite gamma
    mixture; the legitimate link may have any real parameters.  Nondecreasing
    in R_S and in the eavesdropper SNR.
    """
    scale = 2.0 ** scenario.rate_rs
    return _outage_core(scenario.bob, scenario._eve_mixture, scale - 1.0, scale)


def spsc(scenario: SecrecyScenario) -> float:
    """Outage probability of strictly positive secrecy capacity (R_S = 0)."""
    return opsc(replace(scenario, rate_rs=0.0))


def _chernoff_threshold(bob: FadingModel, epsilon: float) -> float:
    """SNR t with Pr{gamma_b <= t} >= (1 + epsilon) / 2, from the Chernoff
    bound Pr{gamma_b > t} <= M_b(s) exp(-s t) at half the MGF pole, in logs."""
    s = 0.5 * smallest_pole(bob)
    return (_log_mgf(bob, s) + math.log(2.0 / (1.0 - epsilon))) / s


def eps_outage_capacity(scenario: SecrecyScenario, epsilon: float) -> float:
    """Largest secrecy rate whose outage probability stays within epsilon.

    Safeguarded Newton steps on z = log(-log(1 - O)) against u = log(2^R - 1),
    the outage O(R) = Pr{C_S <= R} on a Weibull scale: z is linear in u for
    a Weibull law of 2^R - 1, and close to linear for the outage.  The slope
    dO/dR comes from the kernel walks that give O (_outage_core), and
    dz/du = dO/dR (2^R - 1) / (2^R ln 2 (1 - O) (-log(1 - O))).  Once two
    slopes are known, their difference quotient, the curvature of z, adds a
    second-order (Halley) correction to each step.

    The bracket is known before the solve: C_S <= log2(1 + gamma_b), so the
    outage at R_hi = log2(1 + t) is at least F_b(t) >= (1 + epsilon) / 2 >
    epsilon for the Chernoff threshold t of the legitimate link.  The first
    iterate is 0.6 R_hi; R_hi itself is evaluated only if the bracket closes
    on it.  A step that would leave the bracket [largest rate with
    O <= epsilon, smallest rate with O > epsilon], or that has no positive
    finite slope (O = 0 or 1 included), is replaced by a bisection step.
    After a step below 1e-3 R the next rate is evaluated without its slope,
    and the step from it takes the last slope, moved along by the curvature.
    A step below half the tolerance becomes a step of 0.9 tolerance across
    the crossing, which certifies it.

    The eavesdropper mixture is the scenario's, and each rate is evaluated once.
    The solve ends with an evaluated rate on each side of the crossing
    within _RATE_TOL / 2 + 8.9e-16 R of each other; the largest evaluated
    rate whose outage is within epsilon is returned, so the result never
    overshoots the crossing.  Returns 0 when even a zero rate violates the
    epsilon budget; AccuracyError when the outage at R_hi stays within
    epsilon, or after _RATE_ITERATIONS evaluations.
    """
    _check_epsilon(epsilon)
    bob = scenario.bob
    mix = scenario._eve_mixture
    z_eps = math.log(-math.log1p(-epsilon))

    def width(rate: float) -> float:  # the bracket width the solve ends at
        return 0.5 * _RATE_TOL + 4.0 * _EPS * rate

    if _outage_core(bob, mix, 0.0, 1.0) > epsilon:
        return 0.0
    r_hi = math.log2(1.0 + _chernoff_threshold(bob, epsilon))
    lo, hi, hi_evaluated = 0.0, r_hi, False
    rate, with_slope = 0.6 * r_hi, True
    u_g = g = curv = math.nan  # the last slope dz/du, where it was taken, and dz2/du2
    for _ in range(_RATE_ITERATIONS):
        scale = 2.0 ** rate
        if with_slope:
            slope: list = []
            o = _outage_core(bob, mix, scale - 1.0, scale, slope)
        else:
            o = _outage_core(bob, mix, scale - 1.0, scale)
        if o > epsilon:
            hi, hi_evaluated = rate, True
        elif rate == r_hi:
            raise AccuracyError(f"secrecy outage stays within epsilon at the Chernoff "
                                f"bracket end R = {r_hi}")
        else:
            lo = rate
        if hi - lo <= width(lo):
            if hi_evaluated:
                return lo
            rate, with_slope = r_hi, False
            continue
        alpha = math.expm1(rate * _LN2)  # 2^R - 1, also where 2^R rounds to 1
        u = math.log(alpha)
        z = math.log(-math.log1p(-o)) - z_eps if 0.0 < o < 1.0 else math.nan
        if with_slope:
            g_new = (slope[0] * alpha / (scale * _LN2)
                     / ((1.0 - o) * -math.log1p(-o))) if slope and 0.0 < o < 1.0 else math.nan
            curv = (g_new - g) / (u - u_g)
            u_g, g = u, g_new
        g_here = g + curv * (u - u_g) if math.isfinite(curv) else g
        if math.isfinite(z) and 0.0 < g_here < math.inf:
            du = -z / g_here
            if abs(curv * du) < g_here:  # the curvature's correction, where it is moderate
                du = -z / (g_here + 0.5 * curv * du)
            u += du  # the rate log2(1 + e^u), without overflow
            step = (u + math.log1p(math.exp(-u)) if u > 0.0 else math.log1p(math.exp(u))) / _LN2
            step -= rate
            if abs(step) < 0.5 * width(rate):  # close enough: step across the crossing
                step = 0.9 * width(rate) * (-1.0 if o > epsilon else 1.0)
            with_slope = abs(step) >= 1e-3 * rate
            rate += step
        if not lo < rate < hi:  # no Newton step, or one that leaves the bracket
            rate, with_slope = 0.5 * (lo + hi), True
    raise AccuracyError(f"epsilon-outage root search did not converge in {_RATE_ITERATIONS} "
                        f"evaluations (bracket [{lo}, {hi}])")


def outage_interference(desired: FadingModel, interference: FadingModel,
                        gamma_th: float) -> float:
    """Outage probability with interference and background noise,
    Pr{gamma_d <= gamma_th + (1 + gamma_th) * gamma_i}.

    Shares its implementation with the secrecy outage: the two problems are
    the same computation under threshold <-> rate substitution
    gamma_th = 2^R_S - 1, so equal inputs give bit-identical outputs.
    """
    _check_threshold(gamma_th)
    mix = mixture_from_model(interference)
    return _outage_core(desired, mix, gamma_th, gamma_th + 1.0)


# ---------------------------------------------------------------------------
# capacity with side information at TX and RX
# ---------------------------------------------------------------------------

def solve_cutoff(channel: FadingModel) -> float:
    """Cutoff SNR of the water-filling power constraint,

        int_g0^inf (1/g0 - 1/g) f(g) dg = 1.

    Over the mixture f = sum_n w_n Gamma(mu+n, rate c) of
    fading._gamma_mixture, with y = c g0, the left side is

        sum_n w_n [Q(mu+n, y) / g0 - c Gamma(mu+n-1, y) / Gamma(mu+n)],

    the gamma-mixture kernel at k = 0 (the tail T = Pr{gamma > g0}) and at
    k = -1.  The residual r(g0) = T / g0 - inv_mean - 1 has the derivative
    r'(g0) = -T / g0^2, the k = 0 sum it already holds.  In u = log g0,
    dr/du = -T / g0 and d2r/du2 = f(g0) + T / g0 > 0: r is convex and
    decreasing in u, and its root lies in (0, 1], since r(1) <= 0.

    The solve starts at the fixed-power cutoff g0 = mean / (1 + mean), the
    root of 1/g0 - 1/mean = 1, and takes Halley steps in u: with Newton's
    step du_N = r g0 / T and c = (1 + f(g0) g0 / T) / 2, the curvature's
    share, the step is du = du_N / (1 - c du_N), f from fading.pdf.  Where c
    is not finite or |c du_N| >= 1/2, the step is Newton's (c = 0).  du_N is
    formed from the log of the tail, which underflows at low mean SNR, and a
    step below -log 4 is replaced by g0 / 4.  The solve ends without a
    confirming evaluation: once the residual is within _CUTOFF_RESIDUAL and
    c du^2, the size of the step's curvature term, is within 2^-53, it
    returns g0 e^du, which is then within rounding of the root relative to
    it (where c = 0, |du| <= |r| / (1 + inv_mean) <= 1e-10 makes Newton's
    own error c du^2 negligible); a last step past 1 is rounding, and 1 is
    returned.  Each g0 is evaluated once, with two kernel calls; 2 to 6
    evaluations on the cutoff grid of 11 families from -30 to 50 dB (at most
    4 from 0 to 20 dB).

    Raises AccuracyError when a residual is not finite, when any other step
    passes 1 (no root in (0, 1]), or after _CUTOFF_ITERATIONS evaluations;
    the kernel's and the density's DomainError and AccuracyError pass
    through."""
    lam, m, mu, rate = _gamma_mixture(channel)
    g0 = channel.mean_snr / (1.0 + channel.mean_snr)
    for _ in range(_CUTOFF_ITERATIONS):
        y = rate * g0
        log_tail = _log_mixture_sum(lam, m, mu, 0, 0.0, y, True)
        inv_mean = rate * math.exp(_log_mixture_sum(lam, m, mu, -1, 0.0, y, True))
        tail = math.exp(log_tail)
        r = tail / g0 - inv_mean - 1.0
        if not math.isfinite(r):
            raise AccuracyError(f"cutoff residual {r} at {g0}")
        # Newton step in log g0, -r / (dr/du) = r g0 / tail = sign(r) exp(log_du);
        # below the root r < tail / g0, so a rising step is under 1
        log_du = math.log(abs(r)) + math.log(g0) - log_tail if r else -math.inf
        if r < 0.0 and log_du >= _LOG_LOG_4:  # the step would shrink g0 more than 4-fold
            g0 *= 0.25
            continue
        du = math.copysign(math.exp(log_du), r)
        # tail > 0: where it underflows, log_du >= 0.69 and the quarter step is taken
        c = 0.5 + 0.5 * pdf(channel, g0) * g0 / tail
        if not (math.isfinite(c) and abs(c * du) < 0.5):
            c = 0.0
        du /= 1.0 - c * du
        g0 *= math.exp(du)
        if abs(r) <= _CUTOFF_RESIDUAL and c * du * du <= 0.5 * _EPS:  # 2^-53
            return min(g0, 1.0)  # past 1 only by rounding, at a mean SNR near 150 dB
        if g0 > 1.0:
            raise AccuracyError(f"cutoff iterate {g0} > 1: no root in (0, 1]")
    raise AccuracyError(f"cutoff iteration did not converge in "
                        f"{_CUTOFF_ITERATIONS} steps (last g0 = {g0})")


def _cutoff(scenario: CapacityScenario) -> float:
    if scenario.cutoff_snr is not None:
        return scenario.cutoff_snr
    return solve_cutoff(scenario.channel)


def _capacity_base(mu: float, y: float) -> float:
    """J(mu, y) = int_y^inf Q(mu, t) / t dt, the integral of ln(t/y) against the
    unit-rate Gamma(mu) density over t > y.

    J(p+1, y) = J(p, y) + Q(p, y) / p steps it down to the order
    p0 = mu - ceil(mu) + 1 in (0, 1].  J(1, y) = E1(y); for p0 < 1 the base is
    one smooth quadrature of Q(p0, y e^v) over v, cut where Q has fallen by
    e^-50."""
    steps = math.ceil(mu) - 1
    p0 = mu - steps
    p = p0 + np.arange(steps)
    head = float(np.sum(special.gammaincc(p, y) / p))
    if p0 == 1.0:
        return float(special.exp1(y)) + head
    base, _ = integrate.quad(lambda v: special.gammaincc(p0, y * math.exp(v)),
                             0.0, math.log1p(50.0 / y), epsabs=0.0, epsrel=1e-12,
                             limit=200)
    return base + head


def capacity_side_info(scenario: CapacityScenario) -> float:
    """Ergodic capacity (bits/s/Hz, unit bandwidth) with optimal rate and
    power adaptation.  The paper writes it through the exponential-integral
    transform of the upper IMGF,

        C = (1/ln 2) int_0^inf Ei(-x) e^x Psi(x, g0) dx,
        Psi = M_u(-x/g0, g0) - (1/g0) dM_u/ds |_(s=-x/g0, z=g0),

    which is (1/ln 2) int_g0^inf ln(g/g0) f(g) dg.  Over the mixture
    f = sum_n w_n Gamma(mu+n, rate c) of fading._gamma_mixture, with
    y = c g0 and J(p, y) = int_y^inf Q(p, t) / t dt, the recurrence
    J(p+1, y) = J(p, y) + Q(p, y) / p turns it into

        C ln 2 = J(mu, y) + sum_j S_j Q(mu+j, y) / (mu+j),

    S_j = sum_{n>j} w_n the weights' survival function: one gamma-mixture
    kernel sum (survival weights, order mu+1, k = -1) plus the base J(mu, y).
    Agrees with the direct log-quadrature route (capacity_direct)."""
    lam, m, mu, rate = _gamma_mixture(scenario.channel)
    y = rate * _cutoff(scenario)
    series = _log_mixture_sum(lam, m, mu + 1.0, -1, 0.0, y, True, survival=True)
    return (_capacity_base(mu, y) + math.exp(series)) / math.log(2.0)


def capacity_direct(scenario: CapacityScenario) -> float:
    """Same capacity by direct quadrature of log2(g / g0) f(g) over the tail;
    the independent cross-check route.  The tail is split at the decades
    1e-7 mean, ..., 1e3 mean above g0, so that no adaptive quad spans
    decades of mass it cannot see: from g0 = 1 at a high mean SNR (at 50 dB
    one quad over [g0, inf) was off by up to the whole value), and past
    10 mean at a low one, where g0 is several means and a heavily shadowed
    tail reaches hundreds (splits only at 10 mean and at the decades 1, 10,
    ... gave 7.51e-5 for 4.6457e-4 at kappa-mu shadowed (10, 6, 0.5), -45 dB)."""
    model = scenario.channel
    g0 = _cutoff(scenario)
    cuts = (model.mean_snr * 10.0 ** e for e in range(-7, 4))
    edges = [g0] + sorted(c for c in cuts if c > g0) + [np.inf]
    val = sum(integrate.quad(lambda g: math.log(g / g0) * pdf(model, g), lo, hi,
                             epsabs=1e-13, epsrel=1e-11, limit=400)[0]
              for lo, hi in zip(edges, edges[1:]))
    return val / math.log(2.0)


# ---------------------------------------------------------------------------
# adaptive modulation
# ---------------------------------------------------------------------------

def aber_adaptive(channel: FadingModel, scheme: AdaptiveModScheme) -> float:
    """Average BER of constellation-switching M-QAM under the exponential
    instantaneous-BER approximation 0.2 exp(-1.5 g / (2^k - 1)).

    Each region contributes the increment of the IMGF over its SNR span; the
    denominator is the bit-weighted occupation probability (the average
    spectral efficiency).  A region starting below the median takes both
    increments from lower IMGFs, one starting above it from upper IMGFs, so
    neither is a difference of two nearly equal numbers.  Result lies in
    [0, 0.2].
    """
    th = scheme.thresholds
    bits = scheme.bits_per_region
    edges = list(th) + [math.inf]
    num = 0.0
    den = 0.0

    # neighbouring regions share a threshold, and with it the IMGFs at s = 0
    lower = functools.cache(lambda s, z: imgf_lower(channel, s, z))
    upper = functools.cache(lambda s, z: imgf_upper(channel, s, z))

    for j, k in enumerate(bits):
        lo, hi = edges[j], edges[j + 1]
        s_j = -1.5 / (2.0 ** k - 1.0)
        f_lo = lower(0.0, lo)
        if f_lo < 0.5:
            num += k * (lower(s_j, hi) - lower(s_j, lo))
            den += k * (lower(0.0, hi) - f_lo)
        else:
            num += k * (upper(s_j, lo) - upper(s_j, hi))
            den += k * (upper(0.0, lo) - upper(0.0, hi))
    if den <= 0.0:
        raise DomainError("no probability mass falls in any transmission region")
    val = 0.2 * num / den
    if not -1e-10 <= val <= 0.2 + 1e-10:
        raise AccuracyError(f"adaptive-modulation BER left [0, 0.2]: {val}")
    return min(max(val, 0.0), 0.2)
