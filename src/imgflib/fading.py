"""The kappa-mu shadowed SNR distribution family and its special cases.

Every supported model canonicalizes to a kappa-mu shadowed parameter set
(kappa, mu, m, mean_snr), where m = inf marks the unshadowed limit and
kappa = 0 collapses to a gamma (Nakagami-m power) law.  PDFs, CDFs, MGFs,
pole locations and a reproducible sampler all operate on the canonical form.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, DomainError
from .laplace import LaplaceImage
from .specfun import _log_hyp1f1_pos, _log_mixture_sum

__all__ = [
    "Kind",
    "FadingModel",
    "canonicalize",
    "mrc_combine",
    "smallest_pole",
    "mgf",
    "pdf",
    "cdf",
    "cdf_grid",
    "sample",
    "laplace_image",
    "model_from_json",
    "model_to_json",
    "db_to_linear",
    "linear_to_db",
]


class Kind(str, Enum):
    KAPPA_MU_SHADOWED = "kappa-mu-shadowed"
    RICIAN_SHADOWED = "rician-shadowed"
    KAPPA_MU = "kappa-mu"
    ETA_MU = "eta-mu"
    RICIAN = "rician"
    NAKAGAMI_M = "nakagami-m"
    HOYT = "hoyt"
    RAYLEIGH = "rayleigh"
    ONE_SIDED_GAUSSIAN = "one-sided-gaussian"


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


_REQUIRED_FIELDS = {
    Kind.KAPPA_MU_SHADOWED: ("kappa", "mu", "m"),
    Kind.RICIAN_SHADOWED: ("K", "m"),
    Kind.KAPPA_MU: ("kappa", "mu"),
    Kind.ETA_MU: ("eta", "mu"),
    Kind.RICIAN: ("K",),
    Kind.NAKAGAMI_M: ("m",),
    Kind.HOYT: ("q",),
    Kind.RAYLEIGH: (),
    Kind.ONE_SIDED_GAUSSIAN: (),
}


@dataclass(frozen=True)
class FadingModel:
    """One distribution of the kappa-mu shadowed family with a mean SNR.

    Only the parameters meaningful for ``kind`` may be set.  mean_snr is in
    linear SNR units; dB conversion happens at the interface boundary only.
    """

    kind: Kind
    mean_snr: float
    kappa: float | None = None
    mu: float | None = None
    m: float | None = None
    eta: float | None = None
    K: float | None = None
    q: float | None = None

    def __post_init__(self):
        kind = Kind(self.kind)
        object.__setattr__(self, "kind", kind)
        # every range check below is written so that NaN fails it
        if not 0 < self.mean_snr < math.inf:
            raise DomainError(f"mean_snr must be positive and finite, got {self.mean_snr}")
        required = _REQUIRED_FIELDS[kind]
        for name in required:
            if getattr(self, name) is None:
                raise DomainError(f"{kind.value} model requires parameter {name!r}")
        for name in ("kappa", "mu", "m", "eta", "K", "q"):
            if name not in required and getattr(self, name) is not None:
                raise DomainError(f"parameter {name!r} is not meaningful for {kind.value}")
        if self.kappa is not None and not 0 <= self.kappa < math.inf:
            raise DomainError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if self.K is not None and not 0 <= self.K < math.inf:
            raise DomainError(f"K must be nonnegative and finite, got {self.K}")
        if self.mu is not None and not 0 < self.mu < math.inf:
            raise DomainError(f"mu must be positive and finite, got {self.mu}")
        if self.m is not None and not (0 < self.m < math.inf or (
                self.m == math.inf and kind is not Kind.NAKAGAMI_M)):
            raise DomainError(f"m must be positive and finite (inf only as the unshadowed "
                              f"limit of a shadowed law), got {self.m}")
        if self.eta is not None and not 0 < self.eta < math.inf:
            raise DomainError(f"eta must be positive and finite (format 1), got {self.eta}")
        if self.q is not None and not 0 < self.q <= 1:
            raise DomainError(f"Hoyt q must lie in (0, 1], got {self.q}")

    # convenience constructors -------------------------------------------------
    @classmethod
    def kappa_mu_shadowed(cls, kappa, mu, m, mean_snr):
        return cls(Kind.KAPPA_MU_SHADOWED, mean_snr, kappa=kappa, mu=mu, m=m)

    @classmethod
    def rician_shadowed(cls, K, m, mean_snr):
        return cls(Kind.RICIAN_SHADOWED, mean_snr, K=K, m=m)

    @classmethod
    def kappa_mu(cls, kappa, mu, mean_snr):
        return cls(Kind.KAPPA_MU, mean_snr, kappa=kappa, mu=mu)

    @classmethod
    def eta_mu(cls, eta, mu, mean_snr):
        return cls(Kind.ETA_MU, mean_snr, eta=eta, mu=mu)

    @classmethod
    def rician(cls, K, mean_snr):
        return cls(Kind.RICIAN, mean_snr, K=K)

    @classmethod
    def nakagami(cls, m, mean_snr):
        return cls(Kind.NAKAGAMI_M, mean_snr, m=m)

    @classmethod
    def hoyt(cls, q, mean_snr):
        return cls(Kind.HOYT, mean_snr, q=q)

    @classmethod
    def rayleigh(cls, mean_snr):
        return cls(Kind.RAYLEIGH, mean_snr)

    @classmethod
    def one_sided_gaussian(cls, mean_snr):
        return cls(Kind.ONE_SIDED_GAUSSIAN, mean_snr)


def canonicalize(model: FadingModel) -> FadingModel:
    """Equivalent kappa-mu shadowed parameterization (m = inf for unshadowed
    LOS; kappa = 0 for the gamma/Nakagami degeneracies).  Idempotent and
    mean-SNR preserving."""
    k = model.kind
    snr = model.mean_snr
    if k is Kind.KAPPA_MU_SHADOWED:
        return model
    if k is Kind.RICIAN_SHADOWED:
        return FadingModel.kappa_mu_shadowed(model.K, 1.0, model.m, snr)
    if k is Kind.KAPPA_MU:
        return FadingModel.kappa_mu_shadowed(model.kappa, model.mu, math.inf, snr)
    if k is Kind.ETA_MU:
        eta = model.eta
        if eta > 1.0:
            # format-1 law is invariant under swapping in-phase/quadrature powers
            eta = 1.0 / eta
        kappa = (1.0 - eta) / (2.0 * eta)
        return FadingModel.kappa_mu_shadowed(kappa, 2.0 * model.mu, model.mu, snr)
    if k is Kind.RICIAN:
        return FadingModel.kappa_mu_shadowed(model.K, 1.0, math.inf, snr)
    if k is Kind.NAKAGAMI_M:
        return FadingModel.kappa_mu_shadowed(0.0, model.m, math.inf, snr)
    if k is Kind.HOYT:
        return canonicalize(FadingModel.eta_mu(model.q ** 2, 0.5, snr))
    if k is Kind.RAYLEIGH:
        return FadingModel.kappa_mu_shadowed(0.0, 1.0, math.inf, snr)
    if k is Kind.ONE_SIDED_GAUSSIAN:
        return FadingModel.kappa_mu_shadowed(0.0, 0.5, math.inf, snr)
    raise DomainError(f"unhandled kind {k}")


def mrc_combine(model: FadingModel, n_branches: int) -> FadingModel:
    """Distribution of the maximal-ratio-combined SNR of n i.i.d. branches.

    The family is closed under summation of i.i.d. members: mu and m scale
    with the branch count, as does the mean SNR.
    """
    if n_branches < 1:
        raise DomainError("need at least one branch")
    if n_branches == 1:
        return model
    c = canonicalize(model)
    m_eq = c.m if math.isinf(c.m) else n_branches * c.m
    return FadingModel.kappa_mu_shadowed(c.kappa, n_branches * c.mu, m_eq,
                                         n_branches * c.mean_snr)


@functools.lru_cache(maxsize=256)
def _canonical_params(model: FadingModel):
    """(kappa, mu, m, mean_snr, a, b) of the canonical form, computed once per
    (frozen, hashable) model."""
    c = canonicalize(model)
    kappa, mu, m, gbar = c.kappa, c.mu, c.m, c.mean_snr
    a = mu * (1.0 + kappa) / gbar
    if kappa == 0.0 or math.isinf(m):
        b = a  # gamma and unshadowed laws: the pole is the decay rate
    else:
        b = a * m / (mu * kappa + m)
    return kappa, mu, m, gbar, a, b


# the finite form's cap on m - mu: a walk of this many terms costs about what
# the series' fixed work (peak search, tail bounds) does
_BINOMIAL_TRIALS = 64


@functools.lru_cache(maxsize=256)
def _gamma_mixture(model: FadingModel) -> tuple[float, float, float, float]:
    """(lam, m, mu, c): the density as the gamma-mixture kernel's weights
    (specfun._log_mixture_sum's lam, m, mu) over the laws Gamma(mu+n, rate c).

    When kappa > 0, m is finite and N = m - mu is an exact integer in
    [0, _BINOMIAL_TRIALS), the MGF ((a-s)/a)^N (b/(b-s))^m is
    (b/(b-s))^mu (1 - p + p b/(b-s))^N, p = kappa mu/(kappa mu + m): the
    N + 1 laws Gamma(mu+n, rate b) with Binomial(N, p) weights, passed as
    lam = N p and m = -N (Lopez-Martinez, Paris and Romero-Jerez, "The
    kappa-mu shadowed fading model with integer fading parameters", IEEE
    TVT 2017).  Otherwise negative binomial (finite m), Poisson (m = inf) or
    unit-mass (kappa = 0) weights with mean kappa mu over Gamma(mu+n, rate a).
    The finite form converges for s < b only; a lower tail at b <= s < a
    takes the series at rate a."""
    kappa, mu, m, gbar, a, b = _canonical_params(model)
    trials = m - mu
    if kappa > 0.0 and 0.0 <= trials < _BINOMIAL_TRIALS and float(trials).is_integer():
        return trials * (kappa * mu / (kappa * mu + m)), -trials, mu, b
    return kappa * mu, m, mu, a


def smallest_pole(model: FadingModel) -> float:
    """Smallest real singularity of the MGF; M(s) is finite for s < pole."""
    return _canonical_params(model)[5]


def mgf(model: FadingModel, s):
    """MGF E[exp(s * gamma)].  Real s must satisfy s < smallest_pole(model);
    complex, mpmath and complex-ndarray arguments are evaluated on the
    principal branch (an array elementwise, into an array)."""
    if isinstance(s, np.ndarray) and s.dtype.kind == "c":
        return np.exp(_log_mgf(model, s, np.log))
    if isinstance(s, complex):
        return cmath.exp(_log_mgf(model, s, cmath.log))
    if type(s).__module__.split(".")[0] == "mpmath":
        from mpmath import mp
        return mp.exp(_log_mgf(model, s, mp.log))
    s = float(s)
    return _from_log(_log_mgf(model, s), "MGF overflows at s={}, below the pole {}",
                     s, smallest_pole(model))


def _log_mgf(model: FadingModel, s, log=math.log):
    """log M(s), with the principal-branch log of s's type; a real s must lie
    below the MGF pole b (DomainError otherwise, NaN too), and its log is
    finite also where M(s) itself overflows a float."""
    kappa, mu, m, gbar, a, b = _canonical_params(model)
    if log is math.log:
        if not s < b:
            raise DomainError(f"MGF pole: s={s} >= {b}")
        if s == -math.inf:
            return -math.inf  # no atom at 0: M(s) -> 0
    if kappa == 0.0:
        return -mu * log((a - s) / a)
    if math.isinf(m):
        return mu * log(a / (a - s)) + kappa * mu * s / (a - s)
    # amplitude folded in log space; (a-s), (b-s) are positive for real s
    return (m - mu) * log((a - s) / a) - m * log((b - s) / b)


def _from_log(log_value: float, message: str, *args) -> float:
    """exp(log_value), or AccuracyError(message.format(*args)) past the double range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise AccuracyError(message.format(*args)) from None


def laplace_image(model: FadingModel) -> LaplaceImage:
    """Laplace transform of the SNR density, L(p) = E[exp(-p gamma)],
    packaged with its abscissa of convergence (-smallest pole); it maps a
    complex ndarray elementwise, as the float64 inversion calls it."""
    return LaplaceImage(evaluator=lambda p: mgf(model, -p),
                        abscissa=-smallest_pole(model))


# ---------------------------------------------------------------------------
# densities and distribution functions
# ---------------------------------------------------------------------------

def pdf(model: FadingModel, x: float) -> float:
    """SNR density at x >= 0; 0 at x = inf."""
    if not x >= 0:  # a NaN fails it too
        raise DomainError(f"SNR support is [0, inf), got x={x}")
    if x == math.inf:
        return 0.0
    kappa, mu, m, gbar, a, b = _canonical_params(model)
    if x == 0.0:
        if mu < 1.0:
            return math.inf
        if mu == 1.0:
            return pdf(model, 1e-300)  # finite positive intercept
        return 0.0
    if kappa == 0.0:
        return math.exp(mu * math.log(a) + (mu - 1.0) * math.log(x) - a * x
                        - math.lgamma(mu))
    if math.isinf(m):
        # noncentral chi-square in disguise; scaled Bessel keeps the tail exact
        w = 2.0 * math.sqrt(kappa * mu * a * x)
        iv = sp.ive(mu - 1.0, w)
        if iv > 0.0:
            log_f = (math.log(a) - kappa * mu - a * x + w
                     + 0.5 * (mu - 1.0) * math.log(a * x / (kappa * mu))
                     + math.log(float(iv)))
            return math.exp(log_f)
        return 0.0
    # m log(m / (mu kappa + m)) and the 1F1 argument (a - b) x, both without
    # the cancellation their plain forms suffer at large m
    log_amp = (mu * math.log(mu) + mu * math.log1p(kappa) - mu * math.log(gbar)
               - m * math.log1p(mu * kappa / m))
    log_f = (log_amp - math.lgamma(mu) + (mu - 1.0) * math.log(x) - a * x
             + _log_hyp1f1_pos(m, mu, a * mu * kappa / (mu * kappa + m) * x))
    return math.exp(log_f)


def cdf(model: FadingModel, x: float) -> float:
    """Distribution function; evaluated as the lower IMGF at s = 0."""
    from .incomplete import imgf_lower

    if not x >= 0:  # a NaN fails it too
        raise DomainError(f"SNR support is [0, inf), got x={x}")
    return imgf_lower(model, 0.0, x)


def cdf_grid(model: FadingModel, xs) -> np.ndarray:
    """Vectorized CDF over an array of points (relative accuracy ~1e-12):
    one batched gamma-mixture sum over the model's mixture at its rate c
    (_gamma_mixture), sum_n w_n P(mu+n, c x), per chunk of 2^15 points,
    which bounds the memory a million-point Kolmogorov-Smirnov check takes."""
    lam, m, mu, rate = _gamma_mixture(model)
    xs = np.asarray(xs, dtype=float)
    if not np.all(xs >= 0):
        raise DomainError("SNR support is [0, inf)")
    flat = rate * xs.reshape(-1)
    out = np.zeros(flat.size)
    live = np.flatnonzero(flat)  # F(0) = 0
    for lo in range(0, live.size, 1 << 15):
        idx = live[lo:lo + (1 << 15)]
        out[idx] = np.exp(_log_mixture_sum(lam, m, mu, 0, 0.0, flat[idx], False))
    return out.reshape(xs.shape)


def sample(model: FadingModel, seed, n: int) -> np.ndarray:
    """n i.i.d. SNR draws; deterministic for a given seed.

    Hierarchical construction mirroring the physical model: a unit-mean gamma
    shadowing factor modulates the LOS power of a noncentral chi-square with
    2*mu degrees of freedom.  `seed` may be an int, a SeedSequence or a
    Generator (callers doing sharded Monte Carlo pass spawned SeedSequences).
    """
    if n < 1:
        raise DomainError("need n >= 1 draws")
    kappa, mu, m, gbar, a, b = _canonical_params(model)
    if isinstance(seed, np.random.Generator):
        gen = seed
    else:
        gen = np.random.Generator(np.random.Philox(seed))
    if kappa == 0.0:
        return gbar * gen.gamma(mu, 1.0, size=n) / mu
    if math.isinf(m):
        nonc = np.full(n, 2.0 * kappa * mu)
    else:
        xi = gen.gamma(m, 1.0 / m, size=n)
        nonc = 2.0 * kappa * mu * xi
    w = gen.noncentral_chisquare(2.0 * mu, nonc, size=n)
    return gbar * w / (2.0 * mu * (1.0 + kappa))


# ---------------------------------------------------------------------------
# JSON boundary
# ---------------------------------------------------------------------------

_JSON_FIELDS = ("kappa", "mu", "m", "eta", "K", "q")


def _config_number(value, field: str, kind: type = float):
    """kind(value) for a configuration field, or DomainError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"field {field!r} must be a number, got {value!r}") from exc


def model_from_json(obj: Mapping) -> FadingModel:
    """Build a model from {"kind": ..., parameter fields..., "mean_snr_db": ...}.

    Mean SNR is given in dB (key ``mean_snr_db``); a linear ``mean_snr`` key is
    also accepted, but not both.
    """
    if "kind" not in obj:
        raise DomainError("model JSON requires a 'kind' field")
    try:
        kind = Kind(str(obj["kind"]).lower())
    except ValueError as exc:
        raise DomainError(f"unknown model kind {obj['kind']!r}") from exc
    if "mean_snr_db" in obj and "mean_snr" in obj:
        raise DomainError("give mean_snr_db or mean_snr, not both")
    if "mean_snr_db" in obj:
        snr = db_to_linear(_config_number(obj["mean_snr_db"], "mean_snr_db"))
    elif "mean_snr" in obj:
        snr = _config_number(obj["mean_snr"], "mean_snr")
    else:
        raise DomainError("model JSON requires mean_snr_db (or mean_snr)")
    kwargs = {}
    for name in _JSON_FIELDS:
        if name in obj and obj[name] is not None:
            kwargs[name] = _config_number(obj[name], name)
    unknown = set(obj) - {"kind", "mean_snr_db", "mean_snr", *_JSON_FIELDS}
    if unknown:
        raise DomainError(f"unknown model fields: {sorted(unknown)}")
    return FadingModel(kind, snr, **kwargs)


def model_to_json(model: FadingModel) -> dict:
    out = {"kind": model.kind.value, "mean_snr_db": linear_to_db(model.mean_snr)}
    for name in _JSON_FIELDS:
        value = getattr(model, name)
        if value is not None:
            out[name] = value
    return out
