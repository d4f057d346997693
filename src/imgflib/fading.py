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
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np
from scipy import special as sp

from .errors import AccuracyError, DomainError
from .laplace import LaplaceImage
from .specfun import _Trials, _log_hyp1f1_pos, _log_mixture_sum

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
    """10^(x_db/10); DomainError where it passes the double range."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise DomainError(f"{x_db} dB is past the double range") from None


def linear_to_db(x: float) -> float:
    """10 log10(x) of a positive x; DomainError otherwise, NaN too."""
    if not x > 0:
        raise DomainError(f"only a positive value has a dB value, got {x}")
    return 10.0 * math.log10(x)


def _eta_mu(eta, mu):
    """Canonical (kappa, mu, m) of the format-1 eta-mu law, which is invariant
    under swapping the in-phase and quadrature powers: eta -> 1/eta."""
    if eta > 1.0:
        eta = 1.0 / eta
    return (1.0 - eta) / (2.0 * eta), 2.0 * mu, mu


# each model field: its range check, written so that NaN fails it, given the
# value and the kind, and the DomainError words for a value that fails it
_FIELDS = {
    "kappa": (lambda v, kind: 0 <= v < math.inf, "kappa must be nonnegative and finite"),
    "mu": (lambda v, kind: 0 < v < math.inf, "mu must be positive and finite"),
    "m": (lambda v, kind: 0 < v < math.inf or (v == math.inf and kind is not Kind.NAKAGAMI_M),
          "m must be positive and finite (inf only as the unshadowed limit of a shadowed law)"),
    "eta": (lambda v, kind: 0 < v < math.inf, "eta must be positive and finite (format 1)"),
    "K": (lambda v, kind: 0 <= v < math.inf, "K must be nonnegative and finite"),
    "q": (lambda v, kind: 0 < v <= 1, "Hoyt q must lie in (0, 1]"),
}


def _check_field(name: str, value: float, kind: Kind) -> float:
    ok, words = _FIELDS[name]
    if not ok(value, kind):
        raise DomainError(f"{words}, got {value}")
    return value


# each kind: its fields, and the function of them that gives its canonical
# kappa-mu shadowed (kappa, mu, m), m = inf marking an unshadowed law (None:
# the model is its own canonical form)
_KINDS = {
    Kind.KAPPA_MU_SHADOWED: (("kappa", "mu", "m"), None),
    Kind.RICIAN_SHADOWED: (("K", "m"), lambda K, m: (K, 1.0, m)),
    Kind.KAPPA_MU: (("kappa", "mu"), lambda kappa, mu: (kappa, mu, math.inf)),
    Kind.ETA_MU: (("eta", "mu"), _eta_mu),
    Kind.RICIAN: (("K",), lambda K: (K, 1.0, math.inf)),
    Kind.NAKAGAMI_M: (("m",), lambda m: (0.0, m, math.inf)),
    # q ** 2 underflows to 0 below q = 2e-162, and the eta check rejects it
    Kind.HOYT: (("q",), lambda q: _eta_mu(_check_field("eta", q ** 2, Kind.ETA_MU), 0.5)),
    Kind.RAYLEIGH: ((), lambda: (0.0, 1.0, math.inf)),
    Kind.ONE_SIDED_GAUSSIAN: ((), lambda: (0.0, 0.5, math.inf)),
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
        if not 0 < self.mean_snr < math.inf:  # a NaN fails it too
            raise DomainError(f"mean_snr must be positive and finite, got {self.mean_snr}")
        required = _KINDS[kind][0]
        for name in required:
            if getattr(self, name) is None:
                raise DomainError(f"{kind.value} model requires parameter {name!r}")
        for name in _FIELDS:
            if name not in required and getattr(self, name) is not None:
                raise DomainError(f"parameter {name!r} is not meaningful for {kind.value}")
        for name in required:
            _check_field(name, getattr(self, name), kind)

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
    fields, canonical = _KINDS[model.kind]
    if canonical is None:
        return model
    return FadingModel.kappa_mu_shadowed(*canonical(*(getattr(model, f) for f in fields)),
                                         model.mean_snr)


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
    (frozen, hashable) model; DomainError unless the rates a and b are
    positive and finite doubles (a subnormal mean SNR makes a infinite)."""
    c = canonicalize(model)
    kappa, mu, m, gbar = c.kappa, c.mu, c.m, c.mean_snr
    a = mu * (1.0 + kappa) / gbar
    if kappa == 0.0 or math.isinf(m):
        b = a  # gamma and unshadowed laws: the pole is the decay rate
    else:
        b = a * m / (mu * kappa + m)
    if not (0 < a < math.inf and 0 < b < math.inf):  # a NaN fails it too
        raise DomainError(f"{model.kind.value} model with canonical kappa={kappa}, mu={mu}, "
                          f"m={m}, mean_snr={gbar} has rates a={a}, b={b}; both must be "
                          f"positive and finite")
    return kappa, mu, m, gbar, a, b


# the finite form's cap on m - mu: a walk of this many terms costs about what
# the series' fixed work (peak search, tail bounds) does
_BINOMIAL_TRIALS = 64


@functools.lru_cache(maxsize=256)
def _gamma_mixture(model: FadingModel) -> tuple:
    """(lam, m, mu, c): the density as the gamma-mixture kernel's weights
    (specfun._log_mixture_sum's lam, m, mu) over the laws Gamma(mu+n, rate c).

    When kappa > 0, m is finite and N = m - mu is an exact integer in
    [0, _BINOMIAL_TRIALS), the MGF ((a-s)/a)^N (b/(b-s))^m is
    (b/(b-s))^mu (1 - p + p b/(b-s))^N, p = kappa mu/(kappa mu + m): the
    N + 1 laws Gamma(mu+n, rate b) with Binomial(N, p) weights
    (Lopez-Martinez, Paris and Romero-Jerez, "The kappa-mu shadowed fading
    model with integer fading parameters", IEEE TVT 2017), passed as lam =
    specfun._Trials(N, kappa mu/m) and m = None: from the odds p/(1-p) =
    kappa mu/m the kernel forms p and 1 - p without cancellation.
    Otherwise negative binomial (finite m), Poisson (m = inf) or unit-mass
    (kappa = 0) weights with mean kappa mu over Gamma(mu+n, rate a).
    The finite form converges for s < b only; a lower tail at b <= s < a
    takes the series at rate a."""
    kappa, mu, m, gbar, a, b = _canonical_params(model)
    trials = m - mu
    if kappa > 0.0 and 0.0 <= trials < _BINOMIAL_TRIALS and float(trials).is_integer():
        return _Trials(int(trials), kappa * mu / m), None, mu, b
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
        if iv >= sys.float_info.min:
            log_f = (math.log(a) - kappa * mu - a * x + w
                     + 0.5 * (mu - 1.0) * math.log(a * x / (kappa * mu))
                     + math.log(float(iv)))
        else:
            # ive underflows (order mu - 1 > 0 at a small w): log I_nu(w) is
            # nu log(w/2) - lgamma(nu+1) - w + log 1F1(nu+1/2; 2nu+1; 2w) (DLMF
            # 10.39.5), and (a x/(kappa mu))^(nu/2) (w/2)^nu is (a x)^nu
            log_f = (math.log(a) - kappa * mu - a * x
                     + (mu - 1.0) * (math.log(a) + math.log(x)) - math.lgamma(mu) - w
                     + _log_hyp1f1_pos(mu - 0.5, 2.0 * mu - 1.0, 2.0 * w))
        return math.exp(log_f)
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
    for name in _FIELDS:
        if name in obj and obj[name] is not None:
            kwargs[name] = _config_number(obj[name], name)
    unknown = set(obj) - {"kind", "mean_snr_db", "mean_snr", *_FIELDS}
    if unknown:
        raise DomainError(f"unknown model fields: {sorted(unknown)}")
    return FadingModel(kind, snr, **kwargs)


def model_to_json(model: FadingModel) -> dict:
    out = {"kind": model.kind.value, "mean_snr_db": linear_to_db(model.mean_snr)}
    for name in _FIELDS:
        value = getattr(model, name)
        if value is not None:
            out[name] = value
    return out
