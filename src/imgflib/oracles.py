"""Independent validation engines: definitional quadrature and Monte Carlo.

These routes never touch the closed forms they are used to check.  Monte
Carlo runs are sharded over counter-based (Philox) substreams spawned from a
single seed, so results are reproducible regardless of scheduling, and shard
aggregation is order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError
from .fading import FadingModel, mrc_combine, pdf, sample

__all__ = ["McConfig", "quad_imgf", "mc_opsc", "mc_aber"]

_SHARD = 1_000_000


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 1_000_000
    seed: int = 20_240_101

    def __post_init__(self):
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")


def quad_imgf(model: FadingModel, s: float, zeta: float, tail: str = "lower",
              tol: float = 1e-11) -> float:
    """Adaptive quadrature of the defining integral of the IMGF.

    Ground truth for the closed forms; globally adaptive Gauss-Kronrod with
    relative stopping, semi-infinite upper tails handled by the library's
    infinite-interval transformation.
    """
    if zeta < 0:
        raise DomainError("zeta must be nonnegative")
    if tail not in ("lower", "upper"):
        raise DomainError(f"tail must be 'lower' or 'upper', got {tail!r}")

    def f(x: float) -> float:
        # in log space: exp(s x) alone overflows for s > 0 where the density is 0
        d = pdf(model, x)
        return math.exp(s * x + math.log(d)) if d > 0.0 else 0.0

    if tail == "lower":
        if zeta == 0.0:
            return 0.0
        pts = [p for p in (model.mean_snr, 0.5 * zeta) if 0.0 < p < zeta]
        val, _ = integrate.quad(f, 0.0, zeta, epsabs=1e-300, epsrel=tol,
                                limit=500, points=sorted(set(pts)) or None)
        return val
    val, _ = integrate.quad(f, zeta, np.inf, epsabs=1e-300, epsrel=tol, limit=500)
    return val


def _shard_sizes(n: int) -> list[int]:
    out = [_SHARD] * (n // _SHARD)
    if n % _SHARD:
        out.append(n % _SHARD)
    return out


def mc_opsc(scenario, cfg: McConfig = McConfig()) -> tuple[float, float]:
    """Empirical Pr{log2((1+gamma_b)/(1+gamma_e)) <= R_S} with binomial
    standard error.  Deterministic for a fixed seed and sample count."""
    rs = scenario.rate_rs
    eve = mrc_combine(scenario.eve, scenario.n_eve_antennas)
    root = np.random.SeedSequence(cfg.seed)
    shards = _shard_sizes(cfg.n_samples)
    children = root.spawn(2 * len(shards))
    hits = 0
    for i, size in enumerate(shards):
        gb = sample(scenario.bob, children[2 * i], size)
        ge = sample(eve, children[2 * i + 1], size)
        cs = np.log2((1.0 + gb) / (1.0 + ge))
        hits += int(np.count_nonzero(cs <= rs))
    p = hits / cfg.n_samples
    se = math.sqrt(max(p * (1.0 - p), 1.0 / cfg.n_samples) / cfg.n_samples)
    return p, se


def mc_aber(channel: FadingModel, scheme, cfg: McConfig = McConfig()) -> tuple[float, float]:
    """Empirical adaptive-modulation average BER.

    Draws the SNR, picks the constellation for its fading region, applies the
    instantaneous-BER approximation 0.2 exp(-1.5 g / (2^k - 1)), and averages
    bit-weighted; below the first threshold nothing is transmitted.
    """
    thresholds = np.asarray(scheme.thresholds, dtype=float)
    bits = np.asarray(scheme.bits_per_region, dtype=float)
    root = np.random.SeedSequence(cfg.seed)
    shards = _shard_sizes(cfg.n_samples)
    children = root.spawn(len(shards))
    s_num = s_den = s_nn = s_dd = s_nd = 0.0
    for i, size in enumerate(shards):
        g = sample(channel, children[i], size)
        region = np.searchsorted(thresholds, g, side="right") - 1
        active = region >= 0
        k = bits[region[active]]
        num = np.zeros(size)
        den = np.zeros(size)
        num[active] = 0.2 * k * np.exp(-1.5 * g[active] / (2.0 ** k - 1.0))
        den[active] = k
        s_num += float(num.sum())
        s_den += float(den.sum())
        s_nn += float((num * num).sum())
        s_dd += float((den * den).sum())
        s_nd += float((num * den).sum())
    n = cfg.n_samples
    mean_num = s_num / n
    mean_den = s_den / n
    if mean_den == 0.0:
        raise DomainError("no samples fell into any transmission region")
    ratio = mean_num / mean_den
    var_num = s_nn / n - mean_num ** 2
    var_den = s_dd / n - mean_den ** 2
    cov = s_nd / n - mean_num * mean_den
    var_ratio = (var_num - 2.0 * ratio * cov + ratio ** 2 * var_den) / (n * mean_den ** 2)
    return ratio, math.sqrt(max(var_ratio, 0.0))
