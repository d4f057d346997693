"""Numerical inverse Laplace transforms on the fixed Talbot contour.

The main consumer is the generic lower-IMGF route: for a nonnegative random
variable with Laplace transform L(p) = E[exp(-p X)], the truncated transform
int_0^zeta exp(s x) f(x) dx is the inverse Laplace transform of L(p - s) / p
evaluated at t = zeta.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import AccuracyError, DomainError

__all__ = [
    "LaplaceImage",
    "InversionConfig",
    "InversionResult",
    "invert",
    "imgf_lower_numeric",
]


@dataclass(frozen=True)
class LaplaceImage:
    """A Laplace-domain function H(p), declared analytic for Re(p) > abscissa.

    The evaluator must accept complex arguments (and mpmath complex numbers
    when extended-precision inversion is requested) and must be reentrant.
    Analyticity is the caller's promise; it is only spot-checked numerically.
    """

    evaluator: Callable
    abscissa: float = 0.0


# invert raises when its two node counts disagree by over 10x this, relative
_TARGET_REL_TOL = 1e-8


@dataclass(frozen=True)
class InversionConfig:
    node_count: int = 48
    dps: int | None = None          # mpmath working digits; None = float64

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")


@dataclass(frozen=True)
class InversionResult:
    value: float
    error_estimate: float


def _talbot(h, t: float, nodes: int) -> float:
    # Fixed Talbot contour (Abate & Valko): p = (r/t) theta (cot theta + i),
    # r = 2*nodes/5.  Float64 accuracy saturates near node_count ~ 48 because
    # the exp(r) contour weight amplifies roundoff.
    r = 0.4 * nodes
    acc = 0.5 * math.exp(r) * h(complex(r / t, 0.0)).real
    for k in range(1, nodes):
        theta = math.pi * k / nodes
        cot = 1.0 / math.tan(theta)
        p = (r / t) * theta * complex(cot, 1.0)
        w = cmath.exp(t * p) * complex(1.0, theta * (1.0 + cot * cot) - cot)
        acc += (w * h(p)).real
    return (2.0 / (5.0 * t)) * acc


@functools.lru_cache(maxsize=16)
def _talbot_mp_contour(nodes: int, dps: int) -> tuple:
    """Nodes u_k = t p_k and weights of the fixed Talbot contour at dps digits:
    u_k = r theta_k (cot theta_k + i), w_k = exp(u_k) (1 + i(theta_k (1 +
    cot^2 theta_k) - cot theta_k)), and u_0 = r, w_0 = exp(r) / 2.  Neither
    depends on t."""
    from mpmath import mp

    with mp.workdps(dps):
        r = mp.mpf(2 * nodes) / 5
        out = [(mp.mpc(r), mp.exp(r) / 2)]
        for k in range(1, nodes):
            theta = mp.pi * k / nodes
            cot = mp.cot(theta)
            u = r * theta * mp.mpc(cot, 1)
            out.append((u, mp.exp(u) * mp.mpc(1, theta * (1 + cot * cot) - cot)))
        return tuple(out)


def _talbot_mp(h, t: float, nodes: int, dps: int):
    from mpmath import mp

    contour = _talbot_mp_contour(nodes, dps)
    with mp.workdps(dps):
        tt = mp.mpf(t)
        acc = mp.mpf(0)
        for u, w in contour:
            acc += (w * h(u / tt)).real
        return float(2 * acc / (5 * tt))


def _run(h, t: float, cfg: InversionConfig, nodes: int) -> float:
    if cfg.dps is not None:
        return _talbot_mp(h, t, nodes, cfg.dps)
    return _talbot(h, t, nodes)


def invert(image: LaplaceImage, t: float, cfg: InversionConfig = InversionConfig()) -> InversionResult:
    """Invert a Laplace image at t > 0, with a node-refinement error estimate.

    The image is evaluated at two node counts; their disagreement is reported
    as the error estimate.  A disagreement far beyond _TARGET_REL_TOL is
    treated as oscillatory divergence and raised, never returned silently.
    Deterministic for a fixed configuration.
    """
    if not (t > 0 and math.isfinite(t)):
        raise DomainError(f"inversion requires finite t > 0, got t={t}")
    if not math.isfinite(image.abscissa):
        raise DomainError("image abscissa must be finite")

    sigma = max(image.abscissa, 0.0)
    if sigma > 0.0:
        base = image.evaluator
        h = lambda p: base(p + sigma)  # noqa: E731
    else:
        h = image.evaluator

    n2 = cfg.node_count
    if cfg.dps is None:
        # float64 contour sums lose digits as node counts grow (the exp(r)
        # weight amplifies roundoff), so the companion run uses fewer nodes
        n1 = max(8, n2 - max(8, n2 // 4))
    else:
        n1 = n2 + max(8, n2 // 3)
    v1 = _run(h, t, cfg, n1)
    v2 = _run(h, t, cfg, n2)
    if sigma > 0.0:
        shift = math.exp(sigma * t)
        v1 *= shift
        v2 *= shift
    err = abs(v2 - v1)

    scale = max(abs(v1), abs(v2))
    floor = 1e-13 if cfg.dps is None else 10.0 ** (8 - cfg.dps)
    if err > max(10.0 * _TARGET_REL_TOL * scale, floor):
        raise AccuracyError(
            f"inverse Laplace transform did not stabilize at t={t}: "
            f"{v1!r} with {n1} nodes vs {v2!r} with {n2} nodes"
        )
    return InversionResult(value=v2, error_estimate=err)


def imgf_lower_numeric(pdf_image: LaplaceImage, s: float, zeta: float,
                       cfg: InversionConfig = InversionConfig()) -> float:
    """Lower IMGF of a nonnegative variable from its Laplace transform.

    ``pdf_image`` is the Laplace transform L(p) = E[exp(-p X)] of the density,
    with its abscissa of convergence.  Contract: s must lie strictly below the
    smallest real singularity of the MGF, i.e. s + pdf_image.abscissa < 0.
    """
    if zeta < 0:
        raise DomainError("zeta must be nonnegative")
    if zeta == 0.0:
        return 0.0
    if s + pdf_image.abscissa >= 0:
        raise DomainError(
            f"s={s} is not strictly below the MGF singularity at {-pdf_image.abscissa}"
        )
    ev = pdf_image.evaluator
    shifted = LaplaceImage(evaluator=lambda p: ev(p - s) / p, abscissa=0.0)
    value = invert(shifted, zeta, cfg).value
    # the target integral lies in [0, M(s)]; keep inversion noise inside it
    mgf_value = float(abs(ev(complex(-s, 0.0))))
    return min(max(value, 0.0), mgf_value)
