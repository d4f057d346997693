"""Numerical inverse Laplace transforms on the fixed Talbot contour.

The main consumer is the generic lower-IMGF route: for a nonnegative random
variable with Laplace transform L(p) = E[exp(-p X)], the truncated transform
int_0^zeta exp(s x) f(x) dx is the inverse Laplace transform of L(p - s) / p
evaluated at t = zeta.

There is one inversion path: the fixed Talbot sum at a constant node count,
over a contour built once per (node count, precision) on first use.  It runs
in float64 by default, where the image is called once on the node array of
both contours, or in mpmath at a requested number of digits (the
extended-precision oracle of the closed forms), one node at a time.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "LaplaceImage",
    "InversionResult",
    "invert",
    "imgf_lower_numeric",
]


@dataclass(frozen=True)
class LaplaceImage:
    """A Laplace-domain function H(p), declared analytic for Re(p) > abscissa.

    The evaluator must be reentrant.  In float64 (the default) it receives a
    1-D complex ndarray of nodes and returns H elementwise, an array of the
    same shape: write it with NumPy operations (np.exp, np.log, **), which
    take the principal branch.  When extended-precision inversion is
    requested it receives one mpmath complex number at a time.  An evaluator
    that cannot take an array fails with an exception (TypeError from cmath
    or math, say, or from a result of the wrong shape); it never yields a
    number.  Analyticity is the caller's promise; it is only spot-checked
    numerically.
    """

    evaluator: Callable
    abscissa: float = 0.0


# invert raises when its two node counts disagree by over 10x this, relative
_TARGET_REL_TOL = 1e-8

# Talbot nodes of the reported value.  The companion run behind the error
# estimate uses fewer in float64, whose sums lose digits as the count grows
# (the exp(r) weight amplifies roundoff), and more in mpmath.
_NODES = 48
_COMPANION_NODES = 36
_COMPANION_NODES_MP = 64


@dataclass(frozen=True)
class InversionResult:
    value: float
    error_estimate: float


@functools.lru_cache(maxsize=16)
def _talbot_contour(nodes: int, dps: int | None) -> tuple:
    """Nodes u_k = t p_k and weights of the fixed Talbot contour (Abate &
    Valko), r = 2 nodes / 5: u_k = r theta_k (cot theta_k + i), w_k = exp(u_k)
    (1 + i(theta_k (1 + cot^2 theta_k) - cot theta_k)), and u_0 = r, w_0 =
    exp(r) / 2.  Neither depends on t.  A tuple of (u_k, w_k) pairs, complex
    floats when dps is None, mpmath numbers at dps digits otherwise."""
    if dps is None:
        r = 0.4 * nodes
        out = [(complex(r), math.exp(r) / 2)]
        for k in range(1, nodes):
            theta = math.pi * k / nodes
            cot = 1.0 / math.tan(theta)
            u = r * theta * complex(cot, 1.0)
            out.append((u, cmath.exp(u) * complex(1.0, theta * (1.0 + cot * cot) - cot)))
        return tuple(out)
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


@functools.lru_cache(maxsize=16)
def _float_contours(counts: tuple[int, ...]) -> tuple:
    """The float64 contours of these node counts end to end, as read-only
    complex arrays u and w, and the index at which each contour starts."""
    u, w = np.array([pair for n in counts for pair in _talbot_contour(n, None)]).T.copy()
    u.flags.writeable = w.flags.writeable = False
    return u, w, np.cumsum((0,) + counts[:-1])


def _talbot(h, t: float, counts: tuple[int, ...], dps: int | None) -> list[float]:
    """(2 / 5t) sum_k Re(w_k h(u_k / t)) over the cached contour of each node
    count: in float64 one call of h on the nodes of all of them, at dps
    digits one call per node."""
    if dps is None:
        u, w, starts = _float_contours(counts)
        hu = h(u / t)
        if np.shape(hu) != u.shape:
            raise TypeError(f"the image returned shape {np.shape(hu)} for "
                            f"{u.size} nodes; it must map an array elementwise")
        return (2.0 * np.add.reduceat((w * hu).real, starts) / (5.0 * t)).tolist()
    from mpmath import mp

    out = []
    with mp.workdps(dps):
        t = mp.mpf(t)
        for nodes in counts:
            acc = 0.0
            for u, w in _talbot_contour(nodes, dps):
                acc += (w * h(u / t)).real
            out.append(float(2 * acc / (5 * t)))
    return out


def invert(image: LaplaceImage, t: float, dps: int | None = None) -> InversionResult:
    """Invert a Laplace image at t > 0, with a node-refinement error estimate.

    The image is evaluated at two node counts; their disagreement is reported
    as the error estimate.  A disagreement far beyond _TARGET_REL_TOL is
    treated as oscillatory divergence and raised, never returned silently,
    and so is a sum that is not finite (AccuracyError both).
    dps=None sums in float64, calling the evaluator once, on a 1-D complex
    ndarray of the nodes of both (see LaplaceImage); an integer sums with
    mpmath at that many digits, one node at a time (the image must then
    accept mpmath numbers).  Deterministic.
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

    n1 = _COMPANION_NODES if dps is None else _COMPANION_NODES_MP
    # overflow or nan in the image shows as a sum that is not finite
    with np.errstate(all="ignore"):
        v1, v2 = _talbot(h, t, (n1, _NODES), dps)
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise AccuracyError(f"inverse Laplace transform is not finite at t={t}: "
                            f"{v1!r} with {n1} nodes, {v2!r} with {_NODES} nodes")
    if sigma > 0.0:
        shift = math.exp(sigma * t)
        v1 *= shift
        v2 *= shift
    err = abs(v2 - v1)

    scale = max(abs(v1), abs(v2))
    floor = 1e-13 if dps is None else 10.0 ** (8 - dps)
    if err > max(10.0 * _TARGET_REL_TOL * scale, floor):
        raise AccuracyError(
            f"inverse Laplace transform did not stabilize at t={t}: "
            f"{v1!r} with {n1} nodes vs {v2!r} with {_NODES} nodes"
        )
    return InversionResult(value=v2, error_estimate=err)


def imgf_lower_numeric(pdf_image: LaplaceImage, s: float, zeta: float,
                       dps: int | None = None) -> float:
    """Lower IMGF of a nonnegative variable from its Laplace transform.

    ``pdf_image`` is the Laplace transform L(p) = E[exp(-p X)] of the density,
    with its abscissa of convergence, and takes arrays as LaplaceImage
    describes.  Contract: s must lie strictly below the smallest real
    singularity of the MGF, i.e. s + pdf_image.abscissa < 0.  In float64 the
    inversion calls the evaluator once, on the 84 nodes of its two contours
    (36 and 48) and the point -s, where L(-s) = M(s) bounds the result.
    """
    if math.isnan(s) or not zeta >= 0:
        raise DomainError(f"need a number s and zeta >= 0, got s={s}, zeta={zeta}")
    if zeta == 0.0:
        return 0.0
    if not -math.inf < s < -pdf_image.abscissa:
        raise DomainError(
            f"s={s} is not finite and strictly below the MGF singularity at "
            f"{-pdf_image.abscissa}"
        )
    ev = pdf_image.evaluator
    # the target integral lies in [0, M(s)]; keep inversion noise inside it
    if dps is None:  # M(s) = L(-s) from the contour's own call, as one more node
        mgf_at = []

        def shifted_ev(p):
            values = ev(np.append(p - s, complex(-s, 0.0)))
            mgf_at.append(values[-1])
            return values[:-1] / p

        value = invert(LaplaceImage(evaluator=shifted_ev, abscissa=0.0), zeta).value
        mgf_value = float(abs(mgf_at[0]))
    else:
        shifted = LaplaceImage(evaluator=lambda p: ev(p - s) / p, abscissa=0.0)
        value = invert(shifted, zeta, dps).value
        mgf_value = float(abs(ev(complex(-s, 0.0))))
    return min(max(value, 0.0), mgf_value)
