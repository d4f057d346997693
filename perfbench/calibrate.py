"""Machine-speed calibration.

The machine this benchmark was built on runs the same single-threaded
computation up to 1.6 times slower for minutes at a time (measured: the
imgf-grid throughput fell from 1248 to 777 operations per second between
two runs a few minutes apart, and a fixed calibration kernel slowed with
it).  Every run therefore times a fixed kernel at regular intervals,
between operations and outside the timed phase, and scales each operation's
time by REFERENCE_S / (median kernel time over the ~3 s of work around it):
the reported times are those of the reference speed, at which the kernel
takes REFERENCE_S.  The kernel uses
nothing from imgflib, so a change to the library cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

REFERENCE_S = 0.004  # kernel time at the reference speed
EVERY_S = 0.125      # timed work between two kernel samples
HALF_WINDOW = 12     # an operation is scaled by the median of 2 * 12 + 1 samples (~3 s)

_SHAPES = np.arange(1.0, 64.0)


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be positive")


def kernel() -> float:
    """Fixed work of the kinds the library does: interpreted float arithmetic,
    small validated frozen dataclasses, scalar and short-vector scipy.special
    calls."""
    x = 0.0
    for i in range(500):
        p = _Point(1.0 + i, 2.0)
        x += math.lgamma(p.a) + math.log1p(p.b / p.a) + float(sp.gammainc(2.5, p.a))
        if i % 3 == 0:
            x += float(np.exp(sp.gammaln(_SHAPES + p.b) - _SHAPES).sum())
    for i in range(8000):
        x += math.sqrt(i + 0.5)
    return x


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured alongside these samples into
    seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


def local_scales(samples: list[float]) -> list[float]:
    """For each sample, the scale of the window of samples centred on it."""
    h = HALF_WINDOW
    return [scale(samples[max(0, i - h):i + h + 1]) for i in range(len(samples))]
