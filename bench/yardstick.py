"""A fixed piece of work that measures how fast the host runs right now.

On a shared host the same stage call runs up to 1.7x slower while other
tenants are busy.  The slow and fast states alternate within milliseconds,
and the share of slow time drifts over minutes, so neither the median nor
the fastest of a run's rounds is steady from one run to the next.  The
benchmark therefore times this yardstick right before and after every
operation and divides the operation's time by it: both are slowed by the
same contention, and the quotient varies far less than either.  Times are
reported as ``quotient * REFERENCE_S``, seconds on a host where the
yardstick takes ``REFERENCE_S``.

The work mixes what the program spends its time on: cos/sin of an outer
product (the design matrix), a vectorised bisection with ``np.where`` (the
quantile transform), a small matrix product (the ISE profile) and a scalar
Python loop (the logistic map).  It does not use adaseries, so a change to
the program cannot change the yardstick.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Kernel calls per yardstick measurement (about 20-30 ms in all).
REPS = 6
#: Yardstick time of the uncontended state of a 2-core shared x86-64 host
#: (Xeon, 2.1 GHz, numpy 2.4 with OpenBLAS on one thread).
REFERENCE_S = 0.018

_rng = np.random.default_rng(12345)
_X = _rng.random(1000)
_U = _rng.random(1000)
_K = np.arange(1, 51)


def _kernel() -> float:
    ang = 2.0 * np.pi * np.outer(_K, _X)
    gram = np.cos(ang) @ np.sin(ang).T
    lo, hi = np.zeros_like(_U), np.ones_like(_U)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        below = mid * mid < _U
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    v = 0.3
    for _ in range(2000):
        v = 3.9 * v * (1.0 - v)
    return gram[0, 0] + lo[0] + v


def measure() -> float:
    """Seconds taken by REPS kernel calls now."""
    start = perf_counter()
    for _ in range(REPS):
        _kernel()
    return perf_counter() - start


class Yardstick:
    """Yardstick times between consecutive operations of a round."""

    def __init__(self):
        self.last = measure()

    def around(self) -> float:
        """Mean of the previous measurement and one taken now; call after an operation."""
        before, self.last = self.last, measure()
        return 0.5 * (before + self.last)
