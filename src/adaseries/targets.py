"""True functions used in the simulation study and their marginal laws.

Two densities on [0, 1]:

    f1: renormalized restriction to [0, 1] of the Gaussian mixture
        0.3 * N(0.5, 0.1^2) + 0.25 * N(0.7, 0.06^2)
    f2: C * (4 * (1 + |5 (x - 1/2)|)) ** (-3/2)

Two regression functions:

    f1: doppler, sqrt(x (1 - x)) * sin(2.6 pi / (x + 0.3))
    f2: sin(4 x) on [0, 1/4], 1 on (1/4, 1]   (left branch closed at 1/4)

Both mixture weights (3/10 and 1/4) deliberately do not sum to one; the
normalizer C always rescales whatever mass the raw form puts on [0, 1].
MarginalLaw provides a quadrature-backed CDF and its inverse for
quantile-transform sampling; marginal_law builds it once per process for
each named density target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .basis import TrigBasis
from .quadrature import DEFAULT_GRID, integrate_values, simpson_projection, unit_grid

NOISE_SIGMA = 0.5  # regression noise level used throughout the study


def _check_unit_interval(x: np.ndarray, what: str = "argument outside the support") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails both comparisons
        raise ValueError(f"{what} [0, 1]")
    return x


def _gauss_pdf(x: np.ndarray, mu: float, sd: float) -> np.ndarray:
    z = (x - mu) / sd
    return np.exp(-0.5 * z * z) / (sd * np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class DensityTarget:
    """Normalized density on [0, 1] with its raw (unnormalized) form."""

    raw_fn: Callable[[np.ndarray], np.ndarray]
    normalizer: float = field(init=False, default=0.0)

    def __post_init__(self):
        c = 1.0 / integrate_values(self.raw_fn(unit_grid()))
        object.__setattr__(self, "normalizer", c)

    def eval(self, x) -> np.ndarray:
        return self._eval_unchecked(_check_unit_interval(x))

    def _eval_unchecked(self, x: np.ndarray) -> np.ndarray:
        """The density at float points the caller has kept inside [0, 1]."""
        return self.normalizer * self.raw_fn(x)


@dataclass(frozen=True)
class RegressionTarget:
    """Square-integrable regression function on [0, 1] plus noise level."""

    fn: Callable[[np.ndarray], np.ndarray]
    noise_sigma: float = NOISE_SIGMA

    def eval(self, x) -> np.ndarray:
        return self.fn(_check_unit_interval(x))


def _f1_raw(x: np.ndarray) -> np.ndarray:
    return 0.3 * _gauss_pdf(x, 0.5, 0.1) + 0.25 * _gauss_pdf(x, 0.7, 0.06)


def _f2_raw(x: np.ndarray) -> np.ndarray:
    return (4.0 * (1.0 + np.abs(5.0 * (x - 0.5)))) ** -1.5


def density_f1() -> DensityTarget:
    """Two-component Gaussian mixture restricted to [0, 1], renormalized."""
    return DensityTarget(_f1_raw)


def density_f2() -> DensityTarget:
    """Polynomially-decaying density with a kink at x = 1/2."""
    return DensityTarget(_f2_raw)


def uniform_density() -> DensityTarget:
    return DensityTarget(lambda x: np.ones_like(np.asarray(x, dtype=float)))


def _doppler(x: np.ndarray) -> np.ndarray:
    return np.sqrt(x * (1.0 - x)) * np.sin(2.6 * np.pi / (x + 0.3))


def _sin_step(x: np.ndarray) -> np.ndarray:
    return np.where(x <= 0.25, np.sin(4.0 * x), 1.0)


def regression_f1() -> RegressionTarget:
    """Doppler-type oscillating regression function."""
    return RegressionTarget(_doppler)


def regression_f2() -> RegressionTarget:
    """sin(4x) up to 1/4 (inclusive), constant 1 beyond."""
    return RegressionTarget(_sin_step)


DENSITY_TARGETS = {"f1": density_f1, "f2": density_f2, "uniform": uniform_density}
REGRESSION_TARGETS = {"f1": regression_f1, "f2": regression_f2}


_N_SEG = 4096  # knots of the cumulative-integral table, and buckets of its guide table
assert _N_SEG & (_N_SEG - 1) == 0, "a power of two: u * _N_SEG is exact, so u's bucket is its floor"
#: Newton steps from the interpolated start.  Two reach rounding level for
#: the built-in targets; the third covers densities that vanish at an end
#: of [0, 1], where the linear start is poorest.
_NEWTON_STEPS = 3
#: Points transformed at a time: bounds the temporaries (about 17 of 32 KB
#: each) whatever the sample size, so a batch of samples adds no memory.
_QUANTILE_BLOCK = 2**12


class MarginalLaw:
    """CDF / quantile pair of a density target on [0, 1].

    The CDF is a cumulative per-segment Simpson integral over 4096 uniform
    segments (midpoint refinement inside each segment).  The density must
    be finite and nonnegative at every knot and midpoint, else ValueError:
    the table is then nondecreasing, which the segment search and the
    Newton steps rely on.  The quantile finds the bracketing segment k of
    the cumulative table, the largest k <= 4095 with cum[k] <= t = u *
    total, with a guide table (Chen and Asau, 1974).  u falls in bucket
    b = floor(4096 u), [b/4096, (b+1)/4096) (bucket 4096 holds u = 1
    alone), and starts at guide[b], the segment of the bucket's lowest t;
    binary lifting (add 2^(L-1), ..., 2, 1 while the table stays <= t)
    climbs from there.  A bucket's width is the number of segments between
    the segments of its lowest and highest t.  L is the fewest lifts that
    cross every bucket of width at most three: 2 for f1, f2 and x^2, none
    for the uniform law.  The wider buckets (77 of f1's, in its thin
    tails, where one bucket spans up to 687 segments) are flagged, and
    their points take k from searchsorted instead, the same integer.  The
    table the lifts read is +inf from index 4096 on, for as many entries
    as the largest lift, so k stops at 4095 and no lift reads past its
    end.  From linear interpolation inside the segment the quantile takes
    three Newton steps on the same piecewise-Simpson partial mass, with
    the density as the slope and every step clamped to the segment.  A
    zero slope (a density that vanishes at the point) or an empty segment
    leaves its point where it is; blocks with neither, which for the
    built-in targets is nearly all, skip the masks.  The segment's left
    end, table entry, knot density and mass are gathered once per point,
    outside the Newton loop, and the points are transformed in blocks of
    at most 2**12, so the temporaries stay bounded whatever the sample
    size.  For the built-in targets quantile(u) satisfies |cdf(q) - u| <=
    1e-15.  quantile and cdf check their argument once; the points they
    derive from it stay in [0, 1], so the density is evaluated there
    without a second check.
    """

    def __init__(self, density: DensityTarget):
        self.density = density
        self._h = 1.0 / _N_SEG
        knots = np.linspace(0.0, 1.0, _N_SEG + 1)
        self._f_knots = np.asarray(density.eval(knots), dtype=float)
        f_mids = np.asarray(density.eval(knots[:-1] + 0.5 * self._h), dtype=float)
        if not all(np.all((f >= 0.0) & (f < np.inf)) for f in (self._f_knots, f_mids)):
            raise ValueError("the density is negative or not finite (NaN) at a knot or midpoint")
        self._seg = (self._h / 6.0) * (self._f_knots[:-1] + 4.0 * f_mids + self._f_knots[1:])
        self._cum = cum = np.concatenate(([0.0], np.cumsum(self._seg)))
        self._total = float(cum[-1])
        # u * total grows with u, so bucket b's t run from its lowest u,
        # b / N, to its highest, the float below (b + 1) / N (1 for b = N)
        edges = np.arange(_N_SEG + 2) / _N_SEG
        self._guide = self._segment(edges[:-1] * self._total)
        highest = np.minimum(np.nextafter(edges[1:], 0.0), 1.0)
        widths = self._segment(highest * self._total) - self._guide
        # the lifts cross the buckets of width at most three; the points of a
        # wider bucket (a thin tail) are searched in full
        self._wide = widths > 3
        self._any_wide = bool(np.any(self._wide))
        widest = int(np.max(widths, where=~self._wide, initial=0))
        self._lift_steps = tuple(1 << s for s in reversed(range(widest.bit_length())))
        padding = np.full(self._lift_steps[0] if self._lift_steps else 0, np.inf)
        self._lift_cum = np.concatenate((cum[:-1], padding))

    def _segment(self, t: np.ndarray) -> np.ndarray:
        """The largest k <= N - 1 with cum[k] <= t, by searchsorted."""
        return np.minimum(np.searchsorted(self._cum, t, side="right") - 1, _N_SEG - 1)

    def _partial_mass(self, lo: np.ndarray, cum_k: np.ndarray, f_k: np.ndarray,
                      x: np.ndarray, f_x: np.ndarray) -> np.ndarray:
        """Unnormalized integral of the density from 0 to x, x in the segment
        that starts at lo with table entry cum_k and knot density f_k.

        f_x is the density at x.
        """
        d = x - lo
        f_mid = self.density._eval_unchecked(lo + 0.5 * d)
        return cum_k + (d / 6.0) * (f_k + 4.0 * f_mid + f_x)

    def cdf(self, x) -> np.ndarray:
        x = _check_unit_interval(x)
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(x)
        k = np.clip((x * _N_SEG).astype(int), 0, _N_SEG - 1)
        mass = self._partial_mass(k * self._h, self._cum.take(k), self._f_knots.take(k),
                                  x, self.density._eval_unchecked(x))
        out = mass / self._total
        return float(out[0]) if scalar else out

    def quantile(self, u) -> np.ndarray:
        u = _check_unit_interval(u, "quantile argument outside")
        q = np.empty(u.shape)
        flat_u, flat_q = u.reshape(-1), q.reshape(-1)
        for start in range(0, flat_u.size, _QUANTILE_BLOCK):
            stop = start + _QUANTILE_BLOCK
            self._quantile_block(flat_u[start:stop], flat_q[start:stop])
        return float(q) if u.ndim == 0 else q

    def _quantile_block(self, u: np.ndarray, q: np.ndarray) -> None:
        """Write the quantiles of the 1-d block u into q."""
        t = u * self._total
        b = (u * _N_SEG).astype(np.intp)
        k = self._guide.take(b)
        for step in self._lift_steps:
            k += (self._lift_cum.take(k + step) <= t) * step
        if self._any_wide:
            wide = np.flatnonzero(self._wide.take(b))
            k[wide] = self._segment(t.take(wide))
        lo = k * self._h
        hi = lo + self._h
        cum_k, f_k, seg_k = self._cum.take(k), self._f_knots.take(k), self._seg.take(k)
        np.minimum(np.maximum(lo + self._h * _ratio(t - cum_k, seg_k), lo, out=q), hi, out=q)
        for _ in range(_NEWTON_STEPS):
            f_q = self.density._eval_unchecked(q)
            excess = self._partial_mass(lo, cum_k, f_k, q, f_q)
            np.subtract(excess, t, out=excess)
            np.subtract(q, _ratio(excess, f_q), out=q)
            np.minimum(np.maximum(q, lo, out=q), hi, out=q)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0 and 0 where not, in num's buffer when every den is > 0.

    A zero den (a density that vanishes at a Newton point, or a segment
    without mass) leaves the point where it is: q - 0 is q.  Blocks with
    none, which for the built-in targets is nearly all, skip the mask.
    """
    if den.min() > 0.0:
        return np.divide(num, den, out=num)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


@cache
def marginal_law(target: str) -> MarginalLaw:
    """The marginal law of the named density target, built once per process."""
    return MarginalLaw(DENSITY_TARGETS[target]())


def true_coefficients(fn: Callable[[np.ndarray], np.ndarray], m_max: int,
                      n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Quadrature coefficients <fn, phi_j> for j = 0..m_max."""
    grid = unit_grid(n_points)
    return simpson_projection(TrigBasis().design_matrix(grid, m_max), fn(grid))[0]
