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
quantile-transform sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import TrigBasis
from .quadrature import DEFAULT_GRID, integrate_values, simpson_weights, unit_grid

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


_N_SEG = 4096  # knots of the cumulative-integral table; a power of two
assert _N_SEG & (_N_SEG - 1) == 0, "the segment search halves _N_SEG down to 1"
_LIFT_STEPS = tuple(_N_SEG >> s for s in range(1, _N_SEG.bit_length()))  # N/2, ..., 2, 1
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
    segments (midpoint refinement inside each segment).  The quantile
    finds the bracketing segment k of the cumulative table, the largest
    k <= 4095 with cum[k] <= t, by binary lifting (add 2048, 1024, ..., 1
    while the table stays <= t), starts from linear interpolation inside
    it and takes three Newton steps on the same piecewise-Simpson partial
    mass, with the density as the slope and every step clipped to the
    segment.  The segment's left end, table entry, knot density and mass
    are gathered once per point, outside the Newton loop, and the points
    are transformed in blocks of at most 2**12, so the temporaries stay
    bounded whatever the sample size.  For the built-in targets
    quantile(u) satisfies |cdf(q) - u| <= 1e-15.  quantile and cdf check
    their argument once; the points they derive from it stay in [0, 1],
    so the density is evaluated there without a second check.
    """

    def __init__(self, density: DensityTarget):
        self.density = density
        self._h = 1.0 / _N_SEG
        knots = np.linspace(0.0, 1.0, _N_SEG + 1)
        mids = knots[:-1] + 0.5 * self._h
        self._f_knots = np.asarray(density.eval(knots), dtype=float)
        f_mids = np.asarray(density.eval(mids), dtype=float)
        seg = (self._h / 6.0) * (self._f_knots[:-1] + 4.0 * f_mids + self._f_knots[1:])
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        self._seg = seg
        self._cum = cum
        self._total = float(cum[-1])

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
        k = np.zeros(t.shape, dtype=np.intp)
        for step in _LIFT_STEPS:  # cum[0] = 0 <= t, so k = 0 is a valid start
            k += (self._cum.take(k + step) <= t) * step
        lo = k * self._h
        hi = lo + self._h
        cum_k, f_k, seg_k = self._cum.take(k), self._f_knots.take(k), self._seg.take(k)
        frac = np.divide(t - cum_k, seg_k, out=np.zeros_like(t), where=seg_k > 0.0)
        np.clip(lo + self._h * frac, lo, hi, out=q)
        for _ in range(_NEWTON_STEPS):
            f_q = self.density._eval_unchecked(q)
            excess = self._partial_mass(lo, cum_k, f_k, q, f_q)
            np.subtract(excess, t, out=excess)
            moves = f_q > 0.0
            np.divide(excess, f_q, out=excess, where=moves)
            np.subtract(q, excess, out=q, where=moves)
            np.clip(q, lo, hi, out=q)


def true_coefficients(fn: Callable[[np.ndarray], np.ndarray], m_max: int,
                      n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Quadrature coefficients <fn, phi_j> for j = 0..m_max."""
    grid = unit_grid(n_points)
    weighted = np.asarray(fn(grid), dtype=float) * simpson_weights(n_points)
    design = TrigBasis().design_matrix(grid, m_max)
    return np.sum(design * weighted, axis=1)
