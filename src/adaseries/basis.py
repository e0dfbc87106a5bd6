"""Trigonometric orthonormal system on [0, 1], smoothness weights, rate benchmark.

Basis indexing (shared by the density and regression models):

    j = 0      -> 1                       (constant)
    j = 2k - 1 -> sqrt(2) * cos(2 pi k x)
    j = 2k     -> sqrt(2) * sin(2 pi k x)

For the density model coefficient 0 is the known constant 1 and only
j >= 1 is estimated; for regression coefficient 0 is estimated like any
other.  The system satisfies sup_x sum_{j=1}^m phi_j(x)^2 <= 2 m (with
equality to m for even m), so the squared sup-norm constant is 2.
TrigBasis holds no state: each call takes the largest index m_max.
TrigBasis.row_blocks evaluates the rows with the trig recurrence, one
complex exponential per point, then one complex product per frequency,
and hands them out in blocks of a few rows, so a caller that only sums
over the points never holds all m_max + 1 rows at once.  The points may
be a stack of samples, one per row of a (K, n) array, so one pass serves
a batch of replications.  TrigBasis.design_matrix is the one-block case.

The smoothness weights (WeightSequence) are the two classical classes,
polynomial j^(-2p) and exponential exp(-j^(2p)); optimal_dimension gives
the benchmark dimension m* and rate r* of a class at sample size n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

SQRT2 = np.sqrt(2.0)

#: Valid squared sup-norm constant for the trig system at every m
#: (tight at m = 1, where sup sum phi_j^2 = 2).
SUP_NORM_SQ = 2.0


class TrigBasis:
    """Trigonometric orthonormal basis on [0, 1]; every index j >= 0 is supported."""

    def row_blocks(self, x, m_max: int, rows: int) -> Iterator[tuple[int, np.ndarray]]:
        """Rows j = 0..m_max of the basis at points x, yielded in blocks.

        Yields (start, block) with block[i] = phi_{start + i}(x), at most
        `rows` rows per block, in order of start.  x may have any shape
        (a scalar counts as one point): a block has shape (rows,) +
        x.shape, so for a (K, n) stack of samples block[i, k] is row
        start + i at sample k, contiguous in the points.  cos and sin of 2 pi x
        are taken once, as z = exp(2 pi i x); the rows follow from the
        trig recurrence p <- p z started at p = sqrt(2) z, so that
        p = sqrt(2) exp(2 pi i k x) gives row 2k - 1 as its real part and
        row 2k as its imaginary part.  p carries over from one block to
        the next, so a block may end on either row of a pair and every
        row is the same float as in one block.  Rounding grows like
        k * 1e-16.  All blocks are views of one rows x len(x) buffer:
        the next step overwrites the block, so read it (or change it in
        place) before asking for the next one.
        """
        if m_max < 0:
            raise ValueError(f"m_max {m_max} must be >= 0")
        if rows < 1:
            raise ValueError(f"rows {rows} must be >= 1")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        buf = np.empty((min(rows, m_max + 1),) + x.shape)
        z = np.multiply(2j * np.pi, x)
        np.exp(z, out=z)
        p = SQRT2 * z
        cos_row, sin_row = p.real, p.imag  # views: they follow p as it steps in place
        for start in range(0, m_max + 1, len(buf)):
            block = buf[: min(len(buf), m_max + 1 - start)]
            for i, j in enumerate(range(start, start + len(block))):
                if j % 2:
                    block[i] = cos_row
                elif j:
                    block[i] = sin_row
                    np.multiply(p, z, out=p)
                else:
                    block[i] = 1.0
            yield start, block

    def design_matrix(self, x, m_max: int) -> np.ndarray:
        """Rows j = 0..m_max of the basis evaluated at points x.

        Shape (m_max + 1,) + x.shape, a scalar x counting as one point
        (shape (m_max + 1, 1)); row j is phi_j(x).  The single-block
        case of row_blocks: the whole matrix is one block of the trig
        recurrence.
        """
        return next(self.row_blocks(x, m_max, m_max + 1))[1]


@dataclass(frozen=True)
class WeightSequence:
    """Smoothness weights gamma_j, j >= 1, defining the target class.

    kind 'polynomial': gamma_j = j ** (-2 p)
    kind 'exponential': gamma_j = exp(-j ** (2 p))

    These are the two classical smoothness classes.  Any p > 0 gives a
    valid decaying sequence (the sharper p > 1 of the polynomial
    smoothness classes is a theory condition, not a formula constraint;
    the benchmark rates are routinely evaluated at p = 1).
    """

    kind: str
    p: float

    def __post_init__(self):
        if self.kind not in ("polynomial", "exponential"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.p <= 0.0:
            raise ValueError(f"{self.kind} weights need p > 0")

    def weight(self, j) -> np.ndarray:
        """gamma_j for indices j >= 1 (scalar or array)."""
        j_arr = np.asarray(j, dtype=float)
        if np.any(j_arr < 1):
            raise ValueError("weights are defined for j >= 1")
        if self.kind == "polynomial":
            out = j_arr ** (-2.0 * self.p)
        else:
            out = np.exp(-j_arr ** (2.0 * self.p))
        return out if out.shape else float(out)


@dataclass(frozen=True)
class RateResult:
    """Minimax benchmark over the dimension grid 1..n.

    m_star is the smallest minimizer of psi_m = max(gamma_m, m / n),
    r_star its minimal value.
    """

    m_star: int
    r_star: float


def optimal_dimension(seq: WeightSequence, n: int) -> RateResult:
    """Scan m = 1..n for the smallest minimizer of max(gamma_m, m / n)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    m = np.arange(1, n + 1)
    psi = np.maximum(seq.weight(m), m / n)
    m_star = int(np.argmin(psi)) + 1  # argmin returns the first minimizer
    return RateResult(m_star=m_star, r_star=float(psi[m_star - 1]))


def rate_slope(seq: WeightSequence, n_grid: Sequence[int]) -> float:
    """Least-squares slope of log r_star against log n over a grid of sizes."""
    n_grid = list(n_grid)
    rates = [optimal_dimension(seq, n).r_star for n in n_grid]
    return float(np.polyfit(np.log(np.asarray(n_grid, float)), np.log(rates), 1)[0])
