"""Composite Simpson quadrature on uniform grids of [0, 1].

Every integral over all of [0, 1] in the package is a Simpson sum with
these weights: integrate_values for one integral (the normalizers),
simpson_projection for the coefficients <g, phi_j>_W and the squared norm
||g||_W^2 (the harness's ISE, the true coefficients and the exact risk's
bias share its float form), and simpson_weights itself where a sum needs
the weights (the exact risk's autocovariances, the orthonormality check).
MarginalLaw's CDF, a partial integral, has its own per-segment Simpson
rule (targets).  DEFAULT_GRID (4097 points) serves the quantities
computed once per target: marginal normalizers and CDFs, true
coefficients and the exact expected risk; doubling to 8193 is used in
tests as a grid-refinement check.  The per-replication ISE and the bands
use the coarser harness.DEFAULT_GRID_SIZE (1025 points, the --grid-size
option).
"""

from __future__ import annotations

import numpy as np

DEFAULT_GRID = 4097


def unit_grid(n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Uniform grid on [0, 1] with an odd number of points."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"Simpson grid needs an odd number of points >= 3, got {n_points}")
    return np.linspace(0.0, 1.0, n_points)


def simpson_weights(n_points: int = DEFAULT_GRID) -> np.ndarray:
    """Composite Simpson weights for a uniform grid on [0, 1]."""
    if n_points < 3 or n_points % 2 == 0:
        raise ValueError(f"Simpson grid needs an odd number of points >= 3, got {n_points}")
    h = 1.0 / (n_points - 1)
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def integrate_values(values: np.ndarray) -> float:
    """Integrate values sampled on a uniform odd-length grid over [0, 1]."""
    values = np.asarray(values, dtype=float)
    # np.sum (pairwise summation) keeps results independent of BLAS threading
    return float(np.sum(values * simpson_weights(values.shape[-1])))


def simpson_projection(rows: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, float]:
    """<g, row_j>_W for every row and ||g||_W^2, by the Simpson weights W.

    values holds g on the uniform odd-length grid of [0, 1] and rows the
    functions on the same grid, one per row.  The one float form of both:
    (rows W) g and sum(g g W).
    """
    values = np.asarray(values, dtype=float)
    weights = simpson_weights(values.shape[-1])
    return (rows * weights) @ values, float(np.sum(values * values * weights))
