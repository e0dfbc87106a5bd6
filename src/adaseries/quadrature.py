"""Composite Simpson quadrature on uniform grids of [0, 1].

All integrals in the package go through these helpers so that every
quantity (normalizers, coefficients, ISE values) is computed with one
well-understood rule.  DEFAULT_GRID (4097 points) serves the quantities
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
