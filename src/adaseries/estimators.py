"""Empirical coefficients, the realized ISE profile, and the noise-level estimate.

A dimension-m estimator always uses the coefficient prefix 0..m:

    density     f_m(x) = 1 + sum_{j=1..m} theta_hat_j phi_j(x)
                (coefficient 0 is the known constant, fixed to 1)
    regression  f_m(x) = sum_{j=0..m} theta_hat_j phi_j(x)

so estimators are nested and || f_m - f_k ||^2 reduces to the Parseval
gap sum_{j=m+1..k} theta_hat_j^2 in both models.  Every selector reads
one CoefficientTable: penalized contrast and model selection its
theta_hat, cross-validation also its leave-one-out squares, and each
takes its dimension grid 1..m_max from the table's length.  The table
needs only two sums per index, T_j = sum_i psi_j(Z_i) and sum_i
psi_j(Z_i)^2, and empirical_coefficients streams them over blocks of
basis rows, so no replication holds the (m_max + 1) x n psi matrix.  It
reads plain arrays, a (K, n) stack of K samples as the samplers of
dependence return it (the points, and the responses for regression),
and one pass over the basis rows reduces it to K tables.  The realized
ISE(m) is the Simpson-grid quadrature written as a quadratic form in
theta_hat (ise_gram once per config, ise_profile per table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import TrigBasis

#: Points per psi block in empirical_coefficients (256 KB of float64): small
#: enough to stay in cache; a full batch of the replication kernel (about
#: 2**14 points) streams two rows per block.
_BLOCK_POINTS = 1 << 15


@dataclass(frozen=True)
class CoefficientTable:
    """Empirical coefficients of one sample, for j = 0..m_max.

    theta_hat_j = T_j / n with T_j = sum_i psi_j(Z_i), where psi_j(Z) is
    phi_j(X) for densities (theta_hat_0 is the known constant 1) and
    Y phi_j(U) for regression.  theta_sq_loo_j = (T_j^2 - sum_i
    psi_j(Z_i)^2) / (n (n - 1)) is the leave-one-out estimate of
    theta_j^2, the off-diagonal double sum over observation pairs; it is
    None for a one-point sample.
    """

    model: str
    n: int
    theta_hat: np.ndarray
    theta_sq_loo: Optional[np.ndarray] = None

    @property
    def m_max(self) -> int:
        return self.theta_hat.size - 1


def empirical_coefficients(points, m_max: int, y=None) -> list[CoefficientTable]:
    """Coefficient tables of a (K, n) stack of samples, j = 0..m_max: one per row.

    A density sample is its points X; a regression sample is its design
    U (the points) and its responses y, a stack of the same shape.  Any
    other shape raises ValueError.  The psi rows come from
    TrigBasis.row_blocks, _BLOCK_POINTS points per block (at least two
    rows), and each block is reduced to its rows' T_j and sum_i
    psi_j(Z_i)^2 before the next one is made, so the working set is
    O(K n), not the O(m_max K n) of the whole psi matrix.  Each sum runs
    over one contiguous row of n points (the last axis), which numpy's
    pairwise summation adds as it adds a 1-d array, so every sum is the
    float that a one-sample, one-block pass gives.  (A stack of one-point
    samples is the exception: numpy multiplies a one-element complex
    array in place by another rounding path, so there the trig recurrence
    can differ in the last bit.)
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.size == 0:
        raise ValueError(f"need a nonempty (K, n) stack of samples, got shape {points.shape}")
    K, n = points.shape
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape != points.shape:
            raise ValueError(f"responses of shape {y.shape} for points of shape {points.shape}")
    totals = np.empty((m_max + 1, K))
    squares = np.empty((m_max + 1, K))
    for start, block in TrigBasis().row_blocks(points, m_max,
                                               max(2, _BLOCK_POINTS // points.size)):
        rows = slice(start, start + len(block))
        if y is not None:
            block *= y
        np.sum(block, axis=-1, out=totals[rows])
        np.multiply(block, block, out=block)  # the block is not read again: square it in place
        np.sum(block, axis=-1, out=squares[rows])
    return [_table(totals[:, k], squares[:, k], n, y is None) for k in range(K)]


def _table(totals: np.ndarray, squares: np.ndarray, n: int, density: bool) -> CoefficientTable:
    """The table of one sample from its two sums per index."""
    theta = totals / n
    if density:
        theta[0] = 1.0
    loo = (totals**2 - squares) / (n * (n - 1)) if n > 1 else None
    return CoefficientTable(model="density" if density else "regression", n=n,
                            theta_hat=theta, theta_sq_loo=loo)


def ise_gram(basis_grid: np.ndarray, truth_grid: np.ndarray,
             weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The pieces of the Simpson-grid ISE that do not depend on the sample.

    With B the basis rows on the grid (j = 0..m_max), W the quadrature
    weights and f the truth on the grid, G = B W B^T is returned folded
    into its lower triangle (L_jj = G_jj, L_ji = 2 G_ji for i < j, zero
    above), with c = B W f and ||f||_W^2 = f^T W f.  Computed once per
    config and read by ise_profile.
    """
    truth = np.asarray(truth_grid, dtype=float)
    weighted = basis_grid * weights
    gram = weighted @ basis_grid.T
    gram_lower = np.tril(gram, -1) * 2.0 + np.diag(np.diagonal(gram))
    return gram_lower, weighted @ truth, float(np.sum(truth * truth * weights))


def ise_profile(table: CoefficientTable, gram_lower: np.ndarray, cross: np.ndarray,
                norm_sq: float) -> np.ndarray:
    """ISE(m) for every m = 1..m_max at once.

    gram_lower, cross and norm_sq come from ise_gram; entry m-1 is the
    Simpson-grid ISE of the dimension-m estimator, the quadrature of
    (sum_{j<=m} theta_j phi_j - f)^2 done algebraically:

        ISE(m) = theta_{0:m}^T G theta_{0:m} - 2 theta_{0:m}^T c + ||f||_W^2.

    Row j of the folded Gram matrix L only reaches indices i <= j, so
    dimension m adds theta_m ((L theta)_m - 2 c_m) to ISE(m - 1) and one
    cumulative sum gives every m.  Values match the grid form to about
    1e-12 relative.
    """
    M = table.m_max
    theta = table.theta_hat
    steps = theta * (gram_lower[: M + 1, : M + 1] @ theta - 2.0 * cross[: M + 1])
    steps[0] += norm_sq
    return np.cumsum(steps)[1:]


def sigma_y_hat(y) -> np.ndarray:
    """Empirical second moment n^-1 sum y_i^2 of each row of a (K, n) stack of responses.

    Returns the K row values.  Any other shape raises ValueError, as in
    empirical_coefficients.  Each row's sum runs over its last axis, the
    float that the sum of that row as a 1-d array gives.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.size == 0:
        raise ValueError(f"need a nonempty (K, n) stack of responses, got shape {y.shape}")
    return np.sum(y * y, axis=-1) / y.shape[-1]
