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
psi_j(Z_i)^2, and empirical_coefficients streams them over the basis
rows one frequency at a time, summed straight from the complex trig
recurrence, so no replication holds the (m_max + 1) x n psi matrix.  It
reads plain arrays, a (K, n) stack of K samples as the samplers of
dependence return it (the points, and the responses for regression),
and one pass over the basis rows reduces it to one stacked table, one
row per sample.  Both models share that pass: a regression casts its
responses once to y + 0j and sums the complex products w_k = p_k (y +
0j) where a density sums p_k itself.  The weight has no imaginary part,
so Re w_k and Im w_k are the real products y sqrt(2) cos and y sqrt(2)
sin bit for bit (the extra term is an exact +-0, which can change only
the sign of an exact-zero product).  The psi^2 sums feed only the
leave-one-out squares, that is, only cross-validation: with loo=False
they are not made at all, and theta_hat is the same float.  Every square
is np.square, which reads its operand once and gives the bits of x * x;
np.multiply(x, x) reads the same array twice, and at K = 20, n = 1000
the psi^2 step took about 38 us per frequency that way against 25 us
(2-core x86-64 host, numpy 2.4.6).  The
realized ISE(m) is the Simpson-grid quadrature of (f_m - f)^2, and the
basis is orthonormal on that grid: Simpson weights on N + 1 points
integrate e^{2 pi i k x} exactly for 0 < |k| < N/2, and phi_i phi_j with
i, j <= M reach frequency 2 ceil(M/2), so the grid Gram matrix is the
identity to rounding whenever the grid has more than 4 ceil(M/2) + 1
points.  The ISE is then Parseval's sum on the grid's own truth
coefficients c_j and norm ||f||_W^2 (quadrature.simpson_projection once
per grid and truth, ise_profile per table, stacked or not).  The harness
refuses the smaller grids, which alias the estimator's own frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import TrigBasis

@dataclass(frozen=True)
class CoefficientTable:
    """Empirical coefficients of one sample, or of a stack of K samples, for j = 0..m_max.

    theta_hat_j = T_j / n with T_j = sum_i psi_j(Z_i), where psi_j(Z) is
    phi_j(X) for densities (theta_hat_0 is the known constant 1) and
    Y phi_j(U) for regression.  theta_sq_loo_j = (T_j^2 - sum_i
    psi_j(Z_i)^2) / (n (n - 1)) is the leave-one-out estimate of
    theta_j^2, the off-diagonal double sum over observation pairs; it is
    None for a one-point sample and for a table built without the psi^2
    sums (empirical_coefficients with loo=False).  Both arrays have shape
    (m_max + 1,) for one sample and (K, m_max + 1) for a stack, row k for
    sample k; table[k] is the one-sample table of row k, and iterating a
    stack yields its row tables.
    """

    model: str
    n: int
    theta_hat: np.ndarray
    theta_sq_loo: Optional[np.ndarray] = None

    @property
    def m_max(self) -> int:
        return self.theta_hat.shape[-1] - 1

    def __getitem__(self, k) -> CoefficientTable:
        if self.theta_hat.ndim != 2:
            raise TypeError("a one-sample table has no rows")
        loo = None if self.theta_sq_loo is None else self.theta_sq_loo[k]
        return CoefficientTable(self.model, self.n, self.theta_hat[k], loo)


def empirical_coefficients(points, m_max: int, y=None, loo: bool = True) -> CoefficientTable:
    """The stacked coefficient table of a (K, n) stack of samples, j = 0..m_max.

    A density sample is its points X; a regression sample is its design
    U (the points) and its responses y, a stack of the same shape.  Any
    other shape raises ValueError, and so does m_max < 0.  The psi rows
    come from TrigBasis.exponentials, one frequency k at a time, and are
    reduced to their T_j and sum_i psi_j(Z_i)^2 before the next frequency
    is made, so the working set is O(K n), not the O(m_max K n) of the
    whole psi matrix.  A density sums the real and imaginary parts of p_k
    where they lie, and squares p_k viewed as interleaved floats into one
    (K, 2n) buffer, with np.square (one read of p_k, the bits of the
    self-product), whose even and odd columns it sums.  A regression casts
    y once to y + 0j and forms w_k = p_k (y + 0j) with one complex
    multiply into a scratch (K, n) array.  The weight's imaginary part is
    zero, so Re w_k = y sqrt(2) cos and Im w_k = y sqrt(2) sin to the bit:
    the added term (p_k.imag * 0 or p_k.real * 0) is an exact +-0, which
    can flip only the sign of an exact-zero product.  It then sums w_k as
    a density sums p_k, and squares w_k in place (it is scratch) before
    summing its even and odd floats.  Row 0 is exact: n and n for a
    density, the sums of y and y^2 for a regression.  Each sum runs over
    one row of n points (the last axis, contiguous or every other float),
    which numpy's pairwise summation adds as it adds a contiguous 1-d
    array, and the divisions after it are elementwise, so row k of the
    table is the float that a one-sample pass, or the whole psi matrix,
    gives.  (A stack of one-point samples is the exception: numpy
    multiplies a one-element complex array in place by another rounding
    path, so there the trig recurrence can differ in the last bit.)
    loo=False skips the squares and their sums, for callers that never
    read theta_sq_loo (None then); theta_hat never reads them, so it is
    the same float either way.
    """
    points = np.ascontiguousarray(points, dtype=float)
    if points.ndim != 2 or points.size == 0:
        raise ValueError(f"need a nonempty (K, n) stack of samples, got shape {points.shape}")
    if m_max < 0:
        raise ValueError(f"m_max {m_max} must be >= 0")
    K, n = points.shape
    k_max = (m_max + 1) // 2
    if y is not None:
        y = np.asarray(y, dtype=complex)  # y + 0j, cast once per batch
        if y.shape != points.shape:
            raise ValueError(f"responses of shape {y.shape} for points of shape {points.shape}")
    # rows 0..2 k_max: an odd m_max also sums row m_max + 1, which is cut below
    totals = np.empty((2 * k_max + 1, K))
    squares = np.empty((2 * k_max + 1, K)) if loo else None
    add = np.add.reduce  # np.sum without its Python wrapper: the same reduction
    totals[0] = n if y is None else add(y.real, axis=-1)  # the sum of n ones, or of y
    if loo:
        squares[0] = n if y is None else add(np.square(y.real), axis=-1)
    # the squares, cos^2 and sin^2 interleaved, go into a (K, 2n) buffer for a
    # density and over the scratch w for a regression; the theta-only density pass
    # needs no buffer
    w = None if y is None else np.empty_like(y)
    buf = (np.empty((K, 2 * n)) if y is None else w.view(float)) if loo else None
    # every view the loop reads or writes is bound once per batch: the rows it
    # sums into, the columns of the squares, and the parts of the one buffer the
    # sums read (exponentials steps p_k in place, so p_1's views hold for every k)
    cos_rows, sin_rows = list(totals[1::2]), list(totals[2::2])
    if loo:
        cos_sq_rows, sin_sq_rows = list(squares[1::2]), list(squares[2::2])
        evens, odds = buf[:, 0::2], buf[:, 1::2]
    for i, p in enumerate(TrigBasis().exponentials(points, k_max)):
        if i == 0:
            src = p if y is None else w
            re, im, flat = src.real, src.imag, src.view(float)
        if y is not None:
            np.multiply(p, y, out=w)
        add(re, axis=-1, out=cos_rows[i])
        add(im, axis=-1, out=sin_rows[i])
        if loo:
            np.square(flat, out=buf)
            add(evens, axis=-1, out=cos_sq_rows[i])
            add(odds, axis=-1, out=sin_sq_rows[i])
    totals = totals[: m_max + 1].T.copy()  # row k for sample k
    theta = totals / n
    if y is None:
        theta[:, 0] = 1.0
    sq_loo = (totals**2 - squares[: m_max + 1].T) / (n * (n - 1)) if loo and n > 1 else None
    return CoefficientTable(model="density" if y is None else "regression", n=n,
                            theta_hat=theta, theta_sq_loo=sq_loo)


def ise_profile(table: CoefficientTable, cross: np.ndarray, norm_sq: float) -> np.ndarray:
    """ISE(m) for every m = 1..m_max at once.

    cross and norm_sq are the truth's coefficients c_j on the grid and
    its squared norm (quadrature.simpson_projection); entry m-1 is the
    Simpson-grid ISE of the dimension-m estimator, the quadrature of
    (sum_{j<=m} theta_j phi_j - f)^2 done by Parseval on a grid where the
    basis is orthonormal (more than 4 ceil(M/2) + 1 points, module
    docstring):

        ISE(m) = ||f||_W^2 + sum_{j<=m} theta_j (theta_j - 2 c_j),

    one cumulative sum.  Over harness.table_study() (12 configs, 501
    replications, M = 100 on 1025 points) it is within 7.4e-13 relative of
    the quadratic form in the grid Gram matrix, and it matches the per-m
    grid quadrature to about 1e-12.
    """
    theta = table.theta_hat
    steps = theta * (theta - 2.0 * cross[: table.m_max + 1])
    steps[..., 0] += norm_sq
    return np.cumsum(steps, axis=-1)[..., 1:]


def sigma_y_hat(y) -> np.ndarray:
    """Empirical second moment n^-1 sum y_i^2 of each row of a (K, n) stack of responses.

    Returns the K row values.  Any other shape raises ValueError, as in
    empirical_coefficients.  Each row's sum of np.square(y), the bits of
    y * y, runs over its last axis: the float that the sum of that row as
    a 1-d array gives.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.size == 0:
        raise ValueError(f"need a nonempty (K, n) stack of responses, got shape {y.shape}")
    return np.sum(np.square(y), axis=-1) / y.shape[-1]
