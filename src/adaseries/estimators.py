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
they are not made at all, and theta_hat is the same float.  The
realized ISE(m) is the Simpson-grid quadrature written as a quadratic
form in theta_hat (ise_gram and ise_cross once per grid and truth,
ise_profile per table, stacked or not).
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
    (K, 2n) buffer whose even and odd columns it sums.  A regression casts
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
    if y is not None:
        y = np.asarray(y, dtype=complex)  # y + 0j, cast once per batch
        if y.shape != points.shape:
            raise ValueError(f"responses of shape {y.shape} for points of shape {points.shape}")
    totals = np.empty((m_max + 1, K))
    squares = np.empty((m_max + 1, K)) if loo else None
    add = np.add.reduce  # np.sum without its Python wrapper: the same reduction
    totals[0] = n if y is None else add(y.real, axis=-1)  # the sum of n ones, or of y
    if loo:
        squares[0] = n if y is None else add(y.real * y.real, axis=-1)
    # the squares, cos^2 and sin^2 interleaved, go into a (K, 2n) buffer for a
    # density and over the scratch w for a regression; the theta-only density pass
    # needs no buffer
    w = None if y is None else np.empty_like(y)
    buf = (np.empty((K, 2 * n)) if y is None else w.view(float)) if loo else None
    for k, p in enumerate(TrigBasis().exponentials(points, (m_max + 1) // 2), start=1):
        rows = range(2 * k - 1, min(2 * k, m_max) + 1)  # the last frequency may be cut
        p = p if y is None else np.multiply(p, y, out=w)
        for j, part in zip(rows, (p.real, p.imag)):
            add(part, axis=-1, out=totals[j])
        if loo:
            flat = p.view(float)
            np.multiply(flat, flat, out=buf)
            for j, part in zip(rows, (buf[:, 0::2], buf[:, 1::2])):
                add(part, axis=-1, out=squares[j])
    totals = totals.T.copy()  # row k for sample k
    theta = totals / n
    if y is None:
        theta[:, 0] = 1.0
    sq_loo = (totals**2 - squares.T) / (n * (n - 1)) if loo and n > 1 else None
    return CoefficientTable(model="density" if y is None else "regression", n=n,
                            theta_hat=theta, theta_sq_loo=sq_loo)


def ise_gram(basis_grid: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The Gram part of the Simpson-grid ISE: it depends on neither sample nor truth.

    With B the basis rows on the grid (j = 0..m_max) and W the quadrature
    weights, G = B W B^T is returned folded into its lower triangle
    (L_jj = G_jj, L_ji = 2 G_ji for i < j, zero above).  Read by
    ise_profile with the truth part of ise_cross.
    """
    weighted = basis_grid * weights
    gram = weighted @ basis_grid.T
    return np.tril(gram, -1) * 2.0 + np.diag(np.diagonal(gram))


def ise_cross(basis_grid: np.ndarray, truth_grid: np.ndarray,
              weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The truth part of the Simpson-grid ISE: c = B W f and ||f||_W^2 = f^T W f.

    B and W as in ise_gram, f the truth on the grid; the same weighted
    rows B W that ise_gram multiplies by B^T are multiplied by f.
    """
    truth = np.asarray(truth_grid, dtype=float)
    weighted = basis_grid * weights
    return weighted @ truth, float(np.sum(truth * truth * weights))


def ise_profile(table: CoefficientTable, gram_lower: np.ndarray, cross: np.ndarray,
                norm_sq: float) -> np.ndarray:
    """ISE(m) for every m = 1..m_max at once.

    gram_lower comes from ise_gram, cross and norm_sq from ise_cross;
    entry m-1 is the Simpson-grid ISE of the dimension-m estimator, the
    quadrature of (sum_{j<=m} theta_j phi_j - f)^2 done algebraically:

        ISE(m) = theta_{0:m}^T G theta_{0:m} - 2 theta_{0:m}^T c + ||f||_W^2.

    Row j of the folded Gram matrix L only reaches indices i <= j, so
    dimension m adds theta_m ((L theta)_m - 2 c_m) to ISE(m - 1) and one
    cumulative sum gives every m.  Values match the grid form to about
    1e-12 relative.
    """
    M = table.m_max
    theta = table.theta_hat
    products = np.matmul(gram_lower[: M + 1, : M + 1], theta[..., None])[..., 0]
    steps = theta * (products - 2.0 * cross[: M + 1])
    steps[..., 0] += norm_sq
    return np.cumsum(steps, axis=-1)[..., 1:]


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
