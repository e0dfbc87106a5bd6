"""Dimension selectors: penalized contrast (GL), model selection, CV, oracle.

Every selector is a function of one CoefficientTable, whose length fixes
the dimension grid m = 1..M (M = table.m_max), and returns the
dimension, the smallest minimizer of its criterion: an int for a
one-sample table, an int64 array of one dimension per row for a stacked
table, so one call scores a whole batch of replications.  The criteria
themselves are penalized_profile (GL and MS) and cv_profile (CV), and
they run along the last axis (cumsum, argmin), which numpy computes row
by row exactly as for a 1-d array: a row of a stack selects what its
one-sample table selects.  GL and MS read theta_hat; CV also reads the
table's leave-one-out squares, so no selector goes back to the sample.
The criteria exclude the index-0 coefficient: it is common to every
candidate dimension in both models and cannot change an argmin.

The penalized-contrast selector minimizes Xi_m + pen(m), where

    Xi_m = max_{m <= k <= M} ( || f_m - f_k ||^2 - pen(k) ).

With S_m = sum_{j=1..m} theta_hat_j^2, nestedness gives Xi_m + pen(m) =
max_{k >= m}(S_k - pen_k) - (S_m - pen_m): zero exactly at the suffix
maxima of S_m - pen_m, so its smallest minimizer is the smallest argmin
of pen_m - S_m, the model-selection criterion penalized_profile.  GL and
MS are therefore one rule, select_with_pens, and runs that give MS the
GL constant (the default) print equal gl and ms columns.  The contrast
has no positive part; the README records why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SUP_NORM_SQ
from .dependence import CASES
from .estimators import CoefficientTable, ise_profile

#: Theorem penalty constants c such that pen(m) = c * sigma^2 * m / n, with
#: sigma^2 = sigma_hat^2 for regression and 1 for densities.
PENALTY_PRESETS = {
    "density_iid": 36.0 * SUP_NORM_SQ,
    "regression_iid": 144.0 * SUP_NORM_SQ,
    "density_dep": 288.0 * SUP_NORM_SQ,
    "regression_dep": 1152.0 * SUP_NORM_SQ,
}


def theorem_constant(model: str, case: int) -> float:
    """Theorem penalty constant for a (model, dependence case) pair.

    The preset of the case's scheme (iid or dep) in dependence.CASES;
    raises ValueError for an unknown model or case.
    """
    if case not in CASES:
        raise ValueError(f"unknown dependence case {case}")
    scheme = f"{model}_{CASES[case].scheme}"
    if scheme not in PENALTY_PRESETS:
        raise ValueError(f"unknown model {model!r}")
    return PENALTY_PRESETS[scheme]


def penalty_vector(c, M: int, n: int, sigma_sq=1.0) -> np.ndarray:
    """pen(m) = c * sigma_sq * m / n for m = 1..M (non-decreasing for c >= 0).

    The single penalty formula of the package: penalized contrast, model
    selection, bands, calibration and the oracle-inequality audit all
    build their penalties here.  Arrays of noise levels and of constants
    give one penalty row per pair, with the axes of sigma_sq first (one
    per replication of a stacked table), then those of c: shape
    sigma_sq.shape + c.shape + (M,).  Every row is bitwise equal to the
    scalar call.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(c >= 0.0):  # NaN fails the comparison too
        raise ValueError("penalty constant must be nonnegative")
    sigma_sq = np.asarray(sigma_sq, dtype=float)
    scale = sigma_sq.reshape(sigma_sq.shape + (1,) * c.ndim) * c
    return scale[..., None] * np.arange(1, M + 1) / n


def _check_grid(table: CoefficientTable, M: int) -> None:
    if M < 1 or M > table.m_max:
        raise ValueError(f"dimension grid 1..{M} outside the table (m_max={table.m_max})")


def penalized_profile(table: CoefficientTable, pens) -> np.ndarray:
    """The penalized criterion pen_m - S_m for m = 1..M, M = pens.shape[-1].

    fl(pen_m - S_m) = -fl(S_m - pen_m), so its first minimizer is bit for
    bit the first exact zero of the suffix-maximum contrast (module
    docstring).  The axes of pens are those of penalty_vector.  On a
    one-sample table they are one axis per constant: a (C, M) stack
    gives one row per constant.  On a table of K rows the rows' axis
    comes first (length K, or 1 for penalties shared by all rows; one
    (M,) vector is shared too), then the constants': a (K, C, M) block
    gives (K, C) rows.
    """
    pens = np.asarray(pens, dtype=float)
    M = pens.shape[-1]
    _check_grid(table, M)
    sums = np.cumsum(table.theta_hat[..., 1 : M + 1] ** 2, axis=-1)
    extra = max(0, pens.ndim - sums.ndim)  # the constants' axes, between rows and m
    return pens - sums.reshape(sums.shape[:-1] + (1,) * extra + (M,))


def cv_profile(table: CoefficientTable) -> np.ndarray:
    """Leave-one-out CV(m) for m = 1..M.

    CV(m) sums theta_hat_j^2 - 2 theta_sq_loo_j over the estimated
    indices j <= m.  Regression includes the estimated index-0 term in
    every candidate (a shift common to all m), so its cumulative sum
    starts at j = 0.
    """
    if table.theta_sq_loo is None:
        raise ValueError("cross-validation needs the leave-one-out squares: the table is of "
                         "a one-point sample (n = 1) or was built without the psi^2 sums "
                         "(empirical_coefficients with loo=False)")
    _check_grid(table, table.m_max)
    start = 1 if table.model == "density" else 0
    terms = np.cumsum(table.theta_hat[..., start:] ** 2 - 2.0 * table.theta_sq_loo[..., start:],
                      axis=-1)
    return terms if start else terms[..., 1:]


def _first_argmin(profile) -> int | np.ndarray:
    """The dimension m = 1..M of the smallest minimizer of each last-axis row of profile.

    An int for one row (a 1-d profile), else the int64 array of the rows' dimensions.
    """
    m = np.argmin(profile, axis=-1) + 1
    return int(m) if m.ndim == 0 else m


def select_with_pens(table: CoefficientTable, pens) -> int | np.ndarray:
    """The penalized selector: smallest argmin of penalized_profile.

    A (C, M) stack of penalties is scored row by row and gives the int64
    array of the C dimensions; so do a stacked table and its penalties.
    """
    return _first_argmin(penalized_profile(table, pens))


def select_ms(table: CoefficientTable, c: float, sigma_sq=1.0) -> int | np.ndarray:
    """Model selection: smallest argmin of -sum_{j<=m} theta_hat_j^2 + c m sigma^2 / n.

    The density model has no response scale, so sigma_sq defaults to 1;
    a stacked table takes one sigma_sq per row, or one shared value.
    """
    if not c > 0.0:  # NaN fails the comparison too
        raise ValueError("model-selection constant must be positive")
    return select_with_pens(table, penalty_vector(c, table.m_max, table.n, sigma_sq))


def select_cv(table: CoefficientTable) -> int | np.ndarray:
    """Smallest argmin of CV(m) over m = 1..M."""
    return _first_argmin(cv_profile(table))


def oracle_criteria(table: CoefficientTable, cross: np.ndarray, norm_sq: float) -> np.ndarray:
    """Realized ISE(m), m = 1..M, from the truth part of one Simpson grid.

    cross and norm_sq come from quadrature.simpson_projection.  This is
    ise_profile under a second name, and it exists for that name:
    bench/tracing.py wraps harness.oracle_criteria (the harness's call)
    and selection.ise_profile (the call inside) as two separate layers,
    and tests/test_bench_layers.py requires both names.  Spans emitted by
    the runner itself would make it unnecessary.
    """
    return ise_profile(table, cross, norm_sq)


@dataclass(frozen=True)
class Lemma1Audit:
    """Pathwise oracle-inequality audit of one table, for every m = 1..M.

    lhs is the loss of the selected dimension; rhs and passed are arrays
    whose entry m - 1 belongs to comparison dimension m.
    """

    lhs: float
    rhs: np.ndarray
    passed: np.ndarray

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))


def lemma1_audit(table: CoefficientTable, pens, theta_true) -> Lemma1Audit:
    """Check || f_mtilde - f ||^2 <= 85 max(bias_m^2, pen_m) + 42 max_{k>=m} (...)_+ .

    The bound is evaluated for every m = 1..M at once.  theta_true are the
    target's coefficients 0..J; the audit treats the J-truncated projection
    as the target, for which the inequality is exact (it holds pathwise for
    any coefficient sequence).  Requires a non-decreasing, nonnegative
    finite penalty subsequence.
    """
    pens = np.asarray(pens, dtype=float)
    M = pens.size
    if not np.all(np.isfinite(pens) & (pens >= 0.0)) or np.any(np.diff(pens) < 0.0):
        raise ValueError("lemma audit needs finite nonnegative non-decreasing penalties")
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_true.size < M + 1:
        raise ValueError("need true coefficients up to the dimension grid")

    m_sel = select_with_pens(table, pens)
    diff_sq = (table.theta_hat[: M + 1] - theta_true[: M + 1]) ** 2
    err_norm = np.cumsum(diff_sq)  # || f_hat_k - f_k ||^2 at index k
    tail = np.concatenate((np.cumsum((theta_true**2)[::-1])[::-1], [0.0]))

    lhs = float(err_norm[m_sel] + tail[m_sel + 1])
    bias_sq = tail[2 : M + 2]  # bias_m^2 = sum_{j > m} theta_j^2
    dev = err_norm[1:] - pens / 6.0  # deviation at k, minus pen(k) / 6
    suffix = np.maximum.accumulate(dev[::-1])[::-1]  # max over k >= m
    rhs = 85.0 * np.maximum(bias_sq, pens) + 42.0 * np.maximum(suffix, 0.0)
    passed = lhs <= rhs * (1.0 + 1e-9) + 1e-15  # slack for rounding in rhs
    return Lemma1Audit(lhs=lhs, rhs=rhs, passed=passed)
