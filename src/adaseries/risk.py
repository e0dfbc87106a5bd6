"""Exact expected risk of the series estimator under the documented process.

For the dimension-m estimator,

    E ISE(m) = bias^2(m) + sum_j Var(theta_hat_j)

where bias^2(m) = ||f||^2 - sum_{j <= m} theta_j^2 and the sum runs over
the estimated indices (j = 1..m for densities, whose coefficient 0 is the
known constant, and j = 0..m for regression).  theta_hat_j is the sample
mean of psi_j(U_i) over the uniform-marginal series U of the dependence
case, with psi_j = phi_j o Q for densities (Q the quantile of f) and
psi_j = f phi_j for regression, so

    Var(theta_hat_j) = n^-1 [gamma_j(0) + 2 sum_{k >= 1} (1 - k/n) gamma_j(k)]

with gamma_j(k) = Cov(psi_j(U_0), psi_j(U_k)); regression noise adds
sigma^2 / n for each index.

Case 1 (iid) has gamma_j(k) = 0 for k >= 1.  In case 2 the uniformised
logistic map is the tent map, G o T = tent o G, so U_{i+k} = tent^k(U_i)
and gamma_j(k) = int psibar_j (L^k psibar_j) with psibar_j the centred
psi_j and L the tent-map transfer operator

    (L g)(u) = [g(u / 2) + g(1 - u / 2)] / 2.

L halves derivatives, so |L^k psibar_j| decays like 2^-k and the lag sum
is truncated at CASE2_LAGS.  Case 3 (the bilateral autoregression) has no
such closed form here.

All integrals are composite Simpson on one uniform grid of
quadrature.DEFAULT_GRID points; psi_j lives on a u grid, the bias on an
x grid of the same size.
"""

from __future__ import annotations

import numpy as np

from .basis import TrigBasis
from .quadrature import DEFAULT_GRID, simpson_weights, unit_grid
from .targets import DENSITY_TARGETS, REGRESSION_TARGETS, marginal_law, true_coefficients

#: Lags summed in case 2; on the built-in targets E ISE(m) stops changing (to 1e-9) after 20.
CASE2_LAGS = 40


def _tent_transfer(g: np.ndarray) -> np.ndarray:
    """(L g)(u) = [g(u/2) + g(1 - u/2)] / 2 on the rows of g.

    Rows hold values on the uniform grid u_i = i h.  u_i / 2 and
    1 - u_i / 2 fall on the grid refined by midpoints, whose midpoint
    values are linearly interpolated.
    """
    size = g.shape[-1]
    fine = np.empty(g.shape[:-1] + (2 * size - 1,))
    fine[..., ::2] = g
    fine[..., 1::2] = 0.5 * (g[..., :-1] + g[..., 1:])
    return 0.5 * (fine[..., :size] + fine[..., size - 1:][..., ::-1])


def tent_autocovariances(psi: np.ndarray, lags: int) -> np.ndarray:
    """gamma(k) = Cov(psi(U_0), psi(tent^k U_0)), U_0 uniform, for k = 0..lags.

    psi holds one function per row on the uniform Simpson grid of its
    length; the result has shape (lags + 1, rows).
    """
    w = simpson_weights(psi.shape[-1])
    centred = psi - (psi @ w)[..., None]
    out = np.empty((lags + 1,) + psi.shape[:-1])
    moved = centred
    out[0] = (centred * centred) @ w
    for k in range(1, lags + 1):
        moved = _tent_transfer(moved)
        out[k] = (centred * moved) @ w
    return out


def risk_decomposition(model: str, target: str, case: int, n: int,
                       m_max: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """(sum_j Var(theta_hat_j), bias^2) of the dimension-m estimator, m = 1..m_max.

    model is 'density' or 'regression', target a key of the matching
    registry, case 1 (iid) or 2 (logistic map).  Raises ValueError for
    case 3, for which no exact autocovariance is available, and for any
    other argument outside these.
    """
    if case not in (1, 2):
        raise ValueError(f"no exact risk for dependence case {case}; only cases 1 and 2")
    if n < 1 or m_max < 1:
        raise ValueError("need n >= 1 and m_max >= 1")
    if model not in ("density", "regression"):
        raise ValueError(f"unknown model {model!r}")
    registry = DENSITY_TARGETS if model == "density" else REGRESSION_TARGETS
    if target not in registry:
        raise ValueError(f"unknown {model} target {target!r}; expected one of "
                         + ", ".join(registry))
    fn = registry[target]()

    grid = unit_grid(DEFAULT_GRID)
    basis = TrigBasis()
    f_vals = np.asarray(fn.eval(grid), dtype=float)
    if model == "density":
        psi = basis.design_matrix(marginal_law(target).quantile(grid), m_max)
    else:
        psi = basis.design_matrix(grid, m_max) * f_vals
    # psi_0 is constant for densities, so the known coefficient 0 gets no variance
    lags = min(CASE2_LAGS, n - 1) if case == 2 else 0
    gamma = tent_autocovariances(psi, lags)
    k = np.arange(1, lags + 1)
    var = (gamma[0] + 2.0 * ((1.0 - k / n) @ gamma[1:])) / n
    if model == "regression":
        var += fn.noise_sigma**2 / n

    theta = true_coefficients(fn.eval, m_max, DEFAULT_GRID)
    bias_sq = float(f_vals**2 @ simpson_weights(DEFAULT_GRID)) - np.cumsum(theta**2)
    return np.cumsum(var)[1:], bias_sq[1:]
