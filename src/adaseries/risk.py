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

The lags and their transfer operators are the case's entry in
dependence.CASES.  Case 1 (iid) sums no lag: gamma_j(k) = 0 for k >= 1.
In case 2 the uniformised logistic map is the tent map, G o T = tent o G,
so U_{i+k} = tent^k(U_i) and gamma_j(k) = int psibar_j (L^k psibar_j)
with psibar_j the centred psi_j and L the tent-map transfer operator

    (L g)(u) = [g(u / 2) + g(1 - u / 2)] / 2.

L halves derivatives, so |L^k psibar_j| decays like 2^-k and the lag sum
is truncated at the entry's 40 lags.  Case 3 (the bilateral
autoregression), whose entry has no lags, has no such closed form here.

All integrals are composite Simpson on one uniform grid of
quadrature.DEFAULT_GRID points; psi_j lives on a u grid, the bias on an
x grid of the same size.
"""

from __future__ import annotations

import numpy as np

from .basis import TrigBasis
from .dependence import CASES
from .quadrature import DEFAULT_GRID, simpson_projection, simpson_weights, unit_grid
from .targets import DENSITY_TARGETS, REGRESSION_TARGETS, marginal_law


def autocovariances(psi: np.ndarray, lags: tuple) -> np.ndarray:
    """gamma(k) = Cov(psi(U_0), psi(U_k)), U_0 uniform, for k = 0..len(lags).

    lags[k - 1] is the transfer operator of lag k, acting on grid values
    (a Case.lags of dependence.CASES).  psi holds one function per row on
    the uniform Simpson grid of its length; the result has shape
    (len(lags) + 1, rows).
    """
    w = simpson_weights(psi.shape[-1])
    centred = psi - (psi @ w)[..., None]
    out = np.empty((len(lags) + 1,) + psi.shape[:-1])
    moved = centred
    out[0] = np.square(centred) @ w
    for k, transfer in enumerate(lags, 1):
        moved = transfer(moved)
        out[k] = (centred * moved) @ w
    return out


def risk_decomposition(model: str, target: str, case: int, n: int,
                       m_max: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """(sum_j Var(theta_hat_j), bias^2) of the dimension-m estimator, m = 1..m_max.

    model is 'density' or 'regression', target a key of the matching
    registry, case a key of dependence.CASES whose entry has lags (1 and
    2).  Raises ValueError for any other case, for which no exact
    autocovariance is available, and for any other argument outside these.
    The lag sum stops at lag n - 1.
    """
    if case not in CASES or CASES[case].lags is None:
        exact = " and ".join(str(key) for key, entry in CASES.items() if entry.lags is not None)
        raise ValueError(f"no exact risk for dependence case {case}; only cases {exact}")
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
    design = basis.design_matrix(grid, m_max)
    if model == "density":
        psi = basis.design_matrix(marginal_law(target).quantile(grid), m_max)
    else:
        psi = design * f_vals
    # psi_0 is constant for densities, so the known coefficient 0 gets no variance
    gamma = autocovariances(psi, CASES[case].lags[: n - 1])
    k = np.arange(1, len(gamma))
    var = (gamma[0] + 2.0 * ((1.0 - k / n) @ gamma[1:])) / n
    if model == "regression":
        var += fn.noise_sigma**2 / n

    theta, norm_sq = simpson_projection(design, f_vals)
    bias_sq = norm_sq - np.cumsum(theta**2)
    return np.cumsum(var)[1:], bias_sq[1:]
