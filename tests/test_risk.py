import numpy as np
import pytest

from adaseries.basis import TrigBasis
from adaseries.quadrature import unit_grid
from adaseries.dependence import CASES
from adaseries.risk import autocovariances, risk_decomposition
from adaseries.targets import DENSITY_TARGETS, REGRESSION_TARGETS, MarginalLaw
from reference import brute_force_lag_covariances, iid_risk_reference

N = 1000
M = 100


def expected_risk(model, target, case, n, m_max):
    """E ISE(m), m = 1..m_max: the sum of the two parts of risk_decomposition."""
    variance, bias_sq = risk_decomposition(model, target, case, n, m_max)
    return variance + bias_sq


@pytest.mark.parametrize("model,target,min_risk,m_star", [
    ("density", "f1", 0.010741, 9), ("density", "f2", 0.012069, 9),
    ("regression", "f1", 0.007096, 17), ("regression", "f2", 0.020506, 8)])
def test_case1_minimum_pinned(model, target, min_risk, m_star):
    risk = expected_risk(model, target, 1, N, M)
    assert risk.shape == (M,)
    assert int(np.argmin(risk)) + 1 == m_star
    assert abs(risk.min() - min_risk) <= 1e-5


@pytest.mark.parametrize("model,target", [("density", "f1"), ("density", "f2"),
                                          ("regression", "f1"), ("regression", "f2")])
def test_case1_matches_x_space_reference(model, target):
    variance, bias_sq = risk_decomposition(model, target, 1, N, M)
    ref_variance, ref_bias_sq = iid_risk_reference(model, target, N, M)
    np.testing.assert_allclose(variance + bias_sq, ref_variance + ref_bias_sq, rtol=1e-4)
    # u-space Simpson of the steep density-f1 psi_j is good to ~3e-7 here
    np.testing.assert_allclose(variance, ref_variance, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(bias_sq, ref_bias_sq, rtol=1e-4, atol=1e-12)


@pytest.mark.parametrize("model,target,min_risk,m_star", [
    ("density", "f1", 0.00945, 9), ("density", "f2", 0.01021, 9),
    ("regression", "f1", 0.00705, 17), ("regression", "f2", 0.0195, 8)])
def test_case2_minimum_pinned(model, target, min_risk, m_star):
    risk = expected_risk(model, target, 2, N, M)
    assert int(np.argmin(risk)) + 1 == m_star
    assert abs(risk.min() - min_risk) <= 1e-4


def _psi_density_f2(size, j_max=20):
    law = MarginalLaw(DENSITY_TARGETS["f2"]())
    return TrigBasis().design_matrix(law.quantile(unit_grid(size)), j_max)[1:]


def _psi_regression_f1(size, j_max=20):
    u = unit_grid(size)
    return TrigBasis().design_matrix(u, j_max) * REGRESSION_TARGETS["f1"]().eval(u)


@pytest.mark.parametrize("make_psi", [_psi_density_f2, _psi_regression_f1])
def test_tent_autocovariances_match_brute_force(make_psi):
    lags = 6
    got = autocovariances(make_psi(4097), CASES[2].lags[:lags])
    want = brute_force_lag_covariances(make_psi(2**16 + 1), lags)
    assert got.shape == want.shape
    assert np.max(np.abs(want[1:])) > 0.01  # the lags carry real dependence
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def test_case3_and_bad_arguments_raise():
    with pytest.raises(ValueError, match="case 3"):
        risk_decomposition("density", "f1", 3, N, M)
    with pytest.raises(ValueError):
        risk_decomposition("regression", "f1", 1, 0, M)
    with pytest.raises(ValueError):
        risk_decomposition("mixture", "f1", 1, N, M)
    with pytest.raises(ValueError, match="f1, f2, uniform"):
        risk_decomposition("density", "f3", 1, N, M)
    with pytest.raises(ValueError, match="f1, f2"):
        risk_decomposition("regression", "uniform", 1, N, M)
