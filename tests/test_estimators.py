import math
import tracemalloc

import numpy as np
import pytest

from adaseries.basis import SUP_NORM_SQ, TrigBasis
from adaseries.dependence import gen_density_sample, gen_regression_sample, stream
from adaseries import estimators
from adaseries.estimators import (CoefficientTable, empirical_coefficients,
                                  ise_gram, ise_profile, sigma_y_hat)
from adaseries.harness import ExperimentConfig, ExperimentContext
from adaseries.quadrature import DEFAULT_GRID, integrate_values, simpson_weights, unit_grid
from adaseries.targets import (MarginalLaw, density_f1, regression_f1,
                               true_coefficients)
from test_basis import eval_one


def series_values(table, m, x):
    """Dimension-m series estimate sum_{j<=m} theta_hat_j phi_j at points x."""
    if m < 0 or m > table.m_max:
        raise ValueError(f"dimension {m} outside [0, {table.m_max}]")
    design = TrigBasis().design_matrix(x, m)
    return np.sum(table.theta_hat[: m + 1, None] * design, axis=0)


def ise(est_values, truth_values):
    """Integrated squared error on a shared uniform Simpson grid."""
    diff = np.asarray(est_values, dtype=float) - np.asarray(truth_values, dtype=float)
    return float(np.sum(diff * diff * simpson_weights(diff.size)))


def ise_of_series(table, m, truth_fn, n_points=DEFAULT_GRID):
    grid = unit_grid(n_points)
    return ise(series_values(table, m, grid), truth_fn(grid))


def l2_gap(table, m, k):
    """|| f_m - f_k ||^2 = sum_{j=m+1..k} theta_hat_j^2 for nested estimators."""
    if m > k:
        raise ValueError("l2_gap needs m <= k")
    if m < 0 or k > table.m_max:
        raise ValueError("l2_gap indices outside the table")
    seg = table.theta_hat[m + 1 : k + 1]
    return float(np.sum(seg * seg))


def grid_ise_profile(table, truth_grid, basis_grid, weights):
    """Reference ISE(m), m = 1..m_max: residuals on the grid, summed per m.

    The grid form ise_profile replaced; the Gram form must agree with it.
    """
    theta = table.theta_hat
    base = theta[0] * basis_grid[0] - np.asarray(truth_grid, dtype=float)
    resid = np.cumsum(theta[1:, None] * basis_grid[1 : table.m_max + 1], axis=0) + base
    return np.sum(resid * resid * weights, axis=1)


def test_density_coefficients_pinned():
    (table,) = empirical_coefficients([[0.25, 0.25]], 3)
    assert table.theta_hat[0] == 1.0
    assert table.theta_hat[1] == pytest.approx(0.0, abs=1e-15)  # cos(pi/2) = 0
    (single,) = empirical_coefficients([[0.0]], 1)
    assert single.theta_hat[1] == pytest.approx(math.sqrt(2.0))
    assert single.theta_sq_loo is None  # no pair of observations


def test_leave_one_out_squares_pinned():
    # psi_1 = sqrt(2) cos(2 pi x) at 0, 0.5, 0.5: (sqrt 2, -sqrt 2, -sqrt 2)
    (table,) = empirical_coefficients([[0.0, 0.5, 0.5]], 1)
    # (T^2 - sum psi^2) / (n (n - 1)) = (2 - 6) / 6
    assert table.theta_sq_loo[1] == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert table.theta_sq_loo[0] == 1.0
    (reg,) = empirical_coefficients([[0.25, 0.75]], 0, y=[[1.0, 3.0]])
    # psi_0 = y: (T^2 - sum y^2) / 2 = (16 - 10) / 2, the pair product 2 y_1 y_2 / 2
    assert reg.theta_sq_loo[0] == 3.0


def materialized_coefficients(points, m_max, y=None):
    """Reference table from the whole (m_max + 1) x n psi matrix.

    The form empirical_coefficients replaced by row blocks; the streamed
    sums must be the same floats.
    """
    psi = TrigBasis().design_matrix(points, m_max)
    if y is not None:
        psi *= y
    n = psi.shape[1]
    totals = np.sum(psi, axis=1)
    theta = totals / n
    if y is None:
        theta[0] = 1.0
    loo = (totals**2 - np.sum(psi * psi, axis=1)) / (n * (n - 1)) if n > 1 else None
    return theta, loo


@pytest.mark.parametrize("n", [1, 2, 1000, 20000])
def test_streamed_coefficients_match_materialized_psi(monkeypatch, n):
    # blocks of 2 rows end on a cos row, blocks of 3 alternate cos and sin;
    # m_max = 100 ends on a sin row, 101 on a cos row.  A (3, n) stack of
    # samples gives each row's table, in blocks of the same number of rows,
    # except at n = 1: numpy multiplies a one-element complex array in place
    # by another rounding path than a longer one.
    rng = np.random.default_rng(n)
    x, y, u = rng.uniform(size=(3, n)), rng.normal(size=(3, n)), rng.uniform(size=(3, n))
    for points, resp in ((x, None), (u, y)):
        for m_max in (100, 101):
            for k in range(3):
                theta, loo = materialized_coefficients(points[k], m_max,
                                                       None if resp is None else resp[k])
                for rows in (2, 3, 5, m_max + 1):
                    monkeypatch.setattr(estimators, "_BLOCK_POINTS", rows * n)
                    (table,) = empirical_coefficients(points[k : k + 1], m_max,
                                                      None if resp is None else resp[k : k + 1])
                    monkeypatch.setattr(estimators, "_BLOCK_POINTS", rows * 3 * n)
                    stacked = empirical_coefficients(points, m_max, resp)[k]
                    for got in (table, stacked) if n > 1 else (table,):
                        assert np.array_equal(got.theta_hat, theta)
                        if n == 1:
                            assert got.theta_sq_loo is None and loo is None
                        else:
                            assert np.array_equal(got.theta_sq_loo, loo)


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, 1000, 8192, 8193, 20000])
@pytest.mark.parametrize("K", [1, 3, 16])
def test_last_axis_sum_is_the_row_sum(n, K):
    """The numpy behaviour that batched coefficients rest on.

    Summing a C-contiguous (rows, K, n) block over its last axis into a
    (rows, K) array, as empirical_coefficients does, gives every row the
    float that np.sum gives the same row as a 1-d array: numpy reduces
    each contiguous row on its own, with the same pairwise summation.
    """
    block = np.random.default_rng(n * K).standard_normal((3, K, n))
    out = np.empty((3, K))
    np.sum(block, axis=-1, out=out)
    for i in range(3):
        for k in range(K):
            assert out[i, k] == np.sum(block[i, k].copy())


def test_coefficient_memory_does_not_grow_with_m():
    # the psi matrix alone would take (M + 1) * 8 * n = 162 MB
    n, m_max = 200_000, 100
    rng = np.random.default_rng(4)
    x, y, u = rng.uniform(size=n), rng.normal(size=n), rng.uniform(size=n)
    for points, resp in ((x[None], None), (u[None], y[None])):  # (1, n) views
        tracemalloc.start()
        try:
            empirical_coefficients(points, m_max, resp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * n + 2 * 2**20


def test_quantile_memory_is_bounded_by_blocks(law_f2):
    # ~17 n-length temporaries of one whole-sample pass would take 130 MiB;
    # in blocks of _QUANTILE_BLOCK points only the output and the domain check are n-long
    n = 10**6
    u = np.random.default_rng(9).uniform(size=n)
    tracemalloc.start()
    try:
        law_f2.quantile(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n + 16 * 2**20


def test_regression_zero_responses():
    (table,) = empirical_coefficients([[0.1, 0.5, 0.9]], 4, y=[[0.0, 0.0, 0.0]])
    np.testing.assert_allclose(table.theta_hat, 0.0, atol=0.0)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        empirical_coefficients([], 3)


def test_only_a_stack_of_samples_is_accepted():
    # one convention: a (K, n) stack in, K tables out; y has the points' shape
    for points in ([0.25, 0.75], 0.5, np.zeros((1, 1, 4)), np.empty((1, 0))):
        with pytest.raises(ValueError):
            empirical_coefficients(points, 3)
    with pytest.raises(ValueError):
        empirical_coefficients([[0.25, 0.75]], 3, y=[1.0, 3.0])
    tables = empirical_coefficients(np.full((3, 4), 0.25), 3)
    assert isinstance(tables, list) and len(tables) == 3


def test_nested_prefix_bit_exact():
    rng = np.random.default_rng(0)
    sample = rng.uniform(size=(1, 100))
    (full,) = empirical_coefficients(sample, 30)
    (small,) = empirical_coefficients(sample, 12)
    np.testing.assert_array_equal(full.theta_hat[:13], small.theta_hat)
    np.testing.assert_array_equal(full.theta_sq_loo[:13], small.theta_sq_loo)


def test_l2_gap_examples():
    table = CoefficientTable("regression", n=10, theta_hat=np.array([0.7, 0.3, 0.4]))
    assert l2_gap(table, 1, 1) == 0.0
    assert l2_gap(table, 0, 2) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        l2_gap(table, 2, 1)


def test_l2_gap_matches_quadrature():
    rng = np.random.default_rng(4)
    (table,) = empirical_coefficients(rng.uniform(size=(1, 64)), 12)
    grid = unit_grid()
    est_m = series_values(table, 4, grid)
    est_k = series_values(table, 11, grid)
    gap_quad = ise(est_m, est_k)
    assert gap_quad == pytest.approx(l2_gap(table, 4, 11), abs=1e-8)


def test_series_estimate_matches_direct_sum():
    rng = np.random.default_rng(8)
    table = CoefficientTable("density", n=50,
                             theta_hat=np.concatenate(([1.0], rng.standard_normal(9))))
    x = rng.uniform(size=40)
    direct = sum(table.theta_hat[j] * eval_one(j, x) for j in range(8))
    np.testing.assert_allclose(series_values(table, 7, x), direct, atol=1e-12)
    with pytest.raises(ValueError):
        series_values(table, 10, x)


def test_ise_zero_and_orthonormal_perturbation():
    truth = density_f1()
    grid = unit_grid()
    truth_vals = truth.eval(grid)
    assert ise(truth_vals, truth_vals) == 0.0
    perturbed = truth_vals + 0.2 * eval_one(1, grid)
    assert ise(perturbed, truth_vals) == pytest.approx(0.04, abs=1e-8)


def test_ise_parseval_split_oracle():
    # quadrature ISE equals sum of coefficient errors plus the truncated tail
    truth = density_f1()
    theta_true = true_coefficients(truth.eval, 400)
    x = gen_density_sample(500, 1, MarginalLaw(truth), [stream(3, 0)])
    (table,) = empirical_coefficients(x, 20)
    m = 14
    quad = ise_of_series(table, m, truth.eval)
    split = (np.sum((table.theta_hat[: m + 1] - theta_true[: m + 1]) ** 2)
             + np.sum(theta_true[m + 1 :] ** 2))
    assert quad == pytest.approx(split, abs=1e-4)


def test_ise_profile_matches_per_m_quadrature():
    law_target = density_f1()
    (table,) = empirical_coefficients(np.random.default_rng(9).uniform(size=(1, 128)), 15)
    grid = unit_grid(1025)
    weights = simpson_weights(1025)
    profile = ise_profile(table, *ise_gram(TrigBasis().design_matrix(grid, 15),
                                           law_target.eval(grid), weights))
    for m in (1, 5, 15):
        direct = ise(series_values(table, m, grid), law_target.eval(grid))
        assert profile[m - 1] == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("model,target", [("density", "f1"), ("density", "f2"),
                                          ("regression", "f1"), ("regression", "f2")])
def test_gram_ise_matches_grid_form(model, target):
    """Gram-form ISE against the grid form on simulated tables of every case."""
    weights = simpson_weights(1025)
    for case in (1, 2, 3):
        cfg = ExperimentConfig(model=model, target=target, case=case, n=400, reps=1, seed=5)
        ctx = ExperimentContext(cfg)
        for table, _ in ctx.replications(0, 8):
            fast = ctx.ise_by_m(table)
            ref = grid_ise_profile(table, ctx.truth_grid, ctx.basis_grid, weights)
            np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=0.0)
            assert np.argmin(fast) == np.argmin(ref)


def test_ise_profile_prefix_of_smaller_table():
    """A table cut at M gives the first M entries of the full profile."""
    design = TrigBasis().design_matrix(unit_grid(513), 20)
    pieces = ise_gram(design, density_f1().eval(unit_grid(513)), simpson_weights(513))
    (table,) = empirical_coefficients(np.random.default_rng(2).uniform(size=(1, 90)), 20)
    cut = CoefficientTable(model="density", n=90, theta_hat=table.theta_hat[:8])
    np.testing.assert_array_equal(ise_profile(cut, *pieces), ise_profile(table, *pieces)[:7])


def test_sigma_y_hat_pinned():
    assert sigma_y_hat([[1.0, -1.0]])[0] == pytest.approx(1.0)
    assert sigma_y_hat([[0.0, 0.0, 0.0]])[0] == 0.0
    with pytest.raises(ValueError):
        sigma_y_hat([[]])


def test_sigma_y_hat_takes_only_a_stack():
    # the convention of empirical_coefficients: a (K, n) stack in, K values out
    for y in ([], [1.0, -1.0], 2.0, np.ones((1, 1, 4)), np.empty((2, 0))):
        with pytest.raises(ValueError):
            sigma_y_hat(y)
    y = np.random.default_rng(5).normal(size=(3, 1001))
    values = sigma_y_hat(y)
    assert values.shape == (3,)
    for row, value in zip(y, values):  # each row's float, as a 1-d sample gives it
        assert value == float(np.sum(row * row)) / row.size


def test_sigma_y_hat_matches_population_identity():
    target = regression_f1()
    _, y = gen_regression_sample(10**5, 1, target, [stream(21, 0)])
    expected = 0.25 + integrate_values(target.eval(unit_grid()) ** 2)
    se = (y**2).std(ddof=1) / math.sqrt(y.size)
    (value,) = sigma_y_hat(y)
    assert value == pytest.approx(expected, abs=3.0 * se)


def test_density_estimator_is_one_plus_series():
    rng = np.random.default_rng(13)
    (table,) = empirical_coefficients(rng.uniform(size=(1, 200)), 8)
    x = np.linspace(0.0, 1.0, 31)
    tail = sum(table.theta_hat[j] * eval_one(j, x) for j in range(1, 9))
    np.testing.assert_allclose(series_values(table, 8, x), 1.0 + tail, atol=1e-12)


def test_coefficient_unbiasedness_monte_carlo():
    # MC mean of theta_hat_j within 4 MC standard errors of the quadrature value
    reps, n, m_top = 2000, 200, 10
    law = MarginalLaw(density_f1())
    theta_true = true_coefficients(law.density.eval, m_top)
    rng = np.random.default_rng(31)
    draws = law.quantile(rng.uniform(size=(reps * n)))
    acc = np.zeros((reps, m_top))
    for r in range(reps):
        design = TrigBasis().design_matrix(draws[r * n : (r + 1) * n], m_top)
        acc[r] = np.sum(design[1:], axis=1) / n
    mc_mean = acc.mean(axis=0)
    mc_se = acc.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mc_mean - theta_true[1:]) <= 4.0 * mc_se)

    target = regression_f1()
    theta_true_r = true_coefficients(target.eval, m_top)
    acc_r = np.zeros((reps, m_top + 1))
    for r in range(reps):
        u, y = gen_regression_sample(n, 1, target, [stream(77, r)])
        acc_r[r] = empirical_coefficients(u, m_top, y)[0].theta_hat
    mc_mean_r = acc_r.mean(axis=0)
    mc_se_r = acc_r.std(axis=0, ddof=1) / math.sqrt(reps)
    assert np.all(np.abs(mc_mean_r - theta_true_r) <= 4.0 * mc_se_r)


def test_variance_bound_small():
    # lighter version of the acceptance variance criterion
    reps, n = 600, 500
    law = MarginalLaw(density_f1())
    rng = np.random.default_rng(41)
    draws = law.quantile(rng.uniform(size=(reps * n)))
    thetas = np.empty((reps, 20))
    for r in range(reps):
        design = TrigBasis().design_matrix(draws[r * n : (r + 1) * n], 20)
        thetas[r] = np.sum(design[1:], axis=1) / n
    variances = thetas.var(axis=0, ddof=1)
    for m in (5, 10, 20):
        assert np.sum(variances[:m]) <= 1.1 * SUP_NORM_SQ * m / n
