import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from adaseries.basis import SUP_NORM_SQ, TrigBasis
from adaseries.dependence import gen_density_sample, gen_regression_sample, stream
from adaseries.estimators import CoefficientTable, empirical_coefficients, ise_profile, sigma_y_hat
from adaseries.harness import ExperimentConfig, ExperimentContext
from adaseries.quadrature import integrate_values, simpson_projection, unit_grid
from adaseries.targets import MarginalLaw, density_f1, regression_f1, true_coefficients
from reference import eval_one, grid_ise_profile, materialized_coefficients, outer_design_matrix


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


@pytest.mark.parametrize("K, n", [(3, 1), (3, 2), (3, 1000), (3, 20000), (16, 1000),
                                  (1, (1 << 16) + 1)],
                         ids=["1", "2", "1000", "20000", "16x1000", "65537"])
def test_streamed_coefficients_match_materialized_psi(K, n):
    # m_max = 0 is row 0 alone; even m_max ends on a whole frequency, odd
    # m_max on a cut one (its cos row).  A (K, n) stack of samples gives
    # each row's table, except at n = 1: numpy multiplies a one-element
    # complex array in place by another rounding path than a longer one.
    # Both models sum the real and imaginary parts of a complex row, p_k for
    # a density and the products p_k (y + 0j) for a regression, and their
    # psi^2 sums read every other float of the interleaved squares.
    rng = np.random.default_rng(n)
    x, y, u = rng.uniform(size=(K, n)), rng.normal(size=(K, n)), rng.uniform(size=(K, n))
    for points, resp in ((x, None), (u, y)):
        for m_max in (0, 1, 2, 100, 101):
            stacked = empirical_coefficients(points, m_max, resp)
            for k in range(K):
                theta, loo = materialized_coefficients(points[k], m_max,
                                                       None if resp is None else resp[k])
                (table,) = empirical_coefficients(points[k : k + 1], m_max,
                                                  None if resp is None else resp[k : k + 1])
                for got in (table, stacked[k]) if n > 1 else (table,):
                    assert np.array_equal(got.theta_hat, theta)
                    if n == 1:
                        assert got.theta_sq_loo is None and loo is None
                    else:
                        assert np.array_equal(got.theta_sq_loo, loo)


@pytest.mark.parametrize("K, n", [(K, n) for K in (1, 2, 16)
                                  for n in (1, 2, 3, 1000, (1 << 14) - 1, (1 << 14) + 1, 20000)]
                         + [(1, (1 << 16) + 1)])
@pytest.mark.parametrize("model", ["density", "regression"])
def test_theta_only_pass_is_the_full_pass(model, K, n):
    """loo=False skips the psi^2 sums and leaves theta_hat the same floats.

    The table then sums the complex recurrence in place, for a
    regression after one complex multiply by y + 0j.  m_max = 0 is row 0
    alone; m_max = 1 and 3 end on a cut frequency block, 2 and 100 on a
    whole one.
    """
    rng = np.random.default_rng(K * n)
    points = rng.uniform(size=(K, n))
    y = rng.standard_normal((K, n)) if model == "regression" else None
    for m_max in (0, 1, 2, 3, 100):
        full = empirical_coefficients(points, m_max, y)
        theta_only = empirical_coefficients(points, m_max, y, loo=False)
        assert theta_only.model == full.model and theta_only.n == n
        assert np.array_equal(theta_only.theta_hat, full.theta_hat)
        assert theta_only.theta_sq_loo is None
        rows = list(theta_only)
        assert len(rows) == K
        for k, row in enumerate(rows):
            assert row.theta_sq_loo is None and row.m_max == m_max
            assert np.array_equal(row.theta_hat, theta_only[k].theta_hat)
            assert np.array_equal(row.theta_hat, full[k].theta_hat)


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


@pytest.mark.parametrize("K, n", [(K, n) for n in (1, 7, 8, 127, 128, 129, 1000, 8192, 8193,
                                                  20000, (1 << 16) + 1)
                                  for K in (1, 3, 16)] + [(1, 10**6 + 13)])
def test_strided_part_sum_is_the_row_sum(K, n):
    """The numpy behaviour that the in-place density sums rest on.

    The real and imaginary parts of a complex (K, n) array are strided
    views; summing each over its last axis into a (K,) row, as
    empirical_coefficients does with the trig recurrence, gives every
    row the float that np.sum gives that row's contiguous copy: numpy
    adds a strided row with the same pairwise summation.
    """
    rng = np.random.default_rng(n * K + 1)
    p = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
    for part in (p.real, p.imag):
        assert part.strides[-1] == p.itemsize  # every other float64
        out = np.empty(K)
        np.sum(part, axis=-1, out=out)
        for k in range(K):
            assert out[k] == np.sum(part[k].copy())


@pytest.mark.parametrize("n", [1, 7, 8, 129, 1000, 20000])
@pytest.mark.parametrize("K", [1, 3, 16])
def test_square_is_the_self_product(K, n):
    """The numpy behaviour that the psi^2 step rests on.

    np.square of the float view of a complex (K, n) stack, into a (K, 2n)
    buffer as the density pass makes it or in place as the regression
    pass squares its scratch w, gives the bits of np.multiply(a, a), which
    streams the same array in twice.  The floats include +-0, subnormals,
    +-inf, NaN and values whose square is subnormal or overflows; NaN
    squares to NaN in the same places, and every other float is equal
    bit for bit, the sign of zero included.
    """
    rng = np.random.default_rng(n * K + 3)
    p = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
    flat = p.view(float)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-308, np.inf, -np.inf, np.nan,
                -np.nan, 3e-160, -1e200]
    spots = rng.choice(flat.size, size=min(flat.size, 4 * len(specials)), replace=False)
    flat.flat[spots] = np.resize(specials, spots.size)
    buf, in_place = np.empty_like(flat), p.copy().view(float)
    with np.errstate(over="ignore", under="ignore"):
        expected = np.multiply(flat, flat)
        np.square(flat, out=buf)
        np.square(in_place, out=in_place)
    nan = np.isnan(expected)
    for squared in (buf, in_place):
        assert np.array_equal(np.isnan(squared), nan)
        assert np.array_equal(squared[~nan].view(np.int64), expected[~nan].view(np.int64))


@pytest.mark.parametrize("n", [1, 7, 8, 129, 1000, 20000])
@pytest.mark.parametrize("K", [1, 3, 16])
def test_complex_weight_product_is_the_real_products(K, n):
    """The numpy behaviour that the regression coefficient pass rests on.

    Multiplying the complex p_k by the responses cast to complex, y + 0j,
    gives real and imaginary parts equal to the real products p.real * y
    and p.imag * y, as empirical_coefficients forms them: the cross term
    is p.imag * 0 or p.real * 0, an exact +-0, so adding it rounds
    nothing.  Only the sign of an exact-zero product may differ, and that
    cannot move a result: -0.0 == +0.0, it squares to the same +0.0, a sum
    with any nonzero term gives the same float (x + -0.0 == x + +0.0 ==
    x), and a sum of zeros only, the one place the sign could survive,
    still compares equal, so no comparison, argmin or selected m can tell
    the two apart.  The responses include +0.0 and -0.0 and p holds
    exact zeros in each part.
    """
    rng = np.random.default_rng(n * K + 2)
    p = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
    y = rng.standard_normal((K, n))
    y.flat[::3], y.flat[1::5] = 0.0, -0.0
    p.real.flat[::4], p.imag.flat[2::7] = 0.0, -0.0
    w = np.multiply(p, y.astype(complex))
    assert np.array_equal(w.real, p.real * y) and np.array_equal(w.imag, p.imag * y)


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="pinned on numpy 2.x")
@pytest.mark.parametrize("size", [*range(2, 41), 64, 101, 129, 258])
@pytest.mark.parametrize("K", [1, 2, 3, 16, 64])
def test_stacked_matvec_and_cumsum_are_the_row_ones(size, K):
    """The numpy behaviour that the batched ISE profile and selectors rest on.

    cumsum along the last axis of a (K, size) array gives the per-row
    1-d cumsum.  np.matmul of a (size, size) matrix with a (K, size, 1)
    stack gives every row the floats of the per-row matrix-vector
    product, and so does the same matmul on one 1-d row; no code of the
    package multiplies a matrix by a stack since the ISE is Parseval's
    sum, so that half pins nothing it uses.  (The GEMM theta @ L.T and
    einsum do not: they round differently.)  size is M + 1 of a table.
    """
    rng = np.random.default_rng(size * K)
    lower = np.tril(rng.standard_normal((size, size)))
    theta = rng.standard_normal((K, size))
    products = np.matmul(lower, theta[..., None])[..., 0]
    sums = np.cumsum(theta, axis=-1)
    for k in range(K):
        row = theta[k].copy()
        assert np.array_equal(products[k], lower @ row)
        assert np.array_equal(np.matmul(lower, row[..., None])[..., 0], lower @ row)
        assert np.array_equal(sums[k], np.cumsum(row))


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


def test_quantile_memory_is_bounded_by_blocks(law_f1, law_f2):
    # ~17 n-length temporaries of one whole-sample pass would take 130 MiB;
    # in blocks of _QUANTILE_BLOCK points only the output and the domain check
    # are n-long.  f1's two Gaussians hold the most temporaries.
    n = 10**6
    u = np.random.default_rng(9).uniform(size=n)
    for law in (law_f1, law_f2):
        tracemalloc.start()
        try:
            law.quantile(u)
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
    # one convention: a (K, n) stack in, one stacked table of K rows out;
    # y has the points' shape
    for points in ([0.25, 0.75], 0.5, np.zeros((1, 1, 4)), np.empty((1, 0))):
        with pytest.raises(ValueError):
            empirical_coefficients(points, 3)
    with pytest.raises(ValueError):
        empirical_coefficients([[0.25, 0.75]], 3, y=[1.0, 3.0])
    tables = empirical_coefficients(np.full((3, 4), 0.25), 3)
    assert tables.theta_hat.shape == tables.theta_sq_loo.shape == (3, 4)
    assert tables.m_max == 3 and tables.theta_hat.flags.c_contiguous
    rows = list(tables)
    assert len(rows) == 3 and all(row.theta_hat.shape == (4,) for row in rows)
    with pytest.raises(TypeError):
        rows[0][0]  # a one-sample table has no rows


def test_nested_prefix_bit_exact():
    rng = np.random.default_rng(0)
    sample = rng.uniform(size=(1, 100))
    (full,) = empirical_coefficients(sample, 30)
    (small,) = empirical_coefficients(sample, 12)
    np.testing.assert_array_equal(full.theta_hat[:13], small.theta_hat)
    np.testing.assert_array_equal(full.theta_sq_loo[:13], small.theta_sq_loo)


def test_l2_gap_matches_quadrature():
    """||f_4 - f_11||^2 is the sum of theta_hat_j^2 over j = 5..11 for nested estimates."""
    rng = np.random.default_rng(4)
    (table,) = empirical_coefficients(rng.uniform(size=(1, 64)), 12)
    theta = table.theta_hat[:12]
    est_11 = theta @ outer_design_matrix(unit_grid(), 11)
    gap_quad = grid_ise_profile(theta, est_11)[4 - 1]
    assert gap_quad == pytest.approx(np.sum(theta[5:] ** 2), abs=1e-8)


def test_ise_parseval_split_oracle():
    # quadrature ISE equals sum of coefficient errors plus the truncated tail
    truth = density_f1()
    theta_true = true_coefficients(truth.eval, 400)
    x = gen_density_sample(500, 1, MarginalLaw(truth), [stream(3, 0)])
    (table,) = empirical_coefficients(x, 20)
    m = 14
    quad = grid_ise_profile(table.theta_hat[: m + 1], truth.eval(unit_grid()))[m - 1]
    split = (np.sum((table.theta_hat[: m + 1] - theta_true[: m + 1]) ** 2)
             + np.sum(theta_true[m + 1 :] ** 2))
    assert quad == pytest.approx(split, abs=1e-4)


def simulated_profiles(model, target):
    """Eight tables of each case at n = 400 (M = 100), profiled by their context."""
    for case in (1, 2, 3):
        cfg = ExperimentConfig(model=model, target=target, case=case, n=400, reps=1, seed=5)
        ctx = ExperimentContext(cfg)
        for tables, _ in ctx.replications(0, 8):
            for table, fast in zip(tables, ctx.ise_by_m(tables)):
                assert np.array_equal(fast, ctx.ise_by_m(table))  # stacked row = one-row profile
                yield table.theta_hat, fast, ctx.truth_grid


def density_f1_profile(table, grid_size):
    """One density table profiled against f1 by ise_profile on a grid_size Simpson grid."""
    grid = unit_grid(grid_size)
    design = TrigBasis().design_matrix(grid, table.m_max)
    truth = density_f1().eval(grid)
    yield table.theta_hat, ise_profile(table, *simpson_projection(design, truth)), truth


#: name -> (the (theta_hat, Parseval-form profile, truth on the grid) inputs, relative tolerance)
ISE_INPUTS = {
    **{f"{model}-{target}": (partial(simulated_profiles, model, target), 1e-10)
       for model in ("density", "regression") for target in ("f1", "f2")},
    "uniform-sample": (lambda: density_f1_profile(empirical_coefficients(
        np.random.default_rng(9).uniform(size=(1, 128)), 15)[0], 1025), 1e-12),
    "normal-coefficients": (lambda: density_f1_profile(CoefficientTable(
        "density", n=100, theta_hat=np.concatenate(
            ([1.0], np.random.default_rng(3).standard_normal(10) * 0.2))), 513), 1e-12),
}


@pytest.mark.parametrize("name", ISE_INPUTS)
def test_parseval_ise_matches_grid_form(name):
    """The Parseval-form ISE profile against per-m grid quadrature, and the same oracle m."""
    profiles, rtol = ISE_INPUTS[name]
    for theta_hat, fast, truth_grid in profiles():
        ref = grid_ise_profile(theta_hat, truth_grid)
        np.testing.assert_allclose(fast, ref, rtol=rtol, atol=0.0)
        assert np.argmin(fast) == np.argmin(ref)


def test_ise_profile_prefix_of_smaller_table():
    """A table cut at M gives the first M entries of the full profile."""
    design = TrigBasis().design_matrix(unit_grid(513), 20)
    pieces = simpson_projection(design, density_f1().eval(unit_grid(513)))
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
    estimate = table.theta_hat @ TrigBasis().design_matrix(x, 8)
    np.testing.assert_allclose(estimate, 1.0 + tail, atol=1e-12)


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
