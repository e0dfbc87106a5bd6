import numpy as np
import pytest

from adaseries import checks
from adaseries.checks import dependence_score, ks_statistic
from adaseries.dependence import (AR_SCALE, AR_TRUNCATION, arcsine_cdf,
                                  ar_path_from_innovations, bernoulli_ar_path,
                                  gen_density_sample,
                                  gen_regression_sample, logistic_path,
                                  marginal_G_case3, stream, uniform_series)
from adaseries.harness import CALIB_NS, EVAL_NS
from adaseries.quadrature import integrate_values, unit_grid
from adaseries.targets import regression_f1, regression_f2
from reference import numpy_logistic_path


def test_case1_uniform_marginal_identity(law_uniform):
    (z,) = law_uniform.quantile(uniform_series(1, 50, [stream(3, 0)]))
    raw = stream(3, 0).uniform(size=50)
    np.testing.assert_allclose(z, raw, atol=1e-8)


def test_case1_ks_against_marginal(law_f1):
    (z,) = law_f1.quantile(uniform_series(1, 10**5, [stream(11, 0)]))
    assert ks_statistic(z, cdf=law_f1.cdf) < 0.006


def test_fixed_seed_reproducibility(law_f1):
    a = gen_density_sample(200, 2, law_f1, [stream(9, 4)])
    b = gen_density_sample(200, 2, law_f1, [stream(9, 4)])
    np.testing.assert_array_equal(a, b)
    c = gen_density_sample(200, 2, law_f1, [stream(9, 5)])
    assert not np.array_equal(a, c)


def test_logistic_closed_form_iteration():
    y = logistic_path(3, u1=0.5)
    assert y[0] == pytest.approx(0.5)  # sin^2(pi/4)
    assert y[1] == pytest.approx(1.0, abs=1e-15)
    assert y[2] == pytest.approx(0.0, abs=1e-12)


def test_logistic_path_bit_exact_against_numpy_loop():
    starts = np.concatenate(([0.0, 0.5, 1.0], np.random.default_rng(21).uniform(size=400)))
    for u1 in starts:
        path = logistic_path(300, u1)
        assert path.dtype == np.float64 and path.shape == (300,)
        np.testing.assert_array_equal(path, numpy_logistic_path(300, u1))
    # u1 = 1/2 hits the upper clamp at step 1; u1 = 0 the lower one at once
    assert logistic_path(3, 0.5)[1] == 1.0 - 2.0**-53
    assert logistic_path(2, 0.0)[1] == 2.0**-53
    assert logistic_path(1, 0.3).shape == (1,)


@pytest.mark.parametrize("k", range(1, 11))
def test_logistic_path_replays_a_late_clamp(k):
    """u1 = 2^-k starts at sin^2(pi 2^-(k+1)); each step doubles the angle, so
    the map rounds to exactly 1.0 at index k, and the path is replayed with
    the clamps from there on."""
    u1 = 2.0**-k
    cur = float(np.sin(0.5 * np.pi * u1) ** 2)
    for _ in range(k):
        cur = 4.0 * cur * (1.0 - cur)
    assert cur == 1.0
    for n in (k + 1, k + 2, 300):
        path = logistic_path(n, u1)
        np.testing.assert_array_equal(path, numpy_logistic_path(n, u1))
        assert path[k] == 1.0 - 2.0**-53
        assert np.all((path[1:] > 0.0) & (path[1:] < 1.0))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("u1", [0.0, 0.25, 0.5, 1.0])
def test_logistic_path_short(n, u1):
    path = logistic_path(n, u1)
    assert path.dtype == np.float64 and path.shape == (n,)
    np.testing.assert_array_equal(path, numpy_logistic_path(n, u1))


def test_generator_ks_label_ignores_rounding_ties(monkeypatch):
    """Tied statistics keep the first pair's label; a clear excess moves it."""
    stats = iter([0.001, 0.002, 0.003, 0.002, 0.003 + 1e-15, 0.001, 0.002, 0.002, 0.001])
    monkeypatch.setattr(checks, "ks_statistic", lambda *a, **k: next(stats))
    res = checks.check_generator_ks()
    assert res.passed and "(case 3/f1)" in res.detail and "worst KS = 0.00300" in res.detail
    stats = iter([0.001, 0.002, 0.003, 0.002, 0.003 + 1e-9, 0.001, 0.002, 0.002, 0.001])
    res = checks.check_generator_ks()
    assert "(case 2/f2)" in res.detail


def test_arcsine_endpoints():
    assert arcsine_cdf(0.0) == pytest.approx(0.0)
    assert arcsine_cdf(1.0) == pytest.approx(1.0)


def test_case2_invariant_law_uniform():
    (v,) = uniform_series(2, 10**5, [stream(5, 0)])
    assert ks_statistic(v, cdf=lambda x: x) < 0.006


def test_case3_zero_and_one_innovations():
    zeros = ar_path_from_innovations(np.zeros(2 * AR_TRUNCATION + 10))
    np.testing.assert_allclose(zeros, 0.0, atol=0.0)
    ones = ar_path_from_innovations(np.ones(2 * AR_TRUNCATION + 10))
    # geometric sum: (25/63) (1 + 2 (1 - 2^-K)) = 25/21 - (25/63) 2^(1-K)
    expected = 25.0 / 21.0
    np.testing.assert_allclose(ones, expected, atol=2.0**-38)


def test_case3_recursion_residual():
    rng = stream(17, 0)
    n = 5000
    zeta = rng.integers(0, 2, size=n + 2 * AR_TRUNCATION).astype(float)
    y = ar_path_from_innovations(zeta)
    inner = zeta[AR_TRUNCATION : AR_TRUNCATION + n]
    resid = y[1:-1] - 0.4 * (y[:-2] + y[2:]) - (5.0 / 21.0) * inner[1:-1]
    assert np.max(np.abs(resid)) < 2.0 ** (-AR_TRUNCATION + 3)


def test_case3_marginal_pinned_values():
    assert marginal_G_case3(0.0) == pytest.approx(0.0)
    assert marginal_G_case3(25.0 / 21.0) == pytest.approx(1.0)
    # G(25/63) = (F_tri(1) + F_tri(0)) / 2 = 1/4
    assert marginal_G_case3(AR_SCALE) == pytest.approx(0.25)


def test_case3_marginal_against_monte_carlo():
    rng = stream(23, 0)
    y = bernoulli_ar_path(10**6, rng)
    assert ks_statistic(y, cdf=marginal_G_case3) < 0.005


def test_case3_uniform_series_ks():
    (v,) = uniform_series(3, 10**5, [stream(31, 0)])
    assert ks_statistic(v, cdf=lambda x: x) < 0.006


def test_regression_sample_zero_noise_zero_function():
    target = regression_f2()
    zero = type(target)(lambda x: np.zeros_like(np.asarray(x, float)), noise_sigma=0.0)
    u, y = gen_regression_sample(100, 1, zero, [stream(1, 0)])
    np.testing.assert_allclose(y, 0.0, atol=0.0)
    assert u.shape == y.shape == (1, 100)
    u, y = gen_regression_sample(100, 1, zero, [stream(1, r) for r in range(3)])
    assert u.shape == y.shape == (3, 100)


def test_regression_second_moment_identity():
    # sigma_Y^2 = sigma^2 + ||f||^2 within 3 standard errors at n = 1e5
    target = regression_f1()
    _, y = gen_regression_sample(10**5, 1, target, [stream(12, 0)])
    f_norm_sq = integrate_values(target.eval(unit_grid()) ** 2)
    expected = 0.25 + f_norm_sq
    ysq = y**2
    se = ysq.std(ddof=1) / np.sqrt(ysq.size)
    assert abs(ysq.mean() - expected) < 3.0 * se


def test_regression_sample_reproducible():
    a_u, a_y = gen_regression_sample(64, 3, regression_f1(), [stream(5, 2)])
    b_u, b_y = gen_regression_sample(64, 3, regression_f1(), [stream(5, 2)])
    np.testing.assert_array_equal(a_y, b_y)
    np.testing.assert_array_equal(a_u, b_u)


def test_namespace_disjoint_streams(law_f1):
    a = gen_density_sample(32, 1, law_f1, [stream(5, 0, namespace=0)])
    b = gen_density_sample(32, 1, law_f1, [stream(5, 0, namespace=1)])
    assert not np.array_equal(a, b)


def test_stream_namespaces_are_distinct():
    """Evaluation, calibration and each check draw from their own namespace."""
    namespaces = (EVAL_NS, CALIB_NS, checks.KS_NS, checks.CASE3_MARGINAL_NS,
                  checks.CASE3_RESIDUAL_NS, checks.DEPENDENCE_NS, checks.LEMMA_NS)
    assert len(set(namespaces)) == len(namespaces)


def test_dependence_scores_by_case():
    z1, z2, z3 = dependence_score()
    assert z1 < 5.0
    assert z2 > 5.0
    assert z3 > 5.0


def test_draws_inside_unit_interval(law_f2):
    for case in (1, 2, 3):
        x = gen_density_sample(2000, case, law_f2, [stream(2, 1)])
        assert np.all((x >= 0.0) & (x <= 1.0))
        u, _ = gen_regression_sample(2000, case, regression_f1(), [stream(2, 1)])
        assert np.all((u >= 0.0) & (u <= 1.0))
