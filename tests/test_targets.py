import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaseries.quadrature import integrate_values, unit_grid
from adaseries.targets import (_NEWTON_STEPS, _QUANTILE_BLOCK, DensityTarget, MarginalLaw,
                               density_f1, density_f2, regression_f1, regression_f2,
                               true_coefficients, uniform_density)
from test_basis import eval_one


def gauss_pdf(x, mu, sd):
    return math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def test_f1_raw_value_direct_arithmetic():
    expected = 0.3 * gauss_pdf(0.5, 0.5, 0.1) + 0.25 * gauss_pdf(0.5, 0.7, 0.06)
    assert float(density_f1().raw_fn(0.5)) == pytest.approx(expected, rel=1e-12)
    assert 0.3 * gauss_pdf(0.5, 0.5, 0.1) == pytest.approx(1.19683, abs=1e-5)


def test_f1_normalizer_against_erf_closed_form():
    # mass of the raw mixture on [0, 1] via the Gaussian CDF
    def mass(mu, sd):
        a = (0.0 - mu) / (sd * math.sqrt(2.0))
        b = (1.0 - mu) / (sd * math.sqrt(2.0))
        return 0.5 * (math.erf(b) - math.erf(a))

    total = 0.3 * mass(0.5, 0.1) + 0.25 * mass(0.7, 0.06)
    assert density_f1().normalizer == pytest.approx(1.0 / total, rel=1e-9)


def test_f2_pinned_values_and_closed_form_normalizer():
    f2 = density_f2()
    assert float(f2.raw_fn(0.5)) == pytest.approx(0.125)
    assert float(f2.raw_fn(0.7)) == pytest.approx(8.0 ** -1.5)
    # antiderivative of (4(1+5t))^(-3/2) gives the exact mass on [0, 1]
    exact_mass = (1.0 - 3.5 ** -0.5) / 10.0
    assert f2.normalizer == pytest.approx(1.0 / exact_mass, rel=1e-6)


def test_f2_symmetric_about_half():
    f2 = density_f2()
    t = np.linspace(0.0, 0.5, 101)
    np.testing.assert_allclose(f2.eval(0.5 + t), f2.eval(0.5 - t), rtol=1e-14)


@pytest.mark.parametrize("target", [density_f1(), density_f2(), uniform_density()])
def test_densities_normalized_and_nonnegative(target):
    assert integrate_values(target.eval(unit_grid())) == pytest.approx(1.0, abs=1e-6)
    x = np.linspace(0.0, 1.0, 10**4)
    assert np.all(target.eval(x) >= 0.0)


def test_density_domain_error():
    with pytest.raises(ValueError):
        density_f1().eval(1.2)
    with pytest.raises(ValueError):
        density_f2().eval(-0.1)


@pytest.mark.parametrize("bad", [np.nan, [0.2, np.nan, 0.7]], ids=["scalar", "array"])
def test_nan_rejected_by_domain_checks(law_f1, bad):
    with pytest.raises(ValueError):
        density_f1().eval(bad)
    with pytest.raises(ValueError):
        regression_f1().eval(bad)
    with pytest.raises(ValueError):
        law_f1.cdf(bad)
    with pytest.raises(ValueError):
        law_f1.quantile(bad)


def test_normalizer_grid_refinement():
    raw = density_f2().raw_fn
    c_4097 = 1.0 / integrate_values(raw(unit_grid(4097)))
    c_8193 = 1.0 / integrate_values(raw(unit_grid(8193)))
    assert abs(c_8193 - c_4097) / c_4097 < 1e-6


def test_regression_pinned_values():
    f1, f2 = regression_f1(), regression_f2()
    assert float(f1.eval(0.0)) == pytest.approx(0.0)
    assert float(f1.eval(0.2)) == pytest.approx(0.4 * math.sin(2.6 * math.pi / 0.5))
    assert float(f2.eval(0.1)) == pytest.approx(math.sin(0.4))
    assert float(f2.eval(0.5)) == pytest.approx(1.0)
    assert float(f2.eval(0.25)) == pytest.approx(math.sin(1.0))  # closed-left branch
    assert f1.noise_sigma == 0.5
    assert f2.noise_sigma == 0.5


def test_regression_square_integrable():
    for target in (regression_f1(), regression_f2()):
        assert np.isfinite(integrate_values(target.eval(unit_grid()) ** 2))


def test_uniform_law_identity(law_uniform):
    u = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(law_uniform.cdf(u), u, atol=1e-12)
    np.testing.assert_allclose(law_uniform.quantile(u), u, atol=1e-9)


def test_cdf_endpoints_and_monotone(law_f1, law_f2):
    for law in (law_f1, law_f2):
        assert law.cdf(0.0) == pytest.approx(0.0, abs=1e-15)
        assert law.cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        x = np.linspace(0.0, 1.0, 501)
        assert np.all(np.diff(law.cdf(x)) >= 0.0)


def test_quantile_cdf_roundtrip(law_f1, law_f2, law_uniform):
    interior = np.linspace(0.01, 0.99, 99)
    for law in (law_f1, law_f2, law_uniform):
        np.testing.assert_allclose(law.quantile(law.cdf(interior)), interior, atol=1e-6)
    assert law_f1.quantile(law_f1.cdf(0.37)) == pytest.approx(0.37, abs=1e-6)


def searchsorted_segment(law, t):
    """Reference segment search: the last knot k <= N - 1 with cum[k] <= t."""
    return np.clip(np.searchsorted(law._cum, t, side="right") - 1, 0, law._cum.size - 2)


def bisection_quantile(law, u):
    """Reference quantile: 40 bisection steps on the partial Simpson mass."""
    t = np.atleast_1d(np.asarray(u, dtype=float)) * law._total
    k = searchsorted_segment(law, t)
    left, cum_k, f_k = k * law._h, law._cum[k], law._f_knots[k]
    lo, hi = left, left + law._h
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        below = law._partial_mass(left, cum_k, f_k, mid, law.density.eval(mid)) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def searchsorted_quantile(law, u):
    """Reference form of MarginalLaw.quantile: the segment from searchsorted,
    every segment quantity re-indexed in each Newton step, fresh arrays."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    t = np.atleast_1d(u) * law._total
    k = searchsorted_segment(law, t)
    lo = k * law._h
    hi = lo + law._h
    seg = law._seg[k]
    frac = np.divide(t - law._cum[k], seg, out=np.zeros_like(t), where=seg > 0.0)
    q = np.clip(lo + law._h * frac, lo, hi)
    for _ in range(_NEWTON_STEPS):
        f_q = law.density.eval(q)
        xk = k * law._h
        d = q - xk
        f_mid = law.density.eval(xk + 0.5 * d)
        excess = law._cum[k] + (d / 6.0) * (law._f_knots[k] + 4.0 * f_mid + f_q) - t
        step = np.divide(excess, f_q, out=np.zeros_like(q), where=f_q > 0.0)
        q = np.clip(q - step, lo, hi)
    return float(q[0]) if scalar else q


@pytest.fixture(scope="module")
def law_gap():
    # zero on (0.3, 0.6): the cumulative table repeats one value over ~1200 knots
    return MarginalLaw(DensityTarget(
        lambda x: np.where((x > 0.3) & (x < 0.6), 0.0, 1.0 + x)))


def knot_probes(law):
    """0, 1 and u = cum[j] / total at every knot with both float neighbours."""
    at_knots = law._cum / law._total
    u = np.concatenate(([0.0, 1.0], at_knots, np.nextafter(at_knots, 0.0),
                        np.nextafter(at_knots, 1.0)))
    return np.clip(u, 0.0, 1.0)


def test_quantile_bit_identical_to_searchsorted_form(law_f1, law_f2, law_uniform, law_gap):
    assert np.sum(np.diff(law_gap._cum) == 0.0) > 1000
    rand = np.random.default_rng(31).uniform(size=5000)
    for law in (law_f1, law_f2, law_uniform, law_gap):
        u = np.concatenate((knot_probes(law), rand))
        assert np.array_equal(law.quantile(u), searchsorted_quantile(law, u))
        for end in (0.0, 1.0):
            assert law.quantile(end) == searchsorted_quantile(law, end)


@pytest.mark.parametrize("size", [2**16 - 1, 2**16, 2**16 + 1])
def test_quantile_blocks_bit_identical(law_f2, size):
    # 2**16 is a whole number of blocks: the last block is one point short,
    # full, or a single point
    assert 2**16 % _QUANTILE_BLOCK == 0
    u = np.random.default_rng(size).uniform(size=size)
    assert np.array_equal(law_f2.quantile(u), searchsorted_quantile(law_f2, u))


def test_quantile_zero_dim_and_shape(law_f1):
    q = law_f1.quantile(np.asarray(0.3))
    assert isinstance(q, float) and q == searchsorted_quantile(law_f1, 0.3)
    u = np.random.default_rng(2).uniform(size=(3, 70))
    assert np.array_equal(law_f1.quantile(u), searchsorted_quantile(law_f1, u))
    assert law_f1.quantile(np.empty(0)).shape == (0,)


@settings(max_examples=60, deadline=None)
@given(u=arrays(np.float64, st.integers(1, 300), elements=st.floats(0.0, 1.0)))
def test_quantile_bit_identical_property(law_f1, law_f2, u):
    for law in (law_f1, law_f2):
        assert np.array_equal(law.quantile(u), searchsorted_quantile(law, u))


def quantile_probes(law):
    """0, 1, 1/2, every knot of the cumulative table and seeded uniforms."""
    knots = law.cdf(np.linspace(0.0, 1.0, law._cum.size))
    rand = np.random.default_rng(12).uniform(size=20000)
    return np.clip(np.concatenate(([0.0, 1.0, 0.5], knots, rand)), 0.0, 1.0)


def test_newton_quantile_matches_bisection(law_f1, law_f2, law_uniform):
    for law in (law_f1, law_f2, law_uniform):
        u = quantile_probes(law)
        q = law.quantile(u)
        assert np.all((q >= 0.0) & (q <= 1.0))
        assert np.max(np.abs(law.cdf(q) - u)) <= 1e-15
        # f1's tail density is ~1e-5, so q is fixed only to ~1e-17 / 1e-5 there
        assert np.max(np.abs(q - bisection_quantile(law, u))) <= 1e-12
    assert law_f1.quantile(0.0) == 0.0 and law_f1.quantile(1.0) == 1.0


@settings(max_examples=60, deadline=None)
@given(u=st.floats(0.0, 1.0))
def test_newton_quantile_property(law_f1, law_f2, u):
    for law in (law_f1, law_f2):
        q = law.quantile(u)
        assert abs(law.cdf(q) - u) <= 1e-15
        # both quantiles solve cdf(q) = u to rounding, so they may differ by
        # ~1e-16 / density: 6e-12 at u = 1 - 2^-53 for f1, whose density is 1e-5 there
        gap = abs(q - bisection_quantile(law, u)[0])
        assert gap * float(law.density.eval(q)) <= 1e-15


def test_quantile_meets_stated_tolerance(law_f1):
    u = np.linspace(0.001, 0.999, 257)
    q = law_f1.quantile(u)
    assert np.max(np.abs(law_f1.cdf(q) - u)) <= 1e-9


def test_f2_median_is_half(law_f2):
    assert law_f2.quantile(0.5) == pytest.approx(0.5, abs=1e-9)


def test_cdf_against_scipy_quad(law_f1):
    f = law_f1.density.eval
    for x in (0.2, 0.5, 0.83):
        ref, _ = scipy.integrate.quad(lambda t: float(f(np.asarray(t))), 0.0, x,
                                      limit=200)
        assert law_f1.cdf(x) == pytest.approx(ref, abs=1e-8)


def test_true_coefficients_uniform_density():
    theta = true_coefficients(uniform_density().eval, 20)
    assert theta[0] == pytest.approx(1.0)
    np.testing.assert_allclose(theta[1:], 0.0, atol=1e-12)


def test_true_coefficients_of_basis_function():
    theta = true_coefficients(lambda x: eval_one(1, x), 10)
    expected = np.zeros(11)
    expected[1] = 1.0
    np.testing.assert_allclose(theta, expected, atol=1e-8)


def test_doppler_coefficient_grid_refinement_and_quad():
    f = regression_f1().eval
    theta_4097 = true_coefficients(f, 1, n_points=4097)[1]
    theta_8193 = true_coefficients(f, 1, n_points=8193)[1]
    # combined tolerance: coefficients can sit near zero, and the sqrt(x)
    # endpoint factor limits plain Simpson to ~1e-7 absolute here
    assert abs(theta_8193 - theta_4097) < max(1e-6, 1e-6 * abs(theta_4097))
    ref, _ = scipy.integrate.quad(
        lambda t: float(f(np.asarray(t))) * math.sqrt(2.0) * math.cos(2.0 * math.pi * t),
        0.0, 1.0, limit=400)
    assert theta_4097 == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("make", [density_f1, density_f2, regression_f1, regression_f2])
def test_parseval_truncation(make):
    target = make()
    theta = true_coefficients(target.eval, 200)
    norm_sq = integrate_values(target.eval(unit_grid()) ** 2)
    partial = np.cumsum(theta**2)
    assert np.all(partial <= norm_sq + 1e-8)
    residual = norm_sq - partial
    assert np.all(np.diff(residual) <= 1e-12)


def test_custom_density_target():
    tri = DensityTarget(lambda x: np.minimum(x, 1.0 - x))
    assert integrate_values(tri.eval(unit_grid())) == pytest.approx(1.0, abs=1e-6)
    law = MarginalLaw(tri)
    assert law.quantile(0.5) == pytest.approx(0.5, abs=1e-9)
