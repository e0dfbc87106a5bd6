import math
import re

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaseries.quadrature import integrate_values, unit_grid
from adaseries.targets import (_N_SEG, _QUANTILE_BLOCK, DensityTarget, MarginalLaw, _gauss_pdf,
                               density_f1, density_f2, regression_f1, regression_f2,
                               true_coefficients, uniform_density)
from reference import (bisection_quantile, eval_one, partial_mass, plain_f1_raw, plain_f2_raw,
                       plain_gauss_pdf, searchsorted_quantile, searchsorted_segment)


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


@pytest.mark.parametrize("raw, plain", [(density_f1().raw_fn, plain_f1_raw),
                                        (density_f2().raw_fn, plain_f2_raw),
                                        (lambda x: _gauss_pdf(x, 0.7, 0.06),
                                         lambda x: plain_gauss_pdf(x, 0.7, 0.06))],
                         ids=["f1", "f2", "gauss"])
def test_in_place_densities_are_the_plain_expressions(raw, plain):
    """The in-place forms give the floats of the fresh-array expressions at the
    knots and midpoints of the marginal law's table, seeded uniforms, a
    (K, n) stack, 0-d and Python-float input."""
    knots = np.linspace(0.0, 1.0, _N_SEG + 1)
    rand = np.random.default_rng(41).uniform(size=5000)
    for x in (knots, knots[:-1] + 0.5 / _N_SEG, rand, rand.reshape(50, 100),
              np.asarray(0.3), 0.5, 0.0, 1.0):
        assert np.array_equal(raw(x), plain(x))


def test_raw_densities_of_a_scalar_are_numpy_floats():
    for target in (density_f1(), density_f2()):
        for x in (0.5, np.asarray(0.3), np.float64(0.7)):
            assert type(target.raw_fn(x)) is np.float64


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


@pytest.mark.parametrize("raw, shape", [(lambda x: 1.0, "()"),
                                        (lambda x: np.ones(3), "(3,)"),
                                        (lambda x: np.ones((2, x.size)), "(2, 4097)")],
                         ids=["scalar", "short", "stacked"])
def test_raw_density_of_the_wrong_shape_is_refused(raw, shape):
    # a constant density written the obvious way used to die in the quadrature
    # with IndexError: tuple index out of range
    message = f"returned shape {shape} on points of shape (4097,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        DensityTarget(raw)


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
    # a float32 density: its mass is summed in float64, as the plain form does
    single = MarginalLaw(DensityTarget(lambda x: (1.0 + x).astype(np.float32)))
    for law in (law_f1, law_f2, law_uniform, law_gap, single):
        u = np.concatenate((knot_probes(law), rand))
        assert np.array_equal(law.quantile(u), searchsorted_quantile(law, u))
        for end in (0.0, 1.0):
            assert law.quantile(end) == searchsorted_quantile(law, end)


def with_neighbours(u):
    """u with both float neighbours of each entry, kept inside [0, 1]."""
    u = np.asarray(u, dtype=float)
    return np.clip(np.concatenate((u, np.nextafter(u, -1.0), np.nextafter(u, 2.0))), 0.0, 1.0)


@pytest.mark.parametrize("name", ["f1", "f2", "uniform", "x_squared"])
def test_guided_segment_search_is_searchsorted(name, law_f1, law_f2, law_uniform):
    """The guide table and its lifts find the searchsorted segment at every
    knot, every bucket edge, 0 and 1, and both float neighbours of each."""
    law = {"f1": law_f1, "f2": law_f2, "uniform": law_uniform,
           "x_squared": x_squared_law()}[name]
    buckets = np.arange(_N_SEG + 1)
    edges = buckets / _N_SEG
    u = with_neighbours(np.concatenate(([0.0, 1.0], law._cum / law._total, edges)))
    assert np.array_equal(law.quantile(u), searchsorted_quantile(law, u))
    # a bucket runs from the segment of its lowest u to that of its highest
    # (u = 1 alone in the last bucket); exactly the buckets wider than three
    # segments are flagged, and the fewest lifts cross every other one
    highest = np.minimum(np.nextafter(edges + 1.0 / _N_SEG, 0.0), 1.0)
    first = searchsorted_segment(law, edges * law._total)
    widths = searchsorted_segment(law, highest * law._total) - first
    widest = int(np.max(widths[widths <= 3]))
    lifts = len(law._lift_steps)
    assert np.array_equal(law._guide, first)
    assert np.array_equal(law._wide, widths > 3)
    assert 2**lifts > widest and (lifts == 0 or 2 ** (lifts - 1) <= widest)
    assert law._lift_steps == tuple(2**s for s in reversed(range(lifts)))
    assert law._lift_cum.size == _N_SEG + (law._lift_steps[0] if lifts else 0)
    bucket = (u * _N_SEG).astype(int)
    reach = searchsorted_segment(law, u * law._total) - law._guide[bucket]
    assert np.all((reach >= 0) & ((reach < 2**lifts) | law._wide[bucket]))
    assert (lifts, int(np.sum(law._wide))) == {"f1": (2, 77), "f2": (2, 0), "uniform": (0, 0),
                                                "x_squared": (2, 121)}[name]
    assert len(law_f1._lift_steps) == 2


def x_squared_law():
    return MarginalLaw(DensityTarget(lambda x: x * x))


def test_points_of_flagged_buckets_are_searched(law_f1):
    """u inside every bucket flagged as too wide for the lifts, at its edges,
    and mixed with unflagged u across a block edge, gives the searchsorted q."""
    rng = np.random.default_rng(23)
    for law in (law_f1, x_squared_law()):
        wide = np.flatnonzero(law._wide)
        assert wide.size in (77, 121)
        inside = (np.repeat(wide, 60) + rng.uniform(size=60 * wide.size)) / _N_SEG
        edges = np.concatenate((wide / _N_SEG, np.nextafter((wide + 1) / _N_SEG, 0.0)))
        u = np.clip(np.concatenate((rng.uniform(size=9000), inside, edges)), 0.0, 1.0)
        assert u.size > _QUANTILE_BLOCK and np.all(law._wide[(inside * _N_SEG).astype(int)])
        assert np.array_equal(law.quantile(u), searchsorted_quantile(law, u))


def test_quantile_blocks_with_and_without_a_zero_slope(law_gap):
    """The masked Newton step and start fraction, and their unmasked forms.

    x^2 has a zero slope at u = 0 and law_gap at the top of its plateau;
    a law that vanishes on its last segments has an empty segment at u = 1.
    A block holding such a u takes the masked forms, a block without it
    the unmasked ones; both give the searchsorted q.
    """
    rand = np.random.default_rng(29).uniform(size=3000)
    plateau = law_gap._cum[np.flatnonzero(np.diff(law_gap._cum) == 0.0)[0]] / law_gap._total
    cut = MarginalLaw(DensityTarget(lambda x: np.where(x > 0.999, 0.0, 1.0)))
    assert cut._seg[-1] == 0.0
    for law, special in ((x_squared_law(), 0.0), (law_gap, plateau), (cut, 1.0)):
        q_special = law.quantile(special)
        assert law.density.eval(q_special) == 0.0  # the slope the masks keep out
        for u in (np.concatenate(([special], rand)), rand):
            assert np.array_equal(law.quantile(u), searchsorted_quantile(law, u))


def test_quantile_of_zero_is_positive_zero(law_f1, law_f2, law_uniform, law_gap):
    # np.maximum and np.minimum clamp where np.clip did: the sign of 0 stays +
    for law in (law_f1, law_f2, law_uniform, law_gap, x_squared_law()):
        for q in (law.quantile(0.0), law.quantile(np.array([0.0, 0.5]))[0]):
            assert q == 0.0 and not np.signbit(q)


@pytest.mark.parametrize("raw", [lambda x: x - 0.2,
                                 lambda x: np.where(x == 0.5 / _N_SEG, np.nan, 1.0),
                                 lambda x: np.where(x == 1.5 / _N_SEG, np.inf, 1.0)],
                         ids=["negative", "nan_at_a_midpoint", "inf_at_a_midpoint"])
def test_law_of_a_negative_or_non_finite_density_is_refused(raw, law_gap):
    # x - 0.2 integrates to 0.3 > 0 and used to build a law with quantile(0) = 0.4
    with pytest.raises(ValueError, match="negative or not finite"):
        MarginalLaw(DensityTarget(raw))
    for target in (density_f1(), density_f2(), uniform_density()):
        MarginalLaw(target)
    x_squared_law()


@pytest.mark.parametrize("size", [2**16 - 1, 2**16, 2**16 + 1])
def test_quantile_blocks_bit_identical(law_f1, law_f2, size):
    # 2**16 is a whole number of blocks: the last block is one point short,
    # full, or a single point
    assert 2**16 % _QUANTILE_BLOCK == 0
    u = np.random.default_rng(size).uniform(size=size)
    for law in (law_f1, law_f2):
        assert np.array_equal(law.quantile(u), searchsorted_quantile(law, u))


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


def test_cdf_is_the_partial_mass_bit_for_bit(law_f1, law_f2, law_uniform):
    """cdf(x) is the piecewise-Simpson mass up to x in the segment of x, over the
    total, to the bit: at every knot, seeded points, 0 and 1, and a scalar."""
    rand = np.random.default_rng(43).uniform(size=20000)
    for law in (law_f1, law_f2, law_uniform):
        x = np.concatenate(([0.0, 1.0], np.linspace(0.0, 1.0, _N_SEG + 1), rand))
        k = np.clip(np.floor(_N_SEG * x).astype(int), 0, _N_SEG - 1)
        expected = partial_mass(law, k, x, law.density.eval(x)) / law._total
        assert np.array_equal(law.cdf(x), expected)
        for i in (0, 1, 2 + _N_SEG // 3, x.size - 1):
            value = law.cdf(x[i])
            assert isinstance(value, float) and value == expected[i]


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
