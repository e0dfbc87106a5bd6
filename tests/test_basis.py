import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaseries.basis import (SUP_NORM_SQ, TrigBasis, WeightSequence, optimal_dimension,
                             rate_slope)
from adaseries.checks import check_orthonormality, check_sup_norm
from adaseries.estimators import empirical_coefficients
from adaseries.quadrature import simpson_weights, unit_grid
from reference import brute_force_rate, eval_one, outer_design_matrix


def test_eval_basis_pinned_values():
    x = [0.3, 0.0, 0.25]
    design = TrigBasis().design_matrix(x, 2)
    # 1 at 0.3, sqrt2 * cos(0) at 0, sqrt2 * sin(pi/2) at 1/4
    for j, expected in enumerate((1.0, math.sqrt(2.0), math.sqrt(2.0))):
        assert eval_one(j, x[j]) == pytest.approx(expected)
        assert design[j, j] == pytest.approx(expected)


def test_design_matrix_matches_eval_one():
    basis = TrigBasis()
    x = np.linspace(0.0, 1.0, 37)
    design = basis.design_matrix(x, 11)
    for j in range(12):
        np.testing.assert_allclose(design[j], eval_one(j, x), atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
       m_max=st.integers(0, 400))
@example(x=list(np.linspace(0.0, 1.0, 1025)), m_max=400)
@example(x=[0.0, 0.25, 0.5, 1.0, *np.random.default_rng(8).uniform(size=500)], m_max=400)
@example(x=[0.0, 0.5, 1.0], m_max=0)
@example(x=[0.0, 0.5, 1.0], m_max=1)
@example(x=[0.0, 0.5, 1.0], m_max=2)
def test_recurrence_matches_angle_grid(x, m_max):
    design = TrigBasis().design_matrix(x, m_max)
    np.testing.assert_allclose(design, outer_design_matrix(x, m_max), rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError):
        TrigBasis().design_matrix(x, -1)
    with pytest.raises(ValueError):
        empirical_coefficients(np.atleast_2d(x), -1)
    with pytest.raises(ValueError):
        empirical_coefficients(np.atleast_2d(x), -1, y=np.atleast_2d(x))


def test_orthonormality_and_sup_norm_checks_at_400():
    assert check_orthonormality().passed
    assert check_sup_norm().passed


def test_orthonormality_by_quadrature():
    j_max = 30
    basis = TrigBasis()
    grid = unit_grid()
    design = basis.design_matrix(grid, j_max)
    gram = (design * simpson_weights(grid.size)) @ design.T
    np.testing.assert_allclose(gram, np.eye(j_max + 1), atol=1e-8)
    # phi_i phi_j, i, j <= M, reach frequency 2 ceil(M/2): a Simpson grid of more
    # than 4 ceil(M/2) + 1 points integrates them exactly (the harness's ISE
    # precondition), and the grid of exactly that many aliases them
    for m_max in (1, 2, 9, 10, 100, 101, 400):
        errors = []
        for size in (4 * math.ceil(m_max / 2) + 3, 4 * math.ceil(m_max / 2) + 1):
            design = basis.design_matrix(unit_grid(size), m_max)
            gram = (design * simpson_weights(size)) @ design.T
            errors.append(np.max(np.abs(gram - np.eye(m_max + 1))))
        assert errors[0] <= 1e-13 and errors[1] >= 0.3, (m_max, errors)


def test_sup_norm_bound_and_even_equality():
    basis = TrigBasis()
    x = np.linspace(0.0, 1.0, 10**4)
    sq = basis.design_matrix(x, 100) ** 2
    running = np.cumsum(sq[1:], axis=0)
    sups = running.max(axis=1)
    m = np.arange(1, 101)
    assert np.all(sups <= SUP_NORM_SQ * m + 1e-9)
    even = m % 2 == 0
    # even m: the cos/sin pairs sum to exactly m everywhere
    assert np.max(np.abs(sups[even] - m[even])) <= 1e-10


def test_weight_pinned_values():
    assert WeightSequence("polynomial", p=1.0).weight(2) == pytest.approx(0.25)
    assert WeightSequence("polynomial", p=1.5).weight(1) == pytest.approx(1.0)
    # decaying exponential form: gamma_j = exp(-j ** (2 p))
    assert WeightSequence("exponential", p=0.5).weight(4) == pytest.approx(math.exp(-4.0))


def test_weight_domain_error_at_zero():
    with pytest.raises(ValueError):
        WeightSequence("polynomial", p=1.0).weight(0)


def test_weight_kind_and_p_validated():
    for kind in ("polynomial", "exponential"):
        with pytest.raises(ValueError, match="p > 0"):
            WeightSequence(kind, p=0.0)
    with pytest.raises(ValueError, match="unknown weight kind"):
        WeightSequence("custom", p=1.0)


@given(kind=st.sampled_from(["polynomial", "exponential"]),
       p=st.floats(min_value=0.3, max_value=3.0, allow_nan=False))
def test_weights_positive_nonincreasing_vanishing(kind, p):
    if kind == "polynomial":
        p = max(p, 0.51)
    seq = WeightSequence(kind, p=p)
    j = np.arange(1, 400)
    vals = seq.weight(j)
    # positivity on the float64-representable range (exp(-j^(2p)) underflows)
    representable = j.astype(float) ** (2.0 * p) < 700.0 if kind == "exponential" else slice(None)
    assert np.all(vals[representable] > 0.0)
    assert np.all(np.diff(vals) <= 0.0)
    assert vals[-1] < 0.05 * vals[0]


def test_optimal_dimension_pinned_examples():
    res = optimal_dimension(WeightSequence("polynomial", p=1.0), 1)
    assert (res.m_star, res.r_star) == (1, 1.0)
    res = optimal_dimension(WeightSequence("polynomial", p=1.0), 100)
    assert res.m_star == 5
    assert res.r_star == pytest.approx(0.05)
    # brute-force oracle over the full scan agrees
    ref = brute_force_rate(WeightSequence("polynomial", p=1.0), 100)
    assert (res.m_star, res.r_star) == (ref.m_star, pytest.approx(ref.r_star))


def test_optimal_dimension_matches_brute_force_random_configs():
    rng = np.random.default_rng(51)
    for _ in range(100):
        kind = rng.choice(["polynomial", "exponential"])
        n = int(rng.integers(1, 200))
        if kind == "polynomial":
            seq = WeightSequence("polynomial", p=float(rng.uniform(0.6, 3.0)))
        else:
            seq = WeightSequence("exponential", p=float(rng.uniform(0.1, 2.0)))
        res = optimal_dimension(seq, n)
        ref = brute_force_rate(seq, n)
        assert res.m_star == ref.m_star
        assert res.r_star == pytest.approx(ref.r_star)


def test_rate_nonincreasing_in_n():
    seq = WeightSequence("polynomial", p=1.2)
    rates = [optimal_dimension(seq, n).r_star for n in (10, 30, 100, 300, 1000, 3000)]
    assert np.all(np.diff(rates) <= 1e-15)


def test_rate_slope_polynomial_small_grid():
    slope = rate_slope(WeightSequence("polynomial", p=1.0), [100, 1000, 10000])
    assert slope == pytest.approx(-2.0 / 3.0, abs=0.1)


@settings(max_examples=30)
@given(p=st.floats(min_value=0.6, max_value=2.5), n=st.integers(min_value=1, max_value=500))
def test_rate_minimum_is_global(p, n):
    seq = WeightSequence("polynomial", p=p)
    res = optimal_dimension(seq, n)
    m = np.arange(1, n + 1)
    psi = np.maximum(seq.weight(m), m / n)
    assert res.r_star == float(np.min(psi))
    assert res.m_star == int(np.argmin(psi)) + 1
