import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaseries.basis import TrigBasis
from adaseries.dependence import gen_density_sample, stream
from adaseries.estimators import CoefficientTable, empirical_coefficients
from adaseries.quadrature import simpson_projection, unit_grid
from adaseries.selection import (cv_profile, lemma1_audit, oracle_criteria,
                                 penalized_profile, penalty_vector, select_cv, select_ms,
                                 select_with_pens, theorem_constant)
from adaseries.targets import MarginalLaw, density_f1, true_coefficients
from reference import (brute_force_cv, eval_one, gl_contrast, per_m_rhs, sample_cv,
                       suffix_form_argmin)


def table_from(theta, model="density", n=100):
    theta = np.asarray(theta, dtype=float)
    return CoefficientTable(model=model, n=n, theta_hat=theta)


def oracle_profile(table, truth_fn, n_points=1025):
    """Realized ISE(m), m = 1..M, on an n_points Simpson grid."""
    grid = unit_grid(n_points)
    design = TrigBasis().design_matrix(grid, table.m_max)
    return oracle_criteria(table, *simpson_projection(design, truth_fn(grid)))


def select_oracle(table, truth_fn, n_points=1025):
    """Infeasible benchmark: smallest minimizer of the realized ISE."""
    return int(np.argmin(oracle_profile(table, truth_fn, n_points))) + 1


def assert_gl_matches_contrast(table, pens):
    """penalized_profile is pen_m - S_m; select_with_pens picks the smallest
    minimizer of Xi_m + pen(m)."""
    pens = np.asarray(pens, dtype=float)
    S = np.cumsum(table.theta_hat[1 : pens.size + 1] ** 2)
    np.testing.assert_array_equal(penalized_profile(table, pens), pens - S)
    assert select_with_pens(table, pens) == int(np.argmin(gl_contrast(table, pens) + pens)) + 1


def test_penalty_pinned_values():
    assert penalty_vector(36.0, 10, 1000)[9] == pytest.approx(0.36)
    assert penalty_vector(144.0, 2, 100, sigma_sq=0.5)[1] == pytest.approx(1.44)
    # one float order, c * sigma^2 * m / n, bit for bit
    np.testing.assert_array_equal(penalty_vector(3.7, 5, 250, 0.3),
                                  3.7 * 0.3 * np.arange(1, 6) / 250)
    with pytest.raises(ValueError):
        penalty_vector(-1.0, 3, 10)
    with pytest.raises(ValueError):
        penalty_vector(np.array([1.0, -1.0]), 3, 10)
    for bad in (float("nan"), np.array([1.0, np.nan])):
        with pytest.raises(ValueError):
            penalty_vector(bad, 3, 10)


def test_penalty_monotone_in_m():
    for c in (theorem_constant("density", 1), theorem_constant("regression", 3)):
        pens = penalty_vector(c, 20, 500, sigma_sq=0.7)
        assert np.all(pens >= 0.0)
        assert np.all(np.diff(pens) >= 0.0)


def test_theorem_presets():
    # constants 36 / 144 / 288 / 1152 times the squared sup-norm constant 2
    assert theorem_constant("density", 1) == 72.0
    assert theorem_constant("regression", 1) == 288.0
    assert theorem_constant("density", 2) == 576.0
    assert theorem_constant("regression", 3) == 2304.0
    for model, case in (("other", 1), ("density", 7), ("regression", 0)):
        with pytest.raises(ValueError):
            theorem_constant(model, case)


def test_gl_contrast_single_dimension():
    table = table_from([1.0, 0.5])
    np.testing.assert_allclose(gl_contrast(table, [0.3]), [-0.3])
    assert penalized_profile(table, [0.3])[0] == 0.3 - 0.25


def test_gl_contrast_hand_enumeration():
    table = table_from([1.0, 0.4, math.sqrt(0.05)])
    xi = gl_contrast(table, [0.1, 0.2])
    np.testing.assert_allclose(xi, [-0.1, -0.2], atol=1e-15)
    table2 = table_from([1.0, 0.4, math.sqrt(0.5)])
    xi2 = gl_contrast(table2, [0.1, 0.2])
    np.testing.assert_allclose(xi2, [0.3, -0.2], atol=1e-15)
    for tab in (table, table2):
        assert_gl_matches_contrast(tab, [0.1, 0.2])


def test_select_gl_hand_examples():
    pens = [0.1, 0.2]
    tie_table = table_from([1.0, 0.4, math.sqrt(0.05)])
    # Xi_m + pen(m) ties at 0 and the smallest wins; pen_m - S_m separates them
    np.testing.assert_allclose(gl_contrast(tie_table, pens) + pens, [0.0, 0.0], atol=1e-15)
    assert select_with_pens(tie_table, pens) == 1
    np.testing.assert_allclose(penalized_profile(tie_table, pens), [-0.06, -0.01], atol=1e-15)
    clear_table = table_from([1.0, 0.4, math.sqrt(0.5)])
    assert select_with_pens(clear_table, pens) == 2
    np.testing.assert_allclose(penalized_profile(clear_table, pens), [-0.06, -0.46],
                               atol=1e-15)
    for table in (tie_table, clear_table):
        assert_gl_matches_contrast(table, pens)


def test_select_gl_all_zero_coefficients():
    table = table_from([1.0, 0.0, 0.0, 0.0])
    assert select_with_pens(table, [0.1, 0.2, 0.3]) == 1
    np.testing.assert_array_equal(penalized_profile(table, [0.1, 0.2, 0.3]), [0.1, 0.2, 0.3])
    np.testing.assert_array_equal(gl_contrast(table, [0.1, 0.2, 0.3]), [-0.1, -0.2, -0.3])
    assert_gl_matches_contrast(table, [0.1, 0.2, 0.3])


def test_contrast_at_top_dimension_equals_minus_penalty():
    rng = np.random.default_rng(2)
    table = table_from(np.concatenate(([1.0], rng.standard_normal(12))))
    pens = np.cumsum(rng.uniform(0.0, 0.1, size=12))
    xi = gl_contrast(table, pens)
    assert xi[-1] == -pens[-1]
    S = np.cumsum(table.theta_hat[1:] ** 2)
    assert penalized_profile(table, pens)[-1] == pens[-1] - S[-1]
    assert_gl_matches_contrast(table, pens)


def test_select_ms_hand_examples():
    # criterion -sum theta^2 + c m sigma^2 / n with c sigma^2 / n = 0.4
    pens = penalty_vector(4.0, 2, 10)
    table = table_from([1.0, 1.0, 0.0], n=10)
    assert select_ms(table, c=4.0, sigma_sq=1.0) == 1
    np.testing.assert_allclose(penalized_profile(table, pens), [-0.6, -0.2], atol=1e-15)
    table2 = table_from([1.0, 1.0, 1.0], n=10)
    assert select_ms(table2, c=4.0, sigma_sq=1.0) == 2
    np.testing.assert_allclose(penalized_profile(table2, pens), [-0.6, -1.2], atol=1e-15)
    assert select_ms(table_from([1.0, 0.0, 0.0], n=10), c=4.0) == 1
    for bad in (0.0, -1.0, float("nan")):  # NaN used to select m = 1 silently
        with pytest.raises(ValueError):
            select_ms(table, c=bad)


def test_select_gl_preset_paths():
    rng = np.random.default_rng(29)
    theta = np.concatenate(([1.0], rng.standard_normal(20) * 0.3))
    pens = penalty_vector(3.0, 20, 250)
    # the sigma-scaled variant shrinks penalties when sigma_hat^2 < 1
    scaled = penalty_vector(3.0, 20, 250, 0.5)
    np.testing.assert_array_equal(scaled, 0.5 * pens)
    table_r = table_from(theta, model="regression", n=250)
    assert select_with_pens(table_r, scaled) == select_ms(table_r, 3.0, sigma_sq=0.5)


def test_penalized_profile_bitwise_and_selector_types():
    rng = np.random.default_rng(31)
    M = 20
    theta_hat = np.concatenate(([1.0], rng.standard_normal(M) * 0.3))
    table = table_from(theta_hat, n=250)
    pens = penalty_vector(3.0, M, 250)
    stack = penalty_vector(np.array([0.5, 3.0, 40.0]), M, 250)
    for p in (pens, stack):
        np.testing.assert_array_equal(penalized_profile(table, p),
                                      p - np.cumsum(theta_hat[1 : M + 1] ** 2))
    m = select_with_pens(table, pens)
    assert type(m) is int
    ms = select_with_pens(table, stack)
    assert isinstance(ms, np.ndarray) and ms.dtype == np.int64 and ms.shape == (3,)
    assert ms[1] == m
    assert type(select_ms(table, 3.0)) is int
    assert type(select_cv(empirical_coefficients(rng.uniform(size=(1, 50)), M)[0])) is int
    with pytest.raises(ValueError):
        penalized_profile(table, np.ones(M + 1))


@pytest.mark.parametrize("model", ["density", "regression"])
def test_stacked_table_selects_row_by_row(model):
    """Profiles and selectors of a K-row table are its rows' one-sample results, bitwise.

    Penalties follow penalty_vector's axes: the K noise levels first, then
    the C constants, so a (K, C, M) block gives (K, C) dimensions.
    """
    rng = np.random.default_rng(8)
    K, n, M = 5, 120, 30
    y = rng.standard_normal((K, n)) if model == "regression" else None
    tables = empirical_coefficients(rng.uniform(size=(K, n)), M, y)
    assert tables.model == model
    sig_sq = rng.uniform(0.5, 2.0, size=K)
    c_grid = np.array([0.5, 3.0, 40.0])
    block = penalty_vector(c_grid, M, n, sig_sq)
    assert block.shape == (K, c_grid.size, M)
    ms_block = select_with_pens(tables, block)
    assert ms_block.shape == (K, c_grid.size) and ms_block.dtype == np.int64
    shared = penalty_vector(3.0, M, n)
    for k, table in enumerate(tables):
        for i, c in enumerate(c_grid):
            np.testing.assert_array_equal(block[k, i], penalty_vector(c, M, n, sig_sq[k]))
            assert ms_block[k, i] == select_with_pens(table, block[k, i])
        np.testing.assert_array_equal(penalized_profile(tables, shared)[k],
                                      penalized_profile(table, shared))
        np.testing.assert_array_equal(cv_profile(tables)[k], cv_profile(table))
        assert select_with_pens(tables, shared)[k] == select_with_pens(table, shared)
        assert select_ms(tables, 3.0, sig_sq)[k] == select_ms(table, 3.0, sig_sq[k])
        assert select_cv(tables)[k] == select_cv(table)


def test_gl_and_ms_coincide_with_same_penalties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        M = int(rng.integers(1, 40))
        theta = np.concatenate(([1.0], rng.standard_normal(M) * rng.uniform(0.05, 2.0)))
        table = table_from(theta, n=int(rng.integers(10, 1000)))
        c = float(rng.uniform(0.1, 50.0))
        assert select_with_pens(table, penalty_vector(c, M, table.n)) == select_ms(table, c)


# Dyadic draws: coefficients k/16 and penalties j/256 make every sum in
# gl_contrast exact, so its argmin ties are exact ties, as in real arithmetic.
dyadic_coefs = st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=12)


@settings(max_examples=300)
@given(data=st.data())
def test_penalized_rule_is_smallest_contrast_minimizer(data):
    coefs = data.draw(dyadic_coefs)
    M = len(coefs)
    table = table_from(np.concatenate(([1.0], np.array(coefs) / 16.0)))
    pens = np.array(data.draw(st.lists(st.integers(min_value=-64, max_value=64),
                                       min_size=M, max_size=M))) / 256.0
    m = select_with_pens(table, pens)
    assert m == int(np.argmin(gl_contrast(table, pens) + pens)) + 1
    # penalty_vector penalties: c k / 8, n a power of two, sigma^2 a quarter step
    c = data.draw(st.integers(min_value=1, max_value=512)) / 8.0
    sigma_sq = data.draw(st.integers(min_value=1, max_value=8)) / 4.0
    table = table_from(table.theta_hat, n=2 ** data.draw(st.integers(min_value=0, max_value=10)))
    pens = penalty_vector(c, M, table.n, sigma_sq)
    m = select_ms(table, c, sigma_sq)
    assert m == int(np.argmin(gl_contrast(table, pens) + pens)) + 1
    assert m == select_with_pens(table, pens)


@settings(max_examples=300)
@given(data=st.data())
def test_penalized_rule_is_suffix_form_argmin_in_floats(data):
    value = st.one_of(st.sampled_from([0.0, 0.1, 1.0 / 3.0, 0.7]),
                      st.floats(min_value=-10.0, max_value=10.0))
    coefs = data.draw(st.lists(value, min_size=1, max_size=12))
    M = len(coefs)
    table = table_from([1.0] + coefs)
    pens = np.array(data.draw(st.lists(value, min_size=M, max_size=M)))
    assert select_with_pens(table, pens) == suffix_form_argmin(table, pens)


def test_select_gl_scaling_invariance():
    rng = np.random.default_rng(19)
    theta = np.concatenate(([1.0], rng.standard_normal(15)))
    pens = np.cumsum(rng.uniform(0.0, 0.05, size=15))
    base, lam_sq = table_from(theta), 7.3
    scaled = table_from(theta * math.sqrt(lam_sq))
    assert select_with_pens(scaled, pens * lam_sq) == select_with_pens(base, pens)
    np.testing.assert_allclose(penalized_profile(scaled, pens * lam_sq),
                               lam_sq * penalized_profile(base, pens), rtol=1e-9, atol=1e-12)


def cv_of(points, M, y=None):
    (table,) = empirical_coefficients([points], M, None if y is None else [y])
    return cv_profile(table)


def test_cv_hand_example():
    # n = 2, draws at 0 and 0.25: theta_1 = sqrt(2)/2, cross term vanishes
    assert cv_of([0.0, 0.25], 1)[0] == pytest.approx(0.5)


def test_cv_fast_form_matches_triple_loop():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        M = int(rng.integers(1, 6))
        x = rng.uniform(size=n)
        np.testing.assert_allclose(cv_of(x, M), brute_force_cv(x, M), atol=1e-10)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        M = int(rng.integers(1, 6))
        y, u = rng.standard_normal(n), rng.uniform(size=n)
        np.testing.assert_allclose(cv_of(u, M, y), brute_force_cv(u, M, y), atol=1e-10)
    # the table's leave-one-out squares give the sample-side O(n) form bit for bit
    for rep in range(5):
        for n, M in ((50, 10), (500, 100)):
            (x,) = gen_density_sample(n, 2, MarginalLaw(density_f1()), [stream(3, rep)])
            np.testing.assert_array_equal(cv_of(x, M), sample_cv(x, M))
            y, u = rng.standard_normal(n), rng.uniform(size=n)
            np.testing.assert_array_equal(cv_of(u, M, y), sample_cv(u, M, y))


def test_cv_identical_points_against_brute_force():
    x = [0.3, 0.3, 0.3]
    np.testing.assert_allclose(cv_of(x, 3), brute_force_cv(x, 3), atol=1e-12)


def test_cv_needs_two_points():
    (single,) = empirical_coefficients([[0.5]], 2)
    assert single.theta_sq_loo is None
    with pytest.raises(ValueError):
        select_cv(single)


@pytest.mark.parametrize("model", ["density", "regression"])
def test_cv_error_names_each_cause_of_missing_squares(model):
    """A table without theta_sq_loo is a one-point sample's or a theta-hat-only pass's."""
    rng = np.random.default_rng(3)
    for n, loo, cause in ((1, True, r"one-point sample \(n = 1\)"),
                          (50, False, r"built without the psi\^2 sums")):
        points = rng.uniform(size=(2, n))
        y = rng.standard_normal((2, n)) if model == "regression" else None
        tables = empirical_coefficients(points, 5, y, loo=loo)
        for table in (tables, tables[0]):
            assert table.theta_sq_loo is None
            for fn in (cv_profile, select_cv):
                with pytest.raises(ValueError, match=cause):
                    fn(table)


def test_select_oracle_noiseless():
    truth = lambda x: 1.0 + 0.8 * eval_one(1, x)
    table = table_from([1.0, 0.8, 0.0, 0.0])
    assert select_oracle(table, truth, n_points=257) == 1
    truth2 = lambda x: 1.0 + 0.8 * eval_one(1, x) + 0.5 * eval_one(2, x)
    table2 = table_from([1.0, 0.8, 0.5, 0.0])
    assert select_oracle(table2, truth2, n_points=257) == 2


def test_oracle_never_beaten_on_shared_table():
    rng = np.random.default_rng(11)
    truth = density_f1()
    law = MarginalLaw(truth)
    for rep in range(10):
        x = gen_density_sample(300, 1, law, [stream(31, rep)])
        (table,) = empirical_coefficients(x, 40)
        crit = oracle_profile(table, truth.eval, n_points=1025)
        m_o = int(np.argmin(crit)) + 1
        for other in (select_with_pens(table, penalty_vector(2.0, 40, 300)),
                      select_ms(table, 2.0),
                      select_cv(table)):
            assert crit[m_o - 1] <= crit[other - 1] + 1e-15


def lemma1_holds(theta_hat, theta_true, pens):
    table = table_from(theta_hat, model="regression", n=1)
    return lemma1_audit(table, pens, theta_true).all_passed


def test_lemma1_noiseless_zero_penalties():
    theta_true = np.concatenate(([1.0], 0.5 ** np.arange(1, 12)))
    table = table_from(theta_true.copy())
    audit = lemma1_audit(table, np.zeros(11), theta_true)
    assert audit.passed[2]
    assert audit.lhs <= 85.0 * np.sum(theta_true[4:] ** 2) + 1e-15  # 85 bias_3^2


def test_lemma1_rejects_bad_penalties():
    table = table_from([1.0, 0.1, 0.2])
    theta_true = np.zeros(3)
    with pytest.raises(ValueError):
        lemma1_audit(table, [0.2, 0.1], theta_true)
    with pytest.raises(ValueError):
        lemma1_audit(table, [-0.1, 0.2], theta_true)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            lemma1_audit(table, [0.1, bad], theta_true)
        with pytest.raises(ValueError):
            lemma1_audit(table, [-bad, 0.2], theta_true)


def test_lemma1_audit_vectorized_matches_per_m():
    rng = np.random.default_rng(5)
    for _ in range(50):
        M = int(rng.integers(1, 15))
        theta_hat = rng.standard_normal(M + 1)
        theta_true = rng.standard_normal(M + 20)
        pens = np.cumsum(rng.uniform(0.0, 0.3, size=M))
        audit = lemma1_audit(table_from(theta_hat, model="regression"), pens, theta_true)
        assert audit.rhs.shape == audit.passed.shape == (M,)
        for m in range(1, M + 1):
            rhs = per_m_rhs(theta_hat, theta_true, pens, m)
            assert audit.rhs[m - 1] == pytest.approx(rhs, rel=1e-12, abs=1e-15)
        assert audit.all_passed  # the inequality is a theorem; failures are bugs


def test_lemma1_fuzz_moderate():
    rng = np.random.default_rng(73)
    for _ in range(1000):
        M = int(rng.integers(1, 25))
        scale = 10.0 ** rng.uniform(-3, 2)
        theta_hat = rng.standard_normal(M + 1) * scale
        theta_true = rng.standard_normal(M + 1 + int(rng.integers(0, 40))) * scale
        pens = np.cumsum(rng.uniform(0.0, scale**2, size=M))
        assert lemma1_holds(theta_hat, theta_true, pens)


def test_lemma1_on_simulated_replications():
    truth = density_f1()
    law = MarginalLaw(truth)
    theta_true = true_coefficients(truth.eval, 400)
    pens = penalty_vector(theorem_constant("density", 1), 50, 500)
    for rep in range(40):
        x = gen_density_sample(500, 1, law, [stream(41, rep)])
        (table,) = empirical_coefficients(x, 50)
        assert lemma1_audit(table, pens, theta_true).all_passed


@settings(max_examples=60)
@given(data=st.data())
def test_lemma1_property(data):
    M = data.draw(st.integers(min_value=1, max_value=12))
    theta_hat = np.array(data.draw(st.lists(
        st.floats(min_value=-5.0, max_value=5.0), min_size=M + 1, max_size=M + 1)))
    extra = data.draw(st.integers(min_value=0, max_value=20))
    theta_true = np.array(data.draw(st.lists(
        st.floats(min_value=-5.0, max_value=5.0),
        min_size=M + 1 + extra, max_size=M + 1 + extra)))
    steps = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=3.0), min_size=M, max_size=M)))
    assert lemma1_holds(theta_hat, theta_true, np.cumsum(steps))
