"""Theory-check suite: numerical verification of the framework's guarantees.

Each check returns a CheckResult; the CLI `check` subcommand prints one
pass/fail line per check and exits nonzero on any failure.  Thresholds
follow the acceptance gates (KS < 0.006 at 1e5 draws, closed-form Case-3
marginal within 0.005 of 1e6 simulated draws, recursion residual below
2^-37, variance bound with 10% headroom, rate-slope within 0.02).  Only
settings that callers vary are parameters; fixed tolerances and grid
sizes are module constants, named in each check's docstring.  Each
CheckResult carries its detail line, rounded for reading, and its values:
the raw statistics at full precision.

The checks draw with the samplers the experiments run (uniform_series,
bernoulli_ar_path, gen_density_sample) and reduce with
empirical_coefficients, so they verify that code, not copies of it.  Only
the case-3 recursion residual draws its own innovations: it needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import SUP_NORM_SQ, TrigBasis, WeightSequence, rate_slope
from .dependence import (AR_TRUNCATION, ar_path_from_innovations, bernoulli_ar_path,
                         gen_density_sample, marginal_G_case3, stream, uniform_series)
from .estimators import CoefficientTable, empirical_coefficients
from .harness import ConfigError, ExperimentConfig, ExperimentContext, batches
from .quadrature import simpson_weights, unit_grid
from .selection import lemma1_audit, penalty_vector
from .targets import marginal_law, true_coefficients

ORTHONORMALITY_TOL = 1e-8
SUP_NORM_POINTS = 10**4
RATE_SLOPE_TOL = 0.02
VARIANCE_HEADROOM = 1.1
KS_THRESHOLD = 0.006
KS_DRAWS = 10**5
CASE3_MARGINAL_THRESHOLD = 0.005
CASE3_MARGINAL_DRAWS = 10**6
CASE3_RESIDUAL_BOUND = 2.0**-37
DEPENDENCE_SCORE_SIGMAS = 5.0
DEPENDENCE_SCORE_DRAWS = 10**5
DEPENDENCE_SCORE_ROWS = 4  # basis scores phi_1..phi_4
#: KS statistics closer than this are a tie: the first pair keeps the label.
KS_TIE = 1e-12
LEMMA_NS = 14  # stream namespace of the simulated oracle-inequality audit


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict, its printed detail and its raw statistics (name -> number)."""

    name: str
    passed: bool
    detail: str
    values: dict = field(default_factory=dict, hash=False)


def ks_statistic(draws: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between draws and a CDF."""
    x = np.sort(np.asarray(draws, dtype=float))
    f = np.asarray(cdf(x), dtype=float)
    n = x.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(grid_hi - f), np.max(f - grid_lo)))


def check_orthonormality(j_max: int = 30) -> CheckResult:
    """Quadrature Gram matrix of the first basis functions equals identity.

    Within ORTHONORMALITY_TOL = 1e-8.
    """
    grid = unit_grid()
    design = TrigBasis().design_matrix(grid, j_max)
    weighted = design * simpson_weights(grid.size)
    gram = weighted @ design.T
    err = float(np.max(np.abs(gram - np.eye(j_max + 1))))
    return CheckResult("orthonormality", err <= ORTHONORMALITY_TOL,
                       f"max |gram - I| = {err:.2e}", {"max_gram_error": err})


def check_sup_norm(m_limit: int = 100) -> CheckResult:
    """sup_x sum_{j=1..m} phi_j(x)^2 <= 2 m, with equality to m at even m.

    The sup is taken over SUP_NORM_POINTS = 10^4 equispaced points of [0, 1].
    """
    x = np.linspace(0.0, 1.0, SUP_NORM_POINTS)
    sq = TrigBasis().design_matrix(x, m_limit) ** 2
    running = np.cumsum(sq[1:], axis=0)
    sups = running.max(axis=1)
    m = np.arange(1, m_limit + 1)
    bound_ok = bool(np.all(sups <= SUP_NORM_SQ * m + 1e-9))
    even = m % 2 == 0
    even_gap = float(np.max(np.abs(sups[even] - m[even]), initial=0.0))
    ratio = float(np.max(sups / m))
    return CheckResult("sup_norm_constant", bound_ok and even_gap <= 1e-10,
                       f"max sup/m = {ratio:.6f}",
                       {"max_sup_over_m": ratio, "max_even_gap": even_gap})


def check_rate_slopes() -> CheckResult:
    """log-log slope of the benchmark risk matches -2p/(2p+1) within RATE_SLOPE_TOL = 0.02."""
    n_grid = np.unique(np.round(10 ** np.linspace(3, 6, 7)).astype(int))
    details = []
    values = {}
    ok = True
    for p in (1.0, 2.0):
        slope = rate_slope(WeightSequence("polynomial", p=p), n_grid)
        expect = -2.0 * p / (2.0 * p + 1.0)
        ok &= abs(slope - expect) <= RATE_SLOPE_TOL
        details.append(f"p={p:g}: {slope:+.4f} (target {expect:+.4f})")
        values[f"slope_p{p:g}"] = slope
    return CheckResult("rate_slope", ok, "; ".join(details), values)


def check_variance_bound(seed: int = 0, n: int = 500, reps: int = 2000,
                         dims=(5, 10, 20)) -> CheckResult:
    """Monte Carlo sum of coefficient variances against the (A1) bound.

    iid density samples from f1, drawn one after another from one
    generator on the experiments' sample path (gen_density_sample, then
    empirical_coefficients, one stack per batch of harness.batches);
    sum_{j<=m} Var(theta_hat_j) must stay below the bound
    SUP_NORM_SQ * m / n with 10% headroom (VARIANCE_HEADROOM = 1.1).
    """
    m_top = max(dims)
    law = marginal_law("f1")
    rng = np.random.default_rng(seed)
    thetas = np.concatenate([
        empirical_coefficients(gen_density_sample(n, 1, law, [rng] * (last - first)),
                               m_top, loo=False).theta_hat[:, 1:]
        for first, last in batches(0, reps, n)])
    variances = np.var(thetas, axis=0, ddof=1)
    ok = True
    ratios = []
    values = {}
    for m in dims:
        total = float(np.sum(variances[:m]))
        bound = VARIANCE_HEADROOM * SUP_NORM_SQ * m / n
        ok &= total <= bound
        ratios.append(f"m={m}: {total / (SUP_NORM_SQ * m / n):.3f}")
        values[f"sum_var_m{m}"] = total
    return CheckResult("variance_bound", ok, "sum Var / (2 m / n): " + "; ".join(ratios),
                       values)


def check_generator_ks(seed: int = 0, draws: int = KS_DRAWS,
                       threshold: float | None = None) -> CheckResult:
    """KS distance of each (case, marginal) pair below the 1% critical value.

    The stated gate is 0.006 at 1e5 draws; for other draw counts the
    default threshold scales like the critical value, 1/sqrt(draws).
    Each case's uniform series is drawn once and transformed by each law.
    """
    if threshold is None:
        threshold = KS_THRESHOLD * (KS_DRAWS / draws) ** 0.5
    ok = True
    worst = 0.0
    worst_pair = ""
    values = {}
    series = {case: uniform_series(case, draws, [stream(seed, case, namespace=10)])[0]
              for case in (1, 2, 3)}
    for name, law in {"f1": marginal_law("f1"), "f2": marginal_law("f2"), "uniform": None}.items():
        for case, v in series.items():
            if law is None:
                stat = ks_statistic(v, cdf=lambda x: x)
            else:
                z = law.quantile(v)
                stat = ks_statistic(z, cdf=law.cdf)
            ok &= stat < threshold
            values[f"ks_case{case}_{name}"] = stat
            # f1, f2 and uniform see the same uniforms, so their statistics
            # tie up to rounding; only a clear excess moves the label
            if stat > worst + KS_TIE:
                worst_pair = f"case {case}/{name}"
            worst = max(worst, stat)
    return CheckResult("generator_ks", ok,
                       f"worst KS = {worst:.5f} ({worst_pair}), threshold {threshold:.4g}",
                       values)


def check_case3_marginal(seed: int = 0, draws: int = CASE3_MARGINAL_DRAWS,
                         threshold: float | None = None) -> CheckResult:
    """Closed-form Case-3 marginal CDF against the empirical CDF of Y.

    Gate 0.005 at 1e6 draws; default threshold scales like 1/sqrt(draws).
    """
    if threshold is None:
        threshold = CASE3_MARGINAL_THRESHOLD * (CASE3_MARGINAL_DRAWS / draws) ** 0.5
    y = bernoulli_ar_path(draws, stream(seed, 3, namespace=11))
    stat = ks_statistic(y, cdf=marginal_G_case3)
    return CheckResult("case3_marginal_closed_form", stat < threshold,
                       f"sup |G - ecdf| = {stat:.5f}, threshold {threshold:.4g}",
                       {"sup_gap": stat})


def check_case3_residual(seed: int = 0, n: int = 10**4,
                         bound: float = CASE3_RESIDUAL_BOUND) -> CheckResult:
    """Plugging the truncated MA into the recursion leaves only truncation error."""
    rng = stream(seed, 3, namespace=12)
    zeta = rng.integers(0, 2, size=n + 2 * AR_TRUNCATION).astype(float)
    y = ar_path_from_innovations(zeta)
    inner = zeta[AR_TRUNCATION : AR_TRUNCATION + n]
    resid = y[1:-1] - 0.4 * (y[:-2] + y[2:]) - (5.0 / 21.0) * inner[1:-1]
    worst = float(np.max(np.abs(resid)))
    return CheckResult("case3_recursion_residual", worst < bound,
                       f"max |residual| = {worst:.3e}, bound {bound:.3e}",
                       {"max_residual": worst})


def dependence_score(case: int, n: int = DEPENDENCE_SCORE_DRAWS, seed: int = 0) -> float:
    """Largest |lag-1 cross-correlation| z-score among low-order basis scores.

    Serial dependence is measured across basis-score pairs phi_j(V_i),
    phi_k(V_{i+1}), j, k = 1..4: for the logistic-map case plain
    autocorrelations of any single antisymmetric score (normal scores
    included) vanish identically, while cross pairs expose the
    deterministic frequency doubling.
    """
    (v,) = uniform_series(case, n, [stream(seed, case, namespace=13)])
    scores = TrigBasis().design_matrix(v, DEPENDENCE_SCORE_ROWS)[1:]
    lead, lag = scores[:, :-1], scores[:, 1:]
    z_max = 0.0
    for a in lead:
        for b in lag:
            r = np.corrcoef(a, b)[0, 1]
            z_max = max(z_max, abs(r) * np.sqrt(n - 1.0))
    return float(z_max)


def check_dependence_scores(seed: int = 0) -> CheckResult:
    """Cases 2 and 3 show real serial dependence; case 1 does not (10^5 draws each)."""
    z1, z2, z3 = (dependence_score(case, seed=seed) for case in (1, 2, 3))
    ok = (z1 < DEPENDENCE_SCORE_SIGMAS and z2 > DEPENDENCE_SCORE_SIGMAS
          and z3 > DEPENDENCE_SCORE_SIGMAS)
    return CheckResult("dependence_scores", ok,
                       f"max |z|: case1 {z1:.1f}, case2 {z2:.1f}, case3 {z3:.1f}",
                       {"z_case1": z1, "z_case2": z2, "z_case3": z3})


def check_lemma1_simulation(seed: int = 0, reps: int = 200, n: int = 500) -> CheckResult:
    """Audit the oracle inequality on simulated density replications, each row of each batch."""
    cfg = ExperimentConfig(model="density", target="f1", case=1, n=n, reps=reps, seed=seed,
                           selectors=("gl",))
    ctx = ExperimentContext(cfg)
    theta_true = true_coefficients(ctx.target.eval, 400)
    pens = penalty_vector(cfg.gl_constant, cfg.m_grid, n)  # sigma^2 = 1 for densities
    failures = 0
    for table, _ in ctx.replications(0, reps, LEMMA_NS):
        failures += sum(not lemma1_audit(row, pens, theta_true).all_passed for row in table)
    return CheckResult("lemma1_simulation", failures == 0,
                       f"{reps - failures}/{reps} replications satisfied the bound")


def check_lemma1_fuzz(seed: int = 0, cases: int = 2000) -> CheckResult:
    """Audit the oracle inequality on adversarial random tables."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(cases):
        M = int(rng.integers(1, 31))
        j_top = M + int(rng.integers(0, 60))
        scale = 10.0 ** rng.uniform(-3, 1)
        theta_hat = rng.standard_normal(M + 1) * scale
        theta_true = rng.standard_normal(j_top + 1) * scale * 10.0 ** rng.uniform(-1, 1)
        steps = rng.uniform(0.0, scale**2, size=M)
        if rng.uniform() < 0.2:
            steps[:] = 0.0
        table = CoefficientTable(model="regression", n=1, theta_hat=theta_hat)
        if not lemma1_audit(table, np.cumsum(steps), theta_true).all_passed:
            failures += 1
    return CheckResult("lemma1_fuzz", failures == 0,
                       f"{cases - failures}/{cases} random tables satisfied the bound")


def check_custom_pens(pens) -> CheckResult:
    """Audit with a user-supplied penalty sequence (catches bad monotonicity)."""
    theta_hat = np.array([1.0] + [0.1] * len(pens))
    theta_true = np.zeros(len(pens) + 1)
    theta_true[0] = 1.0
    table = CoefficientTable(model="density", n=100, theta_hat=theta_hat)
    try:
        audit = lemma1_audit(table, pens, theta_true)
    except ValueError as exc:
        return CheckResult("lemma1_custom_pens", False, f"argument error: {exc}")
    min_rhs = float(np.min(audit.rhs))
    return CheckResult("lemma1_custom_pens", audit.all_passed,
                       f"lhs {audit.lhs:.4g} <= min_m rhs {min_rhs:.4g}",
                       {"lhs": audit.lhs, "min_rhs": min_rhs})


#: Smallest accepted value of each run_all_checks setting; the variance
#: check takes a ddof=1 variance over replications, so it needs two.
SETTING_MINIMA = {"seed": 0, "ks_draws": 1, "case3_draws": 1, "lemma_reps": 1,
                  "fuzz_cases": 1, "variance_reps": 2}


def _validate_settings(**settings) -> None:
    """Raise ConfigError for a run_all_checks setting below its minimum."""
    for key, value in settings.items():
        if value < SETTING_MINIMA[key]:
            raise ConfigError(f"{key} must be >= {SETTING_MINIMA[key]}, got {value}")


def run_all_checks(seed: int = 0, ks_draws: int = KS_DRAWS,
                   case3_draws: int = CASE3_MARGINAL_DRAWS,
                   lemma_reps: int = 200, fuzz_cases: int = 2000,
                   variance_reps: int = 2000, pens=None) -> list[CheckResult]:
    _validate_settings(seed=seed, ks_draws=ks_draws, case3_draws=case3_draws,
                       lemma_reps=lemma_reps, fuzz_cases=fuzz_cases,
                       variance_reps=variance_reps)
    results = [
        check_orthonormality(),
        check_sup_norm(),
        check_rate_slopes(),
        check_variance_bound(seed=seed, reps=variance_reps),
        check_generator_ks(seed=seed, draws=ks_draws),
        check_case3_marginal(seed=seed, draws=case3_draws),
        check_case3_residual(seed=seed),
        check_dependence_scores(seed=seed),
        check_lemma1_simulation(seed=seed, reps=lemma_reps),
        check_lemma1_fuzz(seed=seed, cases=fuzz_cases),
    ]
    if pens is not None:
        results.append(check_custom_pens(pens))
    return results
