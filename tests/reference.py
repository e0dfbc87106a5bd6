"""The slow, obvious forms that the fast code is checked against, each written once.

Every function here is an oracle: it computes what a fast path of
adaseries computes, the direct way, and its docstring names that path and
the tolerance the tests hold it to.  No oracle reads a private constant or
helper of the code it checks; the tabulated arrays of a MarginalLaw
(_cum, _seg, _f_knots, _h, _total) are read as shared input.  Test
modules import the oracles from here and define none of them again
(test_layout.py checks that).
"""

import math

import numpy as np

from adaseries.basis import RateResult, TrigBasis
from adaseries.dependence import gen_density_sample, gen_regression_sample, stream
from adaseries.estimators import empirical_coefficients, sigma_y_hat
from adaseries.harness import EVAL_NS, ExperimentContext, RepRecord, SummaryRow
from adaseries.selection import penalty_vector, select_cv, select_ms, select_with_pens
from adaseries.targets import DENSITY_TARGETS, REGRESSION_TARGETS


def simpson(size):
    """Composite Simpson weights h/3 (1, 4, 2, 4, ..., 2, 4, 1) on size uniform points of [0, 1].

    Checks nothing itself: the grid oracles below integrate with it, so
    they do not share quadrature.simpson_weights with the code they check.
    """
    w = np.where(np.arange(size) % 2 == 1, 4.0, 2.0)
    w[0] = w[-1] = 1.0
    return w / (3.0 * (size - 1))


# -- the basis ------------------------------------------------------------------


def eval_one(j, x):
    """phi_j(x) from its definition: 1 for j = 0, else sqrt 2 cos (j odd) or
    sin (j even) of 2 pi k x with k = (j + 1) // 2.

    Checks TrigBasis.design_matrix, the trig recurrence: to 1e-14 at 12
    rows and 1e-12 at 401.
    """
    x = np.asarray(x, dtype=float)
    if j == 0:
        return np.ones_like(x)
    ang = 2.0 * np.pi * ((j + 1) // 2) * x
    return math.sqrt(2.0) * (np.cos(ang) if j % 2 == 1 else np.sin(ang))


def outer_design_matrix(x, m_max):
    """The (m_max + 1, n) basis rows at the points x, one eval_one row each.

    Checks TrigBasis.design_matrix on any points and m_max to 1e-12, and
    is the basis of every grid oracle below.
    """
    x = np.asarray(x, dtype=float).ravel()
    return np.array([eval_one(j, x) for j in range(m_max + 1)])


def brute_force_rate(seq, n):
    """The smallest minimizer of max(gamma_m, m / n) over m = 1..n, one m at a time.

    Checks basis.optimal_dimension: the same m, and its rate to pytest.approx.
    """
    best_m, best_v = None, None
    for m in range(1, n + 1):
        v = max(seq.weight(m), m / n)
        if best_v is None or v < best_v:  # strict: keep the smallest argmin
            best_m, best_v = m, v
    return RateResult(m_star=best_m, r_star=best_v)


# -- coefficients, CV and ISE --------------------------------------------------------


def materialized_coefficients(points, m_max, y=None):
    """(theta_hat, theta_sq_loo) of one sample from its whole (m_max + 1) x n psi matrix.

    Checks empirical_coefficients, which sums one frequency at a time in
    place: the same floats.  The psi rows are design_matrix's, because
    this check is about the sums; design_matrix is checked against
    eval_one.  theta_sq_loo is None for one point.
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


def sample_cv(points, m_max, y=None):
    """CV(m), m = 1..m_max, as the cumulative sum of theta_hat_j^2 - 2 theta_sq_loo_j
    over j = 1..m for a density and j = 0..m for a regression.

    From materialized_coefficients.  Checks selection.cv_profile on the
    table of the same sample: the same floats.
    """
    theta, loo = materialized_coefficients(points, m_max, y)
    terms = theta**2 - 2.0 * loo
    return np.cumsum(terms[1:]) if y is None else np.cumsum(terms)[1:]


def brute_force_cv(points, m_max, y=None):
    """CV(m) from its definition: the sum over the estimated j <= m (j >= 1 for a
    density) of theta_hat_j^2 - 2 / (n (n - 1)) sum_{i != k} psi_j(i) psi_j(k).

    The pairs are looped over one at a time, psi from eval_one.  Checks
    selection.cv_profile to 1e-10 absolute, and 1e-12 on three equal points.
    """
    n = len(points)
    psi = outer_design_matrix(points, m_max)
    if y is not None:
        psi = psi * np.asarray(y, dtype=float)
    out = np.empty(m_max)
    j_set = range(1, m_max + 1) if y is None else range(0, m_max + 1)
    for m in range(1, m_max + 1):
        total = 0.0
        cross = 0.0
        for j in j_set:
            if j > m:
                continue
            theta = psi[j].sum() / n
            total += theta * theta
            for i in range(n):
                for k in range(n):
                    if k != i:
                        cross += psi[j, k] * psi[j, i]
        out[m - 1] = total - 2.0 * cross / (n * (n - 1))
    return out


def grid_ise_profile(theta_hat, truth_values):
    """ISE(m), m = 1..M, of the series estimates sum_{j <= m} theta_hat_j phi_j.

    Each estimate's residual against truth_values, the truth on the
    uniform grid of truth_values.size points, is squared and summed with
    Simpson weights.  Checks the Parseval form estimators.ise_profile (and
    so ExperimentContext.ise_by_m and selection.oracle_criteria): 1e-10
    relative on simulated tables at M = 100, 1e-12 on small tables.
    With another estimate as the truth it is the squared L2 distance of
    two series (1e-8 absolute against the sum of squares between them).
    """
    theta = np.asarray(theta_hat, dtype=float)
    truth = np.asarray(truth_values, dtype=float)
    design = outer_design_matrix(np.linspace(0.0, 1.0, truth.size), theta.size - 1)
    resid = np.cumsum(theta[:, None] * design, axis=0) - truth
    return np.sum(resid * resid * simpson(truth.size), axis=1)[1:]


# -- selection ----------------------------------------------------------------------


def gl_contrast(table, pens):
    """Xi_m = max_{m <= k <= M} (gap(m, k) - pen(k)), m = 1..M, from the pairwise gaps.

    gap(m, k) = S_k - S_m with S_m the cumulative sum of theta_hat_j^2;
    the k = m term is an exact float zero, so Xi_M is -pen(M) exactly.
    Checks selection.select_with_pens: its m is the smallest minimizer of
    Xi_m + pen(m), exactly (ties are exact on dyadic inputs).
    """
    pens = np.asarray(pens, dtype=float)
    S = np.cumsum(table.theta_hat[1 : pens.size + 1] ** 2)
    terms = (S[None, :] - S[:, None]) - pens[None, :]
    keep = np.triu(np.ones((pens.size, pens.size), dtype=bool))
    return np.max(np.where(keep, terms, -np.inf), axis=1)


def suffix_form_argmin(table, pens):
    """Smallest minimizer of Xi_m + pen(m) in its suffix-maximum form.

    max_{k >= m}(S_k - pen_k) - (S_m - pen_m) is an exact float zero at
    every suffix maximum of S_m - pen_m, so this argmin is exact in
    floats.  Checks selection.select_with_pens on any floats: the same m.
    """
    pens = np.asarray(pens, dtype=float)
    shifted = np.cumsum(table.theta_hat[1 : pens.size + 1] ** 2) - pens
    crit = np.maximum.accumulate(shifted[::-1])[::-1] - shifted
    return int(np.argmin(crit)) + 1


def per_m_rhs(theta_hat, theta_true, pens, m):
    """The oracle inequality's right-hand side for one comparison dimension m, written out.

    85 max(bias_m^2, pen_m) + 42 max(max_{k >= m} (err_k - pen_k / 6), 0).
    Checks selection.lemma1_audit's rhs to 1e-12 relative.
    """
    M = len(pens)
    err = [float(np.sum((theta_hat[: k + 1] - theta_true[: k + 1]) ** 2))
           for k in range(M + 1)]
    bias_sq = float(np.sum(theta_true[m + 1 :] ** 2))
    dev = max(err[k] - pens[k - 1] / 6.0 for k in range(m, M + 1))
    return 85.0 * max(bias_sq, pens[m - 1]) + 42.0 * max(dev, 0.0)


# -- the quantile transform -----------------------------------------------------------


def searchsorted_segment(law, t):
    """The segment of each t: the last knot k <= N - 1 with cum[k] <= t, by searchsorted.

    Checks the guide table and binary lifts of MarginalLaw.quantile: the
    same integer.
    """
    return np.clip(np.searchsorted(law._cum, t, side="right") - 1, 0, law._cum.size - 2)


def partial_mass(law, k, x, f_x):
    """The unnormalized mass from 0 to x inside segment k: the table entry
    cum[k] plus Simpson's rule on [k h, x], f_x the density at x.

    The piecewise-Simpson CDF that both quantile oracles invert.
    """
    left = k * law._h
    d = x - left
    f_mid = law.density.eval(left + 0.5 * d)
    return law._cum[k] + (d / 6.0) * (law._f_knots[k] + 4.0 * f_mid + f_x)


def searchsorted_quantile(law, u):
    """MarginalLaw.quantile in its plain form: the segment from searchsorted, the
    linear start inside it and three Newton steps on partial_mass, each
    clamped to the segment, with fresh arrays throughout.

    A zero slope or an empty segment leaves the point where it is.
    Checks MarginalLaw.quantile: the same floats.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    t = np.atleast_1d(u) * law._total
    k = searchsorted_segment(law, t)
    lo = k * law._h
    hi = lo + law._h
    seg = law._seg[k]
    frac = np.divide(t - law._cum[k], seg, out=np.zeros_like(t), where=seg > 0.0)
    q = np.clip(lo + law._h * frac, lo, hi)
    for _ in range(3):
        f_q = law.density.eval(q)
        excess = partial_mass(law, k, q, f_q) - t
        step = np.divide(excess, f_q, out=np.zeros_like(q), where=f_q > 0.0)
        q = np.clip(q - step, lo, hi)
    return float(q[0]) if scalar else q


def bisection_quantile(law, u):
    """The quantile by 40 bisection steps on partial_mass inside the searchsorted segment.

    Checks MarginalLaw.quantile to 1e-12 (and to 1e-15 times the density
    at q for single u).
    """
    t = np.atleast_1d(np.asarray(u, dtype=float)) * law._total
    k = searchsorted_segment(law, t)
    lo = k * law._h
    hi = lo + law._h
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        below = partial_mass(law, k, mid, law.density.eval(mid)) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# -- dependence and exact risk ----------------------------------------------------------


def numpy_logistic_path(n, u1):
    """The logistic map iterated on a numpy scalar into a preallocated array, a
    value that rounds to 1 or 0 nudged back into (0, 1) at every step.

    Checks dependence.logistic_path: the same floats.
    """
    y = np.empty(n)
    y[0] = np.sin(0.5 * np.pi * u1) ** 2
    cur = y[0]
    for i in range(1, n):
        cur = 4.0 * cur * (1.0 - cur)
        if cur >= 1.0:
            cur = 1.0 - 2.0**-53
        elif cur <= 0.0:
            cur = 2.0**-53
        y[i] = cur
    return y


def brute_force_lag_covariances(psi, lags):
    """int psibar(u) psibar(tent^k u) du, k = 0..lags, by composing the tent map on a dyadic grid.

    tent maps the grid i / N (N a power of two) onto itself exactly, so
    the composed function is read off by index, without interpolation.
    Checks risk.autocovariances with case 2's tent-map lags (on a
    4097-point grid, against this on 2^16 + 1 points) to 1e-5 absolute.
    """
    size = psi.shape[-1]
    last = size - 1
    w = simpson(size)
    centred = psi - (psi @ w)[:, None]
    idx = np.arange(size)
    out = []
    for _ in range(lags + 1):
        out.append((centred * centred[:, idx]) @ w)
        idx = np.where(2 * idx <= last, 2 * idx, 2 * last - 2 * idx)
    return np.array(out)


def iid_risk_reference(model, target, n, m_max):
    """Case-1 (variance, bias^2) of E ISE(m), m = 1..m_max, by x-space quadrature.

    Var(theta_hat_j) = (E psi_j^2 - theta_j^2) / n, with psi_j = phi_j
    for a density (Var theta_hat_0 = 0) and phi_j Y for a regression;
    the bias^2 is ||f||^2 - sum_{j <= m} theta_j^2.  Checks
    risk.risk_decomposition, which integrates in u-space, to 1e-4
    relative (variance also 1e-6 absolute).
    """
    fn = (DENSITY_TARGETS if model == "density" else REGRESSION_TARGETS)[target]()
    grid = np.linspace(0.0, 1.0, 4097)
    w = simpson(grid.size)
    design = outer_design_matrix(grid, m_max)
    f_vals = fn.eval(grid)
    theta = design @ (f_vals * w)
    if model == "density":
        var = (np.sum(f_vals * design**2 * w, axis=1) - theta**2) / n
        var[0] = 0.0
    else:
        second = np.sum((f_vals**2 + fn.noise_sigma**2) * design**2 * w, axis=1)
        var = (second - theta**2) / n
    bias_sq = np.sum(f_vals**2 * w) - np.cumsum(theta**2)
    return np.cumsum(var)[1:], bias_sq[1:]


# -- the experiment loop --------------------------------------------------------------


def one_replication(ctx, rep, namespace):
    """(table, sigma_sq) of one replication, without the batched kernel.

    The sample is drawn on its own from stream(seed, rep, namespace) and
    reduced by a one-row empirical_coefficients call; the table returned
    is that row's one-sample table.  Checks ExperimentContext.replications.
    """
    cfg = ctx.cfg
    rngs = [stream(cfg.seed, rep, namespace)]
    if cfg.model == "density":
        (table,) = empirical_coefficients(gen_density_sample(cfg.n, cfg.case, ctx.law, rngs),
                                          cfg.m_grid)
        return table, 1.0
    u, y = gen_regression_sample(cfg.n, cfg.case, ctx.target, rngs)
    (table,) = empirical_coefficients(u, cfg.m_grid, y)
    return table, float(sigma_y_hat(y)[0])


def reference_records(cfg):
    """The per-(replication, selector) record loop, and the ISE(m) rows.

    One replication at a time (one_replication), scored by the one-sample
    selectors.  Checks run_experiment's columns: the same records and
    ISE(m) rows.
    """
    ctx = ExperimentContext(cfg)
    records, profiles = [], []
    for rep in range(cfg.reps):
        table, sig_sq = one_replication(ctx, rep, EVAL_NS)
        ise_by_m = ctx.ise_by_m(table)
        profiles.append(ise_by_m)
        for sel in cfg.selectors:
            if sel == "oracle":
                m = int(np.argmin(ise_by_m)) + 1
            elif sel == "gl":
                m = select_with_pens(table, penalty_vector(cfg.gl_constant, cfg.m_grid, cfg.n,
                                                           sig_sq))
            elif sel == "ms":
                m = select_ms(table, cfg.gl_constant, sig_sq)
            else:
                m = select_cv(table)
            records.append(RepRecord(rep, sel, m, float(ise_by_m[m - 1]), sig_sq))
    return records, np.array(profiles)


def reference_summary(cfg, records):
    """The summary rows as a comprehension over records.

    Checks run_experiment's summary rows, made from per-row column means:
    the same rows.
    """
    rows = []
    for sel in cfg.selectors:
        ises = np.array([r.ise for r in records if r.selector == sel])
        ms = np.array([r.m_selected for r in records if r.selector == sel])
        c_pen = cfg.gl_constant if sel in ("gl", "ms") else float("nan")
        rows.append(SummaryRow(
            model=cfg.model, target=cfg.target, case=cfg.case, n=cfg.n, selector=sel,
            c_pen=c_pen, reps=ises.size, mean_ise=float(ises.mean()),
            std_ise=float(ises.std(ddof=0)), mean_m=float(ms.mean())))
    return rows
