"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-3 concern the published risk-table cells (the TABLE* dicts
below).  The repository holds no source for those numbers: the paper's
simulation section is not in it, so nothing here can say how they were
produced.

Reference rule of criteria 1-2 (oracle column).  For the iid and
logistic-map cases (1 and 2) the expected risk E ISE(m) of the process
documented in the README and the `targets`/`dependence` docstrings is
known exactly (the sum of the variance and squared-bias parts of
`adaseries.risk.risk_decomposition`), so these cells are checked
against it:

- the simulated mean ISE(m) matches E ISE(m) within 4 Monte Carlo
  standard errors at every m = 1..M;
- the simulated oracle mean lies at or below min_m E ISE(m) plus 3
  standard errors, because E min_m ISE(m) <= min_m E ISE(m).

This compares the harness with the documented process, not with the
paper.  `risk_decomposition` reads the same target functions,
`NOISE_SIGMA` and `MarginalLaw.quantile` as the harness, so an error there
moves both sides alike and criteria 1-2 cannot see it;
`tests/test_targets.py` pins those definitions to the documented formulas.
The published cells of cases 1-2 are not the reference because this
process does not produce them: seven of the eight lie above
min_m E ISE(m), the bound on its mean oracle risk, and 4.8 to 284
standard errors of a 501-replication mean above that risk itself
(README, "Reproduction status").

The bilateral autoregression (case 3) has no such derivation, so its
cells keep the published value with +-10%.  Every cell's published value
and deviation is printed in the report line.  Criterion 3 compares the
calibrated gl/ms columns with the published cells at +-25%.

All runs are fully seeded, so every outcome here is reproducible bit for
bit.
"""

import os

import numpy as np
import pytest

from adaseries.checks import run_all_checks
from adaseries.cli import main as cli_main
from adaseries.harness import ExperimentConfig, run_experiment, table_study
from adaseries.risk import risk_decomposition

SEED = 0
N = 1000
REPS = 501
CALIB_REPS = 100
EXACT_Z_MAX = 4.0  # simulated mean ISE(m) vs E ISE(m), every m
ORACLE_SE_SLACK = 3.0  # oracle mean vs min_m E ISE(m)

#: published mean ISE values (n = 1000, 501 replications); no source in the repository
TABLE1_ORACLE = {("f1", 1): 0.0112, ("f1", 2): 0.0102, ("f1", 3): 0.0188,
                 ("f2", 1): 0.0110, ("f2", 2): 0.0123, ("f2", 3): 0.0158}
TABLE2_ORACLE = {("f1", 1): 0.0306, ("f1", 2): 0.0309, ("f1", 3): 0.0332,
                 ("f2", 1): 0.0251, ("f2", 2): 0.0235, ("f2", 3): 0.0297}
TABLE1_ADAPTIVE = {("f1", 1): {"gl": 0.0142, "ms": 0.0142, "cv": 0.0178},
                   ("f1", 2): {"gl": 0.0129, "ms": 0.0128, "cv": 0.0151},
                   ("f1", 3): {"gl": 0.0213, "ms": 0.0213, "cv": 0.0242},
                   ("f2", 1): {"gl": 0.0153, "ms": 0.0153, "cv": 0.0159},
                   ("f2", 2): {"gl": 0.0177, "ms": 0.0178, "cv": 0.0232},
                   ("f2", 3): {"gl": 0.0210, "ms": 0.0211, "cv": 0.0223}}
TABLE2_ADAPTIVE = {("f1", 1): {"gl": 0.0369, "ms": 0.0369, "cv": 0.0340},
                   ("f1", 2): {"gl": 0.0375, "ms": 0.0375, "cv": 0.0343},
                   ("f1", 3): {"gl": 0.0392, "ms": 0.0392, "cv": 0.0370},
                   ("f2", 1): {"gl": 0.0318, "ms": 0.0318, "cv": 0.0354},
                   ("f2", 2): {"gl": 0.0310, "ms": 0.0310, "cv": 0.0366},
                   ("f2", 3): {"gl": 0.0372, "ms": 0.0372, "cv": 0.0388}}

REPORT_PATH = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")


def report(name: str, passed: bool, detail: str) -> bool:
    line = f"{'PASS' if passed else 'FAIL'}  {name}: {detail}"
    print(line)
    with open(REPORT_PATH, "a") as fh:
        fh.write(line + "\n")
    return passed


@pytest.fixture(scope="session", autouse=True)
def fresh_report():
    if os.path.exists(REPORT_PATH):
        os.remove(REPORT_PATH)


@pytest.fixture(scope="session")
def table_runs():
    """The twelve calibrated 501-replication runs: the call `adaseries study` makes."""
    return {(cfg.model, cfg.target, cfg.case): {"rows": {r.selector: r for r in rows},
                                                "results": results}
            for cfg, rows, results in table_study(N, REPS, CALIB_REPS, SEED)}


@pytest.fixture(scope="module")
def checks():
    """The theory-check suite by name: the run `adaseries check` makes."""
    return {r.name: r for r in run_all_checks(seed=SEED)}


def _exact_cell(results, model, target, case):
    """Check one case-1/2 oracle cell against E ISE(m); returns (ok, detail)."""
    profile = results.ise_by_m  # reps x M
    variance, bias_sq = risk_decomposition(model, target, case, N, profile.shape[1])
    exact = variance + bias_sq
    se = profile.std(axis=0, ddof=1) / np.sqrt(REPS)
    z_max = float(np.max(np.abs(profile.mean(axis=0) - exact) / se))
    ise = results.ise[results.selectors.index("oracle")]
    bound = exact.min() + ORACLE_SE_SLACK * ise.std(ddof=1) / np.sqrt(REPS)
    ok = z_max <= EXACT_Z_MAX and ise.mean() <= bound
    detail = (f"min_m E ISE(m) {exact.min():.5f} at m={int(exact.argmin()) + 1}, "
              f"oracle {ise.mean():.5f} <= {bound:.5f}: {ise.mean() <= bound}, "
              f"max |z| of mean ISE(m) vs E ISE(m) {z_max:.2f}")
    return ok, detail


def _oracle_cells(table_runs, model, published):
    lines = []
    failed = []
    for (target, case), ref in published.items():
        run = table_runs[(model, target, case)]
        got = run["rows"]["oracle"].mean_ise
        dev = got / ref - 1.0
        line = f"{target}/case{case}: {got:.4f} vs published {ref:.4f} ({dev:+.1%})"
        if case == 3:
            cell_ok = abs(dev) <= 0.10
        else:
            cell_ok, exact = _exact_cell(run["results"], model, target, case)
            line += f"; {exact}"
        lines.append(line)
        if not cell_ok:
            failed.append(line)
    return not failed, "; ".join(lines), " | ".join(failed)


def test_criterion_1_table1_oracle(table_runs):
    ok, detail, failed = _oracle_cells(table_runs, "density", TABLE1_ORACLE)
    assert report("criterion 1 (Table 1 oracle: cases 1-2 vs exact risk, case 3 +-10%)",
                  ok, detail), failed


def test_criterion_2_table2_oracle(table_runs):
    ok, detail, failed = _oracle_cells(table_runs, "regression", TABLE2_ORACLE)
    assert report("criterion 2 (Table 2 oracle: cases 1-2 vs exact risk, case 3 +-10%)",
                  ok, detail), failed


def test_criterion_3_adaptive_columns(table_runs):
    failures = []
    for model, table in (("density", TABLE1_ADAPTIVE), ("regression", TABLE2_ADAPTIVE)):
        for (target, case), refs in table.items():
            rows = table_runs[(model, target, case)]["rows"]
            key = f"{model}/{target}/case{case}"
            for sel in ("gl", "ms"):
                dev = rows[sel].mean_ise / refs[sel] - 1.0
                if abs(dev) > 0.25:
                    failures.append(f"{key} {sel} {rows[sel].mean_ise:.4f} vs "
                                    f"{refs[sel]:.4f} ({dev:+.1%})")
            if rows["oracle"].mean_ise > rows["gl"].mean_ise + 1e-12:
                failures.append(f"{key}: oracle above gl")
            gap = abs(rows["gl"].mean_ise - rows["ms"].mean_ise) / rows["ms"].mean_ise
            if gap >= 0.10:
                failures.append(f"{key}: gl-ms gap {gap:.1%}")
            if model == "density" and rows["cv"].mean_ise < rows["gl"].mean_ise - 1e-12:
                failures.append(f"{key}: cv below gl")
            if model == "regression":
                records = table_runs[(model, target, case)]["results"]
                gl_m = {r.rep_index: r.m_selected for r in records if r.selector == "gl"}
                ms_m = {r.rep_index: r.m_selected for r in records if r.selector == "ms"}
                agree = np.mean([gl_m[i] == ms_m[i] for i in gl_m])
                if agree < 0.90:
                    failures.append(f"{key}: gl/ms same-m rate {agree:.1%}")
    ok = not failures
    detail = "all sub-checks hold" if ok else " | ".join(failures)
    assert report("criterion 3 (adaptive columns after calibration)", ok, detail), detail


def test_criterion_4_lemma_audit(checks):
    sim, fuzz = checks["lemma1_simulation"], checks["lemma1_fuzz"]
    ok = sim.passed and fuzz.passed
    assert report("criterion 4 (oracle-inequality audit)", ok,
                  f"{sim.detail}; {fuzz.detail}"), (sim, fuzz)


def test_criterion_5_variance_bound(checks):
    res = checks["variance_bound"]
    assert report("criterion 5 (coefficient variance bound)", res.passed, res.detail)


def test_criterion_6_rate_slopes(checks):
    rates = checks["rate_slope"]
    ok = rates.passed
    lines = [f"p={p:g}: slope {rates.values[f'slope_p{p:g}']:+.4f} "
             f"(target {-2.0 * p / (2.0 * p + 1.0):+.4f})" for p in (1.0, 2.0)]

    means = []
    for n in (100, 1000, 10000):
        cfg = ExperimentConfig(model="density", target="f1", case=1, n=n,
                               reps=150, seed=SEED, selectors=("oracle",))
        rows, _ = run_experiment(cfg)
        means.append(rows[0].mean_ise)
    emp = float(np.polyfit(np.log([100, 1000, 10000]), np.log(means), 1)[0])
    ok &= -1.0 <= emp <= -0.5
    lines.append(f"empirical oracle-risk slope {emp:+.3f} (allowed [-1.0, -0.5])")
    detail = "; ".join(lines)
    assert report("criterion 6 (benchmark and empirical rates)", ok, detail), detail


def test_criterion_7_generators(checks):
    ks, marg, resid = (checks[name] for name in ("generator_ks", "case3_marginal_closed_form",
                                                  "case3_recursion_residual"))
    ok = ks.passed and marg.passed and resid.passed
    assert report("criterion 7 (generator correctness)", ok,
                  f"{ks.detail}; {marg.detail}; {resid.detail}"), (ks, marg, resid)


def test_criterion_8_worker_determinism(tmp_path):
    args = ["simulate", "--model", "density", "--target", "f1", "--case", "1",
            "--n", "500", "--reps", "5", "--seed", "7"]
    assert cli_main(args + ["--workers", "1", "--out", str(tmp_path / "w1")]) == 0
    assert cli_main(args + ["--workers", "8", "--out", str(tmp_path / "w8")]) == 0
    raw1 = (tmp_path / "w1" / "raw.csv").read_bytes()
    raw8 = (tmp_path / "w8" / "raw.csv").read_bytes()
    ok = raw1 == raw8
    assert report("criterion 8 (worker-count determinism)", ok,
                  f"raw CSV identical across workers: {ok}")
