import csv
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from adaseries.estimators import empirical_coefficients, sigma_y_hat
from adaseries.harness import (BATCH_POINTS, CALIB_NS, BandTable, ExperimentConfig,
                               ExperimentContext,
                               RepRecord, SummaryRow, calibrate_constant, calibrated_config,
                               compute_bands, default_c_grid, run_experiment,
                               run_replication, write_bands_csv, write_raw_csv,
                               write_summary_csv)
from adaseries.selection import penalty_vector, select_cv, select_ms, select_with_pens


def small_cfg(**kw):
    base = dict(model="density", target="f1", case=1, n=300, reps=5, seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(model="other")
    with pytest.raises(ValueError):
        small_cfg(case=4)
    with pytest.raises(ValueError):
        small_cfg(target="f3")
    for selectors in (("oracle", "mystery"), (), ("gl", "gl"), ("oracle", "cv", "oracle")):
        with pytest.raises(ValueError):
            small_cfg(selectors=selectors)
    with pytest.raises(ValueError):
        small_cfg(m_max=0)
    for bad in (dict(grid_size=1024), dict(grid_size=1), dict(seed=-1), dict(workers=0),
                dict(c_gl=-1.0), dict(c_gl=float("nan")), dict(c_ms=0.0),
                dict(c_ms=float("inf"))):
        with pytest.raises(ValueError):
            small_cfg(**bad)
    assert small_cfg(n=50).m_grid == 50
    assert small_cfg(n=5000).m_grid == 100


def test_replication_deterministic():
    ctx = ExperimentContext(small_cfg())

    def rep(index):
        (table, sig_sq), = ctx.replications(index, index + 1)
        return run_replication(ctx, table, sig_sq)

    (m_a, ise_a, sig_a), (m_b, ise_b, sig_b) = rep(3), rep(3)
    np.testing.assert_array_equal(m_a, m_b)
    np.testing.assert_array_equal(ise_a, ise_b)
    assert sig_a == sig_b
    assert not np.array_equal(ise_a, rep(4)[1])


def test_oracle_dominates_per_replication():
    cfg = small_cfg(reps=12, c_gl=2.0, c_ms=2.0)
    _, records = run_experiment(cfg)
    by_rep = {}
    for r in records:
        by_rep.setdefault(r.rep_index, {})[r.selector] = r.ise
    for rep, sels in by_rep.items():
        for name, val in sels.items():
            assert sels["oracle"] <= val + 1e-12


def test_single_rep_summary_matches_record():
    cfg = small_cfg(reps=1, selectors=("oracle",))
    rows, results = run_experiment(cfg)
    (record,) = results
    assert rows[0].reps == 1
    assert rows[0].mean_ise == record.ise
    assert rows[0].std_ise == 0.0
    assert rows[0].mean_m == record.m_selected


def reference_records(cfg):
    """The per-(replication, selector) record loop the columns replace, and ISE(m) rows."""
    ctx = ExperimentContext(cfg)
    records, profiles = [], []
    for rep, (table, sig_sq) in enumerate(ctx.replications(0, cfg.reps)):
        ise_by_m = ctx.ise_by_m(table)
        profiles.append(ise_by_m)
        for sel in cfg.selectors:
            if sel == "oracle":
                m = int(np.argmin(ise_by_m)) + 1
            elif sel == "gl":
                m = select_with_pens(table, penalty_vector(cfg.gl_constant, cfg.m_grid, cfg.n,
                                                           sig_sq))
            elif sel == "ms":
                m = select_ms(table, cfg.ms_constant, sig_sq)
            else:
                m = select_cv(table)
            records.append(RepRecord(rep, sel, m, float(ise_by_m[m - 1]), sig_sq))
    return records, np.array(profiles)


def reference_summary(cfg, records):
    """The summary comprehension over records that per-row column means replace."""
    rows = []
    for sel in cfg.selectors:
        ises = np.array([r.ise for r in records if r.selector == sel])
        ms = np.array([r.m_selected for r in records if r.selector == sel])
        c_pen = {"gl": cfg.gl_constant, "ms": cfg.ms_constant}.get(sel, float("nan"))
        rows.append(SummaryRow(
            model=cfg.model, target=cfg.target, case=cfg.case, n=cfg.n, selector=sel,
            c_pen=c_pen, reps=ises.size, mean_ise=float(ises.mean()),
            std_ise=float(ises.std(ddof=0)), mean_m=float(ms.mean())))
    return rows


@pytest.mark.parametrize("model,target", [("density", "f1"), ("regression", "f2")])
@pytest.mark.parametrize("selectors", [("oracle", "gl", "ms", "cv"), ("cv", "gl", "oracle"),
                                       ("ms",)])
@pytest.mark.parametrize("reps", [1, 7, 20])
def test_columns_match_record_loop(model, target, selectors, reps):
    cfg = small_cfg(model=model, target=target, case=2, n=200, reps=reps,
                    selectors=selectors, c_gl=3.0, m_max=40)
    rows, results = run_experiment(cfg)
    records, profiles = reference_records(cfg)
    assert len(results) == len(records) == reps * len(selectors)
    assert list(results) == records  # replication-major, cfg.selectors order
    np.testing.assert_equal([dataclasses.astuple(r) for r in rows],
                            [dataclasses.astuple(r) for r in reference_summary(cfg, records)])
    np.testing.assert_array_equal(results.ise_by_m, profiles)
    for k in range(len(selectors)):
        assert results.ise[k].flags.c_contiguous and results.m_selected[k].flags.c_contiguous


def test_import_loads_no_process_pool():
    """The pool modules load only when a run asks for workers > 1.

    A fresh interpreter, because this one may already hold them.
    """
    probe = ("import sys, adaseries; "
             "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_parallel_equals_serial():
    """Every column, the bands and the calibration curve, bitwise, across worker counts.

    At n = BATCH_POINTS // 5 the kernel batches 5 replications, so 17
    replications run serially as batches of 5, 5, 5 and 2, and on 2
    workers as eight chunks of 2 and one of 1.  The bands (n = 300) run
    serially as one batch of 21, and on 2 workers in chunks of 2.
    """
    cfg = small_cfg(reps=17, n=BATCH_POINTS // 5)
    _, serial = run_experiment(cfg)
    _, parallel = run_experiment(dataclasses.replace(cfg, workers=2))
    for name in ("m_selected", "ise", "sigma_y_hat", "ise_by_m"):
        np.testing.assert_array_equal(getattr(serial, name), getattr(parallel, name))
        assert getattr(serial, name).dtype == getattr(parallel, name).dtype
    assert list(serial) == list(parallel)

    bands_cfg = small_cfg(reps=21, c_gl=2.0)
    serial_bands = compute_bands(bands_cfg)
    parallel_bands = compute_bands(dataclasses.replace(bands_cfg, workers=2))
    for name in ("x", "truth", "median", "p05", "p95"):
        np.testing.assert_array_equal(getattr(serial_bands, name), getattr(parallel_bands, name))

    serial_calib = calibrate_constant(cfg, calib_reps=17)
    parallel_calib = calibrate_constant(dataclasses.replace(cfg, workers=2), calib_reps=17)
    np.testing.assert_array_equal(serial_calib.mean_ise["gl"], parallel_calib.mean_ise["gl"])
    assert serial_calib.chosen == parallel_calib.chosen


def test_pool_starts_no_more_processes_than_chunks(monkeypatch):
    """A pool forks all its workers at the first submit, so it asks for at most one per chunk.

    The fake executor records max_workers and runs the chunks in this
    process: no process is started.
    """
    import concurrent.futures

    from adaseries import harness as hl

    asked = []

    class InlineExecutor:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(hl, "_CTX", None)
    for workers, reps, chunks in ((8, 5, 5), (2, 17, 9), (3, 2, 2)):
        cfg = small_cfg(n=200, reps=reps)
        _, serial = run_experiment(cfg)
        _, pooled = run_experiment(dataclasses.replace(cfg, workers=workers))
        assert asked == [min(workers, chunks)]
        assert list(pooled) == list(serial)
        asked.clear()


@pytest.mark.parametrize("model,target", [("density", "f1"), ("density", "f2"),
                                          ("regression", "f1"), ("regression", "f2")])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_batched_tables_equal_batches_of_one(model, target, case, monkeypatch):
    """A replication's theta_hat, theta_sq_loo and sigma_hat^2 are the same floats in any batch.

    Runs of 1, 2 and 7 replications, each one batch, and one run of K + 2,
    which crosses the budget: the kernel cuts it into a full batch of
    K = BATCH_POINTS // n and a batch of 2.  At n = 2 and 3 the budget is
    lowered to 8 n so that the crossing run stays short.
    """
    from adaseries import harness as hl

    for n in (2, 3, 200, 1000):
        budget = BATCH_POINTS if n >= 200 else 8 * n
        monkeypatch.setattr(hl, "BATCH_POINTS", budget)
        ctx = ExperimentContext(ExperimentConfig(model=model, target=target, case=case, n=n,
                                                 reps=1, seed=4))
        batches = []
        sample = ctx.sample
        ctx.sample = lambda rep, ns, count: batches.append(count) or sample(rep, ns, count)
        K = budget // n
        for start, stop, cuts in ((5, 6, [1]), (5, 7, [2]), (3, 10, [7]), (0, K + 2, [K, 2])):
            batches.clear()
            batched = list(ctx.replications(start, stop))
            assert batches == cuts and len(batched) == stop - start
            for rep, (table, sig_sq) in zip(range(start, stop), batched):
                ((one, one_sig_sq),) = ctx.replications(rep, rep + 1)
                assert np.array_equal(table.theta_hat, one.theta_hat)
                assert np.array_equal(table.theta_sq_loo, one.theta_sq_loo)
                assert sig_sq == one_sig_sq


def test_distinct_ms_constant_scored_on_its_own():
    """A c_ms != c_gl config selects its own MS dimension, not GL's."""
    cfg = small_cfg(model="regression", target="f1", case=2, n=400, reps=8, c_gl=1.0, c_ms=8.0)
    _, results = run_experiment(cfg)
    records, _ = reference_records(cfg)
    assert list(results) == records
    gl, ms = (results.m_selected[cfg.selectors.index(sel)] for sel in ("gl", "ms"))
    assert np.any(gl != ms)


def test_regression_records_sigma():
    cfg = ExperimentConfig(model="regression", target="f2", case=1, n=200, reps=2, seed=3)
    _, records = run_experiment(cfg)
    sig = {r.sigma_y_hat for r in records if r.rep_index == 0}
    assert len(sig) == 1  # shared within a replication
    assert sig.pop() > 0.5  # around sigma^2 + ||f||^2 ~ 1.07


def test_replication_kernel_matches_direct_path():
    for cfg in (small_cfg(), ExperimentConfig(model="regression", target="f2", case=2,
                                              n=200, reps=2, seed=3)):
        ctx = ExperimentContext(cfg)
        (table, sig_sq), = ctx.replications(1, 2, CALIB_NS)
        points, y = ctx.sample(1, CALIB_NS)
        assert (y is None) == (cfg.model == "density")
        (reference,) = empirical_coefficients(points, cfg.m_grid, y)
        assert table.m_max == cfg.m_grid
        np.testing.assert_array_equal(table.theta_hat, reference.theta_hat)
        np.testing.assert_array_equal(table.theta_sq_loo, reference.theta_sq_loo)
        assert sig_sq == (sigma_y_hat(y)[0] if cfg.model == "regression" else 1.0)
        _, ise_by_m, kernel_sig_sq = run_replication(ctx, table, sig_sq)
        assert kernel_sig_sq == sig_sq
        np.testing.assert_array_equal(ise_by_m, ctx.ise_by_m(table))


def test_one_design_matrix_per_replication(monkeypatch):
    # one streamed psi pass per sample; CV reads the coefficient table
    from adaseries import harness as hl
    from adaseries.basis import TrigBasis

    calls = {"all": 0, "in_cv": 0}
    original_blocks, original_cv = TrigBasis.row_blocks, hl.select_cv

    def counting_blocks(self, x, m_max, rows):
        calls["all"] += 1
        return original_blocks(self, x, m_max, rows)

    def watched_cv(*args, **kwargs):
        before = calls["all"]
        result = original_cv(*args, **kwargs)
        calls["in_cv"] += calls["all"] - before
        return result

    monkeypatch.setattr(TrigBasis, "row_blocks", counting_blocks)
    monkeypatch.setattr(hl, "select_cv", watched_cv)
    for cfg in (small_cfg(), ExperimentConfig(model="regression", target="f1", case=2,
                                              n=200, reps=3, seed=3)):
        assert cfg.selectors == ("oracle", "gl", "ms", "cv")
        ctx = ExperimentContext(cfg)
        calls["all"] = 0
        for rep in range(3):
            (table, sig_sq), = ctx.replications(rep, rep + 1)
            run_replication(ctx, table, sig_sq)
        assert calls == {"all": 3, "in_cv": 0}


def test_bands_ordering_and_coverage():
    cfg = small_cfg(n=500, reps=40, c_gl=2.0)
    bands = compute_bands(cfg)
    assert np.all(bands.p05 <= bands.median + 1e-12)
    assert np.all(bands.median <= bands.p95 + 1e-12)
    covered = np.mean((bands.p05 <= bands.truth) & (bands.truth <= bands.p95))
    assert covered >= 0.8


def test_bands_constant_estimator_degenerate():
    # all-zero coefficients happen with probability zero; emulate via m_max=1
    # and a huge penalty constant, which pins m = 1 every replication
    cfg = small_cfg(n=100, reps=25, c_gl=1e6, m_max=1)
    bands = compute_bands(cfg)
    assert bands.x.size == cfg.grid_size


def test_bands_need_enough_reps():
    with pytest.raises(ValueError):
        compute_bands(small_cfg(reps=10))


def test_bands_constant_estimates_collapse(monkeypatch):
    # zero target with zero noise makes every replication's estimate the
    # constant 0, so the three bands coincide with it everywhere
    from adaseries import harness as hl
    from adaseries.targets import RegressionTarget

    zero = lambda: RegressionTarget(lambda x: np.zeros_like(np.asarray(x, float)),
                                    noise_sigma=0.0)
    monkeypatch.setitem(hl.REGRESSION_TARGETS, "zero", zero)
    cfg = ExperimentConfig(model="regression", target="zero", case=1, n=50,
                           reps=20, seed=1, c_gl=1.0, m_max=5, grid_size=65)
    bands = compute_bands(cfg)
    np.testing.assert_array_equal(bands.p05, bands.median)
    np.testing.assert_array_equal(bands.median, bands.p95)
    np.testing.assert_allclose(bands.median, 0.0, atol=0.0)


def test_calibrate_single_value_grid():
    cfg = small_cfg()
    calib = calibrate_constant(cfg, c_grid=[3.0], calib_reps=3)
    assert calib.chosen == {"gl": 3.0, "ms": 3.0}


def test_calibrate_grid_validation():
    with pytest.raises(ValueError):
        calibrate_constant(small_cfg(), c_grid=[], calib_reps=2)
    with pytest.raises(ValueError):
        calibrate_constant(small_cfg(), c_grid=[2.0, 1.0], calib_reps=2)
    for grid, reps in (([0.0, 1.0], 2), ([1.0, float("nan")], 2), ([1.0, 2.0], 0)):
        with pytest.raises(ValueError):
            calibrate_constant(small_cfg(), c_grid=grid, calib_reps=reps)


@pytest.mark.parametrize("model,target", [("density", "f1"), ("regression", "f2")])
def test_calibration_matches_per_constant_loop(model, target):
    """The (C x M) penalty block scores each constant as its own selection would."""
    cfg = small_cfg(model=model, target=target, case=2, m_max=40)
    c_grid, reps = default_c_grid(), 6
    calib = calibrate_constant(cfg, c_grid, calib_reps=reps)
    ctx = ExperimentContext(cfg)
    loop = np.zeros(c_grid.size)
    for table, sig_sq in ctx.replications(0, reps, CALIB_NS):
        assert (sig_sq != 1.0) == (model == "regression")
        ise_by_m = ctx.ise_by_m(table)
        block = penalty_vector(c_grid, cfg.m_grid, cfg.n, sig_sq)
        for i, c in enumerate(c_grid):
            pens = penalty_vector(c, cfg.m_grid, cfg.n, sig_sq)
            np.testing.assert_array_equal(block[i], pens)
            m = select_with_pens(table, pens)
            assert select_ms(table, c, sig_sq) == m
            loop[i] += ise_by_m[m - 1]
    np.testing.assert_array_equal(calib.mean_ise["gl"], loop / reps)
    np.testing.assert_array_equal(calib.mean_ise["gl"], calib.mean_ise["ms"])
    assert calib.chosen["gl"] == calib.chosen["ms"]


def test_calibration_warns_once_for_both_selectors(monkeypatch):
    # gl and ms share one curve, so a bumpy curve is one finding, not two
    from adaseries import harness as hl

    bumpy = np.array([2.0, 1.0, 3.0, 0.5])  # argmin at the end, but not monotone before it
    monkeypatch.setattr(hl, "_calibration_row", lambda c_grid, ctx, table, sig_sq: bumpy)
    with pytest.warns(UserWarning) as caught:
        calib = calibrate_constant(small_cfg(), c_grid=[1.0, 2.0, 3.0, 4.0], calib_reps=2)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "not quasi-convex" in message and "gl" in message and "ms" in message
    assert calib.warnings == (message,)
    assert calib.chosen == {"gl": 4.0, "ms": 4.0}
    np.testing.assert_array_equal(calib.mean_ise["gl"], bumpy)
    assert calib.mean_ise["ms"] is calib.mean_ise["gl"]


def test_calibration_improves_on_theorem_constant():
    cfg = small_cfg(n=1000, reps=30)
    calib = calibrate_constant(cfg, calib_reps=30)
    assert calib.chosen["gl"] < 72.0  # theorem preset heavily oversmooths
    rows_theorem, _ = run_experiment(small_cfg(n=1000, reps=30, selectors=("gl",)))
    rows_calib, _ = run_experiment(
        calibrated_config(small_cfg(n=1000, reps=30, selectors=("gl",)), calib))
    assert rows_calib[0].mean_ise < rows_theorem[0].mean_ise


def test_calibration_uses_disjoint_streams():
    cfg = small_cfg(reps=4)
    ctx = ExperimentContext(cfg)
    eval_points, _ = ctx.sample(0, namespace=0)
    calib_points, _ = ctx.sample(0, namespace=1)
    assert not np.array_equal(eval_points, calib_points)


def test_default_c_grid_shape():
    grid = default_c_grid()
    assert grid[0] == 0.5 and grid[-1] == 64.0
    assert np.all(np.diff(grid) > 0.0)


def test_csv_outputs(tmp_path):
    cfg = small_cfg(reps=3)
    rows, records = run_experiment(cfg)
    write_raw_csv(records, tmp_path / "raw.csv")
    write_summary_csv(rows, tmp_path / "summary.csv")
    with open(tmp_path / "raw.csv") as fh:
        raw = list(csv.reader(fh))
    assert raw[0] == ["rep_index", "selector", "m_selected", "ise", "sigma_y_hat"]
    assert len(raw) == 1 + len(records)
    float(raw[1][3])  # parseable decimal text
    with open(tmp_path / "summary.csv") as fh:
        summ = list(csv.reader(fh))
    assert summ[0] == ["model", "target", "case", "n", "selector", "c_pen",
                       "reps", "mean_ise", "std_ise", "mean_m"]
    assert len(summ) == 1 + len(rows)


def test_bands_csv(tmp_path):
    bands = BandTable(x=np.array([0.0, 0.5]), truth=np.array([1.0, 2.0]),
                      median=np.array([1.1, 2.1]), p05=np.array([0.9, 1.9]),
                      p95=np.array([1.3, 2.3]))
    write_bands_csv(bands, tmp_path / "bands.csv")
    rows = list(csv.reader(open(tmp_path / "bands.csv")))
    assert rows[0] == ["x", "truth", "median", "p05", "p95"]
    assert len(rows) == 3


def test_single_replication_oracle_plausibility_band():
    # density f1, case 1, n = 1000: single-replication oracle ISE is
    # typically a few 1e-3 to a few 1e-2; used as a loose sanity band
    cfg = ExperimentConfig(model="density", target="f1", case=1, n=1000,
                           reps=25, seed=2, selectors=("oracle",))
    _, records = run_experiment(cfg)
    inside = np.mean([0.003 <= r.ise <= 0.04 for r in records])
    assert inside >= 0.8


def test_gl_ms_same_selection_in_harness():
    cfg = ExperimentConfig(model="regression", target="f1", case=2, n=400,
                           reps=8, seed=5, c_gl=2.0, c_ms=2.0)
    _, records = run_experiment(cfg)
    gl = {r.rep_index: r.m_selected for r in records if r.selector == "gl"}
    ms = {r.rep_index: r.m_selected for r in records if r.selector == "ms"}
    assert gl == ms
