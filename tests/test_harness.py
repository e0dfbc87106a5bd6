import csv
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from adaseries.estimators import empirical_coefficients, sigma_y_hat
from adaseries.harness import (BATCH_POINTS, CALIB_NS, MIN_BAND_REPS, BandTable, ConfigError,
                               ExperimentConfig, ExperimentContext, RunResults, bands_from_run,
                               batches, calibrate_constant, calibrated_config, compute_bands,
                               default_c_grid, run_experiment, run_replication, summarize,
                               write_bands_csv, write_calibration_csv, write_raw_csv,
                               write_summary_csv)
from adaseries.selection import penalty_vector, select_ms, select_with_pens
from reference import one_replication, reference_records, reference_summary


def small_cfg(**kw):
    base = dict(model="density", target="f1", case=1, n=300, reps=5, seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


def batch_sizes(reps, n):
    """The sizes of the kernel's batches of a run of reps replications at n."""
    return [last - first for first, last in batches(0, reps, n)]


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
                dict(c_gl=-1.0), dict(c_gl=float("nan")), dict(c_gl=float("inf"))):
        with pytest.raises(ValueError):
            small_cfg(**bad)
    assert small_cfg(n=50).m_grid == 50
    assert small_cfg(n=5000).m_grid == 100


def test_replication_deterministic():
    ctx = ExperimentContext(small_cfg())

    def rep(index):
        (table, sig_sq), = ctx.replications(index, index + 1)
        return run_replication(ctx, table, sig_sq)

    for a, b in zip(rep(3), rep(3), strict=True):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(rep(3)[1], rep(4)[1])


def test_oracle_dominates_per_replication():
    cfg = small_cfg(reps=12, c_gl=2.0)
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


@pytest.mark.parametrize("reps", [1, 2, 7, 100, 1000, 8193])
def test_summary_rows_are_the_per_selector_statistics(reps):
    """Each summary row holds its selector's statistics, bit for bit.

    summarize makes one call per statistic over the (S, R) columns; each
    row must equal the mean, std and mean m of its selector's row alone.
    """
    rng = np.random.default_rng(reps)
    cfg = small_cfg(reps=reps)
    ise = rng.lognormal(-6.0, 2.0, size=(len(cfg.selectors), reps))
    m_selected = rng.integers(1, cfg.m_grid + 1, size=ise.shape)
    results = RunResults(selectors=cfg.selectors, m_selected=m_selected, ise=ise,
                         sigma_y_hat=np.ones(reps), ise_by_m=np.empty((reps, 0)),
                         theta_hat=np.empty((reps, 0)))
    rows = summarize(cfg, results)
    assert [row.selector for row in rows] == list(cfg.selectors)
    for row, ises, ms in zip(rows, ise, m_selected, strict=True):
        assert row.reps == reps
        assert row.mean_ise.hex() == float(ises.mean()).hex()
        assert row.std_ise.hex() == float(ises.std(ddof=0)).hex()
        assert row.mean_m.hex() == float(ms.mean()).hex()


def assert_columns_match_record_loop(cfg):
    rows, results = run_experiment(cfg)
    records, profiles = reference_records(cfg)
    assert len(results) == len(records) == cfg.reps * len(cfg.selectors)
    assert list(results) == records  # replication-major, cfg.selectors order
    np.testing.assert_equal([dataclasses.astuple(r) for r in rows],
                            [dataclasses.astuple(r) for r in reference_summary(cfg, records)])
    np.testing.assert_array_equal(results.ise_by_m, profiles)
    for k in range(len(cfg.selectors)):
        assert results.ise[k].flags.c_contiguous and results.m_selected[k].flags.c_contiguous


@pytest.mark.parametrize("model,target", [("density", "f1"), ("regression", "f2")])
@pytest.mark.parametrize("selectors", [("oracle", "gl", "ms", "cv"), ("cv", "gl", "oracle"),
                                       ("ms",)])
@pytest.mark.parametrize("reps", [1, 7, 20])
def test_columns_match_record_loop(model, target, selectors, reps):
    assert_columns_match_record_loop(small_cfg(model=model, target=target, case=2, n=200,
                                               reps=reps, selectors=selectors, c_gl=3.0,
                                               m_max=40))


@pytest.mark.parametrize("model,target", [("density", "f1"), ("density", "f2"),
                                          ("regression", "f1"), ("regression", "f2")])
@pytest.mark.parametrize("n,reps,m_max", [(1000, 37, None), (1 << 14, 3, 12)])
def test_columns_match_record_loop_at_batch_edges(model, target, n, reps, m_max):
    """Uneven batches: 37 = 24 + 13 at n = 1000 and 3 batches of one at n = 2**14."""
    assert batch_sizes(reps, n) == {1000: [24, 13], 1 << 14: [1, 1, 1]}[n]
    assert_columns_match_record_loop(small_cfg(model=model, target=target, case=2, n=n,
                                               reps=reps, m_max=m_max, c_gl=3.0))


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
    workers as chunks of one batch each: the same cuts.  The
    bands (n = 300) run as one batch of 21, a single chunk on 2 workers.
    """
    cfg = small_cfg(reps=17, n=BATCH_POINTS // 5)
    _, serial = run_experiment(cfg)
    _, parallel = run_experiment(dataclasses.replace(cfg, workers=2))
    for name in ("m_selected", "ise", "sigma_y_hat", "ise_by_m", "theta_hat"):
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

    # without cv the kernel skips the psi^2 sums: the same columns on any
    # worker count, and the rows of the selectors it still runs
    no_cv = dataclasses.replace(cfg, selectors=("oracle", "gl", "ms"))
    _, serial_no_cv = run_experiment(no_cv)
    _, parallel_no_cv = run_experiment(dataclasses.replace(no_cv, workers=2))
    rows = [cfg.selectors.index(sel) for sel in no_cv.selectors]
    for name in ("m_selected", "ise", "sigma_y_hat", "ise_by_m", "theta_hat"):
        column = getattr(serial_no_cv, name)
        assert column.dtype == getattr(parallel_no_cv, name).dtype
        assert column.tobytes() == getattr(parallel_no_cv, name).tobytes()
        all_selectors = getattr(serial, name)
        assert column.tobytes() == (all_selectors[rows] if name in ("m_selected", "ise")
                                    else all_selectors).tobytes()
    assert list(serial_no_cv) == list(parallel_no_cv)


def pin_cpus(monkeypatch, count):
    """Make os report count CPUs that this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_pool_starts_no_more_processes_than_chunks(recording_pool, monkeypatch):
    """One pool per process: made by the first parallel run, reused by the next ones.

    A pool forks all its workers at its first submit, so it holds no more
    processes than the chunks asked for so far: it is replaced only by a
    run that asks for more, or when it is broken.  The recording pool runs
    the chunks in this process: no process is started.  Eight CPUs are
    pinned, more than any run here asks for.
    """
    from adaseries import harness as hl

    def made():
        return [pool.max_workers for pool in recording_pool]

    def shut():
        return [pool.shut for pool in recording_pool]

    monkeypatch.setattr(hl, "BATCH_POINTS", 200)  # batches of one at n = 200
    most_chunks = 0
    # chunks of len(batches) // (4 workers) batches of one; pools: max_workers of each pool made
    for workers, reps, chunks, pools in ((2, 17, 9, [2]), (2, 17, 9, [2]), (2, 17, 9, [2]),
                                         (3, 2, 2, [2]), (8, 5, 5, [2, 5]),
                                         (2, 17, 9, [2, 5])):
        cfg = small_cfg(n=200, reps=reps)
        _, serial = run_experiment(cfg)
        _, pooled = run_experiment(dataclasses.replace(cfg, workers=workers))
        assert list(pooled) == list(serial)
        most_chunks = max(most_chunks, chunks)
        assert made() == pools and made()[-1] <= most_chunks
        assert shut() == [True] * (len(pools) - 1) + [False]  # a replaced pool is shut down
    hl._POOL[0].broken = True
    _, pooled = run_experiment(dataclasses.replace(cfg, workers=2))
    assert list(pooled) == list(serial)
    assert made() == [2, 5, 2]  # the new pool is sized for this run
    assert shut() == [True, True, False]


@pytest.fixture
def recording_pool(monkeypatch):
    """The pools made during the test; each runs its chunks in this process and keeps its tasks.

    Eight CPUs are pinned, so the pools are sized as on a host with that many.
    A pool whose broken flag is set raises BrokenProcessPool, as one whose
    worker died.
    """
    import concurrent.futures.process
    from concurrent.futures.process import BrokenProcessPool

    from adaseries import harness as hl

    made = []

    class RecordingExecutor:
        broken = False

        def __init__(self, max_workers):
            self.max_workers, self.tasks, self.shut = max_workers, [], False
            made.append(self)

        def map(self, fn, tasks):
            if self.broken:
                raise BrokenProcessPool("a worker died")
            self.tasks.extend(tasks)
            return [fn(task) for task in tasks]

        def shutdown(self, cancel_futures=False):
            self.shut = True

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(hl, "_POOL", None)
    pin_cpus(monkeypatch, 8)
    return made


def test_pool_holds_no_more_processes_than_usable_cpus(recording_pool, monkeypatch):
    """workers is an upper bound: the pool is capped at the CPUs this process may run on.

    Where os has no sched_getaffinity the cap is os.cpu_count().  The
    recording pool runs the chunks in this process: no process is started.
    """
    from adaseries import harness as hl

    monkeypatch.setattr(hl, "BATCH_POINTS", 200)  # batches of one at n = 200: 17 chunks
    cfg = small_cfg(n=200, reps=17, selectors=("oracle", "gl"))
    _, serial = run_experiment(cfg)
    pin_cpus(monkeypatch, 3)
    _, capped = run_experiment(dataclasses.replace(cfg, workers=10**6))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    _, fallback = run_experiment(dataclasses.replace(cfg, workers=10**6))
    assert [pool.max_workers for pool in recording_pool] == [3, 5]
    assert [len(pool.tasks) for pool in recording_pool] == [17, 17]
    assert list(capped) == list(fallback) == list(serial)


def test_pool_exit_hook_shuts_each_pool_down(recording_pool, monkeypatch):
    """Each pool registers its own shutdown at exit; a replaced pool is shut down.

    Shutting the pool down before the modules are cleared keeps its
    manager thread's callback from failing in that teardown; whether it
    fails without the hook depends on teardown order, so the hook itself
    is what this test pins.
    """
    import atexit

    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    for workers in (2, 2, 3):  # make, reuse, replace
        run_experiment(small_cfg(n=BATCH_POINTS // 2, reps=7, workers=workers))
    first, second = recording_pool
    assert registered == [first.shutdown, second.shutdown]
    assert first.shut and not second.shut


@pytest.mark.parametrize("n,reps,workers", [(1000, 20, 2), (1000, 37, 2), (1000, 5, 3),
                                            (BATCH_POINTS // 16, 20, 2),
                                            (BATCH_POINTS // 3, 17, 2), (1 << 14, 6, 2)])
def test_parallel_chunks_are_whole_kernel_batches(recording_pool, n, reps, workers):
    """Every pool chunk starts on a batch start, so the chunks cut the serial run's batches.

    At n = BATCH_POINTS // 16 the kernel batches 16 replications, so 20
    run as a full batch and a short one: one chunk each on 2 workers.
    At n = 2**14 it runs batches of one.
    """
    if n == 1 << 14:
        assert batch_sizes(reps, n) == [1] * reps
    cfg = small_cfg(n=n, reps=reps, workers=workers, selectors=("oracle", "gl"))
    _, pooled = run_experiment(cfg)
    (pool,) = recording_pool
    cuts = [cut for _, _, start, stop, *_ in pool.tasks for cut in batches(start, stop, n)]
    assert cuts == list(batches(0, reps, n))
    if (n, reps) == (BATCH_POINTS // 16, 20):
        assert [task[2:4] for task in pool.tasks] == [(0, 16), (16, 20)]
    _, serial = run_experiment(dataclasses.replace(cfg, workers=1))
    assert list(pooled) == list(serial)


@pytest.fixture
def asked_for_loo(monkeypatch):
    """The loo argument of every empirical_coefficients call the harness and checks make."""
    from adaseries import checks
    from adaseries import harness as hl

    asked = []

    def recording(points, m_max, y=None, loo=True):
        asked.append(loo)
        return empirical_coefficients(points, m_max, y, loo=loo)

    for module in (hl, checks):
        monkeypatch.setattr(module, "empirical_coefficients", recording)
    return asked


@pytest.mark.parametrize("workers", [1, 2])
def test_psi_squares_are_summed_only_for_cross_validation(asked_for_loo, recording_pool,
                                                          workers):
    """Only an evaluation run that selects by cv asks for the psi^2 sums.

    Bands, calibration, the oracle-inequality check and the variance check
    read theta_hat only.  On 2 workers the pool runs its chunks in this
    process (recording_pool) and each task's config selects cv exactly
    when the sums are asked for.
    """
    from adaseries import checks

    cfg = small_cfg(n=BATCH_POINTS // 4, reps=MIN_BAND_REPS + 1, workers=workers)
    consumers = [(partial(compute_bands, cfg), False),
                 (partial(calibrate_constant, cfg, calib_reps=9), False)]
    for selectors in (("oracle", "gl", "ms"), ("gl",), ("cv",), ("oracle", "cv"),
                      cfg.selectors):
        run_cfg = dataclasses.replace(cfg, selectors=selectors)
        consumers.append((partial(run_experiment, run_cfg), "cv" in selectors))
    if workers == 1:  # the checks run serially
        consumers += [(checks.check_lemma1_simulation, False),
                      (checks.check_variance_bound, False)]

    def tasks():
        return [task for pool in recording_pool for task in pool.tasks]

    for consume, loo in consumers:
        asked_for_loo.clear()
        before = len(tasks())
        consume()
        assert asked_for_loo and set(asked_for_loo) == {loo}
        new_tasks = tasks()[before:]
        assert bool(new_tasks) == (workers > 1)
        assert all(("cv" in task[0].selectors) is loo for task in new_tasks)


def write_run_outputs(cfg, out: Path) -> None:
    """Calibration, summary, raw and bands CSVs of cfg under out."""
    calib = calibrate_constant(cfg, calib_reps=cfg.reps)
    write_calibration_csv(calib, out / "calibration.csv")
    rows, results = run_experiment(calibrated_config(cfg, calib))
    write_summary_csv(rows, out / "summary.csv")
    write_raw_csv(results, out / "raw.csv")
    write_bands_csv(compute_bands(cfg), out / "bands.csv")


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_line_counts_whole_batches(workers, capsys):
    """37 replications at n = BATCH_POINTS // 16: one progress line per batch of 16, 16 and 5."""
    cfg = small_cfg(n=BATCH_POINTS // 16, reps=37, selectors=("oracle",), workers=workers)
    run_experiment(cfg, progress=True)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "\rreplication 16/37\rreplication 32/37\rreplication 37/37\n"


def test_csv_outputs_identical_on_one_and_two_workers(tmp_path):
    """37 replications at n = 1000: serial batches 24 and 13; two workers, one chunk each."""
    for model, target in (("density", "f2"), ("regression", "f1")):
        cfg = small_cfg(model=model, target=target, case=3, n=1000, reps=37, m_max=30)
        for workers in (1, 2):
            (tmp_path / model / str(workers)).mkdir(parents=True)
            write_run_outputs(dataclasses.replace(cfg, workers=workers),
                              tmp_path / model / str(workers))
        for name in ("calibration.csv", "summary.csv", "raw.csv", "bands.csv"):
            assert ((tmp_path / model / "1" / name).read_bytes()
                    == (tmp_path / model / "2" / name).read_bytes()), (model, name)


#: Configs that differ in model, target, case, constants and M; none may
#: leak into another through the per-process caches.
LEAK_CONFIGS = (dict(model="density", target="f1", case=1, c_gl=2.0),
                dict(model="regression", target="f2", case=3, c_gl=5.0),
                dict(model="density", target="f2", case=2, m_max=20))


def write_config_run(settings: dict, out: Path) -> None:
    """Calibrate one LEAK_CONFIGS entry and run it; write its three CSVs under out."""
    cfg = ExperimentConfig(n=300, reps=6, seed=5, **settings)
    calib = calibrate_constant(cfg, c_grid=(1.0, 4.0, 16.0), calib_reps=4)
    write_calibration_csv(calib, out / "calibration.csv")
    rows, results = run_experiment(cfg)
    write_summary_csv(rows, out / "summary.csv")
    write_raw_csv(results, out / "raw.csv")


def test_configs_in_one_process_equal_fresh_processes(tmp_path):
    """Each config's CSVs after the others ran in this process equal those of a fresh process."""
    probe = ("import json, sys, pathlib; from test_harness import write_config_run; "
             "write_config_run(json.loads(sys.argv[1]), pathlib.Path(sys.argv[2]))")
    path = os.pathsep.join([str(Path(__file__).parent), *sys.path])
    for k, settings in enumerate(LEAK_CONFIGS):
        for side in ("shared", "fresh"):
            (tmp_path / side / str(k)).mkdir(parents=True)
        write_config_run(settings, tmp_path / "shared" / str(k))
        subprocess.run([sys.executable, "-c", probe, json.dumps(settings),
                        str(tmp_path / "fresh" / str(k))],
                       env={**os.environ, "PYTHONPATH": path}, check=True, timeout=120)
    for k in range(len(LEAK_CONFIGS)):
        for name in ("calibration.csv", "summary.csv", "raw.csv"):
            shared = (tmp_path / "shared" / str(k) / name).read_bytes()
            assert shared == (tmp_path / "fresh" / str(k) / name).read_bytes(), (k, name)


def test_calibration_and_its_run_build_each_piece_once(monkeypatch):
    """A calibration and the run of its calibrated config share every sample-free piece.

    The law is built once per target.
    """
    from adaseries import harness as hl
    from adaseries.targets import MarginalLaw

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hl, "simpson_projection",
                        counted("simpson_projection", hl.simpson_projection))
    monkeypatch.setattr(MarginalLaw, "__init__", counted("law", MarginalLaw.__init__))
    for builder in (hl._grid_pieces, hl._target_pieces, hl.marginal_law):
        builder.cache_clear()
    for model, target, pieces in (("density", "f1", dict(simpson_projection=1, law=1)),
                                  ("regression", "f1", dict(simpson_projection=2, law=1))):
        cfg = small_cfg(model=model, target=target, reps=3)
        calib = calibrate_constant(cfg, c_grid=(1.0, 4.0), calib_reps=3)
        run_experiment(calibrated_config(cfg, calib))
        assert calls == pieces


def test_outputs_do_not_alias_the_cached_pieces():
    """Writing into a returned BandTable or RunResults leaves a second identical run unchanged.

    The context's arrays are shared through the caches: they are read-only.
    """
    cfg = small_cfg(reps=21, c_gl=2.0)
    ctx = ExperimentContext(cfg)
    for name in ("grid", "truth_grid", "basis_grid", "cross"):
        with pytest.raises(ValueError):
            getattr(ctx, name)[0] = 0.0
    for run, names in ((lambda: compute_bands(cfg), ("x", "truth", "median", "p05", "p95")),
                       (lambda: run_experiment(cfg)[1],
                        ("m_selected", "ise", "sigma_y_hat", "ise_by_m", "theta_hat"))):
        first = run()
        kept = {name: getattr(first, name).copy() for name in names}
        for name in names:
            getattr(first, name)[...] = -1
        again = run()
        for name in names:
            np.testing.assert_array_equal(getattr(again, name), kept[name])


@pytest.mark.parametrize("model,target", [("density", "f2"), ("regression", "f1")])
@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.filterwarnings("ignore:mean ISE vs c not quasi-convex:UserWarning")
def test_outputs_do_not_depend_on_the_batch_budget(model, target, case, monkeypatch):
    """The outputs at n = 1000 are the same arrays under any batch budget.

    Budgets 2**14, 24 * 2**10 (BATCH_POINTS), 2**15 and 1 run 20
    replications as batches of 16 and 4, as one batch of 20 (twice) and
    one at a time.  Every RunResults column, the calibration curve, its
    constant and warnings, and the band percentiles must not change.
    """
    from adaseries import harness as hl

    cfg = ExperimentConfig(model=model, target=target, case=case, n=1000, reps=20, seed=6)
    outputs, chosen = [], []
    for budget in (1 << 14, 24 << 10, 1 << 15, 1):
        monkeypatch.setattr(hl, "BATCH_POINTS", budget)
        _, results = run_experiment(cfg)
        calib = calibrate_constant(cfg, calib_reps=cfg.reps)
        bands = compute_bands(cfg)
        outputs.append([*(getattr(results, name) for name in
                          ("m_selected", "ise", "sigma_y_hat", "ise_by_m", "theta_hat")),
                        calib.mean_ise["gl"], calib.mean_ise["ms"],
                        bands.median, bands.p05, bands.p95])
        chosen.append((calib.chosen, calib.warnings))
    first, *others = outputs
    for other in others:
        for one, two in zip(first, other, strict=True):
            assert one.dtype == two.dtype and np.array_equal(one, two)
    assert all(one == chosen[0] for one in chosen)


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
        cfg = ExperimentConfig(model=model, target=target, case=case, n=n, reps=1, seed=4)
        ctx = ExperimentContext(cfg)
        calls = []  # (rep_index, count) of each sample call
        sample = ctx.sample
        ctx.sample = lambda rep, ns, count: calls.append((rep, count)) or sample(rep, ns, count)
        K = budget // n
        for start, stop, cuts in ((5, 6, [1]), (5, 7, [2]), (3, 10, [7]), (0, K + 2, [K, 2])):
            calls.clear()
            batched = list(ctx.replications(start, stop))
            firsts = [rep for rep, _ in calls]
            assert [count for _, count in calls] == cuts
            assert firsts == list(np.cumsum([start, *cuts[:-1]]))
            for first, (tables, sig_sq) in zip(firsts, batched, strict=True):
                assert tables.theta_hat.shape == (len(sig_sq), cfg.m_grid + 1)
                for rep, table, row_sig_sq in zip(range(first, stop), tables, sig_sq):
                    ((one, one_sig_sq),) = ctx.replications(rep, rep + 1)
                    assert np.array_equal(table.theta_hat, one.theta_hat[0])
                    assert np.array_equal(table.theta_sq_loo, one.theta_sq_loo[0])
                    assert row_sig_sq == one_sig_sq[0]


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
        firsts = []  # rep_index of each sample call
        ctx.sample = lambda rep, *args, sample=ctx.sample: firsts.append(rep) or sample(rep, *args)
        (table, sig_sq), = ctx.replications(1, 2, CALIB_NS)
        points, y = ctx.sample(1, CALIB_NS)
        assert firsts == [1, 1] and (y is None) == (cfg.model == "density")
        reference = empirical_coefficients(points, cfg.m_grid, y)
        assert table.m_max == cfg.m_grid
        np.testing.assert_array_equal(table.theta_hat, reference.theta_hat)
        np.testing.assert_array_equal(table.theta_sq_loo, reference.theta_sq_loo)
        np.testing.assert_array_equal(sig_sq, sigma_y_hat(y) if cfg.model == "regression"
                                      else [1.0])
        m, ise_by_m, kernel_sig_sq, theta = run_replication(ctx, table, sig_sq)
        assert m.shape == (len(cfg.selectors), 1) and kernel_sig_sq is sig_sq
        assert theta is table.theta_hat
        np.testing.assert_array_equal(ise_by_m, ctx.ise_by_m(table))


def test_one_design_matrix_per_replication(monkeypatch):
    # one streamed psi pass per sample; CV reads the coefficient table
    from adaseries import harness as hl
    from adaseries.basis import TrigBasis

    calls = {"all": 0, "in_cv": 0}
    original_exponentials, original_cv = TrigBasis.exponentials, hl.select_cv

    def counting_exponentials(self, x, k_max):
        calls["all"] += 1
        return original_exponentials(self, x, k_max)

    def watched_cv(*args, **kwargs):
        before = calls["all"]
        result = original_cv(*args, **kwargs)
        calls["in_cv"] += calls["all"] - before
        return result

    monkeypatch.setattr(TrigBasis, "exponentials", counting_exponentials)
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
    inside = sum(lo <= t <= hi for lo, t, hi in zip(bands.p05, bands.truth, bands.p95))
    assert bands.coverage == inside / bands.x.size


def test_bands_constant_estimator_degenerate():
    # all-zero coefficients happen with probability zero; emulate via m_max=1
    # and a huge penalty constant, which pins m = 1 every replication
    cfg = small_cfg(n=100, reps=25, c_gl=1e6, m_max=1)
    bands = compute_bands(cfg)
    assert bands.x.size == cfg.grid_size


def test_bands_need_enough_reps():
    with pytest.raises(ValueError):
        compute_bands(small_cfg(reps=10))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("model,target", [("density", "f1"), ("regression", "f2")])
def test_bands_are_read_from_the_evaluation_run(model, target, case, workers):
    """compute_bands is bands_from_run of a four-selector run's GL picks and theta_hat.

    60 replications at n = 500 run as two kernel batches of 49 and 11, so
    on 2 workers as two pool chunks.  The four-selector run makes the
    psi^2 sums and the gl-only run of compute_bands does not; the bands
    are the same arrays.
    """
    cfg = ExperimentConfig(model=model, target=target, case=case, n=500, reps=60, seed=5,
                           c_gl=1.0, workers=workers)
    _, results = run_experiment(cfg)
    assert len(set(results.m_selected[cfg.selectors.index("gl")].tolist())) > 1
    read, run = bands_from_run(cfg, results), compute_bands(cfg)
    for name in ("x", "truth", "median", "p05", "p95"):
        assert np.array_equal(getattr(read, name), getattr(run, name))


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
    # a grid of 4 ceil(M/2) + 1 points aliases the basis: no ISE on it, but bands
    aliased = small_cfg(reps=20, m_max=9, grid_size=21)
    with pytest.raises(ConfigError):
        calibrate_constant(aliased, calib_reps=2)
    assert compute_bands(aliased).x.size == 21


@pytest.mark.parametrize("model,target", [("density", "f1"), ("regression", "f2")])
def test_calibration_matches_per_constant_loop(model, target):
    """The (K x C x M) penalty block scores each constant as its own selection would.

    The reference runs one replication at a time (one_replication) and one
    constant at a time, in batches of 6 (one batch), 37 (24 + 13) and
    3 at n = 2**14 (batches of one).
    """
    c_grid = default_c_grid()
    for n, reps, m_max, sizes in ((300, 6, 40, [6]), (1000, 37, None, [24, 13]),
                                  (1 << 14, 3, 12, [1, 1, 1])):
        assert batch_sizes(reps, n) == sizes
        cfg = small_cfg(model=model, target=target, case=2, n=n, m_max=m_max)
        calib = calibrate_constant(cfg, c_grid, calib_reps=reps)
        ctx = ExperimentContext(cfg)
        loop = np.zeros(c_grid.size)
        for rep in range(reps):
            table, sig_sq = one_replication(ctx, rep, CALIB_NS)
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
    monkeypatch.setattr(hl, "_calibration_rows",
                        lambda c_grid, ctx, table, sig_sq: np.tile(bumpy, (len(sig_sq), 1)))
    with pytest.warns(UserWarning) as caught:
        calib = calibrate_constant(small_cfg(), c_grid=[1.0, 2.0, 3.0, 4.0], calib_reps=2)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "not quasi-convex" in message and "gl" in message and "ms" in message
    assert "density f1 case 1 n=300" in message  # small_cfg, named so no config's warning hides another's
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
                           reps=8, seed=5, c_gl=2.0)
    _, records = run_experiment(cfg)
    gl = {r.rep_index: r.m_selected for r in records if r.selector == "gl"}
    ms = {r.rep_index: r.m_selected for r in records if r.selector == "ms"}
    assert gl == ms
