"""Monte Carlo harness: replications, risk tables, percentile bands, calibration.

A replication generates one sample, the arrays (points, y), from its
stream(seed, rep_index, namespace) and reduces it to one coefficient
table and the noise level sigma_hat^2.  ExperimentContext.sample is the
one place that maps replications to their streams; the samplers it calls
take the generators.  ExperimentContext.replications is the one kernel,
shared by evaluation runs (and so bands), calibration and the
oracle-inequality check: it makes a batch of K = max(1, BATCH_POINTS //
n) consecutive replications at a time (24 at n = 1000, so a table
operation of 20 replications is one batch; one at a time from n =
12289), with one
sample call (a (K, n) stack, one stream per row, one quantile transform
for densities), one pass over the basis rows (empirical_coefficients,
one stacked table, one row per replication) and, for regression, one
sigma_y_hat call (one sigma_hat^2 per row), and yields (table,
sigma_sq) per batch.  batches is the one place that knows where a batch
starts and ends.  The psi^2 sums of the coefficient pass are made only
when the config selects by cross-validation, the one selector that
reads them: bands run their kernel on a config that selects by gl
alone, calibration on one that selects by gl and ms, and theta_hat is
the same float either way, so the bands of a four-selector run are
those of its gl-only run.
Every step before the sums is elementwise and every sum runs over one
replication's row, so a replication's table and sigma_hat^2 are the same
floats in any batch.  Nothing after the kernel reads the sample, and
every selector takes its dimension grid from the table.  Evaluation runs
all requested selectors, cross-validation included, on that shared
stacked table and scores each selected dimension by Simpson-grid ISE
against the true function, one call of each per batch: every profile
runs along the last axis, row by row as for one replication, so the
batch changes no float.
The sample-free parts of that ISE (the truth's coefficients on the grid
and its squared norm, quadrature.simpson_projection) make the ISE of
every dimension of a replication one cumulative sum by Parseval, stacked
over the batch: the basis is orthonormal on any grid of more than
4 ceil(M/2) + 1 points, and run_experiment and calibrate_constant refuse
smaller ones (bands report no ISE and take any grid).  Each sample-free
piece is built once per process, keyed by what it depends on, and
ExperimentContext reads it from those caches:
the grid and the basis rows on it by (grid_size, M); the target, its
marginal law, its values on the grid, the coefficients and the norm by
(model, target, grid_size, M), the law by target alone
(targets.marginal_law).
No piece depends on the seed, case, n, replications or penalty
constants, so every config of a risk table, and a calibration and the
run of its calibrated config, share them.  The cached arrays are
read-only; bands_from_run hands out copies.

One runner, _run_reps, loops over replications for evaluation and
calibration.  It maps a per-batch function of (ctx, table, sigma_sq),
run_replication or _calibration_rows, over the kernel's output, in
process on the caller's ExperimentContext or, chunk by chunk, through
one process pool per process, made by the first parallel run and
reused by the next ones; each chunk is a group of whole kernel batches,
carries its config, and a worker reads its context from its own caches.
The pool holds no more processes than there are chunks or CPUs this
process may run on.  The runner returns the outputs as a list in
replication order, one per batch, so results are byte for byte the same
for any worker count.  Each consumer concatenates them: evaluation into
columns (RunResults), whose iteration yields the raw rows, and
calibration into one ISE row per replication.  Bands are a reading of
the evaluation columns (bands_from_run): the percentiles of the GL
estimates summed from each replication's GL pick and theta_hat.  So a
study reads each config's bands from its evaluation run, and
compute_bands is a gl-only run and that reading.

Calibration searches a grid of penalty constants for the value minimizing
mean ISE over replications drawn from a stream namespace disjoint from
evaluation runs; each batch scores the whole grid at once.  table_study
is the paper's simulation study: calibration, then the calibrated run,
for every config of the risk tables.
"""

from __future__ import annotations

import atexit
import csv
import math
import os
import sys
import warnings
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .basis import TrigBasis
from .dependence import CASES, gen_density_sample, gen_regression_sample, stream
from .estimators import CoefficientTable, empirical_coefficients, sigma_y_hat
from .quadrature import simpson_projection, unit_grid
from .selection import (oracle_criteria, penalty_vector, select_cv, select_ms,
                        select_with_pens, theorem_constant)
from .targets import DENSITY_TARGETS, REGRESSION_TARGETS, marginal_law

SELECTORS = ("oracle", "gl", "ms", "cv")
#: The penalized selectors: one rule (selection), so one constant, c_gl.
PENALIZED = ("gl", "ms")
DEFAULT_M_CAP = 100
#: Simpson grid of the per-replication work: realized ISE(m) and the band
#: evaluation points.  Normalizers, true coefficients and the exact risk
#: use the finer quadrature.DEFAULT_GRID (4097 points).
DEFAULT_GRID_SIZE = 1025

#: Stream namespaces: evaluation and calibration draws never overlap.
EVAL_NS = 0
CALIB_NS = 1

#: Fewest replications whose 5% and 95% pointwise percentiles are bands.
MIN_BAND_REPS = 20

#: Sample points per batch of the replication kernel: enough that each
#: numpy call of the sample and coefficient steps serves many small-n
#: replications, few enough that the (K, n) complex arrays of the psi pass
#: stay in a 2 MB per-core L2 cache.  At n = 1000 a one-batch run costs
#: least per replication near K = 24, and a long run costs no more per
#: replication than at K = 16 (README, Performance).  So n = 1000 runs
#: batches of 24 replications and a table operation of 20 is one batch;
#: n > BATCH_POINTS // 2 runs one at a time.
BATCH_POINTS = 24 << 10


class ConfigError(ValueError):
    """A setting rejected before any work starts (the CLI's exit 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully describes one Monte Carlo experiment."""

    model: str  # 'density' | 'regression'
    target: str  # 'f1' | 'f2' | 'uniform' (density only)
    case: int  # a key of dependence.CASES
    n: int
    reps: int = 501
    selectors: tuple = SELECTORS
    m_max: Optional[int] = None  # default min(n, 100)
    seed: int = 0
    grid_size: int = DEFAULT_GRID_SIZE
    c_gl: Optional[float] = None  # gl and ms; None -> theorem preset for (model, case)
    workers: int = 1

    def __post_init__(self):
        if self.model not in ("density", "regression"):
            raise ConfigError(f"unknown model {self.model!r}")
        registry = DENSITY_TARGETS if self.model == "density" else REGRESSION_TARGETS
        if self.target not in registry:
            raise ConfigError(f"unknown {self.model} target {self.target!r}")
        if self.case not in CASES:
            raise ConfigError(f"unknown dependence case {self.case}")
        if self.n < 2:
            raise ConfigError("need n >= 2")
        if self.reps < 1:
            raise ConfigError("need reps >= 1")
        if (not self.selectors or len(set(self.selectors)) != len(self.selectors)
                or not set(self.selectors) <= set(SELECTORS)):
            raise ConfigError(f"selectors must be distinct names from {SELECTORS}, "
                              f"got {tuple(self.selectors)}")
        if self.m_max is not None and not 1 <= self.m_max <= self.n:
            raise ConfigError("m_max must lie in 1..n")
        if self.grid_size < 3 or self.grid_size % 2 == 0:
            raise ConfigError("grid_size must be odd and >= 3")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.c_gl is not None and not (math.isfinite(self.c_gl) and self.c_gl >= 0.0):
            raise ConfigError("c_gl must be finite and >= 0")

    @property
    def m_grid(self) -> int:
        return self.m_max if self.m_max is not None else min(self.n, DEFAULT_M_CAP)

    @property
    def gl_constant(self) -> float:
        if self.c_gl is not None:
            return self.c_gl
        return theorem_constant(self.model, self.case)


def batches(start: int, stop: int, n: int) -> Iterator[tuple[int, int]]:
    """The kernel's batches of replications start..stop-1 of n points each.

    Yields (first, last) for the replications first..last-1 of each batch:
    consecutive runs of max(1, BATCH_POINTS // n), the last one possibly
    shorter.  This is the one place that knows a batch's bounds.
    """
    size = max(1, BATCH_POINTS // n)
    return ((first, min(first + size, stop)) for first in range(start, stop, size))


def _frozen(array: np.ndarray) -> np.ndarray:
    """array, made read-only: the caches hand the same one to every context."""
    array.flags.writeable = False
    return array


@cache
def _grid_pieces(grid_size: int, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The Simpson grid and the basis rows 0..m_max on it."""
    grid = _frozen(unit_grid(grid_size))
    return grid, _frozen(TrigBasis().design_matrix(grid, m_max))


@cache
def _target_pieces(model: str, target: str, grid_size: int, m_max: int) -> tuple:
    """The target, its law (None for regression), its values on the grid, cross, norm_sq.

    cross and norm_sq are the truth part of the ISE (quadrature.simpson_projection).
    """
    law = marginal_law(target) if model == "density" else None
    fn = law.density if law is not None else REGRESSION_TARGETS[target]()
    grid, basis_grid = _grid_pieces(grid_size, m_max)
    truth_grid = _frozen(np.asarray(fn.eval(grid), dtype=float))
    cross, norm_sq = simpson_projection(basis_grid, truth_grid)
    return fn, law, truth_grid, _frozen(cross), norm_sq


class ExperimentContext:
    """The sample-free state of one config, read from the per-process caches.

    Nothing here depends on the seed, case, n, replications or penalty
    constants, which are read from cfg when used.  The arrays are shared
    by every context with the same key, so they are read-only.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.grid, self.basis_grid = _grid_pieces(cfg.grid_size, cfg.m_grid)
        self.target, self.law, self.truth_grid, self.cross, self.norm_sq = _target_pieces(
            cfg.model, cfg.target, cfg.grid_size, cfg.m_grid)

    def sample(self, rep_index: int, namespace: int = EVAL_NS,
               count: int = 1) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(points, y) of replications rep_index..rep_index + count - 1.

        Both are (count, n) stacks, row k drawn from stream(seed,
        rep_index + k, namespace); y is the responses, None for densities.
        This is the one place that maps replications to their streams.
        """
        cfg = self.cfg
        rngs = [stream(cfg.seed, rep, namespace) for rep in range(rep_index, rep_index + count)]
        if cfg.model == "density":
            return gen_density_sample(cfg.n, cfg.case, self.law, rngs), None
        return gen_regression_sample(cfg.n, cfg.case, self.target, rngs)

    def replications(self, start: int, stop: int, namespace: int = EVAL_NS
                     ) -> Iterator[tuple[CoefficientTable, np.ndarray]]:
        """The replication kernel: one (table, sigma_sq) per batch of start..stop-1.

        One sample call, one coefficient pass and, for regression, one
        sigma_y_hat call per batch (see batches), in order.  table is the
        batch's stacked table, one row per replication in order, and
        sigma_sq the K values sigma_hat^2 for regression and 1.0 for
        densities, so penalty_vector(c, M, n, sigma_sq) is the penalty of
        either model.  The tables carry theta_sq_loo only if cfg.selectors
        holds cv.
        """
        cfg = self.cfg
        for first, last in batches(start, stop, cfg.n):
            points, y = self.sample(first, namespace, last - first)
            sigma_sq = np.ones(last - first) if y is None else sigma_y_hat(y)
            table = empirical_coefficients(points, cfg.m_grid, y, loo="cv" in cfg.selectors)
            yield table, sigma_sq

    def ise_by_m(self, table: CoefficientTable) -> np.ndarray:
        """Realized ISE(m), m = 1..M, on the context's Simpson grid: one row per table row."""
        return oracle_criteria(table, self.cross, self.norm_sq)


class RepRecord(NamedTuple):
    """One selector's choice in one replication: one row of raw.csv.

    sigma_y_hat holds sigma_hat^2 = n^-1 sum y_i^2 (not sigma_hat), the
    penalty's noise scale; it is 1.0 for densities.
    """

    rep_index: int
    selector: str
    m_selected: int
    ise: float
    sigma_y_hat: float


@dataclass(frozen=True, eq=False)
class RunResults:
    """Columns of an evaluation run: m_selected and ise are (S x R), one row
    per selector; sigma_y_hat is (R,), each replication's sigma_hat^2 =
    n^-1 sum y_i^2 (1.0 for densities); ise_by_m, ISE(m) for m = 1..M,
    is (R x M); theta_hat, the coefficients theta_hat_0..M from which
    bands_from_run sums the GL estimates, is (R x M+1).  Iterating yields
    the RepRecord rows, replication-major."""

    selectors: tuple
    m_selected: np.ndarray
    ise: np.ndarray
    sigma_y_hat: np.ndarray
    ise_by_m: np.ndarray
    theta_hat: np.ndarray

    def __len__(self) -> int:
        return self.ise.size

    def __iter__(self) -> Iterator[RepRecord]:
        columns = zip(self.m_selected.T.tolist(), self.ise.T.tolist(), self.sigma_y_hat.tolist())
        for rep, (ms, ises, sig_sq) in enumerate(columns):
            for sel, m, ise in zip(self.selectors, ms, ises):
                yield RepRecord(rep, sel, m, ise, sig_sq)


@dataclass(frozen=True)
class SummaryRow:
    model: str
    target: str
    case: int
    n: int
    selector: str
    c_pen: float
    reps: int
    mean_ise: float
    std_ise: float
    mean_m: float


@dataclass(frozen=True)
class BandTable:
    """Pointwise median and 5/95 percentiles of the GL estimate."""

    x: np.ndarray
    truth: np.ndarray
    median: np.ndarray
    p05: np.ndarray
    p95: np.ndarray

    @property
    def coverage(self) -> float:
        """Fraction of grid points where the truth lies inside [p05, p95]."""
        return float(((self.p05 <= self.truth) & (self.truth <= self.p95)).mean())


def run_replication(ctx: ExperimentContext, table: CoefficientTable, sigma_sq: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All requested selectors on one batch's stacked coefficient table of K rows.

    Returns the selected m, an (S, K) array with one row per selector in
    cfg.selectors order; the realized ISE(m), m = 1..M, a (K, M) array;
    the K values sigma_hat^2; and the coefficients theta_hat, (K, M + 1).
    """
    cfg = ctx.cfg
    ise_by_m = ctx.ise_by_m(table)

    chosen = np.empty((len(cfg.selectors), len(sigma_sq)), dtype=np.int64)
    for row, sel in zip(chosen, cfg.selectors):
        if sel == "oracle":
            row[:] = np.argmin(ise_by_m, axis=-1) + 1
        elif sel == "gl":
            pens = penalty_vector(cfg.gl_constant, table.m_max, cfg.n, sigma_sq)
            row[:] = select_with_pens(table, pens)
        elif sel == "ms":
            row[:] = select_ms(table, cfg.gl_constant, sigma_sq)
        else:
            row[:] = select_cv(table)

    return chosen, ise_by_m, sigma_sq, table.theta_hat


def _chunk(ctx: ExperimentContext, kernel, start: int, stop: int, namespace: int):
    """kernel(ctx, table, sigma_sq) per kernel batch of start..stop-1: one chunk's loop."""
    return (kernel(ctx, table, sig_sq)
            for table, sig_sq in ctx.replications(start, stop, namespace))


def _pool_chunk(task) -> list:
    cfg, *chunk = task
    return list(_chunk(ExperimentContext(cfg), *chunk))


#: The process pool of this process and its worker count: made by the first
#: parallel run and reused by the next ones.
_POOL = None


def _pool_map(tasks: list, workers: int) -> Iterator[list]:
    """_pool_chunk over tasks on the process pool, which holds at least workers processes.

    The pool forks all its workers at its first submit, so it is replaced
    only when a run asks for more of them than it holds, or when it is
    broken (a worker died).
    """
    global _POOL
    # imported here: it loads multiprocessing, which serial runs never need
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    if _POOL is not None and _POOL[1] >= workers:
        with suppress(BrokenProcessPool):
            return _POOL[0].map(_pool_chunk, tasks)
    if _POOL is not None:
        _POOL[0].shutdown()
    _POOL = ProcessPoolExecutor(max_workers=workers), workers
    # The executor's own exit hook stops the workers; shutting the pool down
    # too, before the modules are cleared, keeps its manager thread's
    # callback from failing during that teardown.
    atexit.register(_POOL[0].shutdown)
    return _POOL[0].map(_pool_chunk, tasks)


def _usable_cpus() -> int:
    """The CPUs this process may run on (os.cpu_count() where affinity is not exposed)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_reps(ctx: ExperimentContext, kernel, reps: int, namespace: int,
              progress: bool = False) -> list:
    """kernel(ctx, table, sigma_sq) of each batch of replications 0..reps-1, in order.

    One worker runs all B batches as one chunk on the caller's context;
    more group them into chunks of max(1, B // (4 workers)) whole
    batches, each task carrying its config, and map the chunks through
    the process pool, whose workers read their contexts from their own
    caches and cut each chunk into the batches of a serial run.
    Executor.map keeps order.  The pool holds no more processes than
    there are chunks or CPUs this process may run on: workers is an
    upper bound, and the outputs are the same for any count.  Each output
    is paired with its batch for the progress line, so a lost batch
    raises instead of shortening a column.
    """
    cfg = ctx.cfg
    cuts = list(batches(0, reps, cfg.n))
    if cfg.workers == 1:
        outs = _chunk(ctx, kernel, 0, reps, namespace)
    else:
        size = max(1, len(cuts) // (cfg.workers * 4))
        groups = [cuts[k:k + size] for k in range(0, len(cuts), size)]
        tasks = [(cfg, kernel, group[0][0], group[-1][1], namespace) for group in groups]
        outs = chain.from_iterable(_pool_map(tasks, min(cfg.workers, len(tasks), _usable_cpus())))
    results = []
    for (_, last), out in zip(cuts, outs, strict=True):
        if progress:
            print(f"\rreplication {last}/{reps}", end="" if last < reps else "\n",
                  file=sys.stderr, flush=True)
        results.append(out)
    return results


def summarize(cfg: ExperimentConfig, results: RunResults) -> list[SummaryRow]:
    """One row per selector: each statistic is one call over the (S, R) columns.

    Every reduction runs along a row, so each selector's mean and std are
    the floats of the same call on its row alone.
    """
    columns = zip(cfg.selectors, results.ise.mean(axis=1).tolist(),
                  results.ise.std(axis=1).tolist(), results.m_selected.mean(axis=1).tolist())
    return [SummaryRow(
        model=cfg.model, target=cfg.target, case=cfg.case, n=cfg.n, selector=sel,
        c_pen=cfg.gl_constant if sel in PENALIZED else float("nan"), reps=results.ise.shape[1],
        mean_ise=mean_ise, std_ise=std_ise, mean_m=mean_m)
        for sel, mean_ise, std_ise, mean_m in columns]


def _check_ise_grid(cfg: ExperimentConfig) -> None:
    """Refuse a grid of at most 4 ceil(M/2) + 1 points, where the basis is not orthonormal.

    The products phi_i phi_j, i, j <= M, reach frequency 2 ceil(M/2),
    which such a grid aliases, so its realized ISE would not be Parseval's
    sum (estimators.ise_profile).
    """
    floor = 4 * math.ceil(cfg.m_grid / 2) + 1
    if cfg.grid_size <= floor:
        raise ConfigError(f"grid_size must exceed 4 ceil(M/2) + 1 = {floor} (M = {cfg.m_grid})")


def _evaluate(cfg: ExperimentConfig, progress: bool = False) -> RunResults:
    """The columns of cfg.reps evaluation replications, one kernel pass."""
    ms, profiles, sigmas, thetas = zip(*_run_reps(ExperimentContext(cfg), run_replication,
                                                  cfg.reps, EVAL_NS, progress=progress))
    m_selected, ise_by_m = np.concatenate(ms, axis=1), np.concatenate(profiles)
    return RunResults(selectors=tuple(cfg.selectors), m_selected=m_selected,
                      ise=ise_by_m[np.arange(cfg.reps), m_selected - 1],
                      sigma_y_hat=np.concatenate(sigmas), ise_by_m=ise_by_m,
                      theta_hat=np.concatenate(thetas))


def run_experiment(cfg: ExperimentConfig,
                   progress: bool = False) -> tuple[list[SummaryRow], RunResults]:
    """Run cfg.reps replications: the summary rows and the columns they summarize."""
    _check_ise_grid(cfg)
    if "ms" in cfg.selectors and cfg.gl_constant <= 0.0:
        raise ConfigError("selector ms needs a positive constant: set c_gl (--c-pen)")
    results = _evaluate(cfg, progress)
    return summarize(cfg, results), results


def bands_from_run(cfg: ExperimentConfig, results: RunResults) -> BandTable:
    """Pointwise percentile bands of the GL estimates of an evaluation run of cfg.

    Each replication's estimate sum_{j <= m} theta_hat_j phi_j, m its GL
    pick, is summed on its own, on the context's grid.
    """
    ctx = ExperimentContext(cfg)
    picks = results.m_selected[results.selectors.index("gl")].tolist()
    estimates = np.array([np.sum(theta[: m + 1, None] * ctx.basis_grid[: m + 1], axis=0)
                          for theta, m in zip(results.theta_hat, picks)])
    p05, med, p95 = np.percentile(estimates, [5.0, 50.0, 95.0], axis=0)
    # copies: the context's arrays are shared and read-only
    return BandTable(ctx.grid.copy(), ctx.truth_grid.copy(), med, p05, p95)


def require_band_reps(reps: int) -> None:
    """Refuse, with ConfigError, fewer replications than MIN_BAND_REPS for bands."""
    if reps < MIN_BAND_REPS:
        raise ConfigError(f"bands need at least {MIN_BAND_REPS} replications")


def compute_bands(cfg: ExperimentConfig) -> BandTable:
    """Pointwise percentile bands of the GL estimate over replications.

    The run selects by gl alone and takes any odd grid: it reports no ISE.
    """
    require_band_reps(cfg.reps)
    gl_cfg = replace(cfg, selectors=("gl",))
    return bands_from_run(gl_cfg, _evaluate(gl_cfg))


@dataclass(frozen=True)
class CalibrationResult:
    c_grid: np.ndarray
    mean_ise: dict  # selector -> array aligned with c_grid
    chosen: dict  # selector -> calibrated constant
    warnings: tuple = field(default_factory=tuple)


def default_c_grid() -> np.ndarray:
    """Half-octave grid 0.5 .. 64."""
    return np.round(2.0 ** (np.arange(15) / 2.0 - 1.0), 6)


def _calibration_grid(c_grid: Iterable[float] | None, calib_reps: int) -> np.ndarray:
    """The candidate constants as an array (None -> default_c_grid()).

    Raises ConfigError unless the grid is nonempty, finite, positive and
    strictly increasing, each value is its own %.10g (the digits printed
    and written to calibration.csv, so a chosen constant can be passed
    back as it reads) and calib_reps >= 1.
    """
    grid = default_c_grid() if c_grid is None else np.asarray(list(c_grid), dtype=float)
    if (grid.size == 0 or not np.all(np.isfinite(grid)) or grid[0] <= 0.0
            or not np.all(np.diff(grid) > 0.0)):
        raise ConfigError("calibration grid must be nonempty, positive and increasing")
    if any(float(_fmt(c)) != c for c in grid.tolist()):
        raise ConfigError("calibration grid values must have at most 10 significant digits")
    if calib_reps < 1:
        raise ConfigError("need calib_reps >= 1")
    return grid


def _calibration_rows(c_grid: np.ndarray, ctx: ExperimentContext, table: CoefficientTable,
                      sigma_sq: np.ndarray) -> np.ndarray:
    """ISE of the dimension each constant of c_grid selects: (K, C), one row per replication.

    One (K, C, M) penalty block scores every constant in every row of the batch.
    """
    pens = penalty_vector(c_grid, table.m_max, ctx.cfg.n, sigma_sq)
    chosen = select_with_pens(table, pens)
    return np.take_along_axis(ctx.ise_by_m(table), chosen - 1, axis=-1)


def calibrate_constant(cfg: ExperimentConfig, c_grid: Iterable[float] | None = None,
                       calib_reps: int = 100) -> CalibrationResult:
    """Grid-search the penalty constant of GL and MS on a disjoint seed stream.

    The sample, coefficient table, and per-dimension ISE of a replication
    do not depend on the constant, so each batch of replications is
    generated once and scores the whole grid with one (K x C x M) penalty
    block.  The rows are summed one replication at a time, in order (a
    cumulative sum), so the sum is the same float in any batch.  GL and
    MS are the same rule (see selection), so one curve and one constant
    serve both (PENALIZED).  A curve that is not quasi-convex gives one
    warning, which names the config and is kept in the result's warnings.
    """
    _check_ise_grid(cfg)
    c_grid = _calibration_grid(c_grid, calib_reps)
    ctx = ExperimentContext(replace(cfg, selectors=PENALIZED))
    rows = np.concatenate(_run_reps(ctx, partial(_calibration_rows, c_grid), calib_reps, CALIB_NS))
    curve = np.cumsum(rows, axis=0)[-1] / calib_reps
    k = int(np.argmin(curve))
    notes = []
    if not (np.all(np.diff(curve[: k + 1]) <= 1e-12) and np.all(np.diff(curve[k:]) >= -1e-12)):
        notes.append(f"mean ISE vs c not quasi-convex for gl and ms "
                     f"({cfg.model} {cfg.target} case {cfg.case} n={cfg.n})")
        warnings.warn(notes[-1])
    return CalibrationResult(c_grid=c_grid, mean_ise=dict.fromkeys(PENALIZED, curve),
                             chosen=dict.fromkeys(PENALIZED, float(c_grid[k])),
                             warnings=tuple(notes))


def calibrated_config(cfg: ExperimentConfig, calib: CalibrationResult) -> ExperimentConfig:
    """cfg at the one constant calibration chose for the penalized selectors."""
    (c,) = {calib.chosen[sel] for sel in PENALIZED}
    return replace(cfg, c_gl=c)


def table_study(n: int = 1000, reps: int = 501, calib_reps: int = 100, seed: int = 0,
                workers: int = 1, models: Sequence[str] = ("density", "regression")
                ) -> list[tuple[ExperimentConfig, list[SummaryRow], RunResults]]:
    """The paper's risk tables: (calibrated config, summary rows, columns) per config.

    The configs run in table order: each model, targets f1 and f2, the
    dependence cases of dependence.CASES.  Each calibrates its GL/MS
    constant on calib_reps replications of the calibration stream, then
    runs reps evaluation replications with it.  Every config is built before any
    work starts, so a rejected setting raises ConfigError first.
    """
    cfgs = [ExperimentConfig(model=model, target=target, case=case, n=n, reps=reps,
                             seed=seed, workers=workers)
            for model in models for target in ("f1", "f2") for case in CASES]
    study = []
    for cfg in cfgs:
        run_cfg = calibrated_config(cfg, calibrate_constant(cfg, calib_reps=calib_reps))
        study.append((run_cfg, *run_experiment(run_cfg)))
    return study


def _fmt(value) -> str:
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write header and rows: floats as %.10g, anything else as str, CRLF line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_raw_csv(records: Iterable[RepRecord], path) -> None:
    write_csv(path, RepRecord._fields, records)


def write_summary_csv(rows: Sequence[SummaryRow], path) -> None:
    columns = [f.name for f in fields(SummaryRow)]
    write_csv(path, columns, ([getattr(row, name) for name in columns] for row in rows))


def write_bands_csv(bands: BandTable, path) -> None:
    columns = ("x", "truth", "median", "p05", "p95")
    write_csv(path, columns, zip(*(getattr(bands, name).tolist() for name in columns)))


def write_calibration_csv(calib: CalibrationResult, path) -> None:
    write_csv(path, ["selector", "c", "mean_ise"],
              ((sel, c, v) for sel, curve in calib.mean_ise.items()
               for c, v in zip(calib.c_grid.tolist(), curve.tolist())))
