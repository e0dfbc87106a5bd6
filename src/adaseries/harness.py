"""Monte Carlo harness: replications, risk tables, percentile bands, calibration.

A replication generates one sample, the arrays (points, y), from its
stream(seed, rep_index, namespace) and reduces it to one coefficient
table and the noise level sigma_hat^2.  ExperimentContext.sample is the
one place that maps replications to their streams; the samplers it calls
take the generators.  ExperimentContext.replications is the one kernel,
shared by evaluation runs, bands, calibration and the oracle-inequality
check: it makes a batch of K = max(1, BATCH_POINTS // n) consecutive
replications at a time (the cut is batches), with one sample call (a
(K, n) stack, one stream per row, one quantile transform for densities),
one pass over the basis rows (empirical_coefficients, one table per row)
and, for regression, one sigma_y_hat call (one sigma_hat^2 per row), and
yields (table, sigma_sq) per replication.  Every step before the sums is
elementwise and every sum runs over one replication's row, so a
replication's table and sigma_hat^2 are the same floats in any batch.  Nothing after the
kernel reads the sample, and every selector takes its dimension grid
from the table.  Evaluation runs all requested selectors,
cross-validation included, on that shared table and scores each selected
dimension by Simpson-grid ISE against the true function, one replication
at a time.
ExperimentContext computes the sample-free parts of that ISE once (the
Gram matrix of the basis on the grid, its cross products with the truth
and the truth's squared norm; estimators.ise_gram), so the ISE of every
dimension of a replication costs one (M+1)^2 matrix-vector product.

One runner, _run_reps, loops over replications for evaluation, bands and
calibration.  It maps a per-replication function of (ctx, table,
sigma_sq) over the kernel's output, in process on the caller's
ExperimentContext or, chunk by chunk, through a process pool whose
workers hold their own, and yields the outputs in replication order, so
results are byte for byte the same for any worker count.  Evaluation
keeps them as columns (RunResults), whose iteration yields the raw rows.

Calibration searches a grid of penalty constants for the value minimizing
mean ISE over replications drawn from a stream namespace disjoint from
evaluation runs.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .basis import TrigBasis
from .dependence import gen_density_sample, gen_regression_sample, stream
from .estimators import CoefficientTable, empirical_coefficients, ise_gram, sigma_y_hat
from .quadrature import simpson_weights, unit_grid
from .selection import (oracle_criteria, penalty_vector, select_cv, select_ms,
                        select_with_pens, theorem_constant)
from .targets import DENSITY_TARGETS, REGRESSION_TARGETS, MarginalLaw

SELECTORS = ("oracle", "gl", "ms", "cv")
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
#: replications, few enough that a batch's arrays stay in cache.  n = 1000
#: runs batches of 16 replications, n >= BATCH_POINTS one at a time.
BATCH_POINTS = 1 << 14


class ConfigError(ValueError):
    """A setting rejected before any work starts (the CLI's exit 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully describes one Monte Carlo experiment."""

    model: str  # 'density' | 'regression'
    target: str  # 'f1' | 'f2' | 'uniform' (density only)
    case: int  # 1 | 2 | 3
    n: int
    reps: int = 501
    selectors: tuple = SELECTORS
    m_max: Optional[int] = None  # default min(n, 100)
    seed: int = 0
    grid_size: int = DEFAULT_GRID_SIZE
    c_gl: Optional[float] = None  # None -> theorem preset for (model, case)
    c_ms: Optional[float] = None  # None -> same constant as GL
    workers: int = 1

    def __post_init__(self):
        if self.model not in ("density", "regression"):
            raise ConfigError(f"unknown model {self.model!r}")
        registry = DENSITY_TARGETS if self.model == "density" else REGRESSION_TARGETS
        if self.target not in registry:
            raise ConfigError(f"unknown {self.model} target {self.target!r}")
        if self.case not in (1, 2, 3):
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
        if self.c_ms is not None and not (math.isfinite(self.c_ms) and self.c_ms > 0.0):
            raise ConfigError("c_ms must be finite and > 0")

    @property
    def m_grid(self) -> int:
        return self.m_max if self.m_max is not None else min(self.n, DEFAULT_M_CAP)

    @property
    def gl_constant(self) -> float:
        if self.c_gl is not None:
            return self.c_gl
        return theorem_constant(self.model, self.case)

    @property
    def ms_constant(self) -> float:
        return self.c_ms if self.c_ms is not None else self.gl_constant


def batches(start: int, stop: int, n: int) -> Iterator[tuple[int, int]]:
    """The kernel's batches of replications start..stop-1 of n points each.

    Yields (first, last) for the replications first..last-1 of each batch:
    consecutive runs of max(1, BATCH_POINTS // n), the last one possibly
    shorter.
    """
    size = max(1, BATCH_POINTS // n)
    return ((first, min(first + size, stop)) for first in range(start, stop, size))


class ExperimentContext:
    """Precomputed state shared by all replications of one config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        if cfg.model == "density":
            self.target = DENSITY_TARGETS[cfg.target]()
            self.law = MarginalLaw(self.target)
        else:
            self.target = REGRESSION_TARGETS[cfg.target]()
            self.law = None
        self.grid = unit_grid(cfg.grid_size)
        self.truth_grid = np.asarray(self.target.eval(self.grid), dtype=float)
        self.basis_grid = TrigBasis().design_matrix(self.grid, cfg.m_grid)
        self.gram_lower, self.cross, self.norm_sq = ise_gram(
            self.basis_grid, self.truth_grid, simpson_weights(cfg.grid_size))

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

    def replications(self, start: int, stop: int,
                     namespace: int = EVAL_NS) -> Iterator[tuple[CoefficientTable, float]]:
        """The replication kernel: (table, sigma_sq) of replications start..stop-1, in order.

        One sample call, one coefficient pass and, for regression, one
        sigma_y_hat call per batch (see batches).  sigma_sq is sigma_hat^2
        for regression and 1.0 for densities, so penalty_vector(c, M, n,
        sigma_sq) is the penalty of either model.
        """
        cfg = self.cfg
        for first, last in batches(start, stop, cfg.n):
            points, y = self.sample(first, namespace, last - first)
            tables = empirical_coefficients(points, cfg.m_grid, y)
            sigmas = [1.0] * len(tables) if y is None else sigma_y_hat(y).tolist()
            yield from zip(tables, sigmas)

    def ise_by_m(self, table: CoefficientTable) -> np.ndarray:
        """Realized ISE(m), m = 1..M, on the context's Simpson grid."""
        return oracle_criteria(table, self.gram_lower, self.cross, self.norm_sq)


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
    n^-1 sum y_i^2 (1.0 for densities), and ise_by_m, ISE(m) for m = 1..M,
    is (R x M).  Iterating yields the RepRecord rows, replication-major."""

    selectors: tuple
    m_selected: np.ndarray
    ise: np.ndarray
    sigma_y_hat: np.ndarray
    ise_by_m: np.ndarray

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


def run_replication(ctx: ExperimentContext, table: CoefficientTable,
                    sigma_sq: float) -> tuple[np.ndarray, np.ndarray, float]:
    """All requested selectors on one replication's shared coefficient table.

    Returns the selected m of each selector in cfg.selectors order, the
    realized ISE(m), m = 1..M, and sigma_hat^2.
    """
    cfg = ctx.cfg
    ise_by_m = ctx.ise_by_m(table)

    chosen = []
    for sel in cfg.selectors:
        if sel == "oracle":
            m = int(np.argmin(ise_by_m)) + 1
        elif sel == "gl":
            pens = penalty_vector(cfg.gl_constant, table.m_max, cfg.n, sigma_sq)
            m = select_with_pens(table, pens)
        elif sel == "ms":
            m = select_ms(table, cfg.ms_constant, sigma_sq)
        else:
            m = select_cv(table)
        chosen.append(m)

    return np.array(chosen, dtype=np.int64), ise_by_m, sigma_sq


_CTX: ExperimentContext | None = None


def _pool_init(cfg: ExperimentConfig) -> None:
    global _CTX
    _CTX = ExperimentContext(cfg)


def _chunk(ctx: ExperimentContext, kernel, start: int, stop: int, namespace: int):
    """kernel(ctx, table, sigma_sq) for replications start..stop-1: the replication loop."""
    return (kernel(ctx, table, sig_sq)
            for table, sig_sq in ctx.replications(start, stop, namespace))


def _pool_chunk(task) -> list:
    return list(_chunk(_CTX, *task))


def _run_reps(ctx: ExperimentContext, kernel, reps: int, namespace: int,
              progress: bool = False) -> Iterator:
    """Yield kernel(ctx, table, sigma_sq) for replications 0..reps-1, in that order.

    One worker runs them all as one chunk on the caller's context; more
    cut them into chunks of reps // (4 workers) and map the chunks
    through a pool whose workers build their own.  Executor.map keeps
    order, and the kernel's batches within a chunk do not change a float.
    """
    workers = ctx.cfg.workers
    if workers == 1:
        pool = nullcontext()
        parts = [_chunk(ctx, kernel, 0, reps, namespace)]
    else:
        # imported here: it loads multiprocessing, which serial runs never need
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, reps // (workers * 4))
        tasks = [(kernel, start, min(start + size, reps), namespace)
                 for start in range(0, reps, size)]
        # the pool forks all its workers at the first submit: no more than there are chunks
        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                   initializer=_pool_init, initargs=(ctx.cfg,))
        parts = pool.map(_pool_chunk, tasks)
    with pool:
        for done, out in enumerate(chain.from_iterable(parts), 1):
            if progress:
                print(f"\rreplication {done}/{reps}", end="" if done < reps else "\n",
                      file=sys.stderr, flush=True)
            yield out


def summarize(cfg: ExperimentConfig, results: RunResults) -> list[SummaryRow]:
    constants = {"gl": cfg.gl_constant, "ms": cfg.ms_constant}
    return [SummaryRow(
        model=cfg.model, target=cfg.target, case=cfg.case, n=cfg.n, selector=sel,
        c_pen=constants.get(sel, float("nan")), reps=ises.size,
        mean_ise=float(ises.mean()), std_ise=float(ises.std(ddof=0)), mean_m=float(ms.mean()))
        for sel, ises, ms in zip(cfg.selectors, results.ise, results.m_selected)]


def run_experiment(cfg: ExperimentConfig,
                   progress: bool = False) -> tuple[list[SummaryRow], RunResults]:
    """Run cfg.reps replications: the summary rows and the columns they summarize."""
    if "ms" in cfg.selectors and cfg.ms_constant <= 0.0:
        raise ConfigError("selector ms needs a positive constant: set c_ms")
    ms, profiles, sigmas = zip(*_run_reps(ExperimentContext(cfg), run_replication,
                                          cfg.reps, EVAL_NS, progress))
    m_selected = np.stack(ms, axis=1)
    ise_by_m = np.array(profiles)
    results = RunResults(selectors=tuple(cfg.selectors), m_selected=m_selected,
                         ise=ise_by_m[np.arange(cfg.reps), m_selected - 1],
                         sigma_y_hat=np.array(sigmas, dtype=float), ise_by_m=ise_by_m)
    return summarize(cfg, results), results


def _gl_estimate(ctx: ExperimentContext, table: CoefficientTable,
                 sigma_sq: float) -> np.ndarray:
    """The GL estimate of one replication on the context's grid."""
    cfg = ctx.cfg
    pens = penalty_vector(cfg.gl_constant, table.m_max, cfg.n, sigma_sq)
    m = select_with_pens(table, pens)
    return np.sum(table.theta_hat[: m + 1, None] * ctx.basis_grid[: m + 1], axis=0)


def compute_bands(cfg: ExperimentConfig) -> BandTable:
    """Pointwise percentile bands of the GL estimate over replications."""
    if cfg.reps < MIN_BAND_REPS:
        raise ConfigError(f"bands need at least {MIN_BAND_REPS} replications")
    ctx = ExperimentContext(cfg)
    estimates = np.fromiter(_run_reps(ctx, _gl_estimate, cfg.reps, EVAL_NS),
                            dtype=np.dtype((float, cfg.grid_size)), count=cfg.reps)
    p05, med, p95 = np.percentile(estimates, [5.0, 50.0, 95.0], axis=0)
    return BandTable(x=ctx.grid, truth=ctx.truth_grid, median=med, p05=p05, p95=p95)


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
    strictly increasing and calib_reps >= 1.
    """
    grid = default_c_grid() if c_grid is None else np.asarray(list(c_grid), dtype=float)
    if (grid.size == 0 or not np.all(np.isfinite(grid)) or grid[0] <= 0.0
            or not np.all(np.diff(grid) > 0.0)):
        raise ConfigError("calibration grid must be nonempty, positive and increasing")
    if calib_reps < 1:
        raise ConfigError("need calib_reps >= 1")
    return grid


def _calibration_row(c_grid: np.ndarray, ctx: ExperimentContext, table: CoefficientTable,
                     sigma_sq: float) -> np.ndarray:
    """ISE of the dimension each constant of c_grid selects in one replication."""
    pens = penalty_vector(c_grid, table.m_max, ctx.cfg.n, sigma_sq)
    return ctx.ise_by_m(table)[select_with_pens(table, pens) - 1]


def calibrate_constant(cfg: ExperimentConfig, c_grid: Iterable[float] | None = None,
                       calib_reps: int = 100) -> CalibrationResult:
    """Grid-search penalty constants for GL and MS on a disjoint seed stream.

    The sample, coefficient table, and per-dimension ISE of a replication
    do not depend on the constant, so each replication is generated once
    and scores the whole grid with one (C x M) penalty block.  GL and MS
    are the same rule (see selection), so one curve serves both.
    """
    c_grid = _calibration_grid(c_grid, calib_reps)
    total = np.zeros(c_grid.size)
    for row in _run_reps(ExperimentContext(cfg), partial(_calibration_row, c_grid),
                         calib_reps, CALIB_NS):
        total += row
    curve = total / calib_reps
    k = int(np.argmin(curve))
    notes = []
    if not (np.all(np.diff(curve[: k + 1]) <= 1e-12) and np.all(np.diff(curve[k:]) >= -1e-12)):
        notes.append("mean ISE vs c not quasi-convex for gl and ms")
        warnings.warn(notes[-1])
    return CalibrationResult(c_grid=c_grid, mean_ise={"gl": curve, "ms": curve},
                             chosen=dict.fromkeys(("gl", "ms"), float(c_grid[k])),
                             warnings=tuple(notes))


def calibrated_config(cfg: ExperimentConfig, calib: CalibrationResult) -> ExperimentConfig:
    return replace(cfg, c_gl=calib.chosen["gl"], c_ms=calib.chosen["ms"])


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
    write_csv(path, [f.name for f in fields(SummaryRow)], map(astuple, rows))


def write_bands_csv(bands: BandTable, path) -> None:
    columns = ("x", "truth", "median", "p05", "p95")
    write_csv(path, columns, zip(*(getattr(bands, name).tolist() for name in columns)))


def write_calibration_csv(calib: CalibrationResult, path) -> None:
    write_csv(path, ["selector", "c", "mean_ise"],
              ((sel, c, v) for sel, curve in calib.mean_ise.items()
               for c, v in zip(calib.c_grid.tolist(), curve.tolist())))
