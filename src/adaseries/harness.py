"""Monte Carlo harness: replications, risk tables, percentile bands, calibration.

A replication generates one sample from its (seed, rep_index) stream
and reduces it to one coefficient table and the noise level sigma_hat^2
(ExperimentContext.replication, the one kernel shared by evaluation
runs, bands, calibration and the oracle-inequality check).  The sample
is evaluated on the basis once, inside empirical_coefficients; nothing
after the kernel reads the sample.  Evaluation runs all requested
selectors, cross-validation included, on that shared table and scores
each selected dimension by Simpson-grid ISE against the true function.
ExperimentContext computes the sample-free parts of that ISE once (the
Gram matrix of the basis on the grid, its cross products with the truth
and the truth's squared norm; estimators.ise_gram), so the ISE of every
dimension of a replication costs one (M+1)^2 matrix-vector product.
Replications are independent, so aggregates do not depend on worker
count or completion order.

Calibration searches a grid of penalty constants for the value minimizing
mean ISE over replications drawn from a stream namespace disjoint from
evaluation runs.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .basis import TrigBasis
from .dependence import Sample, gen_density_sample, gen_regression_sample
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
            raise ValueError(f"unknown model {self.model!r}")
        registry = DENSITY_TARGETS if self.model == "density" else REGRESSION_TARGETS
        if self.target not in registry:
            raise ValueError(f"unknown {self.model} target {self.target!r}")
        if self.case not in (1, 2, 3):
            raise ValueError(f"unknown dependence case {self.case}")
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.reps < 1:
            raise ValueError("need reps >= 1")
        unknown = set(self.selectors) - set(SELECTORS)
        if unknown:
            raise ValueError(f"unknown selectors {sorted(unknown)}")
        if self.m_max is not None and not 1 <= self.m_max <= self.n:
            raise ValueError("m_max must lie in 1..n")
        if self.grid_size < 3 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and >= 3")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.c_gl is not None and not (math.isfinite(self.c_gl) and self.c_gl >= 0.0):
            raise ValueError("c_gl must be finite and >= 0")
        if self.c_ms is not None and not (math.isfinite(self.c_ms) and self.c_ms > 0.0):
            raise ValueError("c_ms must be finite and > 0")

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


class Replication(NamedTuple):
    """What every consumer of one replication shares.

    sigma_sq is sigma_hat^2 for regression and 1.0 for densities, so
    penalty_vector(c, M, n, sigma_sq) is the penalty of either model.
    """

    table: CoefficientTable
    sigma_sq: float


class ExperimentContext:
    """Precomputed state shared by all replications of one config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        M = cfg.m_grid
        self.basis = TrigBasis(max_index=M)
        if cfg.model == "density":
            self.target = DENSITY_TARGETS[cfg.target]()
            self.law = MarginalLaw(self.target)
        else:
            self.target = REGRESSION_TARGETS[cfg.target]()
            self.law = None
        self.grid = unit_grid(cfg.grid_size)
        self.truth_grid = np.asarray(self.target.eval(self.grid), dtype=float)
        self.basis_grid = self.basis.design_matrix(self.grid, M)
        self.gram_lower, self.cross, self.norm_sq = ise_gram(
            self.basis_grid, self.truth_grid, simpson_weights(cfg.grid_size))

    def sample(self, rep_index: int, namespace: int = EVAL_NS) -> Sample:
        cfg = self.cfg
        if cfg.model == "density":
            return gen_density_sample(cfg.n, cfg.case, self.law, cfg.seed, rep_index, namespace)
        return gen_regression_sample(cfg.n, cfg.case, self.target, cfg.seed, rep_index, namespace)

    def replication(self, rep_index: int, namespace: int = EVAL_NS) -> Replication:
        """The replication kernel: coefficient table and sigma_hat^2 of one sample."""
        sample = self.sample(rep_index, namespace)
        table = empirical_coefficients(sample, self.cfg.m_grid, self.basis)
        sig_sq = sigma_y_hat(sample) if self.cfg.model == "regression" else 1.0
        return Replication(table, sig_sq)

    def ise_by_m(self, table: CoefficientTable) -> np.ndarray:
        """Realized ISE(m), m = 1..M, on the context's Simpson grid."""
        return oracle_criteria(table, self.gram_lower, self.cross, self.norm_sq, self.cfg.m_grid)


@dataclass(frozen=True)
class RepRecord:
    """One selector's choice in one replication.

    ise_by_m is the replication's realized ISE(m), m = 1..M, one array
    shared by all records of the replication; ise is its entry at
    m_selected.  It is not written to raw.csv.
    """

    rep_index: int
    selector: str
    m_selected: int
    ise: float
    sigma_y_hat: float
    ise_by_m: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


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


def run_replication(cfg: ExperimentConfig, rep_index: int,
                    ctx: ExperimentContext | None = None,
                    namespace: int = EVAL_NS) -> list[RepRecord]:
    """All requested selectors on one shared coefficient table."""
    ctx = ctx or ExperimentContext(cfg)
    table, sig_sq = ctx.replication(rep_index, namespace)
    M = cfg.m_grid
    ise_by_m = ctx.ise_by_m(table)

    chosen = {}
    for sel in cfg.selectors:
        if sel == "oracle":
            m = int(np.argmin(ise_by_m)) + 1
        elif sel == "gl":
            pens = penalty_vector(cfg.gl_constant, M, cfg.n, sig_sq)
            m = select_with_pens(table, pens).m_selected
        elif sel == "ms":
            m = select_ms(table, cfg.ms_constant, M, sig_sq).m_selected
        else:
            m = select_cv(table, M).m_selected
        chosen[sel] = m

    records = [RepRecord(rep_index, sel, m, float(ise_by_m[m - 1]), sig_sq, ise_by_m)
               for sel, m in chosen.items()]
    if "oracle" in chosen:
        oracle_ise = ise_by_m[chosen["oracle"] - 1]
        for rec in records:
            if rec.ise < oracle_ise - 1e-12:
                raise AssertionError("oracle dominated on its own criterion; selection bug")
    return records


_CTX: ExperimentContext | None = None


def _pool_init(cfg: ExperimentConfig) -> None:
    global _CTX
    _CTX = ExperimentContext(cfg)


def _pool_run(args) -> list[RepRecord]:
    start, stop, namespace = args
    out: list[RepRecord] = []
    for rep in range(start, stop):
        out.extend(run_replication(_CTX.cfg, rep, _CTX, namespace))
    return out


def _progress(done: int, total: int) -> None:
    print(f"\rreplication {done}/{total}", end="" if done < total else "\n",
          file=sys.stderr, flush=True)


def _run_reps(cfg: ExperimentConfig, reps: int, namespace: int,
              progress: bool = False) -> list[RepRecord]:
    if cfg.workers <= 1:
        ctx = ExperimentContext(cfg)
        records: list[RepRecord] = []
        for rep in range(reps):
            records.extend(run_replication(cfg, rep, ctx, namespace))
            if progress:
                _progress(rep + 1, reps)
        return records
    chunk = max(1, reps // (cfg.workers * 4))
    tasks = [(start, min(start + chunk, reps), namespace) for start in range(0, reps, chunk)]
    records: list[RepRecord] = []
    done = 0
    with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_pool_init,
                             initargs=(cfg,)) as pool:
        for part in pool.map(_pool_run, tasks):
            records.extend(part)
            done += len(part) // max(1, len(cfg.selectors))
            if progress:
                _progress(done, reps)
    order = {sel: i for i, sel in enumerate(cfg.selectors)}
    records.sort(key=lambda r: (r.rep_index, order[r.selector]))
    return records


def _selector_constant(cfg: ExperimentConfig, sel: str) -> float:
    if sel == "gl":
        return cfg.gl_constant
    if sel == "ms":
        return cfg.ms_constant
    return float("nan")


def summarize(cfg: ExperimentConfig, records: Sequence[RepRecord]) -> list[SummaryRow]:
    rows = []
    for sel in cfg.selectors:
        ises = np.array([r.ise for r in records if r.selector == sel])
        ms = np.array([r.m_selected for r in records if r.selector == sel])
        rows.append(SummaryRow(
            model=cfg.model, target=cfg.target, case=cfg.case, n=cfg.n, selector=sel,
            c_pen=_selector_constant(cfg, sel), reps=ises.size,
            mean_ise=float(ises.mean()), std_ise=float(ises.std(ddof=0)),
            mean_m=float(ms.mean())))
    return rows


def run_experiment(cfg: ExperimentConfig, raw_path=None, summary_path=None,
                   progress: bool = False) -> tuple[list[SummaryRow], list[RepRecord]]:
    """Run cfg.reps replications; optionally write the raw and summary CSVs."""
    records = _run_reps(cfg, cfg.reps, EVAL_NS, progress=progress)
    rows = summarize(cfg, records)
    if raw_path is not None:
        write_raw_csv(records, raw_path)
    if summary_path is not None:
        write_summary_csv(rows, summary_path)
    return rows, records


def compute_bands(cfg: ExperimentConfig) -> BandTable:
    """Pointwise percentile bands of the GL estimate over replications."""
    if cfg.reps < MIN_BAND_REPS:
        raise ValueError(f"bands need at least {MIN_BAND_REPS} replications")
    ctx = ExperimentContext(cfg)
    M = cfg.m_grid
    estimates = np.empty((cfg.reps, cfg.grid_size))
    for rep in range(cfg.reps):
        table, sig_sq = ctx.replication(rep, EVAL_NS)
        pens = penalty_vector(cfg.gl_constant, M, cfg.n, sig_sq)
        m = select_with_pens(table, pens).m_selected
        coefs = table.theta_hat[: m + 1]
        estimates[rep] = np.sum(coefs[:, None] * ctx.basis_grid[: m + 1], axis=0)
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


def calibration_grid(c_grid: Iterable[float] | None, calib_reps: int) -> np.ndarray:
    """The candidate constants as an array (None -> default_c_grid()).

    Raises ValueError unless the grid is nonempty, finite, positive and
    strictly increasing and calib_reps >= 1.
    """
    grid = default_c_grid() if c_grid is None else np.asarray(list(c_grid), dtype=float)
    if (grid.size == 0 or not np.all(np.isfinite(grid)) or grid[0] <= 0.0
            or not np.all(np.diff(grid) > 0.0)):
        raise ValueError("calibration grid must be nonempty, positive and increasing")
    if calib_reps < 1:
        raise ValueError("need calib_reps >= 1")
    return grid


def calibrate_constant(cfg: ExperimentConfig, c_grid: Iterable[float] | None = None,
                       calib_reps: int = 100) -> CalibrationResult:
    """Grid-search penalty constants for GL and MS on a disjoint seed stream.

    The sample, coefficient table, and per-dimension ISE of a replication
    do not depend on the constant, so each replication is generated once
    and scores the whole grid with one (C x M) penalty block.  GL and MS
    are the same rule (see selection), so one curve serves both.
    """
    c_grid = calibration_grid(c_grid, calib_reps)
    ctx = ExperimentContext(cfg)
    total = np.zeros(c_grid.size)
    for rep in range(calib_reps):
        table, sig_sq = ctx.replication(rep, CALIB_NS)
        pens = penalty_vector(c_grid, cfg.m_grid, cfg.n, sig_sq)
        total += ctx.ise_by_m(table)[select_with_pens(table, pens).m_selected - 1]
    curve = total / calib_reps
    mean_ise = {"gl": curve, "ms": curve}
    chosen = {sel: float(c_grid[int(np.argmin(curve))]) for sel, curve in mean_ise.items()}
    notes = []
    for sel, curve in mean_ise.items():
        k = int(np.argmin(curve))
        ok = np.all(np.diff(curve[: k + 1]) <= 1e-12) and np.all(np.diff(curve[k:]) >= -1e-12)
        if not ok:
            msg = f"mean ISE vs c not quasi-convex for {sel}"
            notes.append(msg)
            warnings.warn(msg)
    return CalibrationResult(c_grid=c_grid, mean_ise=mean_ise, chosen=chosen,
                             warnings=tuple(notes))


def calibrated_config(cfg: ExperimentConfig, calib: CalibrationResult) -> ExperimentConfig:
    return replace(cfg, c_gl=calib.chosen["gl"], c_ms=calib.chosen["ms"])


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def write_raw_csv(records: Sequence[RepRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep_index", "selector", "m_selected", "ise", "sigma_y_hat"])
        for r in records:
            writer.writerow([r.rep_index, r.selector, r.m_selected,
                             _fmt(r.ise), _fmt(r.sigma_y_hat)])


def write_summary_csv(rows: Sequence[SummaryRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "target", "case", "n", "selector", "c_pen",
                         "reps", "mean_ise", "std_ise", "mean_m"])
        for r in rows:
            writer.writerow([r.model, r.target, r.case, r.n, r.selector,
                             _fmt(r.c_pen), r.reps, _fmt(r.mean_ise),
                             _fmt(r.std_ise), _fmt(r.mean_m)])


def write_bands_csv(bands: BandTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "truth", "median", "p05", "p95"])
        for i in range(bands.x.size):
            writer.writerow([_fmt(float(bands.x[i])), _fmt(float(bands.truth[i])),
                             _fmt(float(bands.median[i])), _fmt(float(bands.p05[i])),
                             _fmt(float(bands.p95[i]))])


def write_calibration_csv(calib: CalibrationResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["selector", "c", "mean_ise"])
        for sel, curve in calib.mean_ise.items():
            for c, v in zip(calib.c_grid, curve):
                writer.writerow([sel, _fmt(float(c)), _fmt(float(v))])
