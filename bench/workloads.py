"""Workload definitions and one timed round of a workload.

Every workload is a closed loop with one client: one process,
``workers=1``, and each stage call is issued after the previous one
returns.  A round produces one finished result: the calibrated risk table
CSVs of every config of a table workload, or the bands CSV of every config
of the bands workload.  A round is a list of operations; an operation is
one stage call (calibrate, simulate or bands) for one config, plus the
CSV writes that finish it.  A yardstick measurement (``yardstick.py``)
runs between consecutive operations.

Stage calls go through attribute lookups on ``adaseries.harness`` at call
time, so the tracer in ``tracing.py`` sees them when it is installed.
"""

from __future__ import annotations

import statistics
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from adaseries import harness

import checks
import yardstick

#: Work per round.  ``standard`` is what the benchmark measures; ``tiny``
#: keeps the self-test fast.  Bands need at least 20 replications.
SIZES = {
    "standard": dict(table_n=1000, table_m=None, reps=20, calib_reps=20,
                     bands_n=20000, bands_m=None, bands_reps=20),
    "tiny": dict(table_n=200, table_m=20, reps=3, calib_reps=3,
                 bands_n=500, bands_m=20, bands_reps=20),
}


def configs(workload: str, seed: int, scale: str) -> list[harness.ExperimentConfig]:
    """The configs of one round; the seed is the only run-to-run input."""
    s = SIZES[scale]
    if workload == "bands_large_n":
        return [harness.ExperimentConfig(model="density", target="f2", case=case,
                                         n=s["bands_n"], reps=s["bands_reps"],
                                         m_max=s["bands_m"], selectors=("gl",), seed=seed)
                for case in (1, 2, 3)]
    model = {"density_table": "density", "regression_table": "regression"}[workload]
    return [harness.ExperimentConfig(model=model, target=target, case=case,
                                     n=s["table_n"], reps=s["reps"], m_max=s["table_m"],
                                     seed=seed)
            for target in ("f1", "f2") for case in (1, 2, 3)]


def config_key(cfg: harness.ExperimentConfig) -> str:
    return f"{cfg.model}/{cfg.target}/case{cfg.case}"


@dataclass
class Op:
    """One stage call for one config and what its check found."""

    kind: str  # calibrate | simulate | bands
    cfg: harness.ExperimentConfig
    reps: int
    stage_s: float = 0.0  # the entry-point call alone
    total_s: float = 0.0  # entry point plus CSV writes
    yard_s: float = 0.0  # yardstick time around the operation
    fingerprint: Optional[dict] = None  # None when the call raised
    problems: list = field(default_factory=list)

    @property
    def key(self) -> str:
        return config_key(self.cfg)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Round:
    ops: list

    @property
    def wall_s(self) -> float:
        return sum(op.total_s for op in self.ops)

    def rate(self, kinds) -> float:
        """Replications per second of entry-point time in the given stages; 0 if none ran."""
        chosen = [op for op in self.ops if op.kind in kinds]
        return sum(op.reps for op in chosen) / sum(op.stage_s for op in chosen) if chosen else 0.0


def corrected(rounds: list) -> Round:
    """One round whose operation times are each operation's median over rounds
    of its time divided by the yardstick around it, in reference seconds
    (see ``yardstick.py``)."""
    def median(same, attr):
        return yardstick.REFERENCE_S * statistics.median(getattr(op, attr) / op.yard_s
                                                         for op in same)
    return Round([replace(same[0], stage_s=median(same, "stage_s"),
                          total_s=median(same, "total_s"))
                  for same in zip(*(rnd.ops for rnd in rounds))])


def _timed(op: Op, call: Callable, finish: Callable, yard: yardstick.Yardstick):
    """Run call() then finish(result); time both into op; record a raise."""
    t0 = perf_counter()
    try:
        result = call()
        t1 = perf_counter()
        finish(result)
    except Exception:  # a failing stage is counted, the run goes on
        op.total_s = perf_counter() - t0
        op.stage_s = op.total_s
        op.problems.append("raised:\n" + traceback.format_exc())
        result = None
    else:
        op.stage_s = t1 - t0
        op.total_s = perf_counter() - t0
    op.yard_s = yard.around()
    return result


def _table_ops(cfg, calib_reps: int, out: Path, yard) -> list[Op]:
    stem = out / config_key(cfg).replace("/", "_")
    calib_op = Op("calibrate", cfg, calib_reps)
    sim_op = Op("simulate", cfg, cfg.reps)
    paths = {name: Path(f"{stem}_{name}.csv") for name in ("calibration", "summary", "raw")}

    calib = _timed(calib_op,
                   lambda: harness.calibrate_constant(cfg, calib_reps=calib_reps),
                   lambda c: harness.write_calibration_csv(c, paths["calibration"]), yard)
    if calib is None:
        sim_op.problems.append("not run: calibration failed")
        sim_op.yard_s = calib_op.yard_s
        return [calib_op, sim_op]
    calib_op.fingerprint = checks.calibration_fingerprint(cfg, calib, calib_op.problems,
                                                          paths["calibration"])

    def finish(result):
        rows, records = result
        harness.write_summary_csv(rows, paths["summary"])
        harness.write_raw_csv(records, paths["raw"])

    result = _timed(sim_op,
                    lambda: harness.run_experiment(harness.calibrated_config(cfg, calib)),
                    finish, yard)
    if result is not None:
        sim_op.fingerprint = checks.table_fingerprint(cfg, *result, sim_op.problems,
                                                      paths["summary"], paths["raw"])
    return [calib_op, sim_op]


def _bands_op(cfg, out: Path, yard) -> Op:
    op = Op("bands", cfg, cfg.reps)
    path = out / (config_key(cfg).replace("/", "_") + "_bands.csv")
    bands = _timed(op, lambda: harness.compute_bands(cfg),
                   lambda b: harness.write_bands_csv(b, path), yard)
    if bands is not None:
        op.fingerprint = checks.bands_fingerprint(cfg, bands, op.problems, path)
    return op


def run_round(workload: str, cfgs, scale: str, out: Path) -> Round:
    """One finished result of the workload; outputs are checked per operation."""
    yard = yardstick.Yardstick()
    if workload == "bands_large_n":
        return Round([_bands_op(cfg, out, yard) for cfg in cfgs])
    calib_reps = SIZES[scale]["calib_reps"]
    ops = []
    for cfg in cfgs:
        ops.extend(_table_ops(cfg, calib_reps, out, yard))
    return Round(ops)


def fingerprints(rnd: Round) -> dict:
    """{config key: {stage kind: fingerprint}} of a round's operations."""
    out: dict = {}
    for op in rnd.ops:
        out.setdefault(op.key, {})[op.kind] = op.fingerprint
    return out
