"""Output checks of the benchmark: invariants, fingerprints, reference match.

Every operation's output is checked against invariants that hold for any
seed.  Its fingerprint (calibrated constants and calibration curves, a
digest of every selected dimension, mean/std ISE, band quantiles at every
grid point) is then
compared with the stored reference for the seed, or, for a seed without a
reference, with the fingerprint of the run's first round.  Calibrated
constants and digests must be identical; every other number must agree
within ``RTOL`` relative.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

RTOL = 1e-9
EXACT_KEYS = ("c_gl", "c_ms", "m_digest")


def _csv_lines(path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def _expect_lines(path, expected: int, problems: list) -> None:
    lines = _csv_lines(path)
    if lines != expected:
        problems.append(f"{path.name}: {lines} lines, expected {expected}")


def calibration_fingerprint(cfg, calib, problems: list, csv_path) -> dict:
    """Invariant: finite mean ISE at every grid constant, for GL and MS."""
    for sel in ("gl", "ms"):
        if not np.all(np.isfinite(calib.mean_ise[sel])):
            problems.append(f"non-finite calibration curve for {sel}")
    _expect_lines(csv_path, 2 * calib.c_grid.size + 1, problems)
    return {"c_gl": calib.chosen["gl"], "c_ms": calib.chosen["ms"],
            "mean_ise": {sel: calib.mean_ise[sel].tolist() for sel in ("gl", "ms")}}


def table_fingerprint(cfg, rows, records, problems: list, summary_path, raw_path) -> dict:
    """Invariants: 1 <= m <= M, finite ISE, oracle ISE <= every selector's ISE."""
    M = cfg.m_grid
    if len(records) != cfg.reps * len(cfg.selectors):
        problems.append(f"{len(records)} records for {cfg.reps} reps")
    oracle = {r.rep_index: r.ise for r in records if r.selector == "oracle"}
    digest = hashlib.sha256()
    for r in records:
        digest.update(f"{r.rep_index}:{r.selector}:{r.m_selected}\n".encode())
        if not 1 <= r.m_selected <= M:
            problems.append(f"rep {r.rep_index} {r.selector}: m={r.m_selected} outside 1..{M}")
        if not math.isfinite(r.ise):
            problems.append(f"rep {r.rep_index} {r.selector}: ISE {r.ise}")
        elif r.rep_index in oracle and r.ise < oracle[r.rep_index]:
            problems.append(f"rep {r.rep_index}: {r.selector} ISE below the oracle's")
    if [row.selector for row in rows] != list(cfg.selectors):
        problems.append("summary rows do not match the selectors")
    _expect_lines(summary_path, len(rows) + 1, problems)
    _expect_lines(raw_path, len(records) + 1, problems)
    return {"m_digest": digest.hexdigest(),
            "mean_ise": {row.selector: row.mean_ise for row in rows},
            "std_ise": {row.selector: row.std_ise for row in rows}}


def bands_fingerprint(cfg, bands, problems: list, csv_path) -> dict:
    """Invariants: finite values and p05 <= median <= p95 at every grid point."""
    quantiles = {"p05": bands.p05, "median": bands.median, "p95": bands.p95}
    for name, arr in quantiles.items():
        if arr.shape != (cfg.grid_size,) or not np.all(np.isfinite(arr)):
            problems.append(f"band {name}: shape {arr.shape} or non-finite values")
            return {}
    bad = int(np.sum((bands.p05 > bands.median) | (bands.median > bands.p95)))
    if bad:
        problems.append(f"p05 <= median <= p95 violated at {bad} grid points")
    _expect_lines(csv_path, cfg.grid_size + 1, problems)
    return {name: arr.tolist() for name, arr in quantiles.items()}


def compare(expected, actual, where: str = "") -> list[str]:
    """Mismatches of actual against expected, as readable lines."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{where}: keys differ"]
        out = []
        for key in expected:
            sub = f"{where}.{key}" if where else key
            if key in EXACT_KEYS:
                if expected[key] != actual[key]:
                    out.append(f"{sub}: {actual[key]!r} != {expected[key]!r}")
            else:
                out.extend(compare(expected[key], actual[key], sub))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{where}: lengths differ"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in compare(e, a, f"{where}[{i}]")]
    if not math.isclose(expected, actual, rel_tol=RTOL, abs_tol=0.0):
        return [f"{where}: {actual!r} vs {expected!r}"]
    return []
