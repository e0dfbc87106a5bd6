"""Command-line front end: simulate | bands | calibrate | check.

Options can come from a config file (INI sections mirroring the
experiment config) and are overridden by command-line flags.  Every run
writes a metadata file with the fully resolved configuration so raw CSVs
can be reproduced byte for byte.

Exit codes: 0 success, 1 check failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from dataclasses import asdict
from importlib import metadata as importlib_metadata
from pathlib import Path

from . import __version__
from . import checks as checks_mod
from .harness import (MIN_BAND_REPS, ExperimentConfig, calibrate_constant,
                      calibration_grid, compute_bands, run_experiment, write_bands_csv,
                      write_calibration_csv, write_raw_csv, write_summary_csv)

_EXPERIMENT_KEYS = {
    "model": str, "target": str, "case": int, "n": int, "reps": int,
    "seed": int, "m_max": int, "grid_size": int, "workers": int,
    "selectors": str,
}
_PENALTY_KEYS = {"c_gl": float, "c_ms": float}
_CALIBRATION_KEYS = {"c_grid": str, "calib_reps": int}
_CHECK_KEYS = {"ks_draws": int, "case3_draws": int, "lemma_reps": int,
               "fuzz_cases": int, "variance_reps": int, "pens": str}


def _package_version() -> str:
    try:
        return importlib_metadata.version("adaseries")
    except importlib_metadata.PackageNotFoundError:  # run from a source checkout
        return __version__


def _parse_float_list(text: str, flag: str, parser: argparse.ArgumentParser) -> list[float]:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values:
        parser.error(f"--{flag}: expected a comma list of numbers, got {text!r}")
    return values


def _read_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"config file not found: {path}")
    out: dict = {}
    section_keys = {"experiment": _EXPERIMENT_KEYS, "penalty": _PENALTY_KEYS,
                    "calibration": _CALIBRATION_KEYS, "check": _CHECK_KEYS}
    for section, keys in section_keys.items():
        if not parser.has_section(section):
            continue
        for key, value in parser.items(section):
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            out[key] = keys[key](value)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaseries",
        description="Adaptive orthogonal-series estimation: simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file; flags override file values")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--model", choices=("density", "regression"))
        p.add_argument("--target", help="f1 | f2 (| uniform for densities)")
        p.add_argument("--case", type=int, choices=(1, 2, 3))
        p.add_argument("--n", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--selectors", help="comma list from oracle,gl,ms,cv")
        p.add_argument("--m-max", dest="m_max", type=int)
        p.add_argument("--grid-size", dest="grid_size", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--c-pen", dest="c_gl", type=float,
                       help="penalized-contrast constant (default: theorem preset)")
        p.add_argument("--c-pen-ms", dest="c_ms", type=float,
                       help="model-selection constant (default: same as --c-pen)")

    add_common(sub.add_parser("simulate", help="run replications, write raw + summary CSV"))
    add_common(sub.add_parser("bands", help="write pointwise percentile bands CSV"))
    cal = sub.add_parser("calibrate", help="grid-search penalty constants")
    add_common(cal)
    cal.add_argument("--c-grid", dest="c_grid", help="comma list of candidate constants")
    cal.add_argument("--calib-reps", dest="calib_reps", type=int)
    chk = sub.add_parser("check", help="run the theory-check suite")
    chk.add_argument("--config", help="INI config file")
    chk.add_argument("--out", help="optional output directory for the report")
    chk.add_argument("--seed", type=int)
    chk.add_argument("--ks-draws", dest="ks_draws", type=int)
    chk.add_argument("--case3-draws", dest="case3_draws", type=int)
    chk.add_argument("--lemma-reps", dest="lemma_reps", type=int)
    chk.add_argument("--fuzz-cases", dest="fuzz_cases", type=int)
    chk.add_argument("--variance-reps", dest="variance_reps", type=int)
    chk.add_argument("--pens", help="comma list: audit a custom penalty sequence")
    return parser


def _merge(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """File values first, then flag overrides (flags win)."""
    merged: dict = {}
    if getattr(args, "config", None):
        try:
            merged.update(_read_config_file(args.config))
        except ValueError as exc:
            parser.error(str(exc))
    for key, value in vars(args).items():
        if key in ("command", "config", "out") or value is None:
            continue
        merged[key] = value
    return merged


def _experiment_config(merged: dict, parser: argparse.ArgumentParser,
                       default_reps: int | None = None) -> ExperimentConfig:
    for required in ("model", "target", "case", "n"):
        if required not in merged:
            parser.error(f"missing required option --{required}")
    kwargs = dict(model=merged["model"], target=merged["target"], case=merged["case"],
                  n=merged["n"])
    if "reps" in merged:
        kwargs["reps"] = merged["reps"]
    elif default_reps is not None:
        kwargs["reps"] = default_reps
    if "selectors" in merged:  # a list that parses to nothing is rejected by the config
        kwargs["selectors"] = tuple(tok.strip() for tok in merged["selectors"].split(",")
                                    if tok.strip())
    for key in ("m_max", "seed", "grid_size", "workers", "c_gl", "c_ms"):
        if key in merged:
            kwargs[key] = merged[key]
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _write_metadata(out_dir: Path, cfg: ExperimentConfig | None, command: str,
                    extra: dict | None = None) -> None:
    payload = {"command": command, "version": _package_version()}
    if cfg is not None:
        resolved = asdict(cfg)
        resolved["m_max"] = cfg.m_grid
        resolved["c_gl"] = cfg.gl_constant
        resolved["c_ms"] = cfg.ms_constant
        resolved["selectors"] = list(cfg.selectors)
        payload["experiment"] = resolved
    if extra:
        payload.update(extra)
    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(merged: dict, out_dir: Path, parser) -> int:
    cfg = _experiment_config(merged, parser)
    if "ms" in cfg.selectors and cfg.ms_constant <= 0.0:
        parser.error("selector ms needs a positive constant: set --c-pen-ms")
    rows, records = run_experiment(cfg, progress=True)
    write_raw_csv(records, out_dir / "raw.csv")
    write_summary_csv(rows, out_dir / "summary.csv")
    _write_metadata(out_dir, cfg, "simulate")
    for row in rows:
        print(f"{row.selector:>6}: mean ISE {row.mean_ise:.6f} "
              f"(std {row.std_ise:.6f}), mean m {row.mean_m:.2f}")
    return 0


def _cmd_bands(merged: dict, out_dir: Path, parser) -> int:
    cfg = _experiment_config(merged, parser, default_reps=100)
    if cfg.reps < MIN_BAND_REPS:
        parser.error(f"bands need --reps >= {MIN_BAND_REPS}")
    bands = compute_bands(cfg)
    write_bands_csv(bands, out_dir / "bands.csv")
    _write_metadata(out_dir, cfg, "bands")
    inside = float(((bands.p05 <= bands.truth) & (bands.truth <= bands.p95)).mean())
    print(f"bands written; truth inside [5%, 95%] on {100 * inside:.1f}% of grid points")
    return 0


def _cmd_calibrate(merged: dict, out_dir: Path, parser) -> int:
    cfg = _experiment_config(merged, parser, default_reps=100)
    c_grid = merged.get("c_grid")
    if isinstance(c_grid, str):
        c_grid = _parse_float_list(c_grid, "c-grid", parser)
    calib_reps = merged.get("calib_reps", 100)
    try:
        c_grid = calibration_grid(c_grid, calib_reps)
    except ValueError as exc:
        parser.error(str(exc))
    calib = calibrate_constant(cfg, c_grid, calib_reps)
    write_calibration_csv(calib, out_dir / "calibration.csv")
    _write_metadata(out_dir, cfg, "calibrate",
                    extra={"calibrated": calib.chosen, "calib_reps": calib_reps,
                           "c_grid": [float(c) for c in calib.c_grid],
                           "warnings": list(calib.warnings)})
    for sel, c in calib.chosen.items():
        print(f"{sel}: calibrated c = {c:g}")
    return 0


def _cmd_check(args: argparse.Namespace, parser) -> int:
    merged = _merge(args, parser)
    kwargs = {}
    for key in ("seed", "ks_draws", "case3_draws", "lemma_reps", "fuzz_cases",
                "variance_reps"):
        if key in merged:
            kwargs[key] = merged[key]
    try:
        checks_mod.validate_settings(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))
    pens = merged.get("pens")
    if isinstance(pens, str):
        pens = _parse_float_list(pens, "pens", parser)
    results = checks_mod.run_all_checks(pens=pens, **kwargs)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "check_report.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "passed", "detail"])
            writer.writerows([r.name, int(r.passed), r.detail] for r in results)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return _cmd_check(args, parser)
    merged = _merge(args, parser)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.command == "simulate":
        return _cmd_simulate(merged, out_dir, parser)
    if args.command == "bands":
        return _cmd_bands(merged, out_dir, parser)
    return _cmd_calibrate(merged, out_dir, parser)


if __name__ == "__main__":
    sys.exit(main())
