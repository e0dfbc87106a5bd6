"""Command-line front end: simulate | bands | calibrate | check.

Each option is declared once, as a flag in the argument group named after
its INI section: experiment, penalty, calibration or check.  A config file
(--config) sets options under those sections, keyed by the flag's dest
(c_gl for --c-pen); its values become the subcommand's defaults, so
argparse converts them and flags override them.  One file serves every
command: keys of options another command takes are accepted and ignored,
and [experiment] seed also seeds check.  Every run writes a metadata file
with the fully resolved configuration so raw CSVs can be reproduced byte
for byte.  The output directory is created only once a command's results
are computed, so a run the library rejects leaves no directory behind.

Exit codes: 0 success, 1 check failure, 2 usage/configuration error.  The
last covers bad flags, unknown INI sections or keys, malformed INI files
and any setting the library rejects before work (harness.ConfigError).
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

from . import __version__
from . import checks as checks_mod
from .harness import (ConfigError, ExperimentConfig, calibrate_constant, compute_bands,
                      run_experiment, write_bands_csv, write_calibration_csv, write_csv,
                      write_raw_csv, write_summary_csv)

_COMMANDS = {
    "simulate": "run replications, write raw + summary CSV",
    "bands": "write pointwise percentile bands CSV",
    "calibrate": "grid-search penalty constants",
    "check": "run the theory-check suite",
}
_SECTIONS = ("experiment", "penalty", "calibration", "check")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")
    return values


def _name_list(text: str) -> tuple:
    # a list that parses to nothing is rejected by the config
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _add_options(p: argparse.ArgumentParser, command: str, keys: dict) -> None:
    """Declare command's options on p, each in the group of its INI section,
    and record each option's dest as a key of that section."""
    groups = {section: p.add_argument_group(section) for section in _SECTIONS}

    def option(section, *flags, **kwargs):
        keys[section].add(groups[section].add_argument(*flags, **kwargs).dest)

    p.add_argument("--config", help="INI config file; flags override file values")
    p.add_argument("--out", default=None if command == "check" else "out",
                   help="output directory (default ./out; check writes a report only if given)")
    option("experiment", "--seed", type=int)
    if command == "check":
        option("check", "--pens", type=_float_list,
               help="comma list: audit a custom penalty sequence")
        return
    option("experiment", "--model", choices=("density", "regression"))
    option("experiment", "--target", help="f1 | f2 (| uniform for densities)")
    option("experiment", "--case", type=int, choices=(1, 2, 3))
    option("experiment", "--n", type=int)
    option("experiment", "--reps", type=int, default=None if command == "simulate" else 100)
    option("experiment", "--selectors", type=_name_list, help="comma list from oracle,gl,ms,cv")
    option("experiment", "--m-max", type=int)
    option("experiment", "--grid-size", type=int)
    option("experiment", "--workers", type=int)
    option("penalty", "--c-pen", dest="c_gl", type=float,
           help="penalized-contrast constant (default: theorem preset)")
    option("penalty", "--c-pen-ms", dest="c_ms", type=float,
           help="model-selection constant (default: same as --c-pen)")
    if command == "calibrate":
        option("calibration", "--c-grid", type=_float_list,
               help="comma list of candidate constants")
        option("calibration", "--calib-reps", type=int, default=100)


def _build_parser() -> tuple[argparse.ArgumentParser, dict, dict]:
    """The parser, its subcommand parsers by name, and each INI section's keys."""
    parser = argparse.ArgumentParser(
        prog="adaseries",
        description="Adaptive orthogonal-series estimation: simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    commands, keys = {}, {section: set() for section in _SECTIONS}
    for name, help_text in _COMMANDS.items():
        commands[name] = sub.add_parser(name, help=help_text)
        _add_options(commands[name], name, keys)
    return parser, commands, keys


def _read_config(path: str, keys: dict) -> dict:
    """The file's values by key, each key checked against its section's options."""
    ini = configparser.ConfigParser(interpolation=None)
    try:
        found = ini.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not found:
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for section in ini.sections():
        if section not in keys:
            raise ConfigError(f"unknown section [{section}] in {path}; expected one of "
                              + ", ".join(f"[{name}]" for name in _SECTIONS))
        for key, value in ini.items(section):
            if key not in keys[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            values[key] = value
    return values


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
              if getattr(args, f.name) is not None}
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in kwargs:
            raise ConfigError(f"missing required option --{f.name}")
    return ExperimentConfig(**kwargs)


def _write_metadata(out_dir: Path, cfg: ExperimentConfig, command: str,
                    extra: dict | None = None) -> None:
    resolved = asdict(cfg)
    resolved["m_max"] = cfg.m_grid
    resolved["c_gl"] = cfg.gl_constant
    resolved["c_ms"] = cfg.ms_constant
    resolved["selectors"] = list(cfg.selectors)
    payload = {"command": command, "version": __version__, "experiment": resolved}
    if extra:
        payload.update(extra)
    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    rows, records = run_experiment(cfg, progress=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_raw_csv(records, out_dir / "raw.csv")
    write_summary_csv(rows, out_dir / "summary.csv")
    _write_metadata(out_dir, cfg, "simulate")
    for row in rows:
        print(f"{row.selector:>6}: mean ISE {row.mean_ise:.6f} "
              f"(std {row.std_ise:.6f}), mean m {row.mean_m:.2f}")
    return 0


def _cmd_bands(cfg: ExperimentConfig, out_dir: Path) -> int:
    bands = compute_bands(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bands_csv(bands, out_dir / "bands.csv")
    _write_metadata(out_dir, cfg, "bands")
    print(f"bands written; truth inside [5%, 95%] on {100 * bands.coverage:.1f}% of grid points")
    return 0


def _cmd_calibrate(cfg: ExperimentConfig, args: argparse.Namespace, out_dir: Path) -> int:
    calib = calibrate_constant(cfg, args.c_grid, args.calib_reps)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_calibration_csv(calib, out_dir / "calibration.csv")
    _write_metadata(out_dir, cfg, "calibrate",
                    extra={"calibrated": calib.chosen, "calib_reps": args.calib_reps,
                           "c_grid": [float(c) for c in calib.c_grid],
                           "warnings": list(calib.warnings)})
    for sel, c in calib.chosen.items():
        print(f"{sel}: calibrated c = {c:g}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = checks_mod.run_all_checks(**{dest: getattr(args, dest) for dest in ("seed", "pens")
                                           if getattr(args, dest) is not None})
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "check_report.csv", ["check", "passed", "detail"],
                  ([r.name, int(r.passed), r.detail] for r in results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser, commands, keys = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            commands[args.command].set_defaults(**_read_config(args.config, keys))
            args = parser.parse_args(argv)
        if args.command == "check":  # check takes seed from [experiment]
            return _cmd_check(args)
        cfg = _experiment_config(args)
        out_dir = Path(args.out)  # made once the command's results are in
        if args.command == "simulate":
            return _cmd_simulate(cfg, out_dir)
        if args.command == "bands":
            return _cmd_bands(cfg, out_dir)
        return _cmd_calibrate(cfg, args, out_dir)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
