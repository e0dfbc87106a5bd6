"""Command-line front end: simulate | bands | calibrate | study | risk | check.

simulate, bands and calibrate run one experiment config, and each takes
only the options it reads (bands selects by gl alone,
harness.compute_bands; calibrate grid-searches the one constant of gl
and ms on --calib-reps replications, harness.calibrate_constant); study
runs the paper's risk tables (harness.table_study: every config
calibrated, then run) and, with --bands, reads the GL percentile bands
of each calibrated config from its evaluation run
(harness.bands_from_run); risk prints the exact
expected risk curve of one config (the cases whose dependence.CASES
entry has lags); check runs the theory-check suite.  --case takes the
keys of the case registry, dependence.CASES, and study prints a table's
header before its first case.
Each option is declared once, as a flag in the argument group named after
its INI section: experiment, penalty, calibration or check.  A config file
(--config) sets options under those sections, keyed by the flag's dest
(c_gl for --c-pen, the one constant of gl and ms); the values of the
subcommand's own options become its defaults, so argparse converts them
and flags override them.  One
file serves every command: keys of options another command takes are
accepted and ignored, and [experiment] seed also seeds check.
simulate, bands, calibrate and study write a metadata.json with the
fully resolved settings they ran, so raw CSVs can be reproduced byte for
byte: the penalty constant c_gl only when gl or ms ran, and calibrate
only the experiment settings it takes;
check writes only its report, and risk writes nothing.  --bands chooses
outputs, so it is a flag beside --out and not an INI key.  The output
directory is created only once a command's results are computed, so a
run the library rejects leaves no directory behind; an --out that
cannot be a directory is refused before any work.  The library's notes
(warnings.warn) go to stderr as one "warning: <note>" line each.

Exit codes: 0 success, 1 check failure, 2 usage/configuration error.  The
last covers bad flags, unknown INI sections or keys, malformed INI files,
an --out that is or lies under a file, and any setting the library
rejects before work (harness.ConfigError, or the ValueError of
risk.risk_decomposition).
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import warnings
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

from . import __version__
from . import checks as checks_mod
from .dependence import CASES
from .harness import (PENALIZED, SELECTORS, ConfigError, ExperimentConfig, bands_from_run,
                      calibrate_constant, compute_bands, require_band_reps, run_experiment,
                      table_study, write_bands_csv, write_calibration_csv, write_csv,
                      write_raw_csv, write_summary_csv)
from .risk import risk_decomposition

_EXACT_RISK_CASES = " and ".join(str(key) for key, entry in CASES.items()
                                if entry.lags is not None)
_COMMANDS = {
    "simulate": "run replications, write raw + summary CSV",
    "bands": "write pointwise percentile bands CSV",
    "calibrate": "grid-search penalty constants",
    "study": "calibrate and run every config of the risk tables, write tables (and bands) CSV",
    "risk": f"print the exact expected risk curve (cases {_EXACT_RISK_CASES})",
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
    and record each option's dest as a key of that section.

    Each option names the commands that take it: each command takes only
    what it reads.  simulate, bands and calibrate run one config.  gl and
    ms are one rule, so --c-pen is the constant of both.  bands selects
    by gl alone, so it takes no --selectors; calibrate grid-searches the
    constant on its own --calib-reps replications of gl and ms, so it
    takes none of --reps, --selectors and --c-pen.  study and risk take
    what their library call reads, with the defaults of the paper's
    tables (study) and of the exact risk curve (risk).
    """
    groups = {section: p.add_argument_group(section) for section in _SECTIONS}
    one = ("simulate", "bands", "calibrate")  # the commands that run one config
    study, risk = command == "study", command == "risk"

    def option(section, takers, *flags, **kwargs):
        if command in takers:
            keys[section].add(groups[section].add_argument(*flags, **kwargs).dest)

    p.add_argument("--config", help="INI config file; flags override file values")
    if not risk:
        p.add_argument("--out", default=None if command == "check" else "out",
                       help="output directory (default ./out; check writes a report only if given)")
    if study:
        p.add_argument("--bands", action="store_true",
                       help="also write each config's GL percentile bands, "
                            "bands_{model}_{target}_case{case}.csv")
    option("experiment", (*one, "study", "check"), "--seed", type=int, default=0 if study else None)
    option("check", ("check",), "--pens", type=_float_list,
           help="comma list: audit a custom penalty sequence")
    option("experiment", (*one, "study", "risk"), "--model", choices=("density", "regression"),
           default="density" if risk else None, help="default: both models" if study else None)
    option("experiment", (*one, "risk"), "--target", default="f1" if risk else None,
           help="f1 | f2 (| uniform for densities)")
    option("experiment", (*one, "risk"), "--case", type=int, choices=tuple(CASES),
           default=1 if risk else None)
    option("experiment", (*one, "study", "risk"), "--n", type=int,
           default=None if command in one else 1000)
    option("experiment", ("simulate", "bands", "study"), "--reps", type=int,
           default={"bands": 100, "study": 501}.get(command))
    option("experiment", ("simulate",), "--selectors", type=_name_list,
           help="comma list from oracle,gl,ms,cv")
    option("experiment", (*one, "risk"), "--m-max", type=int, default=200 if risk else None)
    option("experiment", one, "--grid-size", type=int)
    option("experiment", (*one, "study"), "--workers", type=int, default=1 if study else None)
    option("penalty", ("simulate", "bands"), "--c-pen", dest="c_gl", type=float,
           help="penalty constant of gl and ms (default: theorem preset)")
    option("calibration", ("calibrate",), "--c-grid", type=_float_list,
           help="comma list of candidate constants")
    option("calibration", ("calibrate", "study"), "--calib-reps", type=int, default=100)


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
              if getattr(args, f.name, None) is not None}
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in kwargs:
            raise ConfigError(f"missing required option --{f.name}")
    return ExperimentConfig(**kwargs)


def _resolved(cfg: ExperimentConfig) -> dict:
    """cfg's fields, with the defaults it resolves (M, the constant) filled in.

    The penalty constant c_gl is recorded only when a penalized selector,
    gl or ms, is among cfg.selectors.
    """
    resolved = {**asdict(cfg), "m_max": cfg.m_grid, "c_gl": cfg.gl_constant,
                "selectors": list(cfg.selectors)}
    if not set(PENALIZED) & set(cfg.selectors):
        del resolved["c_gl"]
    return resolved


def _write_metadata(out_dir: Path, command: str, **payload) -> None:
    meta = {"command": command, "version": __version__, **payload}
    (out_dir / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    rows, results = run_experiment(cfg, progress=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_raw_csv(results, out_dir / "raw.csv")
    write_summary_csv(rows, out_dir / "summary.csv")
    _write_metadata(out_dir, "simulate", experiment=_resolved(cfg))
    for row in rows:
        print(f"{row.selector:>6}: mean ISE {row.mean_ise:.6f} "
              f"(std {row.std_ise:.6f}), mean m {row.mean_m:.2f}")
    for sel, picks in zip(cfg.selectors, results.m_selected.tolist()):
        # at M = 1 every pick is both ends, whatever the constant
        if (sel in PENALIZED and cfg.m_grid > 1 and len(set(picks)) == 1
                and picks[0] in (1, cfg.m_grid)):
            print(f"warning: {sel} chose m = {picks[0]}, an end of the grid 1..{cfg.m_grid}, "
                  f"in every replication at c = {cfg.gl_constant:.10g}; choose c with "
                  f"`adaseries calibrate` or set --c-pen", file=sys.stderr)
    return 0


def _cmd_bands(cfg: ExperimentConfig, out_dir: Path) -> int:
    cfg = replace(cfg, selectors=("gl",))  # the one selector bands run
    bands = compute_bands(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bands_csv(bands, out_dir / "bands.csv")
    _write_metadata(out_dir, "bands", experiment=_resolved(cfg))
    print(f"bands written; truth inside [5%, 95%] on {100 * bands.coverage:.1f}% of grid points")
    return 0


def _cmd_calibrate(cfg: ExperimentConfig, args: argparse.Namespace, out_dir: Path) -> int:
    calib = calibrate_constant(cfg, args.c_grid, args.calib_reps)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_calibration_csv(calib, out_dir / "calibration.csv")
    # the experiment settings it takes, the ones calibrate_constant reads
    experiment = {key: value for key, value in _resolved(cfg).items() if key in vars(args)}
    _write_metadata(out_dir, "calibrate", experiment=experiment,
                    calibrated=calib.chosen, calib_reps=args.calib_reps,
                    c_grid=[float(c) for c in calib.c_grid], warnings=list(calib.warnings))
    for sel, c in calib.chosen.items():  # as the CSVs write it, so it can be passed back
        print(f"{sel}: calibrated c = {c:.10g}")
    return 0


def _cmd_study(args: argparse.Namespace, out_dir: Path) -> int:
    settings = {"n": args.n, "reps": args.reps, "calib_reps": args.calib_reps,
                "seed": args.seed, "workers": args.workers,
                "models": [args.model] if args.model else ["density", "regression"]}
    if args.bands:
        require_band_reps(args.reps)  # refused before calibration
    study = table_study(**settings)  # the outputs are computed before anything is printed
    bands = [bands_from_run(cfg, results) for cfg, _, results in study] if args.bands else []
    for cfg, rows, _ in study:
        if cfg.case == min(CASES):
            print(f"\n=== {cfg.model} {cfg.target} (n={cfg.n}, reps={cfg.reps}) ===")
            print(f"{'':8s} " + " ".join(f"{s:>18s}" for s in SELECTORS))
        by_sel = {r.selector: r for r in rows}
        cells = [f"{by_sel[s].mean_ise:.4f} ({by_sel[s].std_ise:.4f})" for s in SELECTORS]
        print(f"Case {cfg.case:d}   " + " ".join(f"{c:>18s}" for c in cells))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv([row for _, rows, _ in study for row in rows], out_dir / "tables.csv")
    _write_metadata(out_dir, "study", **settings,
                    experiments=[_resolved(cfg) for cfg, _, _ in study])
    print(f"\nwrote {out_dir / 'tables.csv'}")
    for (cfg, _, _), table in zip(study, bands):
        path = out_dir / f"bands_{cfg.model}_{cfg.target}_case{cfg.case}.csv"
        write_bands_csv(table, path)
        print(f"case {cfg.case}: wrote {path} "
              f"(truth inside band on {100 * table.coverage:.1f}% of grid)")
    return 0


def _cmd_risk(args: argparse.Namespace) -> int:
    try:
        variance, bias_sq = risk_decomposition(args.model, args.target, args.case, args.n,
                                               args.m_max)
    except ValueError as exc:  # a setting the library rejects before work: exit 2
        raise ConfigError(str(exc)) from None
    risk = variance + bias_sq
    m_star = int(risk.argmin()) + 1
    print(f"{args.model} {args.target}, case {args.case}, n = {args.n}: "
          f"min_m E ISE(m) = {risk[m_star - 1]:.5f} at m = {m_star}")
    print(f"{'m':>5s} {'E ISE':>10s} {'variance':>10s} {'bias^2':>10s}")
    for m in sorted({1, 2, 3, 5, 8, 12, m_star, 17, 25, 40, 60, 100, args.m_max}):
        if m <= args.m_max:
            print(f"{m:5d} {risk[m - 1]:10.5f} {variance[m - 1]:10.5f} {bias_sq[m - 1]:10.5f}")
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


def _check_out(out: str | None) -> None:
    """Refuse an --out that mkdir could not make: a file, or a path under one."""
    if out:
        nearest = next(p for p in (Path(out), *Path(out).parents)
                       if p.exists() or p.is_symlink())
        if not nearest.is_dir():
            raise ConfigError(f"--out {out}: {nearest} is not a directory")


def _show_note(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser, commands, keys = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            values = _read_config(args.config, keys).items()  # args holds its own options
            commands[args.command].set_defaults(**{k: v for k, v in values if k in vars(args)})
            args = parser.parse_args(argv)
        if args.command == "risk":
            return _cmd_risk(args)
        _check_out(args.out)
        with warnings.catch_warnings():  # the library's notes, one line each
            warnings.showwarning = _show_note
            if args.command == "check":  # check takes seed from [experiment]
                return _cmd_check(args)
            out_dir = Path(args.out)  # made once the command's results are in
            if args.command == "study":
                return _cmd_study(args, out_dir)
            cfg = _experiment_config(args)
            if args.command == "simulate":
                return _cmd_simulate(cfg, out_dir)
            if args.command == "bands":
                return _cmd_bands(cfg, out_dir)
            return _cmd_calibrate(cfg, args, out_dir)
    except ConfigError as exc:  # reported with the subcommand's usage line
        commands[args.command].error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
