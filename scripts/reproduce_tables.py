#!/usr/bin/env python3
"""Reproduce the simulation risk tables (mean and std of ISE, 501 replications).

Runs harness.table_study, which calibrates the penalty constants for
each configuration on a disjoint seed stream and then runs the
evaluation replications, and prints one block per (model, target) with
rows for the three dependence cases, mirroring the layout of the
published tables.  The acceptance gate checks the same call.

Usage:
    python scripts/reproduce_tables.py --out out/tables [--reps 501]
        [--calib-reps 100] [--model density] [--workers 2]
"""

import argparse
from pathlib import Path

from adaseries.harness import ConfigError, table_study, write_summary_csv


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/tables")
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=501)
    ap.add_argument("--calib-reps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--model", choices=("density", "regression"),
                    help="restrict to one model (default: both)")
    args = ap.parse_args()

    models = (args.model,) if args.model else ("density", "regression")
    try:  # the tables are computed before anything is printed
        study = table_study(args.n, args.reps, args.calib_reps, args.seed, args.workers, models)
    except ConfigError as exc:
        ap.error(str(exc))

    for cfg, rows, _ in study:
        if cfg.case == 1:
            print(f"\n=== {cfg.model} {cfg.target} (n={cfg.n}, reps={cfg.reps}) ===")
            print(f"{'':8s} {'oracle':>18s} {'gl':>18s} {'ms':>18s} {'cv':>18s}")
        by_sel = {r.selector: r for r in rows}
        cells = [f"{by_sel[s].mean_ise:.4f} ({by_sel[s].std_ise:.4f})"
                 for s in ("oracle", "gl", "ms", "cv")]
        print(f"Case {cfg.case:d}   " + " ".join(f"{c:>18s}" for c in cells))

    out_dir = Path(args.out)  # made once the tables are computed
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv([row for _, rows, _ in study for row in rows], out_dir / "tables.csv")
    print(f"\nwrote {out_dir / 'tables.csv'}")


if __name__ == "__main__":
    main()
