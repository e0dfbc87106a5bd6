#!/usr/bin/env python3
"""Reproduce the simulation risk tables (mean and std of ISE, 501 replications).

Calibrates the penalty constants for each configuration on a disjoint
seed stream, then runs the evaluation replications and prints one block
per (model, target) with rows for the three dependence cases, mirroring
the layout of the published tables.

Usage:
    python scripts/reproduce_tables.py --out out/tables [--reps 501]
        [--calib-reps 100] [--model density] [--workers 2]
"""

import argparse
from pathlib import Path

from adaseries.harness import (ExperimentConfig, calibrate_constant,
                               calibrated_config, run_experiment, write_summary_csv)


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

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    models = (args.model,) if args.model else ("density", "regression")

    all_rows = []
    for model in models:
        for target in ("f1", "f2"):
            print(f"\n=== {model} {target} (n={args.n}, reps={args.reps}) ===")
            header = f"{'':8s} {'oracle':>18s} {'gl':>18s} {'ms':>18s} {'cv':>18s}"
            print(header)
            for case in (1, 2, 3):
                cfg = ExperimentConfig(model=model, target=target, case=case,
                                       n=args.n, reps=args.reps, seed=args.seed,
                                       workers=args.workers)
                calib = calibrate_constant(cfg, calib_reps=args.calib_reps)
                rows, _ = run_experiment(calibrated_config(cfg, calib))
                by_sel = {r.selector: r for r in rows}
                cells = [f"{by_sel[s].mean_ise:.4f} ({by_sel[s].std_ise:.4f})"
                         for s in ("oracle", "gl", "ms", "cv")]
                print(f"Case {case:d}   " + " ".join(f"{c:>18s}" for c in cells))
                all_rows.extend(rows)

    write_summary_csv(all_rows, out_dir / "tables.csv")
    print(f"\nwrote {out_dir / 'tables.csv'}")


if __name__ == "__main__":
    main()
