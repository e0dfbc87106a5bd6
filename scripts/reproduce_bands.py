#!/usr/bin/env python3
"""Reproduce the pointwise percentile-band figures' data.

For each requested (model, target) and each dependence case, runs the
penalized-contrast estimator over replications and writes a bands CSV
(x, truth, median, p05, p95) that external plotting tools can render.

Usage:
    python scripts/reproduce_bands.py --out out/bands --model density --target f1
        [--reps 501] [--c-pen 4.0]
"""

import argparse
from pathlib import Path

from adaseries.harness import (ConfigError, ExperimentConfig, calibrate_constant,
                               calibrated_config, compute_bands, write_bands_csv)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/bands")
    ap.add_argument("--model", choices=("density", "regression"), default="density")
    ap.add_argument("--target", default="f1")
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=501)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--c-pen", type=float, default=None,
                    help="penalty constant; calibrated per case when omitted")
    ap.add_argument("--calib-reps", type=int, default=100)
    args = ap.parse_args()

    try:
        cfgs = [ExperimentConfig(model=args.model, target=args.target, case=case, n=args.n,
                                 reps=args.reps, seed=args.seed, c_gl=args.c_pen)
                for case in (1, 2, 3)]
        if args.c_pen is None:
            cfgs = [calibrated_config(cfg, calibrate_constant(cfg, calib_reps=args.calib_reps))
                    for cfg in cfgs]
        all_bands = [compute_bands(cfg) for cfg in cfgs]
    except ConfigError as exc:
        ap.error(str(exc))

    out_dir = Path(args.out)  # made once the bands are computed
    out_dir.mkdir(parents=True, exist_ok=True)
    for case, bands in zip((1, 2, 3), all_bands):
        path = out_dir / f"bands_{args.model}_{args.target}_case{case}.csv"
        write_bands_csv(bands, path)
        print(f"case {case}: wrote {path} "
              f"(truth inside band on {100 * bands.coverage:.1f}% of grid)")


if __name__ == "__main__":
    main()
