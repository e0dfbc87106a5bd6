#!/usr/bin/env python3
"""Exact expected-risk curve of the series estimator (cases 1 and 2).

Prints E ISE(m) = sum_j Var(theta_hat_j) + bias^2(m) from
adaseries.risk.risk_decomposition, its minimizer, and the variance /
bias^2 split at selected dimensions.  Useful for judging what oracle risk is achievable
at a given sample size before running Monte Carlo, and for checking
simulated oracle means, which lie at or below the curve minimum up to
Monte Carlo error since E min_m ISE(m) <= min_m E ISE(m).

Usage:
    python scripts/risk_decomposition.py --model regression --target f1 --case 2
"""

import argparse

from adaseries.risk import risk_decomposition


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--model", choices=("density", "regression"), default="density")
    ap.add_argument("--target", default="f1")
    ap.add_argument("--case", type=int, choices=(1, 2), default=1)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--m-max", type=int, default=200)
    args = ap.parse_args()

    try:
        variance, bias_sq = risk_decomposition(args.model, args.target, args.case, args.n,
                                               args.m_max)
    except ValueError as exc:
        ap.error(str(exc))
    risk = variance + bias_sq
    m_star = int(risk.argmin()) + 1
    print(f"{args.model} {args.target}, case {args.case}, n = {args.n}: "
          f"min_m E ISE(m) = {risk[m_star - 1]:.5f} at m = {m_star}")
    print(f"{'m':>5s} {'E ISE':>10s} {'variance':>10s} {'bias^2':>10s}")
    for m in sorted({1, 2, 3, 5, 8, 12, m_star, 17, 25, 40, 60, 100, args.m_max}):
        if m <= args.m_max:
            print(f"{m:5d} {risk[m - 1]:10.5f} {variance[m - 1]:10.5f} {bias_sq[m - 1]:10.5f}")


if __name__ == "__main__":
    main()
