"""Golden summary: a numeric drift guard for the whole replication path.

golden_summary.csv holds the summary rows of twelve small experiments
(both models, both targets, cases 1-3, n = 500, 20 replications, seed 0,
all four selectors, theorem penalty constants), written with full float
precision.  A change to sampling, coefficients, selectors or the ISE that
moves any printed number fails here.

Regenerate only for a change that is meant to move numbers, and say so
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
from pathlib import Path

from adaseries.harness import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).with_name("golden_summary.csv")
FIELDS = ["model", "target", "case", "n", "selector", "c_pen", "reps",
          "mean_ise", "std_ise", "mean_m"]
RTOL = 1e-10


def golden_configs():
    return [ExperimentConfig(model=model, target=target, case=case, n=500, reps=20, seed=0)
            for model in ("density", "regression") for target in ("f1", "f2")
            for case in (1, 2, 3)]


def current_rows():
    rows = []
    for cfg in golden_configs():
        summary, _ = run_experiment(cfg)
        rows.extend([getattr(r, name) for name in FIELDS] for r in summary)
    return rows


def write_golden(path=GOLDEN):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        for row in current_rows():
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def test_summary_matches_golden():
    with open(GOLDEN, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == FIELDS
        golden = list(reader)
    rows = current_rows()
    assert len(rows) == len(golden) == 48
    for got, want in zip(rows, golden):
        key = dict(zip(FIELDS[:5], want))
        assert [str(v) for v in got[:5]] == want[:5], key
        c_pen = float(want[5])
        assert (math.isnan(got[5]) and math.isnan(c_pen)) or got[5] == c_pen, key
        assert got[6] == int(want[6]), key
        for name, value, ref in zip(FIELDS[7:], got[7:], want[7:]):
            assert math.isclose(value, float(ref), rel_tol=RTOL, abs_tol=0.0), (key, name)


if __name__ == "__main__":
    write_golden()
