"""Golden theory-check report: a drift guard for the `check` suite.

golden_check.csv holds the run_all_checks results at small settings
(seed 0, 20000 KS and case-3 draws, 50 lemma replications, 300 fuzz
tables, 200 variance replications, custom penalties 0.1, 0.2, 0.3) in
the layout of the CLI's check_report.csv.  Names and PASS/FAIL must
match exactly; the text of every detail must match once its numbers
are masked, and each number must match within rel 1e-6 (the details
print four to six significant digits) and abs 1e-12 (max |gram - I|
sits at rounding level).  A change to a check's threshold, statistic
or fixed setting fails here.

Regenerate only for a change that is meant to move a check, and say so
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_check.py
"""

import csv
import math
import re
from pathlib import Path

from adaseries.checks import run_all_checks

GOLDEN = Path(__file__).with_name("golden_check.csv")
SETTINGS = dict(seed=0, ks_draws=20000, case3_draws=20000, lemma_reps=50, fuzz_cases=300,
                variance_reps=200, pens=[0.1, 0.2, 0.3])
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def current_rows():
    return [[r.name, str(int(r.passed)), r.detail] for r in run_all_checks(**SETTINGS)]


def write_golden(path=GOLDEN):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "passed", "detail"])
        writer.writerows(current_rows())


def test_check_report_matches_golden():
    with open(GOLDEN, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["check", "passed", "detail"]
        golden = list(reader)
    rows = current_rows()
    assert [r[:2] for r in rows] == [g[:2] for g in golden]
    for (name, _, detail), (_, _, want) in zip(rows, golden):
        assert NUMBER.sub("#", detail) == NUMBER.sub("#", want), name
        for got, ref in zip(NUMBER.findall(detail), NUMBER.findall(want)):
            assert math.isclose(float(got), float(ref), rel_tol=1e-6, abs_tol=1e-12), \
                (name, detail, want)


if __name__ == "__main__":
    write_golden()
