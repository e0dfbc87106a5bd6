"""Golden theory-check report: a drift guard for the `check` suite.

golden_check.csv holds the run_all_checks results at seed 0 with custom
penalties 0.1, 0.2, 0.3 in the layout of the CLI's check_report.csv: the
report that `adaseries check --pens 0.1,0.2,0.3 --out DIR` writes.  Names
and PASS/FAIL must match exactly; the text of every detail must match
once its numbers are masked, and each number must match within rel 1e-6
(the details print four to six significant digits) and abs 1e-12 (max
|gram - I| sits at rounding level).  A change to a check's threshold, statistic
or fixed setting fails here.

golden_check_values.json holds each check's raw statistics
(CheckResult.values) at full precision.  The names must match exactly and
each value within rel 1e-12, with abs 1e-15 for the statistics that sit
at rounding level (max |gram - I|, the even-m gap of the sup norm), so a
drift below the printed digits fails here too.  The fixed tolerances and
sizes that no printed number shows are module constants of checks,
pinned here by value.

Regenerate both only for a change that is meant to move a check, and say so
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_check.py
"""

import csv
import json
import math
import re
from pathlib import Path

import pytest

from adaseries import checks
from adaseries.checks import run_all_checks

GOLDEN = Path(__file__).with_name("golden_check.csv")
GOLDEN_VALUES = Path(__file__).with_name("golden_check_values.json")
SETTINGS = dict(seed=0, pens=[0.1, 0.2, 0.3])
NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def current_rows(results):
    return [[r.name, str(int(r.passed)), r.detail] for r in results]


def current_values(results):
    return {r.name: r.values for r in results}


@pytest.fixture(scope="module")
def results():
    return run_all_checks(**SETTINGS)


def write_golden():
    results = run_all_checks(**SETTINGS)
    with open(GOLDEN, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "passed", "detail"])
        writer.writerows(current_rows(results))
    with open(GOLDEN_VALUES, "w") as fh:
        json.dump(current_values(results), fh, indent=1)
        fh.write("\n")


def test_check_report_matches_golden(results):
    with open(GOLDEN, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["check", "passed", "detail"]
        golden = list(reader)
    rows = current_rows(results)
    assert [r[:2] for r in rows] == [g[:2] for g in golden]
    for (name, _, detail), (_, _, want) in zip(rows, golden):
        assert NUMBER.sub("#", detail) == NUMBER.sub("#", want), name
        for got, ref in zip(NUMBER.findall(detail), NUMBER.findall(want)):
            assert math.isclose(float(got), float(ref), rel_tol=1e-6, abs_tol=1e-12), \
                (name, detail, want)


def test_check_values_match_golden(results):
    golden = json.loads(GOLDEN_VALUES.read_text())
    values = current_values(results)
    assert list(values) == list(golden)
    for name, want in golden.items():
        got = values[name]
        assert list(got) == list(want), name
        for key, ref in want.items():
            assert isinstance(got[key], int) == isinstance(ref, int), (name, key)
            assert math.isclose(got[key], ref, rel_tol=1e-12, abs_tol=1e-15), (name, key)


def test_fixed_settings():
    assert checks.ORTHONORMALITY_TOL == 1e-8
    assert checks.SUP_NORM_POINTS == 10**4
    assert checks.RATE_SLOPE_TOL == 0.02
    assert checks.VARIANCE_HEADROOM == 1.1
    assert checks.DEPENDENCE_SCORE_DRAWS == 10**5
    assert checks.DEPENDENCE_SCORE_ROWS == 4
    assert checks.BASIS_DIMS == 400
    assert checks.VARIANCE_N == 500
    assert checks.VARIANCE_REPS == 2000
    assert checks.LEMMA_REPS == 1000
    assert checks.LEMMA_N == 500
    assert checks.LEMMA_FUZZ_CASES == 10**4


if __name__ == "__main__":
    write_golden()
