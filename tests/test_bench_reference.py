"""One standard benchmark round per workload reproduces its seed-0 reference.

The benchmark compares selected-m digests exactly and every other number
at 1e-9 relative, so a change to row order, selection or any printed
number fails here as well as in a benchmark run.  Only reads bench/.
"""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["density_table", "regression_table", "bands_large_n"])
def test_standard_round_matches_reference(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    cfgs = workloads.configs(workload, 0, "standard")
    rnd = workloads.run_round(workload, cfgs, "standard", tmp_path)
    assert [op.problems for op in rnd.ops if op.failed] == []
    reference = json.loads((BENCH / "reference" / workload / "seed0.json").read_text())
    assert checks.compare(reference["fingerprints"], workloads.fingerprints(rnd)) == []
