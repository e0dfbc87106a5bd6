"""Standard benchmark rounds reproduce their recorded references.

Each workload runs one round at its first recorded seed (0) and one at
its last, so a float-level change shows on two seeds per workload
without a benchmark run.  The benchmark compares selected-m digests
exactly and every other number at 1e-9 relative, so a change to row
order, selection or any printed number fails here as well as in a
benchmark run.  Only reads bench/.
"""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ["density_table", "regression_table", "bands_large_n"]


def last_recorded_seed(workload):
    return max(int(path.stem.removeprefix("seed"))
               for path in (BENCH / "reference" / workload).glob("seed*.json"))


LAST = {w: last_recorded_seed(w) for w in WORKLOADS}


@pytest.mark.parametrize("workload, seed",
                         [pytest.param(w, 0, id=w) for w in WORKLOADS]
                         + [pytest.param(w, LAST[w], id=f"{w}-seed{LAST[w]}") for w in WORKLOADS])
def test_standard_round_matches_reference(workload, seed, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    cfgs = workloads.configs(workload, seed, "standard")
    rnd = workloads.run_round(workload, cfgs, "standard", tmp_path)
    assert [op.problems for op in rnd.ops if op.failed] == []
    reference = json.loads((BENCH / "reference" / workload / f"seed{seed}.json").read_text())
    assert reference["seed"] == seed
    assert checks.compare(reference["fingerprints"], workloads.fingerprints(rnd)) == []
