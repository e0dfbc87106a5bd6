"""Self-test of the benchmark: tiny runs of every workload, traced and untraced.

Run from the repository root:

    python3 bench/selftest.py

For each workload it makes one untraced and two traced runs with the same
seed at ``--scale tiny`` and checks that

* every metric named in ``BENCHMARK.json`` is present with its unit,
* every operation passed its output check,
* counts repeat exactly across the two traced runs,
* the bypass predictions hold: no ``MarginalLaw.quantile`` call on
  ``regression_table``; no ``ise_profile``, ``select_cv`` or calibration
  call on ``bands_large_n``; two design matrices per evaluation
  replication on the tables and one on the bands.

Exits 0 when everything holds and 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "B", "calls/rep")
SEED = 7

#: Per workload, metric -> value the tiny traced run must report.
PREDICTIONS = {
    "density_table": {"basis.design_matrix.calls_per_rep": 2.0},
    "regression_table": {"targets.MarginalLaw.quantile.calls": 0,
                         "basis.design_matrix.calls_per_rep": 2.0},
    "bands_large_n": {"estimators.ise_profile.calls": 0, "selection.select_cv.calls": 0,
                      "harness.calibrate_constant.calls": 0,
                      "basis.design_matrix.calls_per_rep": 1.0},
}


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(label: str, result: dict, spec: list, problems: list) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    for metric in spec:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"{label}: {metric['name']} missing or not in {metric['unit']}")
    extra = set(result["metrics"]) - {m["name"] for m in spec}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(f"{workload} untraced", bench(workload, 0), spec["end_to_end"], problems)
        first, second = bench(workload, 1), bench(workload, 1)
        for label, result in (("traced 1", first), ("traced 2", second)):
            check_result(f"{workload} {label}", result, spec["per_layer"], problems)
        for name, metric in first["metrics"].items():
            if metric["unit"] in COUNT_UNITS and metric != second["metrics"].get(name):
                problems.append(f"{workload}: {name} differs across traced runs: "
                                f"{metric} vs {second['metrics'].get(name)}")
        for name, value in PREDICTIONS[workload].items():
            got = first["metrics"].get(name, {}).get("value")
            if got != value:
                problems.append(f"{workload}: {name} = {got}, predicted {value}")
        print(f"{workload}: checked", flush=True)
    for line in problems:
        print("FAIL " + line)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
