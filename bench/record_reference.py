"""Record the reference fingerprints that ``run.py`` checks outputs against.

Run from the repository root:

    python3 bench/record_reference.py

For each workload and each seed 0..SEEDS[workload]-1 this runs one untraced
round at the standard size, refuses to record if any invariant fails, and
writes ``bench/reference/<workload>/seed<seed>.json``.  One file per seed
keeps what a run loads, and so its peak memory, small.  Record only from a commit whose
outputs are trusted: a later run with the same seed must reproduce these
constants and digests exactly and every other number within 1e-9 relative.
"""

import json
import sys
import tempfile
from pathlib import Path

import run

#: Seeds recorded per workload.  A bands fingerprint holds three quantile
#: arrays of 1025 grid points per config, so fewer bands seeds are stored
#: to keep the reference files small.
SEEDS = {"density_table": 32, "regression_table": 32, "bands_large_n": 8}


def main() -> int:
    problem = run.prepare()
    if problem:
        print(f"record_reference: {problem}", file=sys.stderr)
        return 2
    import workloads

    commit = run.git_commit()
    for workload in run.WORKLOADS:
        out_dir = run.BENCH / "reference" / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            for seed in range(SEEDS[workload]):
                cfgs = workloads.configs(workload, seed, "standard")
                rnd = workloads.run_round(workload, cfgs, "standard", Path(tmp))
                failed = [op for op in rnd.ops if op.failed]
                if failed:
                    print(f"{workload} seed {seed}: {failed[0].kind} {failed[0].key}: "
                          + "; ".join(failed[0].problems), file=sys.stderr)
                    return 1
                with open(out_dir / f"seed{seed}.json", "w") as fh:
                    json.dump({"workload": workload, "seed": seed, "scale": "standard",
                               "recorded_from": commit,
                               "fingerprints": workloads.fingerprints(rnd)}, fh)
                    fh.write("\n")
                print(f"{workload} seed {seed}: {rnd.wall_s:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
