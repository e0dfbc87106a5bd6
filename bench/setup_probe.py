"""Print the set-up time of a fresh process for one workload, in seconds,
then the yardstick time (``yardstick.py``) measured right after it.

Set-up is what every entry point pays before its first replication:
``import adaseries`` plus one ``ExperimentContext`` per config of the
workload.  ``run.py`` starts this script several times and reports the
median of the corrected times.
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
p.add_argument("--workload", required=True)
p.add_argument("--seed", type=int, required=True)
p.add_argument("--scale", required=True)
args = p.parse_args()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = perf_counter()
import adaseries  # noqa: E402,F401
from adaseries import harness  # noqa: E402

import workloads  # noqa: E402
import yardstick  # noqa: E402

for cfg in workloads.configs(args.workload, args.seed, args.scale):
    harness.ExperimentContext(cfg)
setup_s = perf_counter() - start
yardstick.measure()  # first calls pay one-time costs
print(setup_s, yardstick.measure())
