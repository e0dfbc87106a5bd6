"""adaseries benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 bench/run.py --workload density_table --seed 1 --seconds 35 --trace 0

The workload repeats rounds (see ``workloads.py``) until the next round
would end after ``--seconds``.  Each round's outputs are checked (see
``checks.py``).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, and writes their spans to ``.bench_out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/adaseries`` next
to this directory the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

#: Thread-count variables of BLAS and OpenMP runtimes; the benchmark caps
#: them at 1 so it measures the program, not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Untraced runs start one set-up probe after every round, and at least
#: this many in all.  Spreading them over the run keeps the median from
#: resting on one moment of the host's load.
SETUP_PROBES = 7
WORKLOADS = ("density_table", "regression_table", "bands_large_n")

END_TO_END = {"setup_s": "s", "wall_s": "s", "eval_reps_per_s": "1/s", "peak_rss_mb": "MB"}
#: Every workload runs cases 1-3 of one model, so a per-case rate is a
#: per-(model, case) rate.
CASES = (1, 2, 3)
EVAL_KINDS = ("simulate", "bands")


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    from tracing import COUNTER_NAMES, LAYER_NAMES
    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name in COUNTER_NAMES:
        units[name] = "count" if name.endswith(".points") else "B"
    units["basis.design_matrix.calls_per_rep"] = "calls/rep"
    for case in CASES:
        units[f"harness.eval_reps_per_s.case{case}"] = "1/s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def prepare() -> str | None:
    """Cap BLAS threads and import adaseries from SRC; return a problem or None."""
    if not (SRC / "adaseries" / "__init__.py").is_file():
        return f"no adaseries sources under {SRC}"
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import adaseries
    if not Path(adaseries.__file__).resolve().is_relative_to(SRC):
        return f"adaseries imported from {adaseries.__file__}, not {SRC}"
    return None


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("standard", "tiny"), default="standard",
                   help="work per round; tiny is for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable"
    return lines[1]


def environment(loadavg_start: str) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(deps.get("blas", {}).get(k)) for k in ("name", "version")),
        "lapack": " ".join(str(deps.get("lapack", {}).get(k)) for k in ("name", "version")),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "loadavg_start": loadavg_start,
        "loadavg_end": _loadavg(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_probe(args) -> tuple[float, float]:
    """Set-up time of one fresh process (import plus one context per config)
    and the yardstick time the process measured right after it."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup_s, yard_s = map(float, out.stdout.split()[-2:])
    return setup_s, yard_s


def load_reference(workload: str, scale: str, seed: int):
    """Stored fingerprints of the seed, or None."""
    path = BENCH / "reference" / workload / f"seed{seed}.json"
    if scale != "standard" or not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)["fingerprints"]


def check_round(rnd, expected) -> None:
    """Compare each operation with its expected fingerprint; mismatches fail it."""
    import checks
    for op in rnd.ops:
        if op.fingerprint is None:
            continue
        exp = expected.get(op.key, {}).get(op.kind)
        if exp is None:
            op.problems.append("no expected fingerprint")
        else:
            op.problems.extend(checks.compare(exp, op.fingerprint, f"{op.key}/{op.kind}"))


def trace_metrics(traced, untraced) -> dict:
    """Per-layer metrics: self times are medians over traced rounds, counts
    those of the first traced round; per-case rates come from the untraced
    rounds.  Every time is corrected by the yardstick (``yardstick.py``):
    a traced round's self times by the median yardstick of its operations."""
    from workloads import Round, corrected
    from yardstick import REFERENCE_S
    summaries = [tracer.summary() for _, tracer in traced]
    scales = [REFERENCE_S / statistics.median(op.yard_s for op in rnd.ops) for rnd, _ in traced]
    plain = corrected(untraced)
    metrics = {}
    for name, unit in per_layer_units().items():
        if name in summaries[0]:
            values = [s[name] for s in summaries]
            metrics[name] = (statistics.median(v * k for v, k in zip(values, scales))
                             if unit == "s" else values[0])
    for case in CASES:
        metrics[f"harness.eval_reps_per_s.case{case}"] = \
            Round([op for op in plain.ops if op.cfg.case == case]).rate(EVAL_KINDS)
    metrics["trace.unattributed_s"] = statistics.median(
        (rnd.wall_s - s["covered_s"]) * k for (rnd, _), s, k in zip(traced, summaries, scales))
    metrics["trace.overhead_s"] = corrected([rnd for rnd, _ in traced]).wall_s - plain.wall_s
    return {name: metrics[name] for name in per_layer_units()}


def write_spans(path: Path, args, traced) -> None:
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start", "end", "parent", "rep"],
                   "rounds": [tracer.spans for _, tracer in traced]}, fh)


def main(argv=None) -> int:
    args = _parse_args(argv)
    loadavg_start = _loadavg()
    problem = prepare()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    setup_times = []
    cfgs = workloads.configs(args.workload, args.seed, args.scale)
    reference = load_reference(args.workload, args.scale, args.seed)
    expected = reference
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    untraced, traced = [], []
    min_rounds = 2 if args.trace else 1
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        while True:
            round_start = perf_counter()
            is_traced = bool(args.trace) and len(untraced) > len(traced)
            if is_traced:
                tracer = Tracer()
                with tracer.installed():
                    rnd = workloads.run_round(args.workload, cfgs, args.scale, Path(tmp))
                traced.append((rnd, tracer))
            else:
                rnd = workloads.run_round(args.workload, cfgs, args.scale, Path(tmp))
                untraced.append(rnd)
            if not args.trace:
                setup_times.append(setup_probe(args))
            if expected is None:
                expected = workloads.fingerprints(rnd)
            else:
                check_round(rnd, expected)
            now = perf_counter()
            if (len(untraced) + len(traced) >= min_rounds
                    and now + (now - round_start) - start > args.seconds):
                break
        while not args.trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(args))
    measured_s = perf_counter() - start

    rounds = untraced + [rnd for rnd, _ in traced]
    ops = [op for rnd in rounds for op in rnd.ops]
    failed = [op for op in ops if op.failed]
    for op in failed[:10]:
        print(f"FAILED {op.kind} {op.key}: " + "; ".join(op.problems)[:2000], file=sys.stderr)

    print(f"bench: workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} rounds={len(rounds)} measured_s={measured_s:.3f}")
    print("reference: " + (f"stored fingerprints of seed {args.seed}" if reference else
                           f"no stored fingerprints for seed {args.seed}; "
                           "rounds compared with the first round"))
    print("round_wall_s: " + " ".join(f"{rnd.wall_s:.4f}" for rnd in rounds))
    if args.trace:
        metrics = trace_metrics(traced, untraced)
        units = per_layer_units()
        spans_path = out_dir / f"trace_{args.workload}_seed{args.seed}.json"
        write_spans(spans_path, args, traced)
        print(f"spans: {sum(len(t.spans) for _, t in traced)} in {len(traced)} traced rounds, "
              f"written to {spans_path.relative_to(ROOT)}")
    else:
        from yardstick import REFERENCE_S
        plain = workloads.corrected(untraced)
        metrics = {
            "setup_s": statistics.median(t * REFERENCE_S / y for t, y in setup_times),
            "wall_s": plain.wall_s,
            "eval_reps_per_s": plain.rate(EVAL_KINDS),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print("setup_probe_s (uncorrected): " + " ".join(f"{t:.4f}" for t, _ in setup_times))
        print("yardstick_s: " + " ".join(
            f"{statistics.median(op.yard_s for op in r.ops):.4f}" for r in untraced))
        print("uncorrected median over rounds: "
              f"wall_s = {statistics.median(r.wall_s for r in untraced)} s, eval_reps_per_s = "
              f"{statistics.median(r.rate(EVAL_KINDS) for r in untraced)} 1/s")
        if args.workload != "bands_large_n":
            print(f"calib_reps_per_s = {plain.rate(('calibrate',))} 1/s")
    computed = ("basis.design_matrix.bytes", "estimators.ise_profile.bytes",
                "targets.MarginalLaw.quantile.points", "basis.design_matrix.calls_per_rep")
    for name, value in metrics.items():
        note = "  (computed from argument shapes)" if name in computed else ""
        print(f"{name} = {value} {units[name]}{note}")
    print(f"error_rate = {len(failed) / len(ops)} fraction  "
          f"({len(failed)} failed / {len(ops)} attempted operations)")
    print("env: " + json.dumps(environment(loadavg_start), sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    try:
        out_dir.rmdir()  # only succeeds when no spans were written
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
