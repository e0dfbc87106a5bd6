"""Outside-in tracing of adaseries layers, installed only for traced rounds.

The tracer replaces module and class attributes with wrappers that record
one span per call: layer name, start, end, parent span and the replication
id.  The replication id is taken from ``ExperimentContext.sample(rep_index,
namespace)`` and holds until the span that called ``sample`` ends.  Spans
stay in memory; ``run.py`` writes them out when the run ends.

Patched names are the ones the callers look up at call time: functions
that ``harness`` imported from ``estimators`` and ``selection`` are patched
in ``harness``, ``ise_profile`` in ``selection`` and ``uniform_series`` in
``dependence``.  Methods are patched on their class.

Counters marked *computed* are derived from argument shapes, not measured.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from adaseries import basis, dependence, harness, selection, targets

SAMPLE_LAYER = "harness.ExperimentContext.sample"


def _design_matrix_bytes(args, kwargs) -> int:
    """Computed: (m_max + 1) * len(x) * 8 bytes of float64 output."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    m_max = args[2] if len(args) > 2 else kwargs["m_max"]
    return (m_max + 1) * np.size(x) * 8


def _quantile_points(args, kwargs) -> int:
    """Computed: number of quantiles asked for."""
    return np.size(args[1] if len(args) > 1 else kwargs["u"])


def _ise_profile_bytes(args, kwargs) -> int:
    """Computed: the m_max x grid residual array in float64."""
    table = args[0] if args else kwargs["table"]
    truth = args[1] if len(args) > 1 else kwargs["truth_grid"]
    return table.m_max * np.size(truth) * 8


def _csv_bytes(args, kwargs) -> int:
    """Measured: size of the file just written."""
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# (layer, owner, attribute, (counter suffix, counter function) or None)
LAYERS = (
    ("basis.design_matrix", basis.TrigBasis, "design_matrix", ("bytes", _design_matrix_bytes)),
    ("targets.MarginalLaw.quantile", targets.MarginalLaw, "quantile",
     ("points", _quantile_points)),
    ("dependence.uniform_series", dependence, "uniform_series", None),
    ("estimators.empirical_coefficients", harness, "empirical_coefficients", None),
    ("estimators.sigma_y_hat", harness, "sigma_y_hat", None),
    ("estimators.ise_profile", selection, "ise_profile", ("bytes", _ise_profile_bytes)),
    ("selection.oracle_criteria", harness, "oracle_criteria", None),
    ("selection.select_with_pens", harness, "select_with_pens", None),
    ("selection.select_ms", harness, "select_ms", None),
    ("selection.select_cv", harness, "select_cv", None),
    ("harness.ExperimentContext", harness.ExperimentContext, "__init__", None),
    (SAMPLE_LAYER, harness.ExperimentContext, "sample", None),
    ("harness.run_replication", harness, "run_replication", None),
    ("harness.run_experiment", harness, "run_experiment", None),
    ("harness.calibrate_constant", harness, "calibrate_constant", None),
    ("harness.compute_bands", harness, "compute_bands", None),
    ("harness.write_csv", harness, "write_raw_csv", ("bytes", _csv_bytes)),
    ("harness.write_csv", harness, "write_summary_csv", ("bytes", _csv_bytes)),
    ("harness.write_csv", harness, "write_bands_csv", ("bytes", _csv_bytes)),
    ("harness.write_csv", harness, "write_calibration_csv", ("bytes", _csv_bytes)),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))
COUNTER_NAMES = tuple(dict.fromkeys(f"{layer}.{c[0]}" for layer, _, _, c in LAYERS if c))


class Tracer:
    """Spans of one traced round: [name, start, end, parent, rep]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._rep = None  # (namespace, rep_index) of the current replication
        self._rep_owner = -1  # span whose end closes the current replication

    def _wrap(self, layer: str, fn, counter):
        tracer = self
        is_sample = layer == SAMPLE_LAYER

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if is_sample:
                namespace = args[2] if len(args) > 2 else kwargs.get("namespace", harness.EVAL_NS)
                tracer._rep = (namespace, args[1] if len(args) > 1 else kwargs["rep_index"])
                tracer._rep_owner = parent
            index = len(tracer.spans)
            span = [layer, 0.0, 0.0, parent, tracer._rep]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                if index == tracer._rep_owner:
                    tracer._rep, tracer._rep_owner = None, -1
            if counter is not None:
                tracer.counters[f"{layer}.{counter[0]}"] += counter[1](args, kwargs)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every layer for the duration of the block, then restore it."""
        saved = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in LAYERS]
        try:
            for (layer, owner, attr, counter), (_, _, original) in zip(LAYERS, saved):
                setattr(owner, attr, self._wrap(layer, original, counter))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-layer self time and calls, computed counters, covered wall."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top_level = 0.0
        eval_reps = eval_design_calls = 0
        for i, (name, start, end, parent, rep) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if parent < 0:
                top_level += end - start
            if rep is not None and rep[0] == harness.EVAL_NS:
                eval_reps += name == SAMPLE_LAYER
                eval_design_calls += name == "basis.design_matrix"
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = calls.get(layer, 0)
        for name in COUNTER_NAMES:
            out[name] = self.counters.get(name, 0)
        # computed: design matrices built per evaluation replication
        out["basis.design_matrix.calls_per_rep"] = eval_design_calls / eval_reps if eval_reps else 0.0
        out["covered_s"] = top_level
        return out
