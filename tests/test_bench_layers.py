"""The benchmark's tracer patches adaseries names by lookup and reads their arguments."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def test_every_traced_layer_names_an_existing_attribute():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}: {getattr(owner, '__name__', owner)}.{attr}"
               for layer, owner, attr, _ in tracing.LAYERS if attr not in vars(owner)]
    assert not missing, f"bench/tracing.py patches names that no longer exist: {missing}"


@pytest.mark.parametrize("workload", ["density_table", "regression_table", "bands_large_n"])
def test_traced_tiny_round_matches_untraced(workload, monkeypatch, tmp_path):
    """One tiny round under the installed tracer: same outputs, one sample per coefficient table.

    The tracer reads arguments by position and by attribute (the replication
    id of ExperimentContext.sample, table.m_max), so a signature drift shows
    up here as a failed operation or a replication-less span.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    cfgs = workloads.configs(workload, 7, "tiny")
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = workloads.run_round(workload, cfgs, "tiny", tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = workloads.run_round(workload, cfgs, "tiny", tmp_path / "traced")
    assert [op.problems for op in traced.ops if op.failed] == []
    assert workloads.fingerprints(traced) == workloads.fingerprints(plain)
    summary = tracer.summary()
    samples = summary[f"{tracing.SAMPLE_LAYER}.calls"]
    assert samples > 0
    assert summary["dependence.uniform_series.calls"] == samples
    assert summary["estimators.empirical_coefficients.calls"] == samples
    # one sigma_hat^2 call per regression batch, none for densities
    assert summary["estimators.sigma_y_hat.calls"] == (
        samples if workload == "regression_table" else 0)
    assert all(rep is not None for name, *_, rep in tracer.spans
               if name == "estimators.empirical_coefficients")
