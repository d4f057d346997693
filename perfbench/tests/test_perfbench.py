"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from imgflib import incomplete  # noqa: E402
from perfbench import run, trace, workloads  # noqa: E402

KNOWN_GRID_FAULT = "upper km(10,2)@1 s=-1 z=20m"
GRID_KEYS = {KNOWN_GRID_FAULT, "lower km(10,2)@1 s=-1 z=20m", "deriv1 km(10,2)@1 s=-1 z=20m",
             "lower kms(1.5,2,2)@10 s=-1 z=1m", "upper kms(1.5,2,2)@10 s=-5 z=20m",
             "lower em(0.5,2)@1 s=-0.1 z=5m"}
SAMPLE_KEYS = {
    "imgf-grid": GRID_KEYS,
    "metric-sweeps": {"opsc fig1 mu=2 m=0.5 bob.mean_snr_db=20",
                      "op-interference kms(1.5,2.3,2) nakagami(3)@5dB th=1 desired.mean_snr_db=10",
                      "aber kms(1.5,2,2) channel.mean_snr_db=0"},
    "eps-capacity": {"eps-capacity fig8 eve_snr_db=0 epsilon=0.5",
                     "eps-capacity fig6 kappa=1.5 mu=1 eps=0.1 bob.mean_snr_db=20"},
    "capacity": None,  # the first operation of the seeded round
}


class Subset:
    """A workload restricted to some of its operations, one round per run."""

    min_ops = 1

    def __init__(self, work, keys):
        self.work = work
        self.keys = keys

    def __getattr__(self, name):
        return getattr(self.work, name)

    def ops(self, seed):
        ops = self.work.ops(seed)
        return ops[:1] if self.keys is None else [op for op in ops if op.key in self.keys]


def subset(name):
    return Subset(workloads.WORKLOADS[name], SAMPLE_KEYS[name])


def test_known_fault_alone_fails_and_run_is_correct():
    result, record = run.run(subset("imgf-grid"), seed=1, seconds=0, trace=False)
    assert set(record["failed_operations"]) == {KNOWN_GRID_FAULT}
    assert result["correct"]
    assert result["failed"] == record["rounds"] and result["attempted"] == 6 * record["rounds"]


def test_perturbed_value_is_a_failed_operation(monkeypatch):
    exact = incomplete.imgf_lower

    def perturbed(model, s, zeta, *args):
        value = exact(model, s, zeta, *args)
        return value * (1.0 + 1e-7) if s == -0.1 else value

    monkeypatch.setattr(incomplete, "imgf_lower", perturbed)
    result, record = run.run(subset("imgf-grid"), seed=1, seconds=0, trace=False)
    assert record["unexpected_failures"] == ["lower em(0.5,2)@1 s=-0.1 z=5m"]
    assert result["failed"] == 2 * record["rounds"]
    assert not result["correct"]


def test_perturbed_sweep_value_is_a_failed_operation(monkeypatch):
    from imgflib import apps
    exact = apps.opsc
    monkeypatch.setattr(apps, "opsc", lambda sc, *a: exact(sc, *a) * (1.0 + 1e-7))
    result, record = run.run(subset("metric-sweeps"), seed=3, seconds=0, trace=False)
    assert record["unexpected_failures"] == ["opsc fig1 mu=2 m=0.5 bob.mean_snr_db=20"]
    assert not result["correct"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced(name):
    ops = subset(name).ops(seed=5)
    assert ops
    exact = incomplete.imgf_lower
    plain = [op.call() for op in ops]
    with trace.Tracer() as tracer:
        traced = [op.call() for op in ops]
    assert traced == plain
    assert sum(tracer.calls.values()) > 0
    assert incomplete.imgf_lower is exact
    assert not isinstance(incomplete.integrate, trace._QuadProxy)


def test_traced_run_reports_every_layer_metric():
    result, record = run.run(subset("metric-sweeps"), seed=2, seconds=0, trace=True)
    assert record["rounds"] == 2
    assert set(result["metrics"]) == {name for name, _ in trace.PER_LAYER}
    assert result["metrics"]["apps.opsc.calls"]["value"] > 0
    assert record["unexpected_failures"] == []


@pytest.mark.parametrize("name", ["imgf-grid", "metric-sweeps", "eps-capacity"])
def test_references_cover_every_operation(name):
    work = workloads.WORKLOADS[name]
    refs = workloads.load_references(name)
    keys = {op.key for op in work.ops(seed=0)}
    if name == "imgf-grid":
        keys = {key.split(" ", 1)[1] for key in keys}
    assert keys <= set(refs)
    assert work.spot_check(refs, np.random.default_rng(0)) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_known_faults_name_operations(name):
    work = workloads.WORKLOADS[name]
    assert set(work.known_faults) <= {op.key for op in work.ops(seed=0)}


def test_benchmark_json_lists_the_traced_metrics():
    import json
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(trace.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_seed_fixes_the_inputs():
    for work in workloads.WORKLOADS.values():
        a, b = work.ops(seed=7), work.ops(seed=7)
        assert [op.key for op in a] == [op.key for op in b]
        assert len(work.ops(seed=8)) == len(a)
