"""The benchmark's contract with the program.

perfbench/ runs the shipped configs through runner.run_experiment, and its
tracer and correctness gate read program internals: the tracer counts rows
from GradBundle.input_grads on every sgd_step call, a read that computes the
input gradient the training pass deferred, and from prev_task_rate's third
argument, and workloads.expected_attack_counts reads config keys. A
program change that breaks one of them passes every other tier-1 test and
fails only the benchmark. This runs each workload's config, shrunk to a few
steps of every path it runs (conftest.shrunk), under perfbench's own Tracer
and gate, loading both files by path without changing them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import eatcl
from eatcl.runner import parse_config, run_experiment

from conftest import shrunk

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# the layers the benchmark's worker traces
LAYERS = ("datasets", "nets", "attacks", "replay", "strategies", "metrics", "runner")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_cleanly_under_the_benchmark_tracer(name, tmp_path):
    cfg = parse_config(shrunk(workloads.WORKLOADS[name].config_text(ROOT, 0)))
    expected = {s: workloads.expected_attack_counts(cfg, s) for s in cfg["strategies"]}
    modules = [getattr(eatcl, layer) for layer in LAYERS]
    traced = tracer.Tracer()
    traced.install(modules)
    try:
        results = run_experiment(cfg, str(tmp_path / "out"), quiet=True)
    finally:
        traced.uninstall()
    assert traced.bindings_restored(modules)
    assert len(results) == len(cfg["strategies"]) * len(cfg["seeds"])
    for r in results:
        assert r.log.attack_counts == expected[r.strategy], r.run_id
    assert traced.rows_under("attacks.attack", "strategies.") == sum(
        sum(r.log.attack_counts.values()) for r in results)
