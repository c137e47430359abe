"""Fast self-test of the benchmark's tracer and gates (a few seconds).

    python3 perfbench/selftest.py

Checks that self time is total time minus wrapped children on a synthetic
nested call; that installing the tracer rebinds a function everywhere it is
imported and uninstalling restores every binding; and, on a seconds-long
grid from configs/smoke.conf, that attack rows seen under strategies spans
equal the program's own audit rows and that tracing leaves metrics.csv and
rates.csv byte-identical, as do the host-speed probes run inside it.
"""

import shutil
import sys
from pathlib import Path

from worker import LAYERS, run_grid, trace_grid  # pins BLAS before numpy loads

import hostspeed
from tracer import Tracer
from workloads import Workload, expected_attack_counts

ROOT = Path(__file__).resolve().parent.parent


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def nested_self_time() -> None:
    ticks = iter([0.0, 1.0, 3.0, 4.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("syn.inner", lambda: None)

    def body():
        inner()
        inner()
    tracer.wrap("syn.outer", body)()
    check(tracer.stats[("syn.outer", None)] == [1, 0, 10.0, 3.0]
          and tracer.stats[("syn.inner", "syn.outer")] == [2, 0, 7.0, 7.0],
          "self time = total - wrapped children on a synthetic nested call")


def reservoir_writes() -> None:
    import numpy as np
    from eatcl import replay

    tracer = Tracer()
    tracer.install([replay])
    try:
        buf = replay.ReplayBuffer(3)
        rng = np.random.default_rng(0)
        for i in range(50):
            buf.reservoir_insert(replay.BufferEntry(np.zeros(1), i), rng)
    finally:
        tracer.uninstall()
    rng = np.random.default_rng(0)
    writes = 3 + sum(int(rng.integers(0, seen)) < 3 for seen in range(4, 51))
    check(tracer.totals()["replay.reservoir_insert"][:2] == [50, writes],
          f"reservoir_insert rows count the slots written ({writes} of 50)")


def smoke_grid() -> None:
    import eatcl
    from eatcl import runner

    modules = [getattr(eatcl, name) for name in LAYERS]
    tracer = Tracer()
    importers = [eatcl, eatcl.nets, eatcl.attacks, eatcl.metrics, eatcl.strategies]
    tracer.install(modules)
    rebound = all(getattr(m.forward, "_perfbench_tracer", None) is tracer for m in importers)
    tracer.uninstall()
    check(rebound, "forward is rebound in every module importing it")
    check(tracer.bindings_restored(modules), "uninstall restores every binding")

    smoke = Workload("selftest", "configs/smoke.conf",
                     ("joint_at", "er", "er_at", "er_eat", "der", "derpp"), 1, "")
    cfg = runner.parse_config(smoke.config_text(ROOT, 0))
    expected = {s: expected_attack_counts(cfg, s) for s in cfg["strategies"]}
    out = ROOT / ".perfbench_work" / "selftest"
    hostspeed.PERIOD_S = 0.02  # many probes inside a grid this short
    try:
        plain = run_grid(runner, cfg, out / "untraced", expected)
        traced = trace_grid(runner, cfg, out / "traced", expected)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    check(not plain["problems"] and not traced["problems"],
          "no failed cells; attack_counts match the config arithmetic")
    check(traced["bindings_restored"], "bindings restored after a traced grid")
    audit = sum(traced["audit_rows"].values())
    check(audit > 0 and traced["attack_rows_under_strategies"] == audit,
          f"attacks.attack rows under strategies = audit rows ({audit})")
    check(plain["probes"] >= 5, f"host-speed probes ran inside the grid ({plain['probes']})")
    check(traced["csv"] == plain["csv"],
          "tracing and host-speed probes leave the CSVs byte-identical")
    self_sum = sum(t[3] for t in traced["totals"].values())
    check(abs(self_sum - traced["top_level_s"]) <= 1e-9 * traced["wall_s"],
          "span self times sum to the top-level span time")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    nested_self_time()
    reservoir_writes()
    smoke_grid()
