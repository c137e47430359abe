"""One benchmark process: set up a workload's grid and run it.

Started by run.py, never imported by it. ``--mode probe`` stops where
``run_experiment`` would be entered and only reports set-up time; ``run``
repeats the grid untraced, as many times as make about ``--seconds`` at
the first repeat's pace; ``trace`` does
the same and then runs the grid once more under the tracer. The result is
one JSON object on the last line of standard output.

BLAS is pinned to one thread here, before numpy is first imported.
"""

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, expected_attack_counts  # noqa: E402

LAYERS = ("datasets", "nets", "attacks", "replay", "strategies", "metrics", "runner")


def blas_facts() -> dict:
    """The BLAS numpy was built against and the thread count it runs with."""
    import numpy as np

    facts = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None,
             "blas_env": {v: os.environ[v] for v in BLAS_ENV}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_grid(runner, cfg: dict, out: Path, expected: dict, probe: bool = True) -> dict:
    """One run_experiment over the grid, timed, with its outputs checked.

    With ``probe`` the host's speed is sampled during the grid (hostspeed.py):
    ``wall_s`` is then the wall-clock without the probes' own time and
    ``wall_norm_s`` the same at the host's typical speed.
    """
    if out.exists():
        shutil.rmtree(out)
    cells = len(cfg["strategies"]) * len(cfg["seeds"])
    speed = SpeedProbe() if probe else None
    started = time.perf_counter()
    if speed:
        speed.start()
    try:
        results = runner.run_experiment(cfg, str(out), quiet=True)
    except Exception:  # a failing cell loses the whole grid's artifacts
        traceback.print_exc()
        results = None
    finally:
        wall = (speed.stop() if speed else time.perf_counter()) - started
    timing = {"wall_s": wall}
    if speed:
        timing = {"wall_s": wall - speed.spent_s, "wall_norm_s": speed.normalised(wall),
                  "slowdown": speed.slowdown(), "probes": len(speed.samples)}
    if results is None:
        return {**timing, "cells": cells, "failed": cells, "problems": ["run_experiment raised"]}
    problems, failed, acc, rob, audit = [], 0, [], [], {}
    for r in results:
        final = r.log.records[-1]
        values = [final.mean_accuracy, final.mean_robustness]
        for rec in r.log.records:
            values += rec.per_task_accuracy + rec.per_task_robustness
        if not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values):
            failed += 1
            problems.append(f"{r.run_id}: non-finite or out-of-range metrics")
        acc.append(final.mean_accuracy)
        rob.append(final.mean_robustness)
        counts = dict(r.log.attack_counts)
        for k, v in counts.items():
            audit[k] = audit.get(k, 0) + v
        if counts != expected[r.strategy]:
            problems.append(f"{r.run_id}: attack_counts {counts} != {expected[r.strategy]}")
    if len(results) != cells:
        problems.append(f"{len(results)} results for {cells} cells")
        failed += cells - len(results)
    return {**timing, "cells": cells, "failed": failed, "problems": problems,
            "final_acc": sum(acc) / len(acc), "final_rob": sum(rob) / len(rob),
            "audit_rows": audit,
            "csv": {n: digest(out / n) for n in ("metrics.csv", "rates.csv")}}


def trace_grid(runner, cfg: dict, out: Path, expected: dict) -> dict:
    import eatcl
    modules = [getattr(eatcl, name) for name in LAYERS]
    tracer = Tracer()
    tracer.install(modules)
    try:
        grid = run_grid(runner, cfg, out, expected, probe=False)
    finally:
        tracer.uninstall()
    grid["bindings_restored"] = tracer.bindings_restored(modules)
    grid["totals"] = tracer.totals()
    grid["top_level_s"] = tracer.top_level_seconds()
    grid["attack_rows_under_strategies"] = tracer.rows_under("attacks.attack", "strategies.")
    return grid


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() in the parent just before this process was started")
    args = ap.parse_args()

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import eatcl
    from eatcl import runner
    if Path(eatcl.__file__).resolve().parent != (root / "src" / "eatcl").resolve():
        raise SystemExit(f"imported eatcl from {eatcl.__file__}, not from {root / 'src'}")
    workload = WORKLOADS[args.workload]
    cfg = runner.parse_config(workload.config_text(root, args.seed))
    expected = {s: expected_attack_counts(cfg, s) for s in cfg["strategies"]}
    setup_s = time.monotonic() - args.started
    report = {"setup_s": setup_s}
    if args.mode != "probe":
        out = Path(args.out)
        grids = report["grids"] = [run_grid(runner, cfg, out / "untraced", expected)]
        repeats = max(1, round(args.seconds / grids[0]["wall_s"]))
        while len(grids) < repeats:
            grids.append(run_grid(runner, cfg, out / "untraced", expected))
        if args.mode == "trace":
            report["traced"] = trace_grid(runner, cfg, out / "traced", expected)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["machine"] = blas_facts()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
