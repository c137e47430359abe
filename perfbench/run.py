"""eatcl benchmark: one workload grid through ``runner.run_experiment``.

    python3 perfbench/run.py --workload stream_eat --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. Workloads run one at a time, each in a fresh worker
process with BLAS pinned to one thread (see worker.py), so runs on a small
machine stay comparable.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh processes, from process start until ``run_experiment`` is
entered), grid wall-clock at the host's typical speed (hostspeed.py; median
over repeats: as many as make about ``--seconds`` at the first repeat's
pace, at least one), peak RSS of the worker, and final clean accuracy and
PGD robustness averaged over the grid's cells. ``--trace 1`` also runs the
grid once under the tracer and reports the per-layer metrics instead.

Every run is gated: cells that raise or give non-finite metrics count as
failed, RunLog.attack_counts must equal the config arithmetic, and
metrics.csv / rates.csv must be byte-identical across the run's repeats,
across the traced and untraced runs, and across earlier runs of the same
code and seed (digests kept under .perfbench_work/). The last line of
standard output is the JSON result; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8
DEADLINE_S = 170.0


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def code_digest(workload, seed: int) -> str:
    """Hash of the package sources and the generated config."""
    h = hashlib.sha256(workload.config_text(ROOT, seed).encode())
    for path in sorted((ROOT / "src" / "eatcl").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def start_worker(work: Path, workload: str, seed: int, mode: str, seconds: float,
                 deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before starting a worker")
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--out", str(work), "--started", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker did not finish within {remaining:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_digests(work_root: Path, key: str, csv: dict) -> list[str]:
    """Compare CSV digests with the last run of the same code and seed."""
    store = work_root / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        return [] if known[key] == csv else [f"CSVs differ from an earlier run of {key}"]
    known[key] = csv
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return []


def per_layer(traced: dict, untraced_wall: float, names) -> dict:
    """Per-layer metric values by name from the traced grid.

    ``<module>.<function>.<calls|rows|total_s|self_s>`` read the span
    aggregates (zero for a function the workload never calls); the other
    names are ratios of those or tracer and audit figures.
    """
    totals = traced["totals"]

    def stat(name):
        calls, rows, total, self_s = totals.get(name, (0, 0, 0.0, 0.0))
        return {"calls": calls, "rows": rows, "total_s": total, "self_s": self_s}

    def per_call(name, field, scale=1.0):
        s = stat(name)
        return scale * s[field] / s["calls"] if s["calls"] else 0.0

    derived = {
        "nets.backward.us_per_call": lambda: per_call("nets.backward", "total_s", 1e6),
        "nets.backward.rows_per_call": lambda: per_call("nets.backward", "rows"),
        "attacks.input_grad.us_per_call": lambda: per_call("attacks.input_grad", "total_s", 1e6),
        "strategies.eat_generate.s_per_call":
            lambda: per_call("strategies.eat_generate", "total_s"),
        "replay.reservoir_insert.us_per_call":
            lambda: per_call("replay.reservoir_insert", "total_s", 1e6),
        # reservoir_insert's rows are the slots it wrote; each call offers one row
        "replay.accept_ratio": lambda: per_call("replay.reservoir_insert", "rows"),
        "metrics.robustness.ms_per_call": lambda: per_call("metrics.robustness", "total_s", 1e3),
        "runner.cells": lambda: traced["cells"],
        "trace.wall_s": lambda: traced["wall_s"],
        "trace.overhead_s": lambda: traced["wall_s"] - untraced_wall,
        "trace.unattributed_s": lambda: traced["wall_s"] - traced["top_level_s"],
    }
    values = {}
    for name in names:
        head, _, last = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]()
        elif head == "strategies.attack_rows":
            values[name] = traced["audit_rows"].get(last, 0)
        elif last in ("calls", "rows", "total_s", "self_s"):
            values[name] = stat(head)[last]
    return values


def print_table(rows, title: str) -> None:
    print(title)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<44} {shown:>14} {unit}")


def run_workload(workload, seed: int, seconds: float, trace: bool, wanted) -> dict:
    """Run one workload's probes and worker, gate the outputs, print the
    tables, and return the result object."""
    deadline = time.monotonic() + DEADLINE_S
    load_at_start = os.getloadavg()
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = [start_worker(work, workload.name, seed, "probe", 0, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        report = start_worker(work, workload.name, seed, "trace" if trace else "run",
                              seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(report["setup_s"])
    grids = report["grids"]
    traced = report.get("traced")
    all_grids = grids + ([traced] if traced else [])

    problems = [p for g in all_grids for p in g["problems"]]
    attempted = sum(g["cells"] for g in all_grids)
    failed = sum(g["failed"] for g in all_grids)
    digests = [g.get("csv") for g in all_grids]
    if failed == 0:
        if any(d != digests[0] for d in digests):
            problems.append("metrics.csv / rates.csv differ between repeats")
        key = f"{workload.name}/seed{seed}/{code_digest(workload, seed)}"
        problems += check_digests(work_root, key, digests[0])
    untraced_wall = statistics.median(g["wall_s"] for g in grids)
    slowdown = statistics.median(g["slowdown"] for g in grids)

    values = {}
    if traced:
        values = per_layer(traced, untraced_wall, [m["name"] for m in wanted])
        if not traced["bindings_restored"]:
            problems.append("tracer left a wrapped binding behind")
        audit = sum(traced["audit_rows"].values())
        if traced["attack_rows_under_strategies"] != audit:
            problems.append(f"attacks.attack rows under strategies "
                            f"{traced['attack_rows_under_strategies']} != audit rows {audit}")
        self_sum = sum(t[3] for t in traced["totals"].values())
        unattributed = traced["wall_s"] - traced["top_level_s"]
        if abs(self_sum + unattributed - traced["wall_s"]) > 1e-6 * traced["wall_s"]:
            problems.append("span self times plus unattributed time do not sum to wall_s")
    if failed == 0:
        values.update({
            "setup_s": statistics.median(setups),
            "wall_norm_s": statistics.median(g["wall_norm_s"] for g in grids),
            "peak_rss_mb": report["peak_rss_mb"],
            "final_acc": grids[0]["final_acc"],
            "final_rob": grids[0]["final_rob"],
        })
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"{workload.name}: no value for {', '.join(missing)} "
             f"({failed} of {attempted} cells failed)")

    machine = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
               "python": platform.python_version(), **report["machine"],
               "loadavg_at_start": load_at_start}
    cfg_seeds = " ".join(map(str, workload.config_seeds(seed)))
    print(f"workload {workload.name}: {workload.config} strategies="
          f"{' '.join(workload.strategies)} seeds={cfg_seeds}; {len(grids)} untraced "
          f"repeat(s) for {seconds:g} s{', 1 traced' if traced else ''}")
    print("  why: " + workload.why)
    print("  machine " + json.dumps(machine))
    if traced:
        spans = sorted(traced["totals"].items(), key=lambda kv: -kv[1][3])
        print_table([(n, f"{t[3]:.4f}", f"s self  {t[2]:.4f} s total  "
                      f"{t[0]} calls  {t[1]} rows") for n, t in spans],
                    "traced spans by self time:")
    # error_rate is carried by attempted/failed in the result: a metric
    # that is 0 on every good run cannot have a relative bound.
    extra = [("error_rate", failed / attempted, f"fraction of {attempted} cells")]
    if not trace:
        extra += [("wall_s (raw, not in the result)", untraced_wall, "s"),
                  ("host slowdown (probe / REF_S)", slowdown,
                   f"x, {sum(g['probes'] for g in grids)} probes")]
    print_table([(m["name"], values[m["name"]], m["unit"]) for m in wanted] + extra,
                "per-layer metrics:" if trace else "end-to-end metrics:")
    for p in problems:
        print("FAILED CHECK: " + p)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload, one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    spec_path = ROOT / "BENCHMARK.json"
    needed = [ROOT / "src" / "eatcl" / "runner.py", spec_path]
    for path in needed + [ROOT / WORKLOADS[n].config for n in names]:
        if not path.is_file():
            fail(f"{path.relative_to(ROOT)} is missing; run from a full checkout")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), wanted)
               for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
