"""Session fixture that executes each shipped config, every
configs/*.conf, once.

The end-to-end checks in test_acceptance.py share these runs (and their
wall-clock numbers) instead of re-running configs per test; nothing else
in the suite runs a shipped config. When the fixture ran, the terminal
summary lists each config's wall-clock seconds next to its budget, since
pytest's durations table charges all of them to the first test that uses
the fixture, the sha256 prefixes of its metrics.csv and rates.csv, so a
log shows whether outputs moved, its attack gradient passes (calls of
attacks.ce_input_grad, training and evaluation together), which
test_stream_fgsm_orderings_and_cost compares, its calls of
strategies.eat_generate, which test_stream_eat_one_external_call_per_group
pins, and its SGD steps (calls of strategies.sgd_step), all lockstep
groups' together. When
test_robustness_under_stronger_evaluation ran, the summary also prints each
config's final robustness per strategy under the shipped evaluation attack
and the two stronger ones. The digests depend on the numeric build, so
test_acceptance.py asserts them against tests/digests.json only on the
build recorded there (build_facts).
Every run's summary also prints the line counts of src/eatcl, of
strategies.py, of tests/ and of configs/*.conf, the number of src/eatcl's
public functions and methods, of their parameters and of those with
defaults, the number of config keys, the number of TrainConfig and
AttackConfig fields, which counts library-only options too, and the
number of monkeypatch.setattr calls on eatcl.strategies in tests/.

shrunk() cuts a config's text to a few steps of every path it runs, for the
tests that run shipped configs under a tracer (test_perfbench_contract.py,
test_callers.py).
"""

import contextlib
import ctypes
import dataclasses
import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import eatcl.attacks
import eatcl.strategies
from eatcl.attacks import AttackConfig
from eatcl.runner import RunResult, default_config, parse_config, run_experiment
from eatcl.strategies import TrainConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src" / "eatcl"
# every shipped config runs, so one without recorded digests fails
# test_shipped_output_digests
SHIPPED = tuple(sorted(p.stem for p in CONFIG_DIR.glob("*.conf")))
RUNS = pytest.StashKey[dict]()
# the keys shrunk() sets, and their values: a few steps of every path a config runs
SHRUNK = {
    "train.epochs_per_task": "2",
    "crescents.per_class": "12",
    "blobs.per_class": "12",
    "blobs.test_per_class": "4",
    "blobs.tasks": "2",
    "train.eat_external_epochs": "1",
}
# config name -> strategy -> mean final robustness (shipped, FGSM, PGD-20)
STRONGER = pytest.StashKey[dict]()


class ConfigRun:
    """One executed config: its parsed config, run_experiment's results,
    output directory, wall-clock seconds, attack gradient passes (calls of
    attacks.ce_input_grad, one per attack step), eat_generate calls and SGD
    steps (calls of strategies.sgd_step, one per lockstep group's step)."""

    def __init__(self, name: str, cfg: dict, results: list[RunResult], out_dir: Path,
                 seconds: float, attack_passes: int, eat_generates: int, sgd_steps: int):
        self.name = name
        self.cfg = cfg
        self.results = results
        self.out_dir = out_dir
        self.seconds = seconds
        self.attack_passes = attack_passes
        self.eat_generates = eat_generates
        self.sgd_steps = sgd_steps

    @property
    def summary(self) -> dict:
        return json.loads((self.out_dir / "summary.json").read_text())

    def stat(self, strategy: str, metric: str) -> dict:
        """Per-strategy aggregate: {mean, std, values} for acc or rob."""
        return self.summary["strategies"][strategy][metric]


@contextlib.contextmanager
def _counting(module, name: str, calls: dict):
    """Count the calls of module.name into calls[name] while inside, then
    restore the binding."""
    counted = getattr(module, name)

    def counting(*args):
        calls[name] += 1
        return counted(*args)

    setattr(module, name, counting)
    try:
        yield
    finally:
        setattr(module, name, counted)


def shrunk(text: str) -> str:
    """Config text with SHRUNK's keys set to SHRUNK's values."""
    keep = [line for line in text.splitlines()
            if line.split("#", 1)[0].partition("=")[0].strip() not in SHRUNK]
    return "\n".join(keep + [f"{k} = {v}" for k, v in SHRUNK.items()]) + "\n"


def run_config(name: str, out_dir: Path) -> ConfigRun:
    """Run a shipped config, counting the calls of attacks.ce_input_grad,
    one per attack step, of strategies.eat_generate and of
    strategies.sgd_step for as long as it runs."""
    cfg = parse_config((CONFIG_DIR / f"{name}.conf").read_text())
    calls = {"ce_input_grad": 0, "eat_generate": 0, "sgd_step": 0}
    with (_counting(eatcl.attacks, "ce_input_grad", calls),
          _counting(eatcl.strategies, "eat_generate", calls),
          _counting(eatcl.strategies, "sgd_step", calls)):
        started = time.perf_counter()
        results = run_experiment(cfg, str(out_dir), quiet=True)
        seconds = time.perf_counter() - started
    return ConfigRun(name, cfg, results, out_dir, seconds, calls["ce_input_grad"],
                     calls["eat_generate"], calls["sgd_step"])


@pytest.fixture(scope="session")
def shipped_runs(tmp_path_factory, pytestconfig) -> dict[str, ConfigRun]:
    root = tmp_path_factory.mktemp("shipped")
    runs = pytestconfig.stash[RUNS] = {}
    for name in SHIPPED:
        runs[name] = run_config(name, root / name)
    return runs


def output_digests(run: ConfigRun) -> dict[str, str]:
    """sha256 of the run's metrics.csv and rates.csv, "-" for a missing file."""
    out = {}
    for name in ("metrics.csv", "rates.csv"):
        path = run.out_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"
    return out


def _openblas_core() -> str | None:
    """The kernel set a DYNAMIC_ARCH OpenBLAS picked for this CPU when it
    loaded, read from the library numpy loaded; None if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def build_facts() -> dict:
    """The numeric build that output bits depend on: the numpy version, its
    BLAS, the SIMD extensions numpy found on this CPU, and the OpenBLAS core."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": info["SIMD Extensions"]["found"],
            "openblas_core": _openblas_core()}


def pytest_terminal_summary(terminalreporter, config):
    """Each shipped config's wall-clock seconds, with the budget that
    test_acceptance.py holds it to: the toy pair 120 s together, each
    stream config 300 s; each config's output digests, attack gradient
    passes, eat_generate calls and SGD steps; and, if measured, each config's
    robustness under the stronger evaluation attacks. First, on every run,
    the line counts of src/eatcl and strategies.py, the number of
    src/eatcl's public functions and methods, their parameters and those
    with defaults, the number of config keys, the line count of
    configs/*.conf, the number of TrainConfig + AttackConfig fields, the
    line count of tests/ and its monkeypatch.setattr calls on
    eatcl.strategies."""
    from test_callers import public_signatures  # test_callers imports this module

    functions, params, defaults = public_signatures()
    lines = {p.name: len(p.read_text().splitlines()) for p in SRC_DIR.glob("*.py")}
    conf_lines = sum(len(p.read_text().splitlines()) for p in CONFIG_DIR.glob("*.conf"))
    tests = [p.read_text() for p in Path(__file__).parent.glob("*.py")]
    patches = sum(len(re.findall(r"monkeypatch\.setattr\(eatcl\.strategies\b", t))
                  for t in tests)
    run_fields = sum(len(dataclasses.fields(c)) for c in (TrainConfig, AttackConfig))
    terminalreporter.section("source size")
    terminalreporter.write_line(f"src/eatcl {sum(lines.values())} lines, "
                                f"{lines['strategies.py']} of them in strategies.py, "
                                f"{functions} public functions and methods, "
                                f"{params} public-function parameters, {defaults} with "
                                "defaults; "
                                f"{len(default_config())} config keys, "
                                f"configs/*.conf {conf_lines} lines, "
                                f"{run_fields} TrainConfig + AttackConfig fields; tests/ "
                                f"{sum(len(t.splitlines()) for t in tests)} lines, "
                                f"{patches} monkeypatch.setattr calls on eatcl.strategies")
    runs = config.stash.get(RUNS, {})
    if not runs:
        return
    seconds = {}
    for name, run in runs.items():
        seconds[name] = run.seconds
        if name == "toy_imbalanced" and "toy_balanced" in runs:
            seconds["toy pair"] = runs["toy_balanced"].seconds + run.seconds
    budgets = {"toy pair": 120.0, "stream_pgd": 300.0, "stream_fgsm": 300.0}
    terminalreporter.section("shipped configs: wall-clock seconds, output digests")
    for name, s in seconds.items():
        budget = f" (budget {budgets[name]:.0f} s)" if name in budgets else ""
        digests = passes = ""
        if name in runs:
            digests = "".join(f"  {f} {d[:8]}" for f, d in output_digests(runs[name]).items())
            passes = (f"  {runs[name].attack_passes} attack gradient passes, "
                      f"{runs[name].eat_generates} eat_generate calls, "
                      f"{runs[name].sgd_steps} SGD steps")
        terminalreporter.write_line(f"{name:<16} {s:7.1f} s{budget:<18}{digests}{passes}"
                                    .rstrip())
    stronger = config.stash.get(STRONGER, {})
    if stronger:
        terminalreporter.section("final robustness: shipped evaluation, FGSM at eps, "
                                 "PGD-20 at eps/10")
    for name, by_strategy in stronger.items():
        for strategy, (shipped, fgsm, pgd20) in by_strategy.items():
            terminalreporter.write_line(f"{name:<16} {strategy:<10} {shipped:6.2f} "
                                        f"{fgsm:6.2f} {pgd20:6.2f}")
