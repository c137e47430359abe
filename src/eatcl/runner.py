"""Experiment runner: plain-text configs in, deterministic artifacts out.

Config files are line-oriented ``key = value`` pairs; ``#`` starts a
comment and blank lines are ignored. Dotted keys group related settings
(``train.*``, ``attack.*``). Unknown keys are rejected with the offending
line number so typos fail before any training starts.

An experiment is a grid of strategies x seeds over one dataset family. The
seeds of one strategy train in lockstep, as the members of one stacked
model, and the strategies of one robustness scheme form a family that
trains its first task once (strategies.train_streams); every cell still
gets exactly the bits it would get alone and keeps its own artifacts. Every
artifact except manifest.json is byte-deterministic for a given
config: rerunning into a fresh directory reproduces metrics.csv and
rates.csv exactly. Wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .attacks import AttackConfig
from .datasets import (CRESCENT_TEST_PER_CLASS, TaskStream, gen_blob_stream, gen_crescent,
                       imbalance_subsample)
from .nets import MLPModel
from .strategies import STRATEGIES, RunLog, TrainConfig, train_streams


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    value = float(s)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {s!r}")
    return value


def _parse_str_list(s: str) -> tuple[str, ...]:
    parts = tuple(s.split())
    if not parts:
        raise ValueError("expected at least one value")
    return parts


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in _parse_str_list(s))


def _optional(parse):
    """parse, but an empty value means None."""
    return lambda s: None if s.strip() == "" else parse(s)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# key -> (parser, default); a train.<name> or attack.<name> key is (parser,):
# it sets the TrainConfig or AttackConfig field <name> and takes its default.
_SCHEMA: dict[str, tuple] = {
    "experiment": (str, "experiment"),
    "dataset": (str, "blobs"),
    "strategies": (_parse_str_list, ("er",)),
    "seeds": (_parse_int_list, (0,)),
    "crescents.per_class": (int, 1000),
    "crescents.minority_fraction": (_parse_float, 1.0),
    "blobs.tasks": (int, 5),
    "blobs.classes_per_task": (int, 2),
    "blobs.dim": (int, 16),
    "blobs.per_class": (int, 500),
    "blobs.test_per_class": (int, 200),
    "train.epochs_per_task": (int,),
    "train.batch_size": (int,),
    "train.buffer_capacity": (int,),
    "train.hidden": (_parse_int_list,),
    "train.replay_batch_size": (_optional(int),),
    "train.at_mix": (str,),
    "train.eat_external_epochs": (int,),
    "train.eat_refresh": (_parse_bool,),
    "attack.kind": (str,),
    "attack.eps": (_parse_float,),
    "attack.alpha": (_parse_float,),
    "attack.iters": (int,),
}


def default_config() -> dict:
    defaults = {f"{prefix}.{f.name}": f.default for prefix, cls in
                (("train", TrainConfig), ("attack", AttackConfig)) for f in fields(cls)}
    return {k: spec[1] if len(spec) > 1 else defaults[k] for k, spec in _SCHEMA.items()}


def parse_config(text: str) -> dict:
    """Parse config text into a full dict (defaults filled in).

    Raises ConfigError naming the key and 1-based line for anything
    malformed, unknown, or duplicated.
    """
    cfg = default_config()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        parser = _SCHEMA[key][0]
        try:
            cfg[key] = parser(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    _validate(cfg)
    return cfg


def emit_config(cfg: dict) -> str:
    """Inverse of parse_config: every key on its own line, schema order."""
    lines = [f"{k} = {_fmt(cfg[k])}" for k in _SCHEMA]
    return "\n".join(lines) + "\n"


def _validate(cfg: dict) -> None:
    name = cfg["experiment"]  # the run directory under the output root
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ConfigError(f"experiment must be one path component other than "
                          f"'.' and '..', got {name!r}")
    if cfg["dataset"] not in ("crescents", "blobs"):
        raise ConfigError(f"dataset must be 'crescents' or 'blobs', got {cfg['dataset']!r}")
    for s in cfg["strategies"]:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; pick from {sorted(STRATEGIES)}")
    for key in ("strategies", "seeds"):
        if len(set(cfg[key])) != len(cfg[key]):
            raise ConfigError(f"{key} must be distinct")
    if min(cfg["seeds"]) < 0:
        raise ConfigError("seeds must be >= 0")
    if not (0.0 < cfg["crescents.minority_fraction"] <= 1.0):
        raise ConfigError("crescents.minority_fraction must be in (0, 1]")
    # Delegate the checks of train.* and attack.* values to the dataclasses
    # so the CLI and the library reject identical configs for identical reasons.
    try:
        build_train_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _under(cfg: dict, prefix: str) -> dict:
    """The values of cfg's <prefix>.<name> keys, by name."""
    return {k[len(prefix) + 1:]: v for k, v in cfg.items() if k.startswith(prefix + ".")}


def build_train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(attack=AttackConfig(**_under(cfg, "attack")), **_under(cfg, "train"))


def build_streams(cfg: dict, seed: int) -> tuple[TaskStream, TaskStream]:
    """Train and test streams for one run seed. Test data is always
    balanced and freshly sampled, and blob tasks share centers across the
    two streams. A dataset value the generators reject is a ConfigError."""
    try:
        if cfg["dataset"] == "crescents":
            train = gen_crescent(cfg["crescents.per_class"], seed=[seed, 100])
            frac = cfg["crescents.minority_fraction"]
            if frac < 1.0:  # class 1, the upper band, is the minority
                train = imbalance_subsample(train, frac, seed=[seed, 102])
            test = gen_crescent(CRESCENT_TEST_PER_CLASS, seed=[seed, 101])
            return TaskStream([train]), TaskStream([test])
        train = gen_blob_stream(cfg["blobs.tasks"], cfg["blobs.classes_per_task"],
                                cfg["blobs.dim"], cfg["blobs.per_class"],
                                seed=[seed, 100], sample_seed=[seed, 101])
        test = gen_blob_stream(cfg["blobs.tasks"], cfg["blobs.classes_per_task"],
                               cfg["blobs.dim"], cfg["blobs.test_per_class"],
                               seed=[seed, 100], sample_seed=[seed, 102])
    except ValueError as exc:
        raise ConfigError(f"{cfg['dataset']}: {exc}") from exc
    return train, test


def grid_streams(cfg: dict) -> list[tuple[TaskStream, TaskStream]]:
    """build_streams for every seed of the grid, in the config's order: a
    dataset value the generators reject for any seed fails here."""
    return [build_streams(cfg, seed) for seed in cfg["seeds"]]


@dataclass
class RunResult:
    run_id: str
    strategy: str
    seed: int
    model: MLPModel
    log: RunLog


def run_experiment(cfg: dict, out_dir: str, quiet: bool = False) -> list[RunResult]:
    """Execute the full strategy x seed grid and write all artifacts.

    Every seed's streams are built before anything is written, so a
    dataset value the generators reject fails as a ConfigError with no
    output directory. One strategies.train_streams call trains the grid,
    family by family, each strategy's seeds in lockstep; results, CSV rows
    and the manifest's run list keep the seed-major order (for each seed,
    each strategy). A run's train_seconds is its group's time per scheme
    plus an equal share of its family's first task, divided over the seeds.
    """
    seeds = cfg["seeds"]
    streams = grid_streams(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.conf"), "w") as fh:
        fh.write(emit_config(cfg))

    trains, tests = zip(*streams)  # each seed's (train, test) streams
    # trained[j][i]: strategy j, seed i
    trained = train_streams(trains, tests, cfg["strategies"], build_train_config(cfg), seeds)
    results = [RunResult(f"{strat}_s{seed}", strat, seed, *runs[i])  # seed-major
               for i, seed in enumerate(seeds)
               for strat, runs in zip(cfg["strategies"], trained)]
    if not quiet:
        for r in results:
            final = r.log.records[-1]
            print(f"{r.run_id}: acc {final.mean_accuracy:.2f} "
                  f"rob {final.mean_robustness:.2f} ({r.log.train_seconds:.1f}s)")

    _write_metrics_csv(os.path.join(out_dir, "metrics.csv"), results)
    _write_rates_csv(os.path.join(out_dir, "rates.csv"), results)
    summary = summarize_results(cfg, results)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {"experiment": cfg["experiment"],
                "runs": [r.run_id for r in results],
                "artifacts": ["config.resolved.conf", "metrics.csv", "rates.csv",
                              "summary.json"],
                "train_seconds": {r.run_id: r.log.train_seconds for r in results},
                "note": "train_seconds varies between reruns; all other "
                        "artifacts are deterministic"}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(format_summary_table(summary))
    return results


def _write_metrics_csv(path: str, results: list[RunResult]) -> None:
    with open(path, "w") as fh:
        fh.write("run_id,step,task,accuracy,robustness\n")
        for r in results:
            for rec in r.log.records:
                for t, (acc, rob) in enumerate(zip(rec.per_task_accuracy,
                                                   rec.per_task_robustness)):
                    fh.write(f"{r.run_id},{rec.step + 1},{t + 1},"
                             f"{acc:.17g},{rob:.17g}\n")


def _write_rates_csv(path: str, results: list[RunResult]) -> None:
    with open(path, "w") as fh:
        fh.write("run_id,task,epoch,rate\n")
        for r in results:
            for p in r.log.attack_rates:
                fh.write(f"{r.run_id},{p.task + 1},{p.epoch + 1},{p.rate:.17g}\n")


def summarize_results(cfg: dict, results: list[RunResult]) -> dict:
    """Final-step aggregates per strategy (mean and sample std across seeds)."""
    runs = {}
    per_strategy: dict[str, dict[str, list]] = {}
    for r in results:
        final = r.log.records[-1]
        runs[r.run_id] = {"strategy": r.strategy, "seed": r.seed,
                          "steps": len(r.log.records),
                          "final_accuracy": final.mean_accuracy,
                          "final_robustness": final.mean_robustness}
        slot = per_strategy.setdefault(r.strategy,
                                       {"accuracy": [], "robustness": []})
        slot["accuracy"].append(final.mean_accuracy)
        slot["robustness"].append(final.mean_robustness)
    strategies = {}
    for strat, vals in per_strategy.items():
        entry = {}
        for metric, values in vals.items():
            arr = np.asarray(values)
            std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
            entry[metric] = {"mean": float(np.mean(arr)), "std": std,
                             "values": [float(v) for v in values]}
        strategies[strat] = entry
    return {"experiment": cfg["experiment"], "strategies": strategies,
            "runs": runs}


def format_summary_table(summary: dict) -> str:
    """Fixed-width table of final accuracy/robustness per strategy."""
    lines = [f"experiment: {summary['experiment']}",
             f"{'strategy':<12} {'runs':>4} {'accuracy':>16} {'robustness':>16}"]
    for strat in sorted(summary["strategies"]):
        entry = summary["strategies"][strat]
        n = len(entry["accuracy"]["values"])
        acc = f"{entry['accuracy']['mean']:6.2f} +- {entry['accuracy']['std']:5.2f}"
        rob = f"{entry['robustness']['mean']:6.2f} +- {entry['robustness']['std']:5.2f}"
        lines.append(f"{strat:<12} {n:>4} {acc:>16} {rob:>16}")
    return "\n".join(lines)


def load_summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)
