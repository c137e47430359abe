"""Experiment runner: plain-text configs in, deterministic artifacts out.

Config files are line-oriented ``key = value`` pairs; ``#`` starts a
comment and blank lines are ignored. Dotted keys group related settings
(``train.*``, ``attack.*``, ``eval.*``). Unknown keys are rejected with
the offending line number so typos fail before any training starts.

An experiment is a grid of strategies x seeds over one dataset family.
Every artifact except manifest.json is byte-deterministic for a given
config: rerunning into a fresh directory reproduces metrics.csv and
rates.csv exactly. Wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .attacks import AttackConfig
from .datasets import (Dataset, TaskStream, gen_blob_stream, gen_crescent,
                       imbalance_subsample, single_task_stream)
from .metrics import boundary_grid
from .nets import MLPModel, SGDConfig
from .strategies import STRATEGIES, EvalSpec, RunLog, TrainConfig, train_stream


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int_list(s: str) -> tuple[int, ...]:
    parts = s.split()
    if not parts:
        raise ValueError("expected at least one integer")
    return tuple(int(p) for p in parts)


def _parse_str_list(s: str) -> tuple[str, ...]:
    parts = tuple(s.split())
    if not parts:
        raise ValueError("expected at least one value")
    return parts


def _parse_opt_int(s: str):
    return None if s.strip() == "" else int(s)


def _parse_opt_float(s: str):
    return None if s.strip() == "" else float(s)


def _parse_opt_bool(s: str):
    return None if s.strip() == "" else _parse_bool(s)


def _parse_opt_str(s: str):
    return None if s.strip() == "" else s.strip()


def _parse_opt_pair(s: str):
    if s.strip() == "":
        return None
    parts = s.split()
    if len(parts) != 2:
        raise ValueError("expected two numbers or empty")
    return (float(parts[0]), float(parts[1]))


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


# key -> (parser, default). None defaults for eval.attack.* mean "inherit
# from attack.*"; resolution happens in build_eval_attack.
_SCHEMA: dict[str, tuple] = {
    "experiment": (str, "experiment"),
    "dataset": (str, "blobs"),
    "strategies": (_parse_str_list, ("er",)),
    "seeds": (_parse_int_list, (0,)),
    "crescents.per_class": (int, 1000),
    "crescents.noise": (float, 0.015),
    "crescents.minority_class": (int, 1),
    "crescents.minority_fraction": (float, 1.0),
    "crescents.test_per_class": (int, 1000),
    "blobs.tasks": (int, 5),
    "blobs.classes_per_task": (int, 2),
    "blobs.dim": (int, 16),
    "blobs.per_class": (int, 500),
    "blobs.test_per_class": (int, 200),
    "blobs.separation": (float, 0.09),
    "blobs.noise": (float, 0.05),
    "train.epochs_per_task": (int, 50),
    "train.batch_size": (int, 32),
    "train.lr": (float, 0.1),
    "train.buffer_capacity": (int, 200),
    "train.hidden": (_parse_int_list, (32,)),
    "train.replay_batch_size": (_parse_opt_int, None),
    "train.at_mix": (str, "replace"),
    "train.eat_external_epochs": (int, 10),
    "train.eat_refresh": (_parse_bool, False),
    "train.der_alpha": (float, 0.5),
    "train.derpp_beta": (float, 0.5),
    "attack.kind": (str, "pgd"),
    "attack.eps": (float, 0.0314),
    "attack.alpha": (float, 0.0078),
    "attack.iters": (int, 4),
    "attack.random_start": (_parse_bool, True),
    "attack.clip": (_parse_opt_pair, None),
    "eval.attack.kind": (_parse_opt_str, None),
    "eval.attack.eps": (_parse_opt_float, None),
    "eval.attack.alpha": (_parse_opt_float, None),
    "eval.attack.iters": (_parse_opt_int, None),
    "eval.attack.random_start": (_parse_opt_bool, None),
    "eval.seed": (int, 0),
    "save.models": (_parse_bool, True),
    "save.grids": (_parse_bool, True),
    "grid.resolution": (int, 120),
}


def default_config() -> dict:
    return {k: d for k, (_, d) in _SCHEMA.items()}


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
    if cfg["dataset"] not in ("crescents", "blobs"):
        raise ConfigError(f"dataset must be 'crescents' or 'blobs', got {cfg['dataset']!r}")
    for s in cfg["strategies"]:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; pick from {sorted(STRATEGIES)}")
    if len(set(cfg["seeds"])) != len(cfg["seeds"]):
        raise ConfigError("seeds must be distinct")
    if cfg["attack.kind"] not in ("fgsm", "pgd"):
        raise ConfigError(f"attack.kind must be 'fgsm' or 'pgd', got {cfg['attack.kind']!r}")
    ek = cfg["eval.attack.kind"]
    if ek is not None and ek not in ("fgsm", "pgd"):
        raise ConfigError(f"eval.attack.kind must be 'fgsm' or 'pgd', got {ek!r}")
    if not (0.0 < cfg["crescents.minority_fraction"] <= 1.0):
        raise ConfigError("crescents.minority_fraction must be in (0, 1]")
    if cfg["grid.resolution"] < 2:
        raise ConfigError("grid.resolution must be >= 2")
    # Delegate numeric range checks to the dataclasses so the CLI and the
    # library reject identical configs for identical reasons.
    try:
        build_train_config(cfg, seed=0)
        build_eval_attack(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_attack(cfg: dict) -> AttackConfig:
    return AttackConfig(kind=cfg["attack.kind"], eps=cfg["attack.eps"],
                        alpha=cfg["attack.alpha"], iters=cfg["attack.iters"],
                        random_start=cfg["attack.random_start"],
                        clip=cfg["attack.clip"])


def build_eval_attack(cfg: dict) -> AttackConfig:
    def pick(key, fallback):
        v = cfg[key]
        return fallback if v is None else v
    return AttackConfig(kind=pick("eval.attack.kind", cfg["attack.kind"]),
                        eps=pick("eval.attack.eps", cfg["attack.eps"]),
                        alpha=pick("eval.attack.alpha", cfg["attack.alpha"]),
                        iters=pick("eval.attack.iters", cfg["attack.iters"]),
                        random_start=pick("eval.attack.random_start",
                                          cfg["attack.random_start"]),
                        clip=cfg["attack.clip"])


def build_train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(epochs_per_task=cfg["train.epochs_per_task"],
                       batch_size=cfg["train.batch_size"],
                       sgd=SGDConfig(learning_rate=cfg["train.lr"]),
                       buffer_capacity=cfg["train.buffer_capacity"],
                       attack=build_attack(cfg),
                       eat_external_epochs=cfg["train.eat_external_epochs"],
                       der_alpha=cfg["train.der_alpha"],
                       derpp_beta=cfg["train.derpp_beta"],
                       seed=seed,
                       hidden_sizes=cfg["train.hidden"],
                       replay_batch_size=cfg["train.replay_batch_size"],
                       at_mix=cfg["train.at_mix"],
                       eat_refresh=cfg["train.eat_refresh"])


def build_streams(cfg: dict, seed: int) -> tuple[TaskStream, TaskStream]:
    """Train and test streams for one run seed. Test data is always
    balanced and freshly sampled; blob tasks share centers across the
    two streams."""
    if cfg["dataset"] == "crescents":
        train = gen_crescent(cfg["crescents.per_class"], cfg["crescents.noise"],
                             seed=[seed, 100])
        frac = cfg["crescents.minority_fraction"]
        if frac < 1.0:
            train = imbalance_subsample(
                train, {cfg["crescents.minority_class"]: frac}, seed=[seed, 102])
        test = gen_crescent(cfg["crescents.test_per_class"], cfg["crescents.noise"],
                            seed=[seed, 101])
        return single_task_stream(train), single_task_stream(test)
    train = gen_blob_stream(cfg["blobs.tasks"], cfg["blobs.classes_per_task"],
                            cfg["blobs.dim"], cfg["blobs.per_class"],
                            cfg["blobs.separation"], cfg["blobs.noise"],
                            seed=[seed, 100], sample_seed=[seed, 101])
    test = gen_blob_stream(cfg["blobs.tasks"], cfg["blobs.classes_per_task"],
                           cfg["blobs.dim"], cfg["blobs.test_per_class"],
                           cfg["blobs.separation"], cfg["blobs.noise"],
                           seed=[seed, 100], sample_seed=[seed, 102])
    return train, test


def save_model_json(model: MLPModel, bounds, path: str) -> None:
    payload = {
        "layer_sizes": list(model.layer_sizes),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "bounds": bounds,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model_json(path: str) -> tuple[MLPModel, dict | None]:
    with open(path) as fh:
        payload = json.load(fh)
    model = MLPModel(tuple(payload["layer_sizes"]),
                     [np.asarray(w, dtype=np.float64) for w in payload["weights"]],
                     [np.asarray(b, dtype=np.float64) for b in payload["biases"]])
    return model, payload.get("bounds")


def write_grid_csv(model: MLPModel, bounds: dict, resolution: int,
                   path: str) -> None:
    grid = boundary_grid(model, tuple(bounds["x"]), tuple(bounds["y"]), resolution)
    with open(path, "w") as fh:
        fh.write("x,y,class\n")
        for row in grid:
            fh.write(f"{row[0]:.17g},{row[1]:.17g},{int(row[2])}\n")


def _data_bounds(stream: TaskStream, pad: float = 0.5) -> dict:
    xs = np.vstack([t.data.x for t in stream.tasks])
    return {"x": [float(xs[:, 0].min() - pad), float(xs[:, 0].max() + pad)],
            "y": [float(xs[:, 1].min() - pad), float(xs[:, 1].max() + pad)]}


@dataclass
class RunResult:
    run_id: str
    strategy: str
    seed: int
    model: MLPModel
    log: RunLog


def run_experiment(cfg: dict, out_dir: str, quiet: bool = False,
                   seeds=None, progress=print) -> list[RunResult]:
    """Execute the full strategy x seed grid and write all artifacts."""
    seeds = list(cfg["seeds"] if seeds is None else seeds)
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("models", "grids"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.conf"), "w") as fh:
        fh.write(emit_config(cfg))

    eval_attack = build_eval_attack(cfg)
    results: list[RunResult] = []
    artifacts = ["config.resolved.conf", "metrics.csv", "rates.csv",
                 "summary.json"]
    seconds: dict[str, float] = {}
    for seed in seeds:
        train_s, test_s = build_streams(cfg, seed)
        for strat in cfg["strategies"]:
            run_id = f"{strat}_s{seed}"
            tcfg = build_train_config(cfg, seed)
            spec = EvalSpec(stream=test_s, attack=eval_attack,
                            seed=cfg["eval.seed"])
            started = time.perf_counter()
            model, log = train_stream(train_s, strat, tcfg, spec)
            seconds[run_id] = time.perf_counter() - started
            results.append(RunResult(run_id, strat, seed, model, log))
            if not quiet:
                final = log.records[-1]
                progress(f"{run_id}: acc {final.mean_accuracy:.2f} "
                         f"rob {final.mean_robustness:.2f} "
                         f"({seconds[run_id]:.1f}s)")
            if cfg["save.models"]:
                bounds = _data_bounds(train_s) if train_s.input_dim == 2 else None
                path = os.path.join(out_dir, "models", f"{run_id}.json")
                save_model_json(model, bounds, path)
                artifacts.append(f"models/{run_id}.json")
                if cfg["save.grids"] and bounds is not None:
                    gpath = os.path.join(out_dir, "grids", f"{run_id}.csv")
                    write_grid_csv(model, bounds, cfg["grid.resolution"], gpath)
                    artifacts.append(f"grids/{run_id}.csv")

    _write_metrics_csv(os.path.join(out_dir, "metrics.csv"), results)
    _write_rates_csv(os.path.join(out_dir, "rates.csv"), results)
    summary = summarize_results(cfg, results)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {"experiment": cfg["experiment"],
                "runs": [r.run_id for r in results],
                "artifacts": sorted(set(artifacts)),
                "train_seconds": seconds,
                "note": "train_seconds varies between reruns; all other "
                        "artifacts are deterministic"}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        progress(format_summary_table(summary))
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
