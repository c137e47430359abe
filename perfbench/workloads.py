"""The benchmark's workloads: shipped configs with their strategy list
overridden, and the workload seed mapped onto the config's ``seeds``.

The program only ever sees the generated config text; nothing here imports
eatcl. ``expected_attack_counts`` is the config arithmetic the correctness
gate holds ``RunLog.attack_counts`` to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # shipped config, relative to the repository root
    strategies: tuple[str, ...]
    seeds_per_run: int  # config seeds per benchmark run; cells = strategies x seeds
    why: str

    def config_seeds(self, seed: int) -> tuple[int, ...]:
        """Workload seed n -> config seeds, disjoint between workload seeds."""
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        k = self.seeds_per_run
        return tuple(range(seed * k, (seed + 1) * k))

    def config_text(self, root: Path, seed: int) -> str:
        """The shipped config with ``strategies`` and ``seeds`` replaced."""
        keep = []
        for line in (root / self.config).read_text().splitlines():
            key = line.split("#", 1)[0].partition("=")[0].strip()
            if key not in ("strategies", "seeds"):
                keep.append(line)
        keep.append("strategies = " + " ".join(self.strategies))
        keep.append("seeds = " + " ".join(str(s) for s in self.config_seeds(seed)))
        return "\n".join(keep) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        "toy_at", "configs/toy_balanced.conf", ("joint_at",), 1,
        "Crescents, 2-3-2 net, batch 64, PGD-10 with union mix: attack "
        "gradients at the tiniest shapes dominate; the toy acceptance-budget "
        "workload. No replay or EAT work."),
    Workload(
        "stream_eat", "configs/stream_pgd.conf", ("er_at", "er_eat"), 2,
        "The paper's AT-vs-EAT pair on the 16-32-10 stream: per-epoch external "
        "models (eat_generate) and attacked current+memory batches."),
    Workload(
        "stream_replay", "configs/stream_pgd.conf", ("er", "der", "derpp"), 3,
        "Clean replay: 300k reservoir inserts per seed with DER logits at "
        "insert, one or two buffer samples per step; attacks only in evaluation."),
)}


def expected_attack_counts(cfg: dict, strategy: str) -> dict[str, int]:
    """Rows each attack path must touch in one cell, from the config alone.

    Covers the strategies the workloads run; raises KeyError for others.
    """
    epochs = cfg["train.epochs_per_task"]
    if cfg["dataset"] == "crescents":
        if cfg["crescents.minority_fraction"] != 1.0:
            raise KeyError("imbalanced crescents have no closed-form row count")
        tasks, task_rows = 1, 2 * cfg["crescents.per_class"]
    else:
        tasks = cfg["blobs.tasks"]
        task_rows = cfg["blobs.classes_per_task"] * cfg["blobs.per_class"]
    counts = {"current": 0, "memory": 0, "external": 0}
    if strategy in ("er", "der", "derpp"):
        return counts
    if strategy == "joint_at":
        counts["current"] = epochs * tasks * task_rows
    elif strategy == "er_at":
        replay_bs = cfg["train.replay_batch_size"] or cfg["train.batch_size"]
        batches = math.ceil(task_rows / cfg["train.batch_size"])
        counts["current"] = tasks * epochs * task_rows
        if cfg["train.buffer_capacity"] > 0:
            counts["memory"] = (tasks - 1) * epochs * batches * replay_bs
    elif strategy == "er_eat":
        generations = epochs if cfg["train.eat_refresh"] else 1
        per_generation = (cfg["train.eat_external_epochs"] + 1) * task_rows
        counts["external"] = tasks * generations * per_generation
    else:
        raise KeyError(f"no attack-count arithmetic for strategy {strategy!r}")
    return counts
