"""Training strategies over a task stream.

A strategy is one replay scheme combined with one robustness scheme, named
``<replay>`` or ``<replay>_<robust>``; ``STRATEGIES`` lists the accepted
names. The replay schemes are joint training (``joint``: all tasks merged
into one, no buffer), experience replay (``er``: a batch drawn from a
reservoir buffer is appended to every current batch), and dark experience
replay (``der``, Buzzega et al., 2020: a distillation term on the logits
stored with a buffer batch; ``derpp`` also adds a beta-weighted
cross-entropy term on a second buffer batch). The robustness schemes are
clean training and:

* +AT — on-the-fly adversarial training against the target model; attacks
  every label-supervised batch (current task and replayed samples).
* +CAT — like +AT but attacks are generated from current-task samples only;
  replayed samples train clean.
* +EAT — one fresh external model (same architecture) per generation of
  the task's adversarial copy: once per task, or once per epoch with
  ``eat_refresh``. Each is adversarially trained from scratch on the
  current task alone, used once to generate its copy, then discarded. A
  task's external models never see the target, so they train together in
  lockstep, stacked on a leading model axis of the one gradient kernel. The
  target model trains on task-plus-adversarial data with no on-the-fly
  attack.

Batch composition follows the pure-AT convention for +AT/+CAT (adversarial
examples replace their clean sources; `at_mix="union"` trains both), while
+EAT always unions the generated set with the clean task data. DER's
distillation batch always stays clean, since stored logits pair with clean
inputs, and only clean current-task rows ever enter the buffer.

One run is strictly sequential. All randomness flows through per-purpose
numpy Generators derived from the run seed, so runs are bit-reproducible;
evaluation draws from a separate seed and never disturbs training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackConfig, attack
from .datasets import Dataset, Task, TaskStream
from .metrics import MetricsRecord, clean_accuracy, prev_task_rate, robustness
from .nets import (MLPModel, SGDConfig, add_grads, ce_loss_and_grads, forward,
                   init_model, loss_and_grads, sgd_step, softmax_ce, stack_models,
                   unstack_models)
from .replay import ReplayBuffer

STRATEGIES = ("joint", "joint_at", "er", "er_at", "er_cat", "er_eat",
              "der", "der_at", "der_eat", "derpp", "derpp_at", "derpp_eat")


def parse_strategy(name: str) -> tuple[str, str]:
    """Split an accepted strategy name into (replay, robust):
    "derpp_at" -> ("derpp", "at"), "er" -> ("er", "clean")."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; pick from {sorted(STRATEGIES)}")
    replay, _, robust = name.partition("_")
    return replay, robust or "clean"


@dataclass
class TrainConfig:
    epochs_per_task: int = 50
    batch_size: int = 32
    sgd: SGDConfig = field(default_factory=SGDConfig)
    buffer_capacity: int = 200
    attack: AttackConfig = field(default_factory=AttackConfig)
    eat_external_epochs: int = 10
    der_alpha: float = 0.5
    derpp_beta: float = 0.5
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (32,)
    replay_batch_size: int | None = None  # None -> batch_size
    at_mix: str = "replace"  # "replace" | "union"
    eat_refresh: bool = False  # regenerate the adversarial task copy every epoch

    def __post_init__(self):
        if self.epochs_per_task < 1 or self.batch_size < 1:
            raise ValueError("epochs_per_task and batch_size must be >= 1")
        if self.buffer_capacity < 0:
            raise ValueError("buffer_capacity must be >= 0")
        if self.eat_external_epochs < 1:
            raise ValueError("eat_external_epochs must be >= 1")
        if self.der_alpha < 0 or self.derpp_beta < 0:
            raise ValueError("loss weights must be >= 0")
        if self.at_mix not in ("replace", "union"):
            raise ValueError(f"at_mix must be 'replace' or 'union', got {self.at_mix!r}")
        if not all(h >= 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")


@dataclass
class EvalSpec:
    """Held-out per-task test stream plus the attack used for robustness."""
    stream: TaskStream
    attack: AttackConfig
    seed: int = 0


@dataclass
class AttackRatePoint:
    task: int
    epoch: int
    rate: float


@dataclass
class RunLog:
    records: list[MetricsRecord] = field(default_factory=list)
    attack_rates: list[AttackRatePoint] = field(default_factory=list)
    data_access: dict[int, set[int]] = field(default_factory=dict)
    attack_counts: dict[str, int] = field(
        default_factory=lambda: {"current": 0, "memory": 0, "external": 0})


class AttackAudit:
    """Counts attacked rows by source and collects current-task AEs per epoch."""

    def __init__(self, counts: dict):
        self.counts = counts
        self._x: list[np.ndarray] = []
        self._y: list[np.ndarray] = []

    def record(self, source: str, n: int) -> None:
        self.counts[source] += n

    def collect_current(self, adv: np.ndarray, y: np.ndarray) -> None:
        if len(adv):
            self._x.append(adv)
            self._y.append(y)

    def reset_epoch(self) -> None:
        self._x, self._y = [], []

    def epoch_dataset(self, classes) -> Dataset | None:
        if not self._x:
            return None
        return Dataset(np.vstack(self._x), np.concatenate(self._y), classes)


def _sub(seed, *parts) -> list[int]:
    base = list(seed) if isinstance(seed, (list, tuple)) else [int(seed)]
    return base + [int(p) for p in parts]


@dataclass
class _Rngs:
    batch: np.random.Generator
    buffer: np.random.Generator
    attack: np.random.Generator

    @staticmethod
    def for_seed(seed) -> "_Rngs":
        return _Rngs(np.random.default_rng(_sub(seed, 1)),
                     np.random.default_rng(_sub(seed, 2)),
                     np.random.default_rng(_sub(seed, 3)))


def der_terms(model, buf_x, stored_logits, alpha: float):
    """Distillation term: alpha * MSE(model logits on buffer x, stored logits)."""
    if stored_logits is None:
        raise ValueError("DER replay needs buffer entries with stored logits")

    def mse(logits):
        if logits.shape != stored_logits.shape:
            raise ValueError(
                f"stored logits shape {stored_logits.shape} != model head {logits.shape}")
        diff = logits - stored_logits
        return alpha * float(np.mean(diff * diff)), (2.0 * alpha / diff.size) * diff

    return loss_and_grads(model, buf_x, mse)


def derpp_label_terms(model, buf_x, buf_y, beta: float):
    """DER++ label term: beta * cross-entropy on a second buffer batch."""
    def weighted_ce(logits):
        ce, dlogits = softmax_ce(logits, buf_y)
        return beta * ce, beta * dlogits

    return loss_and_grads(model, buf_x, weighted_ce)


def batch_step(model, xb, yb, replay: str, robust: str, buffer: ReplayBuffer,
               replaying: bool, cfg: TrainConfig, rngs: _Rngs,
               audit: AttackAudit) -> MLPModel:
    """One SGD update on the current batch (xb, yb).

    With replaying, ER appends a memory batch, DER adds its distillation
    term on a clean buffer batch, and DER++ also its label term on a second
    buffer batch, which +AT attacks in place. +AT attacks every row of the
    cross-entropy batch, +CAT only the current rows, which lead it; the
    adversarial rows replace them or, with at_mix "union", follow them.
    """
    replay_bs = cfg.replay_batch_size or cfg.batch_size
    x, y = xb, yb
    if replaying and replay == "er":
        mx, my, _ = buffer.sample_arrays(replay_bs, rngs.buffer)
        x, y = np.vstack([xb, mx]), np.concatenate([yb, my])
    n_atk = {"at": len(x), "cat": len(xb)}.get(robust, 0)
    if n_atk:
        adv = attack(model, x[:n_atk], y[:n_atk], cfg.attack, rngs.attack)
        audit.record("current", len(xb))
        audit.record("memory", n_atk - len(xb))
        audit.collect_current(adv[:len(xb)], y[:len(xb)])
        if cfg.at_mix == "union":  # the attacked rows, then their AEs
            x = np.vstack([x[:n_atk], adv, x[n_atk:]])
            y = np.concatenate([y[:n_atk], y[:n_atk], y[n_atk:]])
        elif n_atk == len(x):  # every row attacked: no copy
            x = adv
        else:
            x = np.vstack([adv, x[n_atk:]])
    _, grads = ce_loss_and_grads(model, x, y)
    if replaying and replay in ("der", "derpp"):
        bx, _, blogits = buffer.sample_arrays(replay_bs, rngs.buffer)
        _, der_grads = der_terms(model, bx, blogits, cfg.der_alpha)
        grads = add_grads(grads, der_grads)
        if replay == "derpp":
            bx2, by2, _ = buffer.sample_arrays(replay_bs, rngs.buffer)
            if robust == "at":
                bx2 = attack(model, bx2, by2, cfg.attack, rngs.attack)
                audit.record("memory", len(bx2))
            _, label_grads = derpp_label_terms(model, bx2, by2, cfg.derpp_beta)
            grads = add_grads(grads, label_grads)
    return sgd_step(model, grads, cfg.sgd)


def eat_generate(task: Task, layer_sizes, cfg: TrainConfig, seeds,
                 audit: AttackAudit | None = None
                 ) -> list[tuple[MLPModel, np.random.Generator]]:
    """Throwaway external models for a task, one per seed, trained in lockstep.

    Each is a fresh model of the given architecture, adversarially trained
    from scratch on the task alone with its own batch order and attack rng.
    The members are stacked on one model axis, so each attack and SGD step
    serves all of them; member e gets the exact bits it would get alone.
    Returns (model, attack rng) per seed: attacking every task example
    against the model with that rng, as _eat_copy does, gives the seed's
    adversarial copy of the task.
    """
    if len(task.data) == 0:
        raise ValueError("cannot generate adversarial examples for an empty task")
    ext = stack_models([init_model(layer_sizes, _sub(s, 0)) for s in seeds])
    batch_rngs = [np.random.default_rng(_sub(s, 1)) for s in seeds]
    atk_rngs = [np.random.default_rng(_sub(s, 2)) for s in seeds]
    x, y = task.data.x, task.data.y
    n = len(x)
    for _ in range(cfg.eat_external_epochs):
        perms = np.stack([r.permutation(n) for r in batch_rngs])
        for s in range(0, n, cfg.batch_size):
            idx = perms[:, s:s + cfg.batch_size].ravel()  # member-major blocks
            xb, yb = x[idx], y[idx]
            adv = attack(ext, xb, yb, cfg.attack, atk_rngs)
            if audit is not None:
                audit.record("external", len(idx))
            _, grads = ce_loss_and_grads(ext, adv, yb)
            ext = sgd_step(ext, grads, cfg.sgd)
    return list(zip(unstack_models(ext), atk_rngs))


def _eat_copy(task: Task, external, cfg: TrainConfig, audit: AttackAudit) -> Dataset:
    """The adversarial copy of a task from one eat_generate member: every
    task example attacked against it, with its source label."""
    ext, rng = external
    ae_x = attack(ext, task.data.x, task.data.y, cfg.attack, rng)
    audit.record("external", len(ae_x))
    return Dataset(ae_x, task.data.y.copy(), task.data.classes)


def _run_task(model, task: Task, replay: str, robust: str, cfg: TrainConfig,
              buffer: ReplayBuffer, rngs: _Rngs, log: RunLog,
              class_sets) -> MLPModel:
    """Train one task for epochs_per_task epochs, replaying when possible.
    Attack-rate logging needs class_sets (the per-task class sets of the
    stream, in stream order).

    +EAT trains the task's external models first, all in lockstep: one for
    the whole task, or one per epoch with eat_refresh. Each epoch's
    adversarial copy is made when the epoch starts, so one is live at a time.
    """
    audit = AttackAudit(log.attack_counts)
    store_logits = replay in ("der", "derpp")
    ae, externals = None, []
    if robust == "eat":
        # EAT never trains joint, so task.index is the stream step
        seeds = [_sub(cfg.seed, 4, task.index)]
        if cfg.eat_refresh:
            seeds += [_sub(cfg.seed, 4, task.index, e)
                      for e in range(1, cfg.epochs_per_task)]
        externals = eat_generate(task, model.layer_sizes, cfg, seeds, audit)

    def task_arrays(ae_now):
        if ae_now is None:
            return task.data.x, task.data.y, np.ones(len(task.data), dtype=bool)
        xs = np.vstack([task.data.x, ae_now.x])
        ys = np.concatenate([task.data.y, ae_now.y])
        clean = np.concatenate([np.ones(len(task.data), dtype=bool),
                                np.zeros(len(ae_now), dtype=bool)])
        return xs, ys, clean

    xs, ys, clean = task_arrays(None)
    for epoch in range(cfg.epochs_per_task):
        if epoch < len(externals):
            ae = _eat_copy(task, externals[epoch], cfg, audit)
            xs, ys, clean = task_arrays(ae)
        audit.reset_epoch()  # keep only this epoch's AEs for its attack rate
        perm = rngs.batch.permutation(len(xs))
        for s in range(0, len(xs), cfg.batch_size):
            idx = perm[s:s + cfg.batch_size]
            xb, yb, cb = xs[idx], ys[idx], clean[idx]
            pre_step = model
            # Replay engages from the second task on; the buffer still fills
            # during the first so later tasks can draw on it.
            model = batch_step(model, xb, yb, replay, robust, buffer,
                               task.index > 0 and len(buffer) > 0, cfg, rngs, audit)
            if buffer.capacity > 0 and cb.any():
                cx, cy = xb[cb], yb[cb]
                ins_logits = forward(pre_step, cx) if store_logits else None
                buffer.reservoir_insert_arrays(cx, cy, ins_logits, rngs.buffer)
        if task.index > 0:
            ae_now = ae if robust == "eat" else audit.epoch_dataset(task.class_set)
            if ae_now is not None and len(ae_now):
                log.attack_rates.append(AttackRatePoint(
                    task.index, epoch,
                    prev_task_rate(model, task, ae_now, class_sets)))
    return model


def _snapshot(model, step: int, train_stream: TaskStream,
              eval_spec: EvalSpec | None, cfg: TrainConfig,
              log: RunLog) -> MetricsRecord:
    stream = eval_spec.stream if eval_spec is not None else train_stream
    atk = eval_spec.attack if eval_spec is not None else cfg.attack
    eval_seed = eval_spec.seed if eval_spec is not None else 0
    accs, robs = [], []
    for t in range(step + 1):
        data = stream.tasks[t].data
        accs.append(clean_accuracy(model, data))
        robs.append(robustness(model, data, atk,
                               np.random.default_rng([eval_seed, step, t])))
    rates = [p.rate for p in log.attack_rates if p.task == step]
    rate = float(np.mean(rates)) if rates else (0.0 if step == 0 else None)
    return MetricsRecord(step, accs, robs, float(np.mean(accs)),
                         float(np.mean(robs)), rate)


def train_stream(stream: TaskStream, strategy: str, cfg: TrainConfig,
                 eval_spec: EvalSpec | None = None) -> tuple[MLPModel, RunLog]:
    """Run one strategy over the stream; returns the trained target model and
    a log of per-step metrics, per-epoch attack rates, and audit trails.

    The classifier head spans every class in the stream (single-head,
    no task ids). Metrics snapshots are taken after each task over all
    tasks seen so far, on eval_spec's held-out stream when given, else on
    the training data. Joint training is one merged task with an empty
    buffer, trained and snapshotted at the last step.
    """
    replay, robust = parse_strategy(strategy)
    if eval_spec is not None and len(eval_spec.stream.tasks) != len(stream.tasks):
        raise ValueError("eval stream must have the same task structure")
    n_out = max(stream.all_classes) + 1
    layer_sizes = (stream.input_dim, *cfg.hidden_sizes, n_out)
    model = init_model(layer_sizes, _sub(cfg.seed, 0))
    rngs = _Rngs.for_seed(cfg.seed)
    log = RunLog()
    if replay == "joint":
        # (step, task trained, indices of the tasks whose data it reads)
        plan = [(len(stream.tasks) - 1, Task(0, stream.merged(), stream.all_classes),
                 [t.index for t in stream.tasks])]
        buffer = ReplayBuffer(0)
    else:
        plan = [(i, task, [i]) for i, task in enumerate(stream.tasks)]
        buffer = ReplayBuffer(cfg.buffer_capacity)
    for step, task, reads in plan:
        log.data_access[step] = set(reads)
        model = _run_task(model, task, replay, robust, cfg, buffer, rngs, log,
                          stream.class_sets)
        log.records.append(_snapshot(model, step, stream, eval_spec, cfg, log))
    return model, log
