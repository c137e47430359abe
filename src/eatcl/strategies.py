"""Training strategies over a task stream.

A strategy is one replay scheme combined with one robustness scheme,
named ``<replay>`` or ``<replay>_<robust>``; ``STRATEGIES`` lists the
accepted names, and configs/smoke.conf runs each of them. The replay
schemes are joint training (``joint``: all tasks merged into one, no
buffer), experience replay (``er``: a batch drawn from a reservoir buffer
is appended to every current batch), and dark experience replay (``der``,
Buzzega et al., 2020: a distillation term on the logits stored with a
buffer batch, weighted DER_ALPHA = 0.5; ``derpp`` also adds a
cross-entropy term on a second buffer batch, weighted DERPP_BETA = 0.5).
The robustness schemes are clean training and:

* +AT — on-the-fly adversarial training against the target model; attacks
  every label-supervised batch (current task and replayed samples).
* +CAT — like +AT but attacks are generated from current-task samples only;
  replayed samples train clean.
* +EAT — one fresh external model (same architecture) per generation of
  the task's adversarial copy: once per task, or once per epoch with
  ``eat_refresh``. Each is a ``joint_at`` run from scratch on the current
  task alone, used once to generate its copy, then discarded. The target
  model trains on task-plus-adversarial data with no on-the-fly attack.

Batch composition follows the pure-AT convention for +AT/+CAT (adversarial
examples replace their clean sources; `at_mix="union"` trains both), while
+EAT always unions the generated set with the clean task data. DER's
distillation batch always stays clean, since stored logits pair with clean
inputs, and only clean current-task rows ever enter the buffer. Labels become
one-hot targets (nets.one_hot) once per task for the target, and once for
each +EAT external, and every attack, loss and buffer row takes those.

Runs of one strategy under one TrainConfig differ only in their seed, so
``train_streams`` trains them together, in lockstep: their target models
are the members of one model stacked on the leading model axis of the one
gradient kernel, and every step gathers all members' batches with one
index and runs one attack, one gradient pass and one SGD step for all of
them; one loop, ``_run_task`` over ``batch_step``, trains every model.
+EAT's external models never see the target, so every external of the
group, one per task, member and generation, trains before the first
task, in lockstep too: one stacked model, so +EAT takes tasks of one
size. The group shares one replay buffer, in which each
member has its own block of rows. Its draws never depend on the model,
so each epoch is planned when it starts (see replay), and the plan alone
says which steps replay; each step samples every member with one take
and inserts their rows with one write.
Each member keeps its own stream, test stream, random generators, buffer
block, attack counts and log, and gets exactly the bits it would get
trained alone, as a group of one, whose model is a plain model. All
randomness flows through per-purpose numpy Generators derived from the run
seed, so runs are bit-reproducible; evaluation draws from generators
seeded by (0, step, task) alone and never disturbs training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import AttackConfig, attack
from .datasets import TaskStream
from .metrics import MetricsRecord, clean_accuracy, prev_task_rate, robustness
from .nets import (MLPModel, add_grads, forward, init_model, loss_and_grads,
                   one_hot, sgd_step, softmax_ce, stack_models, unstack_models)
from .replay import ReplayBuffer

STRATEGIES = ("joint", "joint_at", "er", "er_at", "er_cat", "er_eat",
              "der", "der_at", "der_eat", "derpp", "derpp_at", "derpp_eat")
DER_ALPHA = 0.5  # DER's distillation weight
DERPP_BETA = 0.5  # DER++'s label weight
# the buffer batches a replaying step samples
_BUFFER_BATCHES = {"er": 1, "der": 1, "derpp": 2}


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
    lr: float = 0.1
    buffer_capacity: int = 200
    attack: AttackConfig = field(default_factory=AttackConfig)
    eat_external_epochs: int = 10
    hidden: tuple[int, ...] = (32,)  # hidden layer widths
    replay_batch_size: int | None = None  # None -> batch_size
    at_mix: str = "replace"  # "replace" | "union"
    eat_refresh: bool = False  # regenerate the adversarial task copy every epoch

    def __post_init__(self):
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(f"lr must be > 0 and finite, got {self.lr}")
        if self.epochs_per_task < 1 or self.batch_size < 1:
            raise ValueError("epochs_per_task and batch_size must be >= 1")
        if self.replay_batch_size is not None and self.replay_batch_size < 1:
            raise ValueError(f"replay_batch_size must be >= 1, got {self.replay_batch_size}")
        if self.buffer_capacity < 0:
            raise ValueError("buffer_capacity must be >= 0")
        if self.eat_external_epochs < 1:
            raise ValueError("eat_external_epochs must be >= 1")
        if self.at_mix not in ("replace", "union"):
            raise ValueError(f"at_mix must be 'replace' or 'union', got {self.at_mix!r}")
        if not all(h >= 1 for h in self.hidden):
            raise ValueError("hidden sizes must be >= 1")


@dataclass
class AttackRatePoint:
    task: int
    epoch: int
    rate: float


@dataclass
class RunLog:
    records: list[MetricsRecord] = field(default_factory=list)
    attack_rates: list[AttackRatePoint] = field(default_factory=list)
    attack_counts: dict[str, int] = field(
        default_factory=lambda: {"current": 0, "memory": 0, "external": 0})


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


@dataclass
class _Member:
    """One run of a lockstep group: everything but the stacked target model
    and the group's replay buffer is its own. An external has no streams."""
    stream: TaskStream | None
    test: TaskStream | None  # held out, for the metrics snapshots
    seed: int
    rngs: _Rngs
    log: RunLog = field(default_factory=RunLog)


def _lockstep(models) -> MLPModel:
    """The model that trains models in lockstep: the model itself when there
    is one, else all of them stacked on the model axis."""
    return models[0] if len(models) == 1 else stack_models(models)


def _split(model: MLPModel) -> list[MLPModel]:
    """The members of a _lockstep model, as single models."""
    return [model] if model.members is None else unstack_models(model)


def _flat(a: np.ndarray) -> np.ndarray:
    """A member-major (E, rows, ...) array as the (E * rows, ...) batch that
    nets and attacks take, block e for member e."""
    return a.reshape(-1, *a.shape[2:])


def der_terms(model, buf_x, stored_logits, alpha: float):
    """Distillation term: alpha * MSE(model logits on buffer x, stored logits).

    stored_logits holds one row per row of buf_x, in order: (rows, classes),
    or member-major (E, rows / E, classes) for a stacked model, whose mean,
    and so whose gradient's 2 * alpha / size, is taken over each member's
    own logits.
    """
    if stored_logits is None:
        raise ValueError("DER replay needs a buffer that stores logits with its rows")

    def mse(logits):
        if (stored_logits.size != logits.size
                or stored_logits.shape[-1] != logits.shape[-1]):
            raise ValueError(
                f"stored logits shape {stored_logits.shape} != model head {logits.shape}")
        diff = logits - stored_logits.reshape(logits.shape)
        size = diff.shape[-2] * diff.shape[-1]  # one member's
        squares = (diff * diff).reshape(*diff.shape[:-2], size)
        return alpha * np.mean(squares, axis=-1), (2.0 * alpha / size) * diff

    return loss_and_grads(model, buf_x, mse)


def derpp_label_terms(model, buf_x, buf_targets, beta: float):
    """DER++ label term: beta * cross-entropy on a second buffer batch."""
    def weighted_ce(logits):
        ce, dlogits = softmax_ce(logits, buf_targets)
        return beta * ce, beta * dlogits

    return loss_and_grads(model, buf_x, weighted_ce)


def batch_step(model, xb, tb, cb, replay: str, robust: str, members,
               buffer: ReplayBuffer, step, cfg: TrainConfig):
    """One SGD update of every member on its current batch, after which the
    batch's clean rows enter each member's block of the group's buffer.
    Returns the stepped model and the current rows' adversarial ones, or None.

    xb (E, rows, d) and its one-hot targets tb (E, rows, classes) hold member
    e's batch in block e, cb marks its clean task rows (None: all are), and
    model is the _lockstep model of the E members. step is its (batches, writes)
    entry of the buffer's epoch plan, writes None with no buffer. With planned
    batches, as many as the scheme takes (else ValueError), the step replays: ER
    appends a memory batch, DER adds its distillation term on a clean buffer
    batch, and DER++ also its label term on a second one, which +AT attacks in
    place. +AT attacks every row of the cross-entropy batch, +CAT only the
    current rows, which lead it; the adversarial rows replace them or, with
    at_mix "union", follow them. Each member uses its own block and rngs.
    """
    batches, writes = step
    if batches and len(batches) != _BUFFER_BATCHES[replay]:
        raise ValueError(f"replay plan for {replay}: {len(batches)} buffer batches planned")
    # attack takes one rng for a plain model, one per member for a stacked one
    atk_rng = members[0].rngs.attack if len(members) == 1 else [m.rngs.attack for m in members]
    b = xb.shape[1]
    x, t = xb, tb
    if batches and replay == "er":
        mx, mt, _ = buffer.sample_arrays(batches[0])
        x = np.concatenate([xb, mx.reshape(len(members), -1, xb.shape[2])], axis=1)
        t = np.concatenate([tb, mt.reshape(len(members), -1, tb.shape[2])], axis=1)
    n_atk = {"at": x.shape[1], "cat": b}.get(robust, 0)
    if n_atk:
        src, ts = x[:, :n_atk], t[:, :n_atk]
        adv = attack(model, _flat(src), _flat(ts), cfg.attack, atk_rng).reshape(src.shape)
        for m in members:
            m.log.attack_counts["current"] += b
            m.log.attack_counts["memory"] += n_atk - b
        if cfg.at_mix == "union":  # the attacked rows, then their AEs
            x = np.concatenate([src, adv, x[:, n_atk:]], axis=1)
            t = np.concatenate([ts, ts, t[:, n_atk:]], axis=1)
        elif n_atk == x.shape[1]:  # every row attacked: no copy
            x = adv
        else:
            x = np.concatenate([adv, x[:, n_atk:]], axis=1)
    ce_logits = []  # kept for the buffer inserts below

    def ce(logits):
        ce_logits.append(logits)
        return softmax_ce(logits, _flat(t))

    _, grads = loss_and_grads(model, _flat(x), ce)
    if batches and replay in ("der", "derpp"):
        bx, _, blogits = buffer.sample_arrays(batches[0])
        _, der_grads = der_terms(model, bx, blogits, DER_ALPHA)
        grads = add_grads(grads, der_grads)
        if replay == "derpp":
            bx2, bt2, _ = buffer.sample_arrays(batches[1])
            if robust == "at":
                bx2 = attack(model, bx2, bt2, cfg.attack, atk_rng)
                for m in members:
                    m.log.attack_counts["memory"] += len(bx2) // len(members)
            _, label_grads = derpp_label_terms(model, bx2, bt2, DERPP_BETA)
            grads = add_grads(grads, label_grads)
    stepped = sgd_step(model, grads, cfg.lr)
    current_adv = adv[:, :b] if n_atk else None
    if writes is None:
        return stepped, current_adv
    # DER stores the pre-step model's logits of the rows it inserts. Clean,
    # the cross-entropy batch is exactly xb, so they are that pass's logits;
    # otherwise a forward pass over each member's clean rows gives them.
    cx, ct = (_flat(xb), _flat(tb)) if cb is None else (xb[cb], tb[cb])
    ins_logits = None
    if replay in ("der", "derpp"):
        if robust == "clean":
            ins_logits = ce_logits[0].reshape(len(cx), -1)
        else:
            rows = xb if cb is None else [xe[ce] for xe, ce in zip(xb, cb)]
            ins_logits = np.concatenate([forward(single, xe)
                                         for single, xe in zip(_split(model), rows)])
    buffer.insert(writes, cx, ct, ins_logits)
    return stepped, current_adv


def eat_generate(tasks, layer_sizes, cfg: TrainConfig, seeds, counts
                 ) -> list[tuple[MLPModel, np.random.Generator]]:
    """Throwaway external models, one per seed, trained in lockstep.

    Seed k's external trains from scratch on tasks[k] alone (all tasks of
    one size) as a joint_at run: eat_external_epochs epochs with at_mix
    "replace", whatever the target's, with model, batch order and attack
    rng seeded (seed, 0), (seed, 1) and (seed, 2). Returns (model, attack
    rng) per seed; attacking its task's rows with them gives its
    adversarial copy. External k's attacked rows add to counts[k]["external"].
    """
    if not tasks or len(seeds) != len(tasks):
        raise ValueError(f"{len(seeds)} external seeds for {len(tasks)} tasks")
    sizes = sorted({len(task) for task in tasks})
    if len(sizes) > 1 or sizes[0] == 0:
        raise ValueError(f"external tasks need one size > 0, got sizes {sizes}")
    members = [_Member(None, None, s, _Rngs(np.random.default_rng(_sub(s, 1)), None,
                                            np.random.default_rng(_sub(s, 2))))
               for s in seeds]  # no buffer, so no buffer rng
    ext_cfg = replace(cfg, epochs_per_task=cfg.eat_external_epochs, at_mix="replace")
    ext = _run_task(_lockstep([init_model(layer_sizes, _sub(s, 0)) for s in seeds]), 0, tasks,
                    "joint", "at", ext_cfg, members, ReplayBuffer(0, len(members)), ())
    for c, m in zip(counts, members, strict=True):
        c["external"] += m.log.attack_counts["current"]
    return [(single, m.rngs.attack) for single, m in zip(_split(ext), members)]


def _eat_externals(plan, layer_sizes, cfg: TrainConfig, members) -> dict:
    """Every external model of a lockstep group, by task index: for each
    task, member e's list of (model, attack rng), one per generation of its
    adversarial copy (one per task, or one per epoch with eat_refresh).

    One eat_generate call trains them all, seeded (member seed, 4, task,
    *generation) in task-major, member, generation order, each on its
    member's task. So every task must have one size: if not, that call
    raises ValueError before any external trains.
    """
    gens = [()] + [(e,) for e in range(1, cfg.epochs_per_task) if cfg.eat_refresh]
    ext = iter(eat_generate([task for _, _, tasks in plan for task in tasks for _ in gens],
                            layer_sizes, cfg,
                            [_sub(m.seed, 4, index, *g)
                             for _, index, _ in plan for m in members for g in gens],
                            [m.log.attack_counts
                             for _ in plan for m in members for _ in gens]))
    return {index: [[next(ext) for _ in gens] for _ in members] for _, index, _ in plan}


def _run_task(model, index: int, tasks, replay: str, robust: str, cfg: TrainConfig,
              members, buffer: ReplayBuffer, externals) -> MLPModel:
    """Train one task of every member for epochs_per_task epochs, replaying
    from the second task on; tasks[e] is member e's Dataset, all of one size,
    and index their position in the stream (0 for joint's merged task).
    Each member's task labels become one-hot targets here, once, beside its
    rows, and every batch gathers both with one index. From the second task
    on, each epoch ends with each member's attack rate on the epoch's
    adversarial current rows, if any. eat_generate trains +EAT's externals
    here too, at index 0.

    +EAT takes the task's externals, already trained (_eat_externals):
    externals[e] lists member e's (model, attack rng), one per generation.
    Each epoch's adversarial copies are made when the epoch starts and
    written over the last ones, so one copy per member is live at a time.
    Copies are made member by member: stacking their attacks too raised
    perfbench's stream_eat peak_rss_mb from 43.6 to 45.7 MB.
    """
    n = len(tasks[0])
    xs = np.stack([task.x for task in tasks])
    ts = np.stack([one_hot(task.y, model.num_classes) for task in tasks])
    if externals:  # the clean rows, then room for the epoch's adversarial copy
        xs = np.concatenate([xs, np.empty_like(xs)], axis=1)
        ts = np.concatenate([ts, ts], axis=1)
    for epoch in range(cfg.epochs_per_task):
        for m, task, t, ext, copy in zip(members, tasks, ts, externals, xs[:, n:]):
            if epoch < len(ext):
                model_e, rng = ext[epoch]
                copy[...] = attack(model_e, task.x, t[:n], cfg.attack, rng)
                m.log.attack_counts["external"] += n
        aes = [xs[:, n:]] if externals and index > 0 else []  # for the attack rate
        rows = xs.shape[1]
        perms = np.stack([m.rngs.batch.permutation(rows) for m in members])
        clean = perms < n  # every row, unless +EAT adds its copy
        perms += np.arange(len(members))[:, None] * rows  # rows of the flat arrays
        fx, ft = _flat(xs), _flat(ts)
        starts = range(0, rows, cfg.batch_size)
        plan = [([], None)] * len(starts)  # no buffer: no batches, no writes
        if buffer.capacity:  # each member offers the buffer its clean rows
            plan = buffer.plan_epoch(np.add.reduceat(clean, starts, axis=1, dtype=np.int64).T,
                                     _BUFFER_BATCHES[replay] if index > 0 else 0,
                                     cfg.replay_batch_size or cfg.batch_size,
                                     [m.rngs.buffer for m in members])
        for s, step in zip(starts, plan, strict=True):
            idx = perms[:, s:s + cfg.batch_size]
            cb = clean[:, s:s + cfg.batch_size] if externals else None
            model, adv = batch_step(model, fx[idx], ft[idx], cb, replay, robust, members,
                                    buffer, step, cfg)
            if adv is not None and index > 0:
                aes.append(adv)
        if aes:
            for e, (m, single) in enumerate(zip(members, _split(model))):
                m.log.attack_rates.append(AttackRatePoint(index, epoch, prev_task_rate(
                    single, index, np.concatenate([a[e] for a in aes]), m.stream.class_sets)))
    return model


def _snapshot(model, step: int, test: TaskStream, atk: AttackConfig) -> MetricsRecord:
    accs, robs = [], []
    for t, data in enumerate(test.tasks[:step + 1]):
        accs.append(clean_accuracy(model, data))
        robs.append(robustness(model, data, atk, np.random.default_rng([0, step, t])))
    return MetricsRecord(step, accs, robs, float(np.mean(accs)), float(np.mean(robs)))


def train_streams(streams, tests, strategy: str, cfg: TrainConfig, seeds,
                  eval_attack: AttackConfig) -> list[tuple[MLPModel, RunLog]]:
    """Run one strategy over each stream from its run seed, the runs trained
    together in lockstep: run e is (streams[e], tests[e], seeds[e]), and
    position e of the result holds its trained target model and a log of
    per-step metrics, per-epoch attack rates and attack counts, bit for bit
    what it gets trained alone, as a group of one.

    The classifier head spans every class in the stream (single-head, no
    task ids). Metrics snapshots are taken after each task over all tasks
    seen so far, on the run's test stream under eval_attack. Joint training
    is one merged task with an empty buffer, trained and snapshotted at the
    last step.

    The streams must give one model shape and one size per task, +EAT's
    tasks one size, and each test stream the task count and input dim of
    its stream and classes the head holds; otherwise ValueError, before any
    training. One diverging run raises for all of them.
    """
    replay, robust = parse_strategy(strategy)
    if not streams or not len(streams) == len(tests) == len(seeds):
        raise ValueError("need one test stream and one seed per stream")
    for stream, test in zip(streams, tests):
        if len(test.tasks) != len(stream.tasks):
            raise ValueError("test stream must have the same task structure")
    shapes = {((s.input_dim, *cfg.hidden, max(s.all_classes) + 1),
               tuple(len(t) for t in s.tasks)) for s in streams}
    if len(shapes) != 1:
        raise ValueError(f"runs trained in lockstep need one model shape and one "
                         f"size per task, got (layer sizes, task sizes) {sorted(shapes)}")
    ((layer_sizes, _),) = shapes
    for s in [*streams, *tests]:  # every label is one of its stream's classes
        if s.input_dim != layer_sizes[0]:
            raise ValueError(f"input dim {s.input_dim} != model input {layer_sizes[0]}")
        one_hot(np.array(s.all_classes), layer_sizes[-1])
    model = _lockstep([init_model(layer_sizes, _sub(seed, 0)) for seed in seeds])
    members = [_Member(s, test, seed, _Rngs.for_seed(seed))
               for s, test, seed in zip(streams, tests, seeds)]
    buffer = ReplayBuffer(0 if replay == "joint" else cfg.buffer_capacity, len(members))
    last = len(streams[0].tasks) - 1
    if replay == "joint":  # (step, task index, each member's task)
        plan = [(last, 0, [s.merged() for s in streams])]
    else:
        plan = [(i, i, [s.tasks[i] for s in streams]) for i in range(last + 1)]
    # EAT never trains joint, so a task's index is its stream step
    externals = _eat_externals(plan, layer_sizes, cfg, members) if robust == "eat" else {}
    for step, index, tasks in plan:
        model = _run_task(model, index, tasks, replay, robust, cfg, members, buffer,
                          externals.pop(index, ()))
        for m, single in zip(members, _split(model)):
            m.log.records.append(_snapshot(single, step, m.test, eval_attack))
    return [(single, m.log) for single, m in zip(_split(model), members)]
