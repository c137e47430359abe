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
Every model, target and external alike, takes SGD steps at nets.LR = 0.1.
The robustness schemes are clean training and:

* +AT — on-the-fly adversarial training against the target model; attacks
  every label-supervised batch (current task and replayed samples).
* +CAT — like +AT but attacks are generated from current-task samples only;
  replayed samples train clean.
* +EAT — one fresh external model (same architecture) per generation of
  the task's adversarial copy: once per task, or once per epoch with
  ``eat_refresh``. Each is a ``joint_at`` run from scratch on the current
  task alone, which eat_generate uses once to make its copy and then
  discards, returning only the copy. The target model trains on
  task-plus-adversarial data with no on-the-fly attack.

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
size. Each then makes its copy, and every copy is ready before the first
task. The group shares one replay buffer, in which each
member has its own block of rows. Its draws never depend on the model,
so each epoch is planned when it starts (see replay), and the plan alone
says which steps replay; each step samples every member with one take
and inserts their rows with one write.
Each member keeps its run's stream and test stream, and its own random
generators, buffer block, attack counts and log, and gets exactly the bits
it would get trained alone, as a group of one, whose model is a plain
model. All randomness flows through per-purpose numpy Generators derived
from the run seed, so runs are bit-reproducible; evaluation, PGD at the
training attack's eps, alpha and iters, draws from generators seeded by
(0, step, task) alone and never disturbs training.

A grid trains family by family. The strategies of one robustness scheme
form a family (clean, +AT, +CAT and +EAT each one), and each joint
strategy is a family of its own. Nothing is replayed before the second
task, so every replay scheme of a family trains the first task bit for bit
alike: the family builds one model, member set, buffer and plan, makes
each +EAT copy once, in one eat_generate call, and trains and snapshots
its first task once, its buffer storing DER logits if a DER scheme reads
them. The schemes then go on from copies of that state (_branch): their
own members' rngs and logs, buffer arrays and counts, ER's without the
stored logits; the streams and the +EAT copies are shared, never copied.
ER goes on alone; der and derpp, whose steps take alike shaped passes, as
one lockstep group, der's members then derpp's, which alone take DER++'s
label term and its +AT attack. One gradient pass (der_terms) gives both
replay terms, over the group's members and then its derpp members again.
Over E runs, member e of a group trains run e % E, whose task rows,
targets and copy are stacked once. A family of one runs the same lines.
"""

from __future__ import annotations

import time
from copy import deepcopy
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import AttackConfig, attack
from .datasets import TaskStream
from .metrics import MetricsRecord, clean_accuracy, prev_task_rate, robustness
from .nets import (MLPModel, check_targets, forward, init_model, loss_and_grads, one_hot,
                   sgd_step, softmax_ce, stack_models, unstack_models)
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
    buffer_capacity: int = 200
    attack: AttackConfig = field(default_factory=AttackConfig)
    eat_external_epochs: int = 10
    hidden: tuple[int, ...] = (32,)  # hidden layer widths
    replay_batch_size: int | None = None  # None -> batch_size
    at_mix: str = "replace"  # "replace" | "union"
    eat_refresh: bool = False  # regenerate the adversarial task copy every epoch

    def __post_init__(self):
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
    # wall-clock, for manifest.json only: its group's seconds split equally over
    # the group's schemes (der and derpp share one), then over seeds (_train_family)
    train_seconds: float = 0.0


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
    replay: str  # its replay scheme, "joint" for an external
    rngs: _Rngs
    log: RunLog = field(default_factory=RunLog)


def _lockstep(models) -> MLPModel:
    """The model that trains models in lockstep: the model itself when there
    is one, else all of them stacked on the model axis."""
    return models[0] if len(models) == 1 else stack_models(models)


def _split(model: MLPModel) -> list[MLPModel]:
    """The members of a _lockstep model, as single models."""
    return [model] if model.members is None else unstack_models(model)


def _tail(model: MLPModel, members, k: int):
    """The last k members of a lockstep group: their _lockstep model, as
    views of model's parameters, and their attack rngs as attack takes them."""
    if k == 1:
        return _split(model)[-1], members[-1].rngs.attack
    return (MLPModel(model.layer_sizes, [w[-k:] for w in model.weights],
                     [b[-k:] for b in model.biases]), [m.rngs.attack for m in members[-k:]])


def _flat(a: np.ndarray) -> np.ndarray:
    """A member-major (E, rows, ...) array as the (E * rows, ...) batch that
    nets and attacks take, block e for member e."""
    return a.reshape(-1, *a.shape[2:])


def der_terms(model, buf_x, stored_logits, targets, grads):
    """Add the gradients of DER's distillation term into grads, the
    gradients of model (E stacked members, or a plain one), then those of
    DER++'s label term into its last k members'.

    buf_x holds B rows per member, block e for member e, then B label rows
    for each of the last k; stored_logits holds the first E blocks' stored
    logits (E*B rows, or (E, B, classes)), targets the label rows' one-hot
    targets. The terms, DER_ALPHA * MSE(logits, stored logits) over each
    member's own logits and DERPP_BETA * cross-entropy, take one pass over
    the E members, then the last k again: each member slice runs its own
    gemm calls, so the bits are those of two passes apart.
    """
    if stored_logits is None:
        raise ValueError("DER replay needs a buffer that stores logits with its rows")
    e = model.members or 1
    k = len(targets) * e // (len(buf_x) - len(targets))
    # the members, then the last k again; a plain model's parameters as one member's
    order = np.array([*range(e), *range(e - k, e)])
    both = MLPModel(model.layer_sizes,
                    [w.reshape(-1, *w.shape[-2:]).take(order, axis=0) for w in model.weights],
                    [b.reshape(-1, 1, b.shape[-1]).take(order, axis=0) for b in model.biases])

    def loss(logits):  # written over in place as its gradient
        diff, label = logits[:e], logits[e:]
        dce = softmax_ce(label, targets)[1]
        diff -= check_targets(stored_logits, diff.shape)
        diff *= 2.0 * DER_ALPHA / (diff.shape[-2] * diff.shape[-1])  # one member's size
        np.multiply(dce, DERPP_BETA, out=label)
        return None, logits  # no caller reads the losses

    _, terms = loss_and_grads(both, buf_x, loss)
    for g, tg in zip(grads.weight_grads + grads.bias_grads,
                     terms.weight_grads + terms.bias_grads):
        g = g.reshape(-1, *tg.shape[1:])  # a view, one member's for a plain model
        g += tg[:e]
        g[e - k:] += tg[e:]


def batch_step(model, xb, tb, cb, robust: str, members, buffer: ReplayBuffer, step,
               cfg: TrainConfig):
    """One SGD update of every member on its current batch, after which the
    batch's clean rows enter each member's block of the group's buffer.
    Returns the stepped model and the current rows' adversarial ones, or None.

    xb (E, rows, d) and its one-hot targets tb (E, rows, classes) hold member
    e's batch in block e, cb marks its clean task rows (None: all are), and
    model is the _lockstep model of the E members, of one replay scheme or
    der's then derpp's. step is its (batches, writes) entry of the buffer's
    epoch plan, writes None with no buffer. With planned batches, one per
    member and a second per derpp member (else ValueError), the step replays:
    ER appends a memory batch, DER adds its distillation term on a clean
    buffer batch, and the derpp members their label term on the second one,
    which +AT attacks first. Both batches come with one take of the buffer's
    rows, and one der_terms pass adds both terms' gradients into the
    cross-entropy ones, DER's then DER++'s. +AT attacks every row of
    the cross-entropy batch, +CAT only the current rows, which lead it; the
    adversarial rows replace them or, with at_mix "union", follow them.
    Each member uses its own block and rngs.
    """
    batches, writes = step
    replay = members[0].replay
    derpp = sum(m.replay == "derpp" for m in members)  # the trailing members
    size = cfg.replay_batch_size or cfg.batch_size
    planned = [len(b) for b in batches]  # each buffer batch's rows
    if planned and planned != [size * k for k in (len(members), derpp) if k]:
        raise ValueError(f"replay plan for {replay}: buffer batches of {planned} rows planned")
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
        rows = np.concatenate(batches)  # batch 0, then the derpp members' batch 1
        labelled = len(batches[0])  # the first label row
        bx = buffer.x.take(rows, axis=0)
        bt = buffer.targets.take(rows[labelled:], axis=0)
        if robust == "at" and derpp:
            tail, tail_rng = _tail(model, members, derpp)
            bx[labelled:] = attack(tail, bx[labelled:], bt, cfg.attack, tail_rng)
            for m in members[-derpp:]:
                m.log.attack_counts["memory"] += size
        der_terms(model, bx, buffer.logits.take(batches[0], axis=0), bt, grads)
    stepped = sgd_step(model, grads)
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


def eat_generate(tasks, layer_sizes, cfg: TrainConfig, seeds) -> list[tuple[np.ndarray, int]]:
    """Each seed's adversarial copy of its task, from a throwaway external
    model; the externals train in lockstep.

    Seed k's external trains from scratch on tasks[k] alone (all tasks of
    one size) as a joint_at run: eat_external_epochs epochs with at_mix
    "replace", whatever the target's, with model, batch order and attack
    rng seeded (seed, 0), (seed, 1) and (seed, 2). Then it attacks its
    task's rows with that rng, and is discarded. Returns (copy, rows) per
    seed, rows counting the rows attacked in training and the copy's.
    The copies are made one external at a time: stacking their attacks
    raised perfbench's stream_eat peak_rss_mb from 43.6 to 45.7 MB.
    """
    if not tasks or len(seeds) != len(tasks):
        raise ValueError(f"{len(seeds)} external seeds for {len(tasks)} tasks")
    sizes = sorted({len(task) for task in tasks})
    if len(sizes) > 1 or sizes[0] == 0:
        raise ValueError(f"external tasks need one size > 0, got sizes {sizes}")
    members = [_Member(None, None, s, "joint", _Rngs(np.random.default_rng(_sub(s, 1)), None,
                                                     np.random.default_rng(_sub(s, 2))))
               for s in seeds]  # no buffer, so no buffer rng
    ext_cfg = replace(cfg, epochs_per_task=cfg.eat_external_epochs, at_mix="replace")
    ext = _run_task(_lockstep([init_model(layer_sizes, _sub(s, 0)) for s in seeds]), 0, tasks,
                    "at", ext_cfg, members, ReplayBuffer(0, len(members)), ())
    return [(attack(single, task.x, one_hot(task.y, single.num_classes), cfg.attack,
                    m.rngs.attack),
             m.log.attack_counts["current"] + len(task))
            for single, m, task in zip(_split(ext), members, tasks)]


def _eat_copies(plan, layer_sizes, cfg: TrainConfig, members) -> dict:
    """Every adversarial copy of a family, by task index: for each task,
    run e's list of eat_generate's (copy, rows), one per generation (one
    per task, or one per epoch with eat_refresh), members being one per
    run. Every branch of a family reads these arrays, and never writes them.

    One eat_generate call makes them all, seeded (member seed, 4, task,
    *generation) in task-major, member, generation order, each from its
    member's task. So every task must have one size: if not, that call
    raises ValueError before any external trains.
    """
    gens = [()] + [(e,) for e in range(1, cfg.epochs_per_task) if cfg.eat_refresh]
    copies = iter(eat_generate([task for _, _, tasks in plan for task in tasks for _ in gens],
                               layer_sizes, cfg,
                               [_sub(m.seed, 4, index, *g)
                                for _, index, _ in plan for m in members for g in gens]))
    return {index: [[next(copies) for _ in gens] for _ in members] for _, index, _ in plan}


def _run_task(model, index: int, tasks, robust: str, cfg: TrainConfig, members,
              buffer: ReplayBuffer, copies) -> MLPModel:
    """Train one task of every member for epochs_per_task epochs, replaying
    from the second task on, each member as many buffer batches per step as
    its replay scheme samples; tasks[r] is run r's Dataset, all of one size,
    which member e trains for r = e % len(tasks) (see _branch), and index
    their position in the stream (0 for joint's merged task). Each run's
    labels become one-hot targets here, once, in run r's block, and every
    batch gathers all members' rows with one index and their targets with
    another, each member's batch order offset into its run's block; a copy
    row takes its clean row's target. From the
    second task on, each epoch ends with each member's attack rate on the
    epoch's adversarial current rows, if any. eat_generate trains +EAT's
    externals here too, at index 0.

    +EAT takes the task's adversarial copies, already made (_eat_copies):
    copies[r] lists run r's (copy, rows), one per generation. When epoch g
    starts, generation g's copy is written over the last one in the block's
    rows after the clean ones, its rows added to the "external" count of
    each member of run r; the attack rate, with no attack on the fly, is on
    that copy.
    """
    n, runs = len(tasks[0]), len(tasks)
    xs = np.stack([task.x for task in tasks])
    ft = _flat(np.stack([one_hot(task.y, model.num_classes) for task in tasks]))
    if copies:  # the clean rows, then room for the epoch's adversarial copy
        xs = np.concatenate([xs, np.empty_like(xs)], axis=1)
    fx = _flat(xs)
    blocks = (np.arange(len(members)) % runs)[:, None]  # each member's run
    for epoch in range(cfg.epochs_per_task):
        for r, (gens, slot) in enumerate(zip(copies, xs[:, n:])):
            if epoch < len(gens):
                slot[...], attacked = gens[epoch]
                for m in members[r::runs]:
                    m.log.attack_counts["external"] += attacked
        aes = []  # each step's adversarial current rows, for the attack rate
        rows = xs.shape[1]
        perms = np.stack([m.rngs.batch.permutation(rows) for m in members])
        clean = perms < n  # every row, unless +EAT adds its copy
        # rows of the flat arrays: a copy row's target is its clean row's
        tperms = perms % n + blocks * n
        perms += blocks * rows
        starts = range(0, rows, cfg.batch_size)
        plan = [([], None)] * len(starts)  # no buffer: no batches, no writes
        if buffer.capacity:  # each member offers the buffer its clean rows
            plan = buffer.plan_epoch(np.add.reduceat(clean, starts, axis=1, dtype=np.int64).T,
                                     [_BUFFER_BATCHES[m.replay] if index > 0 else 0
                                      for m in members],
                                     cfg.replay_batch_size or cfg.batch_size,
                                     [m.rngs.buffer for m in members])
        for s, step in zip(starts, plan, strict=True):
            idx = perms[:, s:s + cfg.batch_size]
            cb = clean[:, s:s + cfg.batch_size] if copies else None
            model, adv = batch_step(model, fx[idx], ft[tperms[:, s:s + cfg.batch_size]], cb,
                                    robust, members, buffer, step, cfg)
            if adv is not None and index > 0:
                aes.append(adv)
        if index > 0 and (aes or copies):
            for e, (m, single) in enumerate(zip(members, _split(model))):
                ae = xs[e % runs, n:] if copies else np.concatenate([a[e] for a in aes])
                m.log.attack_rates.append(AttackRatePoint(index, epoch, prev_task_rate(
                    single, index, ae, m.stream.class_sets)))
    return model


def _snapshot(model, step: int, test: TaskStream, atk: AttackConfig) -> MetricsRecord:
    accs, robs = [], []
    for t, data in enumerate(test.tasks[:step + 1]):
        accs.append(clean_accuracy(model, data))
        robs.append(robustness(model, data, atk, np.random.default_rng([0, step, t])))
    return MetricsRecord(step, accs, robs, float(np.mean(accs)), float(np.mean(robs)))


def _train_tasks(model, plan, robust: str, cfg: TrainConfig, members,
                 buffer: ReplayBuffer, copies: dict) -> MLPModel:
    """Train every (step, task index, each run's task) of plan in turn,
    each followed by a metrics snapshot of every member, on its test stream
    under PGD at cfg.attack's eps, alpha and iters, whatever its kind."""
    eval_attack = replace(cfg.attack, kind="pgd")
    for step, index, tasks in plan:
        model = _run_task(model, index, tasks, robust, cfg, members, buffer,
                          copies.get(index, ()))
        for m, single in zip(members, _split(model)):
            m.log.records.append(_snapshot(single, step, m.test, eval_attack))
    return model


def _branch(group, members, buffer: ReplayBuffer):
    """A family's state after its first task, for group's replay schemes to
    go on from in lockstep: per scheme, copies of each member's rngs and log,
    and of the buffer's blocks and seen counts, without the stored DER logits
    for ER. The members come scheme-major, so of E runs, member e is scheme
    group[e // E]'s run e % E, and trains that run's task rows, targets and
    +EAT copies, which every scheme shares, as it does the models."""
    branch = ReplayBuffer(buffer.capacity, len(group) * len(members))
    branch.seen_counts = buffer.seen_counts * len(group)
    branch.x, branch.targets, branch.logits = (
        None if a is None else np.concatenate([a] * len(group))
        for a in (buffer.x, buffer.targets, buffer.logits))
    if "er" in group:
        branch.logits = None
    return [replace(m, replay=r, rngs=deepcopy(m.rngs), log=deepcopy(m.log))
            for r in group for m in members], branch


def _train_family(streams, tests, replays, robust: str, cfg: TrainConfig, seeds,
                  layer_sizes) -> list[list[tuple[MLPModel, RunLog]]]:
    """Each replay scheme of replays under one robustness scheme, over the
    runs (streams[e], tests[e], seeds[e]) in lockstep, one list of runs per
    scheme. The first task replays nothing, so it trains once, with DER
    logits stored if a scheme reads them, and each group of schemes trains
    the remaining tasks from a _branch of that state: der and derpp as one,
    whose steps take alike shaped passes, every other scheme alone, each
    from the same tasks and copies of each run (see _branch). Each run's
    log records its group's seconds split equally over the group's
    schemes, plus an equal share of the first task's, per seed."""
    started = time.perf_counter()
    model = _lockstep([init_model(layer_sizes, _sub(seed, 0)) for seed in seeds])
    first = next((r for r in replays if r in ("der", "derpp")), replays[0])
    members = [_Member(s, test, seed, first, _Rngs.for_seed(seed))
               for s, test, seed in zip(streams, tests, seeds)]
    buffer = ReplayBuffer(0 if first == "joint" else cfg.buffer_capacity, len(members))
    last = len(streams[0].tasks) - 1
    if first == "joint":  # (step, task index, each run's task)
        plan = [(last, 0, [s.merged() for s in streams])]
    else:
        plan = [(i, i, [s.tasks[i] for s in streams]) for i in range(last + 1)]
    # EAT never trains joint, so a task's index is its stream step
    copies = _eat_copies(plan, layer_sizes, cfg, members) if robust == "eat" else {}
    model = _train_tasks(model, plan[:1], robust, cfg, members, buffer, copies)
    shared = (time.perf_counter() - started) / len(replays)
    der = [r for r in ("der", "derpp") if r in replays]
    runs = {}
    for group in [[r] for r in replays if r not in der] + ([der] if der else []):
        started = time.perf_counter()
        own, own_buffer = _branch(group, members, buffer)
        trained = _train_tasks(_lockstep(_split(model) * len(group)), plan[1:], robust, cfg,
                               own, own_buffer, copies)
        seconds = (shared + (time.perf_counter() - started) / len(group)) / len(seeds)
        for e, (single, m) in enumerate(zip(_split(trained), own)):
            m.log.train_seconds = seconds
            runs.setdefault(group[e // len(seeds)], []).append((single, m.log))
    return [runs[r] for r in replays]


def train_streams(streams, tests, strategies, cfg: TrainConfig,
                  seeds) -> list[list[tuple[MLPModel, RunLog]]]:
    """Run each strategy over each stream from its run seed, the runs of a
    strategy trained together in lockstep: run e is (streams[e], tests[e],
    seeds[e]), and position e of strategy j's list holds its trained target
    model and a log of per-step metrics, per-epoch attack rates and attack
    counts, bit for bit what it gets trained alone, as a group of one.

    Strategies of one robustness scheme form a family, and every joint
    strategy is a family of its own; each family's first task trains once
    for all of them (_train_family).
    The classifier head spans every class in the stream (single-head, no
    task ids). Metrics snapshots are taken after each task over all tasks
    seen so far, on the run's test stream. Joint training is one merged task
    with an empty buffer, trained and snapshotted at the last step.

    The strategies must be distinct accepted names, the streams must give one model
    shape and one size per task, +EAT's tasks one size, and each test stream
    the task count and input dim of its stream and classes the head holds;
    otherwise ValueError, before any training. One diverging run raises for
    all of them.
    """
    names = [parse_strategy(s) for s in strategies]
    if len(set(strategies)) != len(names):
        raise ValueError(f"strategies must be distinct, got {list(strategies)}")
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
    families: dict[str, list[int]] = {}  # each family's strategies, by position
    for j, (name, (replay, robust)) in enumerate(zip(strategies, names)):
        families.setdefault(name if replay == "joint" else robust, []).append(j)
    runs = {}
    for positions in families.values():
        runs.update(zip(positions, _train_family(
            streams, tests, [names[j][0] for j in positions], names[positions[0]][1], cfg,
            seeds, layer_sizes)))
    return [runs[j] for j in range(len(names))]
