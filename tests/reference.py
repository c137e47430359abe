"""Reference math and training that the tests check production against.

Plain versions, written for clarity rather than speed: ``softmax``
normalises logits row by row, ``label_softmax_ce`` is the softmax
cross-entropy indexed by integer labels that ``nets.softmax_ce`` over
one-hot targets must equal bit for bit, and ``backward`` recomputes the forward
activations of a batch and backpropagates a logit gradient to every weight,
bias and to the input; both take single models. ``pgd_every_step`` takes
every PGD step with no early exit, for single and stacked models.
``PerCallReservoir`` inserts one row and samples one member at a time, with
one generator call per draw or batch.

``train_alone`` trains one run of a strategy the straight way: one plain
model, batch by batch, from its own generators; ``train_external`` trains one
+EAT external by the same loop. On purpose they share nothing with
``eatcl.strategies`` or ``eatcl.replay``: no stacked lockstep group, no epoch
plan of buffer draws, no PGD early exit, no one-hot training targets, and
their own learning rate, DER weights, attack counts, attack rates and
metrics. From ``eatcl`` they take only model init, the forward pass,
``one_hot`` for attack targets, the input checks and ``ce_input_grad``
inside ``pgd_every_step``, ``_row_max`` inside ``label_softmax_ce``, and the
data and record types. Nothing in ``eatcl`` calls this module;
production training, attacks and replay run ``nets.softmax_ce``,
``nets.loss_and_grads``, ``nets.ce_input_grad``, ``attacks.attack`` and the
epoch plan of ``replay.ReplayBuffer``.
"""

from dataclasses import replace

import numpy as np

from eatcl.attacks import AttackConfig
from eatcl.metrics import MetricsRecord
from eatcl.nets import (GradBundle, MLPModel, _row_max, ce_input_grad, check_input,
                        check_targets, forward, init_model, one_hot)


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
    return x


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    z = _as_batch(logits)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def label_softmax_ce(logits, labels):
    """Mean softmax cross-entropy and its logit gradient, indexing each
    row's label entry: (rows, labels) for (B, classes) logits, and
    (members, rows, labels) for stacked (E, B, classes) logits, whose E*B
    labels come block by block. Labels must be in range."""
    logits = np.asarray(logits, dtype=np.float64)
    *lead, n, c = logits.shape
    labels = np.asarray(labels)
    if lead:
        label = np.arange(lead[0])[:, None], np.arange(n), labels.reshape(lead[0], n)
    else:
        label = np.arange(n), labels
    shifted = logits - _row_max(logits)
    p = np.exp(shifted)
    total = np.add.reduce(p, axis=-1, keepdims=True)
    loss = np.add.reduce(np.log(total[..., 0]) - shifted[label], axis=-1) / n
    p /= total
    p[label] -= 1.0
    p /= n
    return loss, p


def backward(model: MLPModel, x, dlogits) -> GradBundle:
    """Exact reverse-mode gradients of the loss whose logit-gradient is dlogits.

    Recomputes the forward activations internally, then backpropagates to
    every weight, bias, and to the input batch.
    """
    x = _as_batch(x)
    dlogits = _as_batch(dlogits)
    # forward pass keeping pre-activations
    acts = [x]
    pre = []
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < last else z
        acts.append(h)
    if dlogits.shape != acts[-1].shape:
        raise ValueError(
            f"dlogits shape {dlogits.shape} does not match logits {acts[-1].shape}"
        )
    weight_grads = [None] * len(model.weights)
    bias_grads = [None] * len(model.biases)
    delta = dlogits
    for i in range(last, -1, -1):
        weight_grads[i] = acts[i].T @ delta
        bias_grads[i] = delta.sum(axis=0)
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * (pre[i - 1] > 0)
    return GradBundle(weight_grads, bias_grads, delta)


def pgd_every_step(model: MLPModel, x, targets, cfg: AttackConfig, rng=None) -> np.ndarray:
    """PGD by cfg, taking all cfg.iters steps: a signed-gradient step of size
    cfg.alpha, then np.clip into the eps-ball. With an rng it starts from a
    uniform point in the ball drawn from rng, or for a stacked model member
    e's block from rng[e]; without one, from x."""
    x = check_input(model, x)
    targets = check_targets(targets, (*x.shape[:-1], model.num_classes))
    adv = x
    if rng is not None:
        if x.ndim == 3:
            start = np.stack([r.uniform(-cfg.eps, cfg.eps, size=x.shape[1:]) for r in rng])
        else:
            start = rng.uniform(-cfg.eps, cfg.eps, size=x.shape)
        adv = x + start
    for _ in range(cfg.iters):
        adv = adv + cfg.alpha * np.sign(ce_input_grad(model, adv, targets))
        adv = np.clip(adv, x - cfg.eps, x + cfg.eps)
    return adv.reshape(-1, x.shape[-1])


class PerCallReservoir:
    """Reservoir buffers of E members, one row or one batch per call.

    ``insert`` is Algorithm R (Vitter, "Random sampling with a reservoir",
    ACM TOMS 1985) for one row: fill, then the row with running count seen
    goes to slot integers(0, seen) if that is below capacity. ``sample``
    draws batch_size rows of one member uniformly with replacement, with
    one integers(0, size, size=batch_size) call. Rows are kept as given.
    """

    def __init__(self, capacity: int, members: int = 1):
        self.capacity = capacity
        self.seen_counts = [0] * members
        self.rows = [[] for _ in range(members)]

    @property
    def sizes(self) -> list[int]:
        return [len(rows) for rows in self.rows]

    def insert(self, member: int, row, rng) -> None:
        self.seen_counts[member] += 1
        rows = self.rows[member]
        if len(rows) < self.capacity:
            rows.append(row)
        elif self.capacity:
            j = int(rng.integers(0, self.seen_counts[member]))
            if j < self.capacity:
                rows[j] = row

    def sample(self, member: int, batch_size: int, rng) -> list:
        rows = self.rows[member]
        if not rows:
            raise ValueError("cannot sample from an empty buffer")
        return [rows[j] for j in rng.integers(0, len(rows), size=batch_size)]


LR = 0.1  # every model's SGD learning rate
DER_ALPHA = DERPP_BETA = 0.5  # DER's distillation and DER++'s label weights
_BUFFER_BATCHES = {"er": 1, "der": 1, "derpp": 2}


def _attack(model: MLPModel, x, y, cfg: AttackConfig, rng) -> np.ndarray:
    """cfg's attack on rows x with integer labels y: PGD takes every step;
    FGSM is one signed-gradient step of size eps from x, clipped into the
    eps-ball, drawing nothing, at eps 0 too."""
    targets = one_hot(y, model.num_classes)
    if cfg.kind == "fgsm":
        step = x + cfg.eps * np.sign(ce_input_grad(model, x, targets))
        return np.clip(step, x - cfg.eps, x + cfg.eps)
    return pgd_every_step(model, x, targets, cfg, rng)


def _ce_grads(model: MLPModel, x, y, weight=1.0) -> list[np.ndarray]:
    """weight times the mean cross-entropy's gradients, weights then biases."""
    grads = backward(model, x, weight * label_softmax_ce(forward(model, x), y)[1])
    return grads.weight_grads + grads.bias_grads


def _accuracy(model: MLPModel, x, y) -> float:
    return float(np.mean(np.argmax(forward(model, x), axis=1) == y) * 100.0)


class _Run:
    """One model and its own generators, buffer, attack counts and attack
    rates, trained by one straight loop: step by step, sampling the buffer
    and then inserting each clean current row, and one SGD step per batch."""

    def __init__(self, strategy: str, cfg, model: MLPModel, batch_rng, buffer_rng, atk_rng):
        self.replay, _, robust = strategy.partition("_")
        self.robust = robust or "clean"
        self.cfg, self.model = cfg, model
        self.batch_rng, self.buffer_rng, self.atk_rng = batch_rng, buffer_rng, atk_rng
        self.buffer = PerCallReservoir(0 if self.replay == "joint" else cfg.buffer_capacity)
        self.counts = {"current": 0, "memory": 0, "external": 0}
        self.rates = []  # (task, epoch, rate)

    def fit(self, task, index: int, prev_classes=(), copy=None) -> None:
        """epochs_per_task epochs on task, then on its adversarial copy too
        if given; from task index 1 on, each epoch ends with the share of
        the epoch's adversarial current rows predicted as prev_classes."""
        n, x, y = len(task), task.x, task.y
        if copy is not None:
            x, y = np.concatenate([x, copy]), np.concatenate([y, y])
        for epoch in range(self.cfg.epochs_per_task):
            perm = self.batch_rng.permutation(len(x))
            aes = [] if copy is None else [copy]
            for s in range(0, len(x), self.cfg.batch_size):
                idx = perm[s:s + self.cfg.batch_size]
                aes += self.step(x[idx], y[idx], idx < n, index)
            if aes and index > 0:
                pred = np.argmax(forward(self.model, np.concatenate(aes)), axis=1)
                self.rates.append((index, epoch,
                                   float(np.mean(np.isin(pred, prev_classes)) * 100.0)))

    def step(self, x, y, clean, index: int) -> list:
        """One SGD step on the current batch (x, y), whose clean rows then
        enter the buffer; returns [its adversarial rows], or []."""
        cfg, model, b = self.cfg, self.model, len(x)
        size = cfg.replay_batch_size or cfg.batch_size
        batches = []  # each as arrays (rows, labels, stored logits)
        if index > 0 and self.buffer.sizes[0]:
            batches = [[np.array(a) for a in zip(*self.buffer.sample(0, size, self.buffer_rng))]
                       for _ in range(_BUFFER_BATCHES[self.replay])]
        ax, ay = x, y
        if batches and self.replay == "er":
            ax, ay = np.concatenate([x, batches[0][0]]), np.concatenate([y, batches[0][1]])
        n_atk = {"at": len(ax), "cat": b}.get(self.robust, 0)
        adv = None
        if n_atk:
            adv = _attack(model, ax[:n_atk], ay[:n_atk], cfg.attack, self.atk_rng)
            self.counts["current"] += b
            self.counts["memory"] += n_atk - b
            if cfg.at_mix == "union":
                ax = np.concatenate([ax[:n_atk], adv, ax[n_atk:]])
                ay = np.concatenate([ay[:n_atk], ay[:n_atk], ay[n_atk:]])
            else:
                ax = np.concatenate([adv, ax[n_atk:]])
        grads = _ce_grads(model, ax, ay)
        if batches and self.replay in ("der", "derpp"):
            bx, _, blogits = batches[0]
            diff = forward(model, bx) - blogits
            der = backward(model, bx, (2.0 * DER_ALPHA / diff.size) * diff)
            grads = [g + d for g, d in zip(grads, der.weight_grads + der.bias_grads)]
        if batches and self.replay == "derpp":
            bx, by, _ = batches[1]
            if self.robust == "at":
                bx = _attack(model, bx, by, cfg.attack, self.atk_rng)
                self.counts["memory"] += len(bx)
            grads = [g + d for g, d in zip(grads, _ce_grads(model, bx, by, DERPP_BETA))]
        cx, cy = x[clean], y[clean]  # DER stores the pre-step model's logits
        logits = forward(model, cx) if self.replay in ("der", "derpp") else [None] * len(cx)
        for row in zip(cx, cy, logits):
            self.buffer.insert(0, row, self.buffer_rng)
        layers = len(model.weights)
        params = [p - LR * g for p, g in zip(model.weights + model.biases, grads)]
        self.model = MLPModel(model.layer_sizes, params[:layers], params[layers:])
        return [] if adv is None else [adv[:b]]


def train_external(task, layer_sizes, cfg, seed) -> tuple[np.ndarray, int]:
    """+EAT's adversarial copy of task, by an external model trained alone
    from seed as a joint_at run of cfg.eat_external_epochs epochs with at_mix
    "replace": model, batch order and attack rng seeded (*seed, 0), (*seed,
    1) and (*seed, 2). Returns the copy and the rows the external attacked,
    copy included."""
    run = _Run("joint_at", replace(cfg, epochs_per_task=cfg.eat_external_epochs,
                                   at_mix="replace"),
               init_model(layer_sizes, [*seed, 0]), np.random.default_rng([*seed, 1]), None,
               np.random.default_rng([*seed, 2]))
    run.fit(task, 0)
    copy = _attack(run.model, task.x, task.y, cfg.attack, run.atk_rng)
    return copy, run.counts["current"] + len(task)


def train_alone(stream, test, strategy: str, cfg, seed: int):
    """One run of strategy over stream from seed, trained alone: returns its
    model, MetricsRecords, attack rates as (task, epoch, rate) and attack
    counts. The model, batch order, buffer and attack rngs are seeded
    (seed, 0) to (seed, 3); task i's +EAT external trains from (seed, 4, i).
    After each task, every task seen so far is evaluated on test under PGD
    with cfg.attack's eps, alpha and iters, with the rng seeded (0, step,
    task). Joint trains once, on the merged stream, as task 0 of the last
    step."""
    sizes = (stream.input_dim, *cfg.hidden, max(stream.all_classes) + 1)
    run = _Run(strategy, cfg, init_model(sizes, [seed, 0]),
               *(np.random.default_rng([seed, k]) for k in (1, 2, 3)))
    eval_attack = AttackConfig("pgd", cfg.attack.eps, cfg.attack.alpha, cfg.attack.iters)
    last = len(stream.tasks) - 1
    plan = ([(last, 0, stream.merged())] if run.replay == "joint"
            else [(i, i, task) for i, task in enumerate(stream.tasks)])
    records = []
    for step, index, task in plan:
        copy = None
        if run.robust == "eat":
            copy, attacked = train_external(task, sizes, cfg, [seed, 4, index])
            run.counts["external"] += attacked
        run.fit(task, index, [c for t in stream.tasks[:index] for c in t.classes], copy)
        seen = test.tasks[:step + 1]
        accs = [_accuracy(run.model, t.x, t.y) for t in seen]
        robs = [_accuracy(run.model, _attack(run.model, t.x, t.y, eval_attack,
                                             np.random.default_rng([0, step, k])), t.y)
                for k, t in enumerate(seen)]
        records.append(MetricsRecord(step, accs, robs, float(np.mean(accs)),
                                     float(np.mean(robs))))
    return run.model, records, run.rates, run.counts
