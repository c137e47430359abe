"""Reference math that the tests check the production kernels against.

Plain versions, written for clarity rather than speed: ``softmax``
normalises logits row by row, ``label_softmax_ce`` is the softmax
cross-entropy indexed by integer labels that ``nets.softmax_ce`` over
one-hot targets must equal bit for bit, and ``backward`` recomputes the forward
activations of a batch and backpropagates a logit gradient to every weight,
bias and to the input; both take single models. ``pgd_every_step`` takes
every PGD step with no early exit, for single and stacked models.
``PerCallReservoir`` inserts one row and samples one member at a time, with
one generator call per draw or batch. Nothing in ``eatcl`` calls them;
production training, attacks and replay run ``nets.softmax_ce``,
``nets.loss_and_grads``, ``nets.ce_input_grad``, ``attacks.attack`` and the
epoch plan of ``replay.ReplayBuffer``.
"""

import numpy as np

from eatcl.attacks import AttackConfig
from eatcl.nets import (GradBundle, MLPModel, _row_max, ce_input_grad, check_input,
                        check_targets)


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
