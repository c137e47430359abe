"""Dense feed-forward classifiers with exact reverse-mode gradients.

Everything is float64 numpy. Hidden layers use ReLU, the output layer is
linear (logits). Gradients are computed for all parameters and for the
input batch itself; input gradients are what the attack code consumes.
Functions are pure: models go in, new models come out.

E independent models of one topology can be stacked on a leading model
axis (``stack_models``) and run through the same kernel in lockstep: their
weights are (E, fan_in, fan_out) and their biases (E, 1, fan_out), and a
batch of E*B rows is split into E blocks of B, block e for member e.
Every member's arrays are bit-identical to what it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SGDConfig:
    learning_rate: float = 0.1

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class MLPModel:
    """Fixed-topology MLP: layer_sizes[0] inputs -> ... -> layer_sizes[-1] logits.

    weights[i] has shape (layer_sizes[i], layer_sizes[i+1]); biases[i] has
    shape (layer_sizes[i+1],). A stacked model of E members has weights
    (E, layer_sizes[i], layer_sizes[i+1]) and biases (E, 1, layer_sizes[i+1]).
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def members(self) -> int | None:
        """E for a stacked model, None for a single one."""
        w = self.weights[0]
        return w.shape[0] if w.ndim == 3 else None


@dataclass
class GradBundle:
    """Gradients of the batch loss: one array per parameter plus d(loss)/d(input)."""

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_grads: np.ndarray


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
    return x


def init_model(layer_sizes, seed) -> MLPModel:
    """Seeded uniform init: weights in +-sqrt(6/fan_in), biases zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need >=2 positive layer sizes, got {layer_sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(sizes, weights, biases)


def stack_models(models) -> MLPModel:
    """One stacked model whose member e is models[e]; all share a topology."""
    sizes = models[0].layer_sizes
    if any(m.layer_sizes != sizes or m.members is not None for m in models):
        raise ValueError("can only stack single models of one topology")
    return MLPModel(sizes,
                    [np.stack(ws) for ws in zip(*(m.weights for m in models))],
                    [np.stack(bs)[:, None, :] for bs in zip(*(m.biases for m in models))])


def unstack_models(model: MLPModel) -> list[MLPModel]:
    """The members of a stacked model as single models (views, not copies)."""
    return [MLPModel(model.layer_sizes, [w[e] for w in model.weights],
                     [b[e, 0] for b in model.biases])
            for e in range(model.members)]


def check_input(model: MLPModel, x) -> np.ndarray:
    """x as a float64 (batch, model.input_dim) array, or ValueError.

    For a stacked model of E members the batch's rows must split into E
    equal blocks, and it comes back as an (E, rows / E, input_dim) view.
    """
    x = _as_batch(x)
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input dim {x.shape[1]} does not match model input {model.input_dim}"
        )
    if model.weights[0].ndim == 2:  # single model: skip the property call
        return x
    e = model.members
    if len(x) % e:
        raise ValueError(f"{len(x)} rows do not split over {e} stacked models")
    return x.reshape(e, len(x) // e, x.shape[1])


def _activations(model: MLPModel, x: np.ndarray) -> list[np.ndarray]:
    """[x, hidden activations..., logits] for a checked batch. Single and
    stacked models run the same lines: @ broadcasts over the model axis."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    # ufunc reductions are called directly here and below: they are what
    # .all/.sum/.mean run, minus a wrapper that costs as much as the
    # reduction itself at these batch sizes
    if not np.logical_and.reduce(np.isfinite(h), axis=None):
        raise FloatingPointError("non-finite logits")
    return acts


def forward(model: MLPModel, x) -> np.ndarray:
    """Logits for a batch, shape (batch, num_classes); (E, batch / E,
    num_classes) for a stacked model."""
    return _activations(model, check_input(model, x))[-1]


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    z = _as_batch(logits)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Per-row maxima, shape (..., batch, 1), reduced over a class-major
    copy: a reduction along a short last axis pays per row, this one per
    class. Same values as logits.max(axis=-1); only a zero maximum may come
    out with the other sign, and logits - max is then unchanged but for the
    sign of zeros, which exp and the loss do not see."""
    return np.maximum.reduce(np.ascontiguousarray(logits.mT), axis=-2)[..., None]


def _check_labels(y, n: int, c: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match batch {n}")
    if y.size and (np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= c):
        raise ValueError(f"label out of range [0, {c})")
    return y


def _label_index(labels, shape) -> tuple:
    """Checked labels as a fancy index of each row's label entry in logits
    of the given shape: (rows, labels) for (B, classes), and (members,
    rows, labels) for stacked (E, B, classes), whose E*B labels come block
    by block."""
    if len(shape) == 2:
        n, c = shape
        return np.arange(n), _check_labels(labels, n, c)
    e, b, c = shape
    y = _check_labels(labels, e * b, c)
    return np.arange(e)[:, None], np.arange(b), y.reshape(e, b)


def softmax_ce(logits, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch.

    Returns (loss, dlogits) where dlogits = (softmax - onehot) / batch_size,
    i.e. the exact gradient of the mean loss w.r.t. the logits. Stacked
    logits (E, B, classes) take E*B labels, block e for member e, and give
    one mean loss per member.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or stacked 3-D logits, got shape {logits.shape}")
    label = _label_index(labels, logits.shape)
    n = logits.shape[-2]
    shifted = logits - _row_max(logits)
    p = np.exp(shifted)
    total = np.add.reduce(p, axis=-1, keepdims=True)
    loss = np.add.reduce(np.log(total[..., 0]) - shifted[label], axis=-1) / n
    p /= total
    p[label] -= 1.0
    p /= n
    return loss, p


def ce_targets(labels, lead: tuple[int, ...], num_classes: int) -> np.ndarray:
    """Checked one-hot targets of shape (*lead, num_classes), for a batch
    whose leading shape is lead: (n,), or (E, B) for a stacked model, whose
    E*B labels come block by block.

    Raises ValueError like softmax_ce does for labels of the wrong shape or
    outside [0, num_classes).
    """
    shape = (*lead, num_classes)
    onehot = np.zeros(shape)
    onehot[_label_index(labels, shape)] = 1.0
    return onehot


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


def add_grads(a: GradBundle, b: GradBundle) -> GradBundle:
    """Elementwise sum of two gradient bundles over the same model."""
    return GradBundle(
        [ga + gb for ga, gb in zip(a.weight_grads, b.weight_grads)],
        [ga + gb for ga, gb in zip(a.bias_grads, b.bias_grads)],
        a.input_grads,  # input grads refer to different batches; keep the first
    )


def sgd_step(model: MLPModel, grads: GradBundle, cfg: SGDConfig) -> MLPModel:
    """One SGD update, theta <- theta - lr * grad. Returns a new model."""
    lr = cfg.learning_rate
    for w, gw in zip(model.weights, grads.weight_grads):
        if w.shape != gw.shape:
            raise ValueError(f"weight grad shape {gw.shape} != {w.shape}")
    weights = [w - lr * g for w, g in zip(model.weights, grads.weight_grads)]
    biases = [b - lr * g for b, g in zip(model.biases, grads.bias_grads)]
    return MLPModel(model.layer_sizes, weights, biases)


def _backprop(model: MLPModel, acts: list[np.ndarray], dlogits: np.ndarray,
              params: bool):
    """Reverse pass over cached activations. With params, a GradBundle with
    every gradient; without, only the input gradient array, shaped like
    the activations. Batch axes are the last two, so a stacked model runs
    the same lines."""
    last = len(model.weights) - 1
    weight_grads = [None] * len(model.weights)
    bias_grads = [None] * len(model.biases)
    # a stacked model's bias gradients keep its (E, 1, fan_out) bias shape
    stacked = params and dlogits.ndim == 3
    delta = dlogits
    for i in range(last, -1, -1):
        if params:
            weight_grads[i] = acts[i].mT @ delta
            bias_grads[i] = np.add.reduce(delta, axis=-2, keepdims=stacked)
        delta = delta @ model.weights[i].mT
        if i > 0:
            # acts[i] = relu(pre-activation), positive exactly where it is
            delta *= acts[i] > 0
    if not params:
        return delta
    if stacked:  # the bundle's input gradient has the caller's E*B rows
        delta = delta.reshape(-1, delta.shape[-1])
    return GradBundle(weight_grads, bias_grads, delta)


def loss_and_grads(model: MLPModel, x, loss) -> tuple[float, GradBundle]:
    """A loss of the logits and all its gradients from one forward pass.

    loss(logits) returns (value, d value / d logits). Bit-identical to
    forward, then loss, then backward, which recomputes the forward
    activations.
    """
    acts = _activations(model, check_input(model, x))
    value, dlogits = loss(acts[-1])
    return value, _backprop(model, acts, dlogits, params=True)


def ce_loss_and_grads(model: MLPModel, x, y) -> tuple[float, GradBundle]:
    """Mean cross-entropy and all its gradients from one forward pass. For
    a stacked model, one loss per member, parameter gradients stacked like
    the parameters, and the input gradient in the batch's E*B rows."""
    return loss_and_grads(model, x, lambda logits: softmax_ce(logits, y))


def ce_input_grad(model: MLPModel, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. the input batch alone.

    For inner loops that check once and call many times: x must already be
    a batch from check_input and targets come from ce_targets for that
    batch; only non-finite logits are still caught. Bit-identical to the
    input gradient of forward + softmax_ce + backward.
    """
    acts = _activations(model, x)
    logits = acts[-1]
    p = logits - _row_max(logits)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    p -= targets
    p /= x.shape[-2]
    return _backprop(model, acts, p, params=False)
