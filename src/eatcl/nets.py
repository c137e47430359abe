"""Dense feed-forward classifiers with exact reverse-mode gradients.

Everything is float64 numpy. Hidden layers use ReLU, the output layer is
linear (logits). Gradients are computed for all parameters and for the
input batch itself; input gradients are what the attack code consumes.
Functions are pure: models go in, new models come out.
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
    shape (layer_sizes[i+1],).
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


def check_input(model: MLPModel, x) -> np.ndarray:
    """x as a float64 (batch, model.input_dim) array, or ValueError."""
    x = _as_batch(x)
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input dim {x.shape[1]} does not match model input {model.input_dim}"
        )
    return x


def _activations(model: MLPModel, x: np.ndarray) -> list[np.ndarray]:
    """[x, hidden activations..., logits] for a checked batch."""
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
    """Logits for a batch, shape (batch, num_classes)."""
    return _activations(model, check_input(model, x))[-1]


def softmax(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    z = _as_batch(logits)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Per-row maxima, shape (batch, 1), reduced over a class-major copy: a
    reduction along a short last axis pays per row, this one per class.
    Same values as logits.max(axis=1); only a zero maximum may come out
    with the other sign, and logits - max is then unchanged but for the
    sign of zeros, which exp and the loss do not see."""
    return np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)[:, None]


def _check_labels(y, n: int, c: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match batch {n}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"label out of range [0, {c})")
    return y


def softmax_ce(logits, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the batch.

    Returns (loss, dlogits) where dlogits = (softmax - onehot) / batch_size,
    i.e. the exact gradient of the mean loss w.r.t. the logits.
    """
    logits = _as_batch(logits)
    n, c = logits.shape
    y = _check_labels(labels, n, c)
    rows = np.arange(n)
    shifted = logits - _row_max(logits)
    p = np.exp(shifted)
    total = np.add.reduce(p, axis=1, keepdims=True)
    loss = float(np.add.reduce(np.log(total[:, 0]) - shifted[rows, y]) / n)
    p /= total
    p[rows, y] -= 1.0
    p /= n
    return loss, p


def ce_targets(labels, n: int, num_classes: int) -> np.ndarray:
    """Checked one-hot targets, shape (n, num_classes), for ce_input_grad.

    Raises ValueError like softmax_ce does for labels of the wrong shape or
    outside [0, num_classes).
    """
    y = _check_labels(labels, n, num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
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
    every gradient; without, only the input gradient array."""
    last = len(model.weights) - 1
    weight_grads = [None] * len(model.weights)
    bias_grads = [None] * len(model.biases)
    delta = dlogits
    for i in range(last, -1, -1):
        if params:
            weight_grads[i] = acts[i].T @ delta
            bias_grads[i] = np.add.reduce(delta, axis=0)
        delta = delta @ model.weights[i].T
        if i > 0:
            # acts[i] = relu(pre-activation), positive exactly where it is
            delta *= acts[i] > 0
    return GradBundle(weight_grads, bias_grads, delta) if params else delta


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
    """Mean cross-entropy and all its gradients from one forward pass."""
    return loss_and_grads(model, x, lambda logits: softmax_ce(logits, y))


def ce_input_grad(model: MLPModel, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. the input batch alone.

    For inner loops that check once and call many times: x must already be
    a float64 batch of the model's input width and targets come from
    ce_targets for that batch; only non-finite logits are still caught.
    Bit-identical to the input gradient of forward + softmax_ce + backward.
    """
    acts = _activations(model, x)
    logits = acts[-1]
    p = logits - _row_max(logits)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=1, keepdims=True)
    p -= targets
    p /= len(x)
    return _backprop(model, acts, p, params=False)
