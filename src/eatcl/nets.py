"""Dense feed-forward classifiers with exact reverse-mode gradients.

Everything is float64 numpy. Hidden layers use ReLU, the output layer is
linear (logits). One softmax cross-entropy kernel serves training and
attacks, against one-hot targets that ``one_hot`` builds, the one place
labels are checked. Gradients are computed for all parameters and for the
input batch itself; input gradients are what the attack code consumes, and
a training pass defers its own until GradBundle.input_grads is read.
Functions are pure: models go in, new models come out.

E independent models of one topology can be stacked on a leading model
axis (``stack_models``) and run through the same kernel in lockstep: their
weights are (E, fan_in, fan_out) and their biases (E, 1, fan_out), and a
batch of E*B rows is split into E blocks of B, block e for member e.
Every member's arrays are bit-identical to what it would get alone.
Training passes compute the gradients of loss terms, never a loss value;
callers sum the terms' gradients in place (strategies.der_terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LR = 0.1  # every model's SGD learning rate


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
    """Gradients of the batch loss: one array per parameter, plus
    d(loss)/d(input) as input_grads, which a training pass defers. It is
    computed when read, from the pass's layer-0 delta (d loss / d first
    layer output) and layer-0 weights, so it is the pass's own even after
    its model is stepped: no step writes weights in place."""

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    delta0: np.ndarray
    weights0: np.ndarray

    def _input_grads(self) -> np.ndarray:
        return (self.delta0 @ self.weights0.mT).reshape(-1, self.weights0.shape[-2])

    input_grads = property(_input_grads)  # (batch, input_dim); E*B rows if stacked


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
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
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


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Per-row maxima, shape (..., batch, 1), reduced over a class-major
    copy: a reduction along a short last axis pays per row, this one per
    class. Same values as logits.max(axis=-1); only a zero maximum may come
    out with the other sign, and logits - max is then unchanged but for the
    sign of zeros, which exp does not see."""
    return np.maximum.reduce(np.ascontiguousarray(logits.mT), axis=-2)[..., None]


def one_hot(labels, num_classes: int) -> np.ndarray:
    """One-hot float targets of shape (*labels.shape, num_classes), the only
    label form training and attacks take. The one place labels are checked:
    ValueError for non-integer or 0-d labels, or one outside
    [0, num_classes)."""
    y = np.asarray(labels)
    if y.ndim == 0 or not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must be an integer array, got {y.dtype} of shape {y.shape}")
    if np.logical_or.reduce((y < 0) | (y >= num_classes), axis=None):
        raise ValueError(f"label out of range [0, {num_classes})")
    return np.eye(num_classes)[y]


def check_targets(targets, shape) -> np.ndarray:
    """targets as an array of the (..., rows, classes) logits shape, given
    in that shape or, for stacked (E, B, classes) logits, as E*B rows block
    by block; ValueError for any other shape."""
    targets = np.asarray(targets)
    if targets.shape[-1:] != shape[-1:] or targets.size != math.prod(shape):
        raise ValueError(f"targets shape {targets.shape} does not match logits {tuple(shape)}")
    return targets.reshape(shape)


def _ce_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(logits) = (softmax - targets) / rows, as a new
    array, for targets of the logits' shape."""
    p = logits - _row_max(logits)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    p -= targets
    p /= p.shape[-2]
    return p


def softmax_ce(logits, targets) -> np.ndarray:
    """Gradient of the mean softmax cross-entropy over the batch against
    one-hot targets, w.r.t. the logits: (softmax - targets) / batch_size,
    shaped like the logits. No loss value is computed. Stacked logits
    (E, B, classes) take E*B target rows, block e for member e (see
    check_targets), and each member's gradient is that of its own mean.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or stacked 3-D logits, got shape {logits.shape}")
    return _ce_grad(logits, check_targets(targets, logits.shape))


def sgd_step(model: MLPModel, grads: GradBundle) -> MLPModel:
    """One SGD update, theta <- theta - LR * grad. Returns a new model."""
    for w, gw in zip(model.weights, grads.weight_grads):
        if w.shape != gw.shape:
            raise ValueError(f"weight grad shape {gw.shape} != {w.shape}")
    weights = [w - LR * g for w, g in zip(model.weights, grads.weight_grads)]
    biases = [b - LR * g for b, g in zip(model.biases, grads.bias_grads)]
    return MLPModel(model.layer_sizes, weights, biases)


def _backprop(model: MLPModel, acts: list[np.ndarray], dlogits: np.ndarray,
              params: bool):
    """Reverse pass over cached activations. With params, a GradBundle of
    the parameter gradients, the input gradient deferred; without, only the
    input gradient array, shaped like the activations. Batch axes are the
    last two, so a stacked model runs the same lines."""
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
            if i == 0:  # no input matmul: GradBundle.input_grads does it if read
                return GradBundle(weight_grads, bias_grads, delta, model.weights[0])
        delta = delta @ model.weights[i].mT
        if i > 0:
            # acts[i] = relu(pre-activation), positive exactly where it is
            delta *= acts[i] > 0
    return delta


def gradients(model: MLPModel, x, loss) -> GradBundle:
    """All gradients of a loss of the logits, from one forward pass.

    loss(logits) returns d loss / d logits, and may write it over the
    logits. Bit-identical to forward, then loss, then a backward pass that
    recomputes the forward activations (the reference in tests/reference.py).
    A stacked model's gradients stack like its parameters; the input
    gradient, computed when input_grads is read, has E*B rows.
    """
    acts = _activations(model, check_input(model, x))
    return _backprop(model, acts, loss(acts[-1]), params=True)


def ce_input_grad(model: MLPModel, x: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. the input batch alone.

    For inner loops that check once and call many times: x must already be
    a batch from check_input and targets already of its logits' shape (see
    check_targets); only non-finite logits are still caught. Bit-identical
    to the input gradient of gradients with the softmax_ce gradient.
    """
    acts = _activations(model, x)
    return _backprop(model, acts, _ce_grad(acts[-1], targets), params=False)
