"""White-box adversarial example generation for the dense classifiers.

FGSM takes a single signed-gradient step of size eps. PGD-K takes K steps
of size alpha, projecting back into the closed L-infinity ball of radius
eps around the clean batch after every step, optionally starting from a
uniform random point inside the ball. Range clipping (e.g. to [0, 1] for
image-like data) is optional and applied after the ball projection.

Attacks never relabel: outputs pair with the original labels.

A stacked model of E members (see nets) attacks a batch of E*B rows, block
e against member e; PGD then takes a sequence of E generators, and member e
draws its random start from the e-th. The output is bit-identical to E
single-model attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import MLPModel, ce_input_grad, ce_targets, check_input
from .nets import forward  # noqa: F401  bound here for perfbench/selftest.py

ATTACK_KINDS = ("fgsm", "pgd")


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "pgd"
    eps: float = 0.0314
    alpha: float = 0.0078
    iters: int = 4
    random_start: bool = True
    clip: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"attack kind must be one of {ATTACK_KINDS}, got {self.kind!r}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if self.clip is not None:
            lo, hi = self.clip
            if not lo < hi:
                raise ValueError(f"clip range needs lo < hi, got {self.clip}")


def input_grad(model: MLPModel, x, y) -> np.ndarray:
    """Gradient of the mean cross-entropy loss w.r.t. the input batch."""
    xs = check_input(model, x)
    grad = ce_input_grad(model, xs, ce_targets(y, xs.shape[:-1], model.num_classes))
    return grad.reshape(-1, xs.shape[-1])


def project_linf(x_adv, x, eps: float) -> np.ndarray:
    """Elementwise clamp of x_adv into [x - eps, x + eps]."""
    x_adv = np.asarray(x_adv, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_adv.shape != x.shape:
        raise ValueError(f"shape mismatch {x_adv.shape} vs {x.shape}")
    # same bits as np.clip, without its per-call wrapper overhead
    return np.minimum(np.maximum(x_adv, x - eps), x + eps)


def fgsm(model: MLPModel, x, y, cfg: AttackConfig) -> np.ndarray:
    """x' = x + eps * sign(grad_x loss), then optional range clip. sign(0) is 0."""
    if cfg.kind != "fgsm":
        raise ValueError(f"fgsm called with kind={cfg.kind!r}")
    x = np.asarray(x, dtype=np.float64)
    adv = x + cfg.eps * np.sign(input_grad(model, x, y))
    if cfg.clip is not None:
        adv = np.clip(adv, cfg.clip[0], cfg.clip[1])
    return adv


def pgd(model: MLPModel, x, y, cfg: AttackConfig, rng) -> np.ndarray:
    """K projected signed-gradient steps inside the closed eps-ball around x.

    The batch, the generators and the labels are checked once, before the
    first step; every step is one forward and one input-only backward pass.
    """
    if cfg.kind != "pgd":
        raise ValueError(f"pgd called with kind={cfg.kind!r}")
    x = check_input(model, x)
    stacked = x.ndim == 3
    if stacked and (isinstance(rng, np.random.Generator) or len(rng) != model.members):
        raise ValueError(f"{model.members} stacked models need a sequence of as many rngs")
    targets = ce_targets(y, x.shape[:-1], model.num_classes)
    if cfg.random_start:
        if stacked:
            start = np.stack([r.uniform(-cfg.eps, cfg.eps, size=x.shape[1:]) for r in rng])
        else:
            start = rng.uniform(-cfg.eps, cfg.eps, size=x.shape)
        adv = x + start
        if cfg.clip is not None:
            adv = np.clip(adv, cfg.clip[0], cfg.clip[1])
    else:
        adv = x.copy()
    for _ in range(cfg.iters):
        adv = adv + cfg.alpha * np.sign(ce_input_grad(model, adv, targets))
        adv = project_linf(adv, x, cfg.eps)
        if cfg.clip is not None:
            adv = np.clip(adv, cfg.clip[0], cfg.clip[1])
    return adv.reshape(-1, x.shape[-1]) if stacked else adv


def attack(model: MLPModel, x, y, cfg: AttackConfig, rng=None) -> np.ndarray:
    """Dispatch on cfg.kind. PGD needs an rng for its random start, or one
    per member for a stacked model."""
    if cfg.kind == "fgsm":
        return fgsm(model, x, y, cfg)
    if rng is None:
        raise ValueError("pgd attack needs an rng")
    return pgd(model, x, y, cfg, rng)
