"""White-box adversarial example generation for the dense classifiers.

``attack`` runs both, by the config's kind. PGD-K takes K signed-gradient
steps of size alpha, projecting back into the closed L-infinity ball of
radius eps around the clean batch after every step, starting from a
uniform random point inside the ball. FGSM is PGD's one step from x: a
single signed-gradient step of size eps with no random start, which the
projection leaves as it is.

A step is a fixed function of the batch, so PGD stops early once a step
returns the whole batch to the state it started from (a fixed point) or to
the state of two steps ago (a cycle of two): from there it only alternates
between its two latest states, and the attack returns the one that the
remaining steps would end on. The output is bit for bit that of taking
every step.

Attacks take one-hot targets (nets.one_hot) and never relabel: outputs
pair with the original targets.

A stacked model of E members (see nets) attacks a batch of E*B rows, block
e against member e; PGD's random start then takes a sequence of E
generators, and member e draws its start from the e-th. The output is
bit-identical to E single-model attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import MLPModel, ce_input_grad, check_input, check_targets
from .nets import forward  # noqa: F401  bound here for perfbench/selftest.py

ATTACK_KINDS = ("fgsm", "pgd")


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "pgd"
    eps: float = 0.0314
    alpha: float = 0.0078
    iters: int = 4

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"attack kind must be one of {ATTACK_KINDS}, got {self.kind!r}")
        # the random start draws from [-eps, eps], whose width must be finite
        if not (self.eps >= 0 and math.isfinite(2 * self.eps)):
            raise ValueError(f"eps must be >= 0 with 2 * eps finite, got {self.eps}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be > 0 and finite, got {self.alpha}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")


def project_linf(x_adv, lo, hi) -> np.ndarray:
    """Elementwise clamp of x_adv into [lo, hi]; the eps-ball around x when
    lo = x - eps and hi = x + eps, which an attack computes once."""
    x_adv = np.asarray(x_adv, dtype=np.float64)
    if not x_adv.shape == lo.shape == hi.shape:
        raise ValueError(f"shape mismatch {x_adv.shape} vs {lo.shape} and {hi.shape}")
    # same bits as np.clip, without its per-call wrapper overhead
    return np.minimum(np.maximum(x_adv, lo), hi)


def _steps(model: MLPModel, x, targets, cfg: AttackConfig, alpha: float, iters: int,
           rng) -> np.ndarray:
    """iters signed-gradient steps of size alpha, each projected into the
    closed cfg.eps-ball around x, from a uniform random start in the ball
    drawn from rng, or from x when rng is None.

    The batch, the generators and the targets are checked once, before the
    first step; every step taken is one forward and one input-only backward
    pass, which still rejects non-finite logits. Once a step returns the
    state it started from or the one before, the loop stops and returns the
    state that taking every remaining step would end on: the same bits,
    fewer passes.
    """
    x = check_input(model, x)
    stacked = x.ndim == 3
    if (rng is not None and stacked
            and (isinstance(rng, np.random.Generator) or len(rng) != model.members)):
        raise ValueError(f"{model.members} stacked models need a sequence of as many rngs")
    targets = check_targets(targets, (*x.shape[:-1], model.num_classes))
    adv = x
    if rng is not None:
        if stacked:
            start = np.stack([r.uniform(-cfg.eps, cfg.eps, size=x.shape[1:]) for r in rng])
        else:
            start = rng.uniform(-cfg.eps, cfg.eps, size=x.shape)
        adv = x + start
    lo, hi = x - cfg.eps, x + cfg.eps
    # the bytes (-0.0 is not 0.0) of adv and of the state before it, each
    # taken once, by the step that made it
    back1, back2 = (adv.tobytes() if iters > 1 else None), None
    for k in range(iters):
        new = adv + alpha * np.sign(ce_input_grad(model, adv, targets))
        new = project_linf(new, lo, hi)
        if k < iters - 1:
            key = new.tobytes()
            # back at adv (a fixed point) or at the state before it: from
            # here the batch only alternates between adv and new
            if key == back1 or key == back2:
                if (iters - 1 - k) % 2 == 0:  # an even number of steps left
                    adv = new
                break
            back2, back1 = back1, key
        adv = new
    return adv.reshape(-1, x.shape[-1]) if stacked else adv


def attack(model: MLPModel, x, targets, cfg: AttackConfig, rng=None) -> np.ndarray:
    """Adversarial examples for x and its one-hot targets against model, by cfg.kind.

    FGSM: x + eps * sign(grad_x loss); sign(0) is 0.
    PGD: cfg.iters projected signed-gradient steps of size cfg.alpha, from a
    random start in the eps-ball; only that start draws from rng, a
    Generator or, for a stacked model, one per member.
    """
    if cfg.kind == "fgsm":
        return _steps(model, x, targets, cfg, cfg.eps, 1, None)
    if rng is None:
        raise ValueError("pgd attack with a random start needs an rng")
    return _steps(model, x, targets, cfg, cfg.alpha, cfg.iters, rng)
