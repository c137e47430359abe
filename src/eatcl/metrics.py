"""Evaluation metrics: clean accuracy, robustness and cross-task attack rate.

Robustness is accuracy on adversarial examples generated white-box against
the evaluated model itself; its rng is kept separate from training rngs so
evaluation never perturbs training reproducibility. Argmax ties break
toward the lowest class id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import AttackConfig, attack
from .datasets import Dataset
from .nets import MLPModel, forward, one_hot


@dataclass
class MetricsRecord:
    step: int
    per_task_accuracy: list[float]
    per_task_robustness: list[float]
    mean_accuracy: float
    mean_robustness: float


def predict(model: MLPModel, x) -> np.ndarray:
    """Argmax class per row (np.argmax picks the lowest index on ties)."""
    return np.argmax(forward(model, x), axis=1)


def clean_accuracy(model: MLPModel, test: Dataset) -> float:
    if len(test) == 0:
        raise ValueError("empty test set")
    return float(np.mean(predict(model, test.x) == test.y) * 100.0)


def robustness(model: MLPModel, test: Dataset, atk: AttackConfig, rng) -> float:
    """Accuracy on attack(model, test): white-box against the evaluated model."""
    if len(test) == 0:
        raise ValueError("empty test set")
    adv = attack(model, test.x, one_hot(test.y, model.num_classes), atk, rng)
    return float(np.mean(predict(model, adv) == test.y) * 100.0)


def prev_task_rate(model: MLPModel, index: int, ae: np.ndarray,
                   seen_class_sets) -> float:
    """Share of the adversarial examples of the task at stream position
    index, the (n, d) rows ae, that the model sends to an earlier task.

    seen_class_sets lists each task's class set in stream order; the sets
    before position index count as "previous". Returns a percentage; 0 at
    the first task by definition.
    """
    if len(ae) == 0:
        raise ValueError("empty adversarial set")
    prev: set[int] = set()
    for s in seen_class_sets[:index]:
        prev |= set(s)
    if not prev:
        return 0.0
    preds = predict(model, ae)
    return float(np.mean(np.isin(preds, sorted(prev))) * 100.0)

