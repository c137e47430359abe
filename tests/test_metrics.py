"""Metric tests: counting oracles for accuracy, robustness under a null
attack, the previous-class prediction rate."""

import numpy as np
import pytest

from eatcl.attacks import AttackConfig
from eatcl.datasets import Dataset
from eatcl.metrics import clean_accuracy, predict, prev_task_rate, robustness
from eatcl.nets import MLPModel, forward, init_model


def _const_model(logit_rows):
    """1-input model whose logits are constant: weights zero, bias fixed."""
    c = len(logit_rows)
    return MLPModel((1, c), [np.zeros((1, c))], [np.asarray(logit_rows, float)])


def test_predict_argmax_and_tie_break():
    model = _const_model([1.0, 3.0, 3.0])
    x = np.zeros((4, 1))
    # classes 1 and 2 tie; lowest id wins
    np.testing.assert_array_equal(predict(model, x), [1, 1, 1, 1])


def test_clean_accuracy_counting_oracle():
    rng = np.random.default_rng(0)
    model = init_model((3, 5, 4), seed=1)
    x = rng.normal(size=(50, 3))
    y = rng.integers(0, 4, size=50)
    acc = clean_accuracy(model, Dataset(x, y, (0, 1, 2, 3)))
    manual = 100.0 * sum(
        int(np.argmax(forward(model, x[i:i + 1])[0]) == y[i])
        for i in range(50)) / 50
    assert acc == pytest.approx(manual, abs=1e-9)
    with pytest.raises(ValueError):
        clean_accuracy(model, Dataset(np.zeros((0, 3)), np.zeros(0, int),
                                      (0, 1, 2, 3)))


def test_robustness_equals_accuracy_under_null_attack():
    rng = np.random.default_rng(2)
    model = init_model((4, 6, 3), seed=3)
    x = rng.normal(size=(40, 4))
    y = rng.integers(0, 3, size=40)
    d = Dataset(x, y, (0, 1, 2))
    atk = AttackConfig(kind="pgd", eps=0.0, alpha=0.1, iters=2)
    assert robustness(model, d, atk, np.random.default_rng(4)) == \
        pytest.approx(clean_accuracy(model, d), abs=1e-12)


def test_robustness_not_above_clean_for_real_attack():
    rng = np.random.default_rng(5)
    model = init_model((2, 8, 2), seed=6)
    x = rng.normal(size=(60, 2))
    y = rng.integers(0, 2, size=60)
    d = Dataset(x, y, (0, 1))
    atk = AttackConfig(kind="pgd", eps=0.5, alpha=0.2, iters=5)
    rob = robustness(model, d, atk, np.random.default_rng(7))
    assert rob <= clean_accuracy(model, d) + 1e-9


def test_prev_task_rate_zero_for_first_task():
    model = init_model((2, 3, 4), seed=0)
    d = Dataset(np.zeros((2, 2)), np.array([0, 1]), (0, 1))
    assert prev_task_rate(model, 0, d.x, [(0, 1)]) == 0.0


def test_prev_task_rate_hand_built_half():
    # logits fixed so examples 1 and 3 land in {0,1} (previous classes)
    # and examples 0 and 2 land in {2,3}: rate must be exactly 50.0
    base = np.zeros((1, 4))
    model = MLPModel((1, 4), [base.copy()], [np.zeros(4)])
    ae_x = np.array([[1.0], [2.0], [3.0], [4.0]])
    # craft weights so argmax alternates: w row maps x -> logits
    w = np.array([[0.0, 1.0, 0.0, 0.0]])  # logits = [0, x, 0, 0]
    model = MLPModel((1, 4), [w], [np.array([0.5, 0.0, 0.0, 0.0])])
    # x>0.5 -> class 1 (previous); x<0.5 -> class 0 (previous) ... adjust:
    # use per-example sign to alternate between class 1 and class 2
    w = np.array([[0.0, 1.0, -1.0, 0.0]])
    model = MLPModel((1, 4), [w], [np.zeros(4)])
    ae_x = np.array([[1.0], [-1.0], [2.0], [-2.0]])  # argmax: 1,2,1,2
    rate = prev_task_rate(model, 1, ae_x, [(0, 1), (2, 3)])
    assert rate == 50.0


def test_prev_task_rate_rejects_empty_ae():
    model = init_model((2, 3, 4), seed=0)
    with pytest.raises(ValueError):
        prev_task_rate(model, 1, np.zeros((0, 2)), [(0, 1), (2, 3)])

