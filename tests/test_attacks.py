"""Attack tests: closed-form FGSM oracle on a linear softmax model,
projection oracle, ball/clip invariants, FGSM/PGD agreement, stacked
models against their members attacked alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eatcl.attacks import (AttackConfig, attack, fgsm, input_grad, pgd,
                           project_linf)
from eatcl.nets import MLPModel, forward, init_model, softmax, stack_models


def _linear_model(w):
    # no hidden layers: logits = x @ w, so the input gradient has a closed form
    d, c = w.shape
    return MLPModel((d, c), [np.asarray(w, dtype=np.float64)],
                    [np.zeros(c)])


def test_fgsm_against_linear_closed_form():
    # for logits = x W, d loss / d x = W (p - onehot) / n summed over classes
    w = np.array([[1.0, -2.0], [0.5, 1.5], [-1.0, 0.25]])
    model = _linear_model(w)
    x = np.array([[0.2, -0.4, 1.0], [1.0, 0.0, -0.5]])
    y = np.array([0, 1])
    p = softmax(forward(model, x))
    onehot = np.eye(2)[y]
    expected_grad = ((p - onehot) / len(x)) @ w.T
    got = input_grad(model, x, y)
    np.testing.assert_allclose(got, expected_grad, atol=1e-12)
    eps = 0.3
    adv = fgsm(model, x, y, AttackConfig(kind="fgsm", eps=eps))
    np.testing.assert_allclose(adv, x + eps * np.sign(expected_grad), atol=1e-12)


def test_fgsm_zero_gradient_leaves_input_unchanged():
    # all-zero weights give zero input gradient; sign(0) must be 0
    model = _linear_model(np.zeros((2, 3)))
    x = np.array([[0.7, -0.1]])
    adv = fgsm(model, x, np.array([2]), AttackConfig(kind="fgsm", eps=0.5))
    np.testing.assert_array_equal(adv, x)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
       arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
       st.floats(0.0, 5.0))
def test_project_linf_elementwise_oracle(x_adv, x, eps):
    out = project_linf(x_adv, x, eps)
    for i in range(3):
        for j in range(4):
            lo, hi = x[i, j] - eps, x[i, j] + eps
            assert out[i, j] == min(max(x_adv[i, j], lo), hi)


def test_project_linf_shape_mismatch():
    with pytest.raises(ValueError):
        project_linf(np.zeros((2, 2)), np.zeros((3, 2)), 0.1)


def test_fgsm_equals_single_step_pgd():
    rng = np.random.default_rng(0)
    model = init_model((4, 6, 3), seed=1)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)
    eps = 0.2
    a = fgsm(model, x, y, AttackConfig(kind="fgsm", eps=eps))
    b = pgd(model, x, y,
            AttackConfig(kind="pgd", eps=eps, alpha=eps, iters=1,
                         random_start=False),
            np.random.default_rng(0))
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pgd_stays_in_ball_with_random_start():
    rng = np.random.default_rng(2)
    model = init_model((5, 8, 4), seed=3)
    x = rng.normal(size=(16, 5))
    y = rng.integers(0, 4, size=16)
    for eps, alpha, iters in [(0.1, 0.03, 5), (0.5, 0.9, 3), (0.02, 0.02, 10)]:
        cfg = AttackConfig(kind="pgd", eps=eps, alpha=alpha, iters=iters,
                           random_start=True)
        adv = pgd(model, x, y, cfg, np.random.default_rng(4))
        assert np.max(np.abs(adv - x)) <= eps + 1e-12


def test_clip_bounds_respected():
    rng = np.random.default_rng(5)
    model = init_model((3, 4, 2), seed=6)
    x = rng.uniform(0, 1, size=(10, 3))
    y = rng.integers(0, 2, size=10)
    cfg = AttackConfig(kind="pgd", eps=0.4, alpha=0.2, iters=4,
                       random_start=True, clip=(0.0, 1.0))
    adv = pgd(model, x, y, cfg, np.random.default_rng(7))
    assert adv.min() >= -1e-12 and adv.max() <= 1.0 + 1e-12
    cfg_f = AttackConfig(kind="fgsm", eps=0.4, clip=(0.0, 1.0))
    advf = fgsm(model, x, y, cfg_f)
    assert advf.min() >= -1e-12 and advf.max() <= 1.0 + 1e-12


def test_attack_dispatch_and_rng_requirement():
    model = init_model((2, 3, 2), seed=0)
    x = np.zeros((1, 2))
    y = np.array([0])
    out = attack(model, x, y, AttackConfig(kind="fgsm", eps=0.1))
    assert out.shape == x.shape
    with pytest.raises(ValueError):
        attack(model, x, y,
               AttackConfig(kind="pgd", eps=0.1, alpha=0.05, iters=2))


def test_pgd_deterministic_given_rng():
    rng = np.random.default_rng(9)
    model = init_model((4, 5, 3), seed=10)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    cfg = AttackConfig(kind="pgd", eps=0.1, alpha=0.04, iters=6,
                       random_start=True)
    a = pgd(model, x, y, cfg, np.random.default_rng(42))
    b = pgd(model, x, y, cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(kind="carlini")
    with pytest.raises(ValueError):
        AttackConfig(eps=-0.1)
    with pytest.raises(ValueError):
        AttackConfig(alpha=0.0)
    with pytest.raises(ValueError):
        AttackConfig(iters=0)
    with pytest.raises(ValueError):
        AttackConfig(clip=(1.0, 0.0))


def test_eps_zero_returns_input():
    rng = np.random.default_rng(11)
    model = init_model((3, 4, 2), seed=12)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, size=5)
    cfg = AttackConfig(kind="pgd", eps=0.0, alpha=0.1, iters=3,
                       random_start=True)
    adv = pgd(model, x, y, cfg, np.random.default_rng(13))
    np.testing.assert_allclose(adv, x, atol=1e-12)


def test_attacks_reject_bad_labels_and_nonfinite_logits():
    # labels are checked once per attack, before the first gradient pass
    model = init_model((2, 3, 2), seed=14)
    x = np.zeros((2, 2))
    cfgs = [AttackConfig(kind="fgsm", eps=0.1),
            AttackConfig(kind="pgd", eps=0.1, alpha=0.05, iters=3)]
    for cfg in cfgs:
        for bad in (np.array([0, 2]), np.array([-1, 0]), np.array([0, 1, 1])):
            with pytest.raises(ValueError):
                attack(model, x, bad, cfg, np.random.default_rng(0))
    # huge weights overflow the logits to inf
    huge = MLPModel((2, 2), [np.full((2, 2), 1e308)], [np.zeros(2)])
    with np.errstate(over="ignore"):
        for cfg in cfgs:
            with pytest.raises(FloatingPointError):
                attack(huge, np.full((2, 2), 10.0), np.array([0, 1]), cfg,
                       np.random.default_rng(0))


def test_stacked_attack_equals_members_alone_bitwise():
    # a stacked attack on E blocks of B rows must give block e the exact bits
    # of attacking it against member e alone, with member e's rng
    cfgs = [AttackConfig(kind="fgsm", eps=0.2),
            AttackConfig(kind="pgd", eps=0.1, alpha=0.03, iters=5, random_start=True),
            AttackConfig(kind="pgd", eps=0.1, alpha=0.03, iters=5, random_start=False),
            AttackConfig(kind="pgd", eps=0.3, alpha=0.1, iters=4, random_start=True,
                         clip=(-0.5, 0.5))]
    rng = np.random.default_rng(20)
    for sizes in [(2, 3, 2), (16, 32, 10), (5, 4, 6, 3)]:
        for e in (1, 3):
            members = [init_model(sizes, seed=int(rng.integers(1000))) for _ in range(e)]
            b = int(rng.integers(1, 20))
            x = rng.uniform(-1, 1, size=(e * b, sizes[0]))
            y = rng.integers(0, sizes[-1], size=e * b)
            for cfg in cfgs:
                seeds = [int(s) for s in rng.integers(1000, size=e)]
                got = attack(stack_models(members), x, y, cfg,
                             [np.random.default_rng(s) for s in seeds])
                assert got.shape == x.shape
                for i, (m, s) in enumerate(zip(members, seeds)):
                    rows = slice(i * b, (i + 1) * b)
                    ref = attack(m, x[rows], y[rows], cfg, np.random.default_rng(s))
                    assert np.array_equal(got[rows], ref), (sizes, e, cfg)


def test_stacked_attack_checks_before_any_step():
    stacked = stack_models([init_model((2, 3, 2), seed=s) for s in range(3)])
    x = np.zeros((6, 2))
    y = np.array([0, 1, 0, 1, 0, 1])
    cfg = AttackConfig(kind="pgd", eps=0.1, alpha=0.05, iters=3)
    fgsm_cfg = AttackConfig(kind="fgsm", eps=0.1)

    def rngs(n):
        return [np.random.default_rng(i) for i in range(n)]

    untouched = np.random.default_rng(0).uniform(size=3)
    for bad_rngs in (rngs(2), rngs(4), np.random.default_rng(0)):
        with pytest.raises(ValueError, match="rngs"):
            attack(stacked, x, y, cfg, bad_rngs)
    for c in (cfg, fgsm_cfg):
        with pytest.raises(ValueError, match="do not split"):
            attack(stacked, np.zeros((5, 2)), y[:5], c, rngs(3))
        for bad in (np.array([0, 1, 0, 1, 0, 2]), y[:3]):
            gens = rngs(3)
            with pytest.raises(ValueError):
                attack(stacked, x, bad, c, gens)
            # no random start was drawn before the labels were rejected
            assert np.array_equal(gens[0].uniform(size=3), untouched)
    # one diverged member is enough
    weights = [w.copy() for w in stacked.weights]
    weights[0][2] = 1.0
    weights[-1][2] = 1e308
    huge = MLPModel(stacked.layer_sizes, weights, stacked.biases)
    with np.errstate(over="ignore", invalid="ignore"):
        for c in (cfg, fgsm_cfg):
            with pytest.raises(FloatingPointError):
                attack(huge, np.full((6, 2), 10.0), y, c, rngs(3))
