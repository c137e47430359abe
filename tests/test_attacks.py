"""Attack tests: closed-form FGSM oracle on a linear softmax model,
projection oracle, ball invariants, FGSM/PGD agreement, stacked
models against their members attacked alone, and PGD's early exit against
the loop that takes every step."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import eatcl.attacks
from eatcl.attacks import AttackConfig, _steps, attack, project_linf
from eatcl.nets import MLPModel, ce_input_grad, forward, init_model, one_hot, stack_models
from reference import pgd_every_step, softmax


def _from_x(model, x, targets, cfg):
    """PGD by cfg started at x rather than at a random point of the ball."""
    return _steps(model, x, targets, cfg, cfg.alpha, cfg.iters, None)


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
    y = one_hot(np.array([0, 1]), 2)
    p = softmax(forward(model, x))
    expected_grad = ((p - y) / len(x)) @ w.T
    got = ce_input_grad(model, x, y)
    np.testing.assert_allclose(got, expected_grad, atol=1e-12)
    eps = 0.3
    adv = attack(model, x, y, AttackConfig(kind="fgsm", eps=eps))
    np.testing.assert_allclose(adv, x + eps * np.sign(expected_grad), atol=1e-12)


def test_fgsm_zero_gradient_leaves_input_unchanged():
    # all-zero weights give zero input gradient; sign(0) must be 0
    model = _linear_model(np.zeros((2, 3)))
    x = np.array([[0.7, -0.1]])
    adv = attack(model, x, one_hot(np.array([2]), 3), AttackConfig(kind="fgsm", eps=0.5))
    np.testing.assert_array_equal(adv, x)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
       arrays(np.float64, (3, 4), elements=st.floats(-10, 10)),
       st.floats(0.0, 5.0))
def test_project_linf_elementwise_oracle(x_adv, x, eps):
    out = project_linf(x_adv, x - eps, x + eps)
    for i in range(3):
        for j in range(4):
            lo, hi = x[i, j] - eps, x[i, j] + eps
            assert out[i, j] == min(max(x_adv[i, j], lo), hi)


def test_project_linf_shape_mismatch():
    with pytest.raises(ValueError):
        project_linf(np.zeros((2, 2)), np.zeros((3, 2)), np.zeros((3, 2)))


def test_fgsm_equals_single_step_pgd():
    rng = np.random.default_rng(0)
    model = init_model((4, 6, 3), seed=1)
    x = rng.normal(size=(8, 4))
    y = one_hot(rng.integers(0, 3, size=8), 3)
    eps = 0.2
    a = attack(model, x, y, AttackConfig(kind="fgsm", eps=eps))
    b = _from_x(model, x, y, AttackConfig(kind="pgd", eps=eps, alpha=eps, iters=1))
    np.testing.assert_array_equal(a, b)


def test_pgd_stays_in_ball_with_random_start():
    rng = np.random.default_rng(2)
    model = init_model((5, 8, 4), seed=3)
    x = rng.normal(size=(16, 5))
    y = one_hot(rng.integers(0, 4, size=16), 4)
    for eps, alpha, iters in [(0.1, 0.03, 5), (0.5, 0.9, 3), (0.02, 0.02, 10)]:
        cfg = AttackConfig(kind="pgd", eps=eps, alpha=alpha, iters=iters)
        adv = attack(model, x, y, cfg, np.random.default_rng(4))
        assert np.max(np.abs(adv - x)) <= eps + 1e-12


def test_attack_dispatch_and_rng_requirement():
    model = init_model((2, 3, 2), seed=0)
    x = np.zeros((1, 2))
    y = one_hot(np.array([0]), 2)
    out = attack(model, x, y, AttackConfig(kind="fgsm", eps=0.1))
    assert out.shape == x.shape
    # PGD always starts at random, so it always needs an rng
    with pytest.raises(ValueError, match="needs an rng"):
        attack(model, x, y,
               AttackConfig(kind="pgd", eps=0.1, alpha=0.05, iters=2))


def test_pgd_deterministic_given_rng():
    rng = np.random.default_rng(9)
    model = init_model((4, 5, 3), seed=10)
    x = rng.normal(size=(6, 4))
    y = one_hot(rng.integers(0, 3, size=6), 3)
    cfg = AttackConfig(kind="pgd", eps=0.1, alpha=0.04, iters=6)
    a = attack(model, x, y, cfg, np.random.default_rng(42))
    b = attack(model, x, y, cfg, np.random.default_rng(42))
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
    # non-finite values, and an eps ball whose width 2 * eps overflows
    for kw in ({"eps": float("nan")}, {"eps": float("inf")}, {"eps": 1e308},
               {"alpha": float("nan")}, {"alpha": float("inf")}):
        with pytest.raises(ValueError):
            AttackConfig(**kw)
    AttackConfig(eps=8e307)  # 2 * eps is still finite


def test_eps_zero_returns_input():
    rng = np.random.default_rng(11)
    model = init_model((3, 4, 2), seed=12)
    x = rng.normal(size=(5, 3))
    y = one_hot(rng.integers(0, 2, size=5), 2)
    cfg = AttackConfig(kind="pgd", eps=0.0, alpha=0.1, iters=3)
    adv = attack(model, x, y, cfg, np.random.default_rng(13))
    np.testing.assert_allclose(adv, x, atol=1e-12)


def test_attacks_reject_bad_labels_and_nonfinite_logits():
    # labels are checked where their targets are built, and targets once
    # per attack, before the first gradient pass
    model = init_model((2, 3, 2), seed=14)
    x = np.zeros((2, 2))
    cfgs = [AttackConfig(kind="fgsm", eps=0.1),
            AttackConfig(kind="pgd", eps=0.1, alpha=0.05, iters=3)]
    for bad in (np.array([0, 2]), np.array([-1, 0])):
        with pytest.raises(ValueError):
            one_hot(bad, 2)
    for cfg in cfgs:
        # a row too many, a class too many, and one row that would broadcast
        for bad in (one_hot(np.array([0, 1, 1]), 2), one_hot(np.array([0, 1]), 3),
                    one_hot(np.array([1]), 2)):
            with pytest.raises(ValueError):
                attack(model, x, bad, cfg, np.random.default_rng(0))
    # huge weights overflow the logits to inf
    huge = MLPModel((2, 2), [np.full((2, 2), 1e308)], [np.zeros(2)])
    with np.errstate(over="ignore"):
        for cfg in cfgs:
            with pytest.raises(FloatingPointError):
                attack(huge, np.full((2, 2), 10.0), one_hot(np.array([0, 1]), 2), cfg,
                       np.random.default_rng(0))


def test_stacked_attack_equals_members_alone_bitwise():
    # a stacked attack on E blocks of B rows must give block e the exact bits
    # of attacking it against member e alone, with member e's rng
    # (cfg, whether PGD starts at x)
    cfgs = [(AttackConfig(kind="fgsm", eps=0.2), False),
            (AttackConfig(kind="pgd", eps=0.1, alpha=0.03, iters=5), False),
            (AttackConfig(kind="pgd", eps=0.1, alpha=0.03, iters=5), True),
            (AttackConfig(kind="pgd", eps=0.3, alpha=0.1, iters=4), False)]
    rng = np.random.default_rng(20)
    for sizes in [(2, 3, 2), (16, 32, 10), (5, 4, 6, 3)]:
        for e in (1, 3):
            members = [init_model(sizes, seed=int(rng.integers(1000))) for _ in range(e)]
            b = int(rng.integers(1, 20))
            x = rng.uniform(-1, 1, size=(e * b, sizes[0]))
            y = one_hot(rng.integers(0, sizes[-1], size=e * b), sizes[-1])
            for cfg, from_x in cfgs:
                seeds = [int(s) for s in rng.integers(1000, size=e)]
                if from_x:
                    got = _from_x(stack_models(members), x, y, cfg)
                else:
                    got = attack(stack_models(members), x, y, cfg,
                                 [np.random.default_rng(s) for s in seeds])
                assert got.shape == x.shape
                for i, (m, s) in enumerate(zip(members, seeds)):
                    rows = slice(i * b, (i + 1) * b)
                    ref = (_from_x(m, x[rows], y[rows], cfg) if from_x else
                           attack(m, x[rows], y[rows], cfg, np.random.default_rng(s)))
                    assert np.array_equal(got[rows], ref), (sizes, e, cfg)


def test_stacked_attack_checks_before_any_step():
    stacked = stack_models([init_model((2, 3, 2), seed=s) for s in range(3)])
    x = np.zeros((6, 2))
    y = one_hot(np.array([0, 1, 0, 1, 0, 1]), 2)
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
        with pytest.raises(ValueError):
            one_hot(np.array([0, 1, 0, 1, 0, 2]), 2)
        for bad in (one_hot(np.array([0, 1, 0, 1, 0, 1]), 3), y[:3]):
            gens = rngs(3)
            with pytest.raises(ValueError):
                attack(stacked, x, bad, c, gens)
            # no random start was drawn before the targets were rejected
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


@pytest.fixture
def grad_passes(monkeypatch):
    """Counts the input-gradient passes the attacks make."""
    count = [0]
    inner = eatcl.attacks.ce_input_grad

    def counted(*args):
        count[0] += 1
        return inner(*args)

    monkeypatch.setattr(eatcl.attacks, "ce_input_grad", counted)
    return count


def test_pgd_early_exit_equals_every_step_bitwise(grad_passes):
    # the exit must keep every bit for both parities of the steps left,
    # single and stacked, with and without random start
    rng = np.random.default_rng(30)
    steps = 0
    for sizes, e in itertools.product([(2, 3, 2), (4, 5, 3), (16, 32, 10)], (1, 3)):
        members = [init_model(sizes, seed=int(rng.integers(1000))) for _ in range(e)]
        model = members[0] if e == 1 else stack_models(members)
        x = rng.uniform(0, 1, size=(e * 8, sizes[0]))
        y = one_hot(rng.integers(0, sizes[-1], size=e * 8), sizes[-1])
        for ratio, iters, random_start in itertools.product(
                (0.25, 0.5, 1.0, 1.5), range(1, 12), (True, False)):
            cfg = AttackConfig(kind="pgd", eps=0.2, alpha=0.2 * ratio, iters=iters)
            seeds = [int(s) for s in rng.integers(1000, size=e)]

            def rngs():
                gens = [np.random.default_rng(s) for s in seeds]
                return gens[0] if e == 1 else gens

            if random_start:
                got = attack(model, x, y, cfg, rngs())
                ref = pgd_every_step(model, x, y, cfg, rngs())
            else:
                got, ref = _from_x(model, x, y, cfg), pgd_every_step(model, x, y, cfg)
            steps += iters
            assert got.tobytes() == ref.tobytes(), (sizes, e, cfg)
    # the grid exercises the exit (only attack's passes are counted)
    assert grad_passes[0] < steps


def test_pgd_exit_fires_on_a_cycling_batch(grad_passes):
    # alpha = eps drives rows to the corners of the ball, where the toy
    # configs' PGD-10 settles into a cycle
    rng = np.random.default_rng(31)
    model = init_model((2, 3, 2), seed=32)
    x = rng.normal(size=(64, 2))
    y = one_hot(rng.integers(0, 2, size=64), 2)
    cfg = AttackConfig(kind="pgd", eps=0.1, alpha=0.1, iters=10)
    got = attack(model, x, y, cfg, np.random.default_rng(33))
    assert grad_passes[0] < 10
    ref = pgd_every_step(model, x, y, cfg, np.random.default_rng(33))
    assert got.tobytes() == ref.tobytes()
    # in a ball this small no gradient sign changes, so the first step from
    # x reaches a corner and the second returns it: a fixed point, found
    # there rather than one step later as a cycle back to the corner
    cfg = AttackConfig(kind="pgd", eps=0.001, alpha=0.001, iters=10)
    grad_passes[0] = 0
    got = _from_x(model, x, y, cfg)
    assert grad_passes[0] == 2
    assert got.tobytes() == pgd_every_step(model, x, y, cfg).tobytes()


def test_pgd_exit_only_when_the_batch_repeats(grad_passes):
    # the stream configs' small steps (alpha = eps / 4) never repeat a state
    rng = np.random.default_rng(34)
    model = init_model((16, 32, 10), seed=35)
    x = rng.uniform(0, 1, size=(32, 16))
    y = one_hot(rng.integers(0, 10, size=32), 10)
    cfg = AttackConfig(kind="pgd", eps=0.0314, alpha=0.0314 / 4, iters=4)
    attack(model, x, y, cfg, np.random.default_rng(36))
    assert grad_passes[0] == 4
    attack(model, x, y, AttackConfig(kind="fgsm", eps=0.0314))
    assert grad_passes[0] == 5
