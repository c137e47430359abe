"""Net kernel tests: forward against hand computation, backward against
central finite differences, SGD mechanics, stacked models against their
members run alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatcl.nets import (GradBundle, MLPModel, SGDConfig, add_grads, backward,
                        ce_input_grad, ce_loss_and_grads, ce_targets, check_input,
                        forward, init_model, sgd_step, softmax, softmax_ce,
                        stack_models, unstack_models)


def _rand_model(rng, sizes):
    m = init_model(sizes, seed=int(rng.integers(1 << 30)))
    # shift biases off zero so gradient checks exercise them
    return MLPModel(m.layer_sizes, [w.copy() for w in m.weights],
                    [b + rng.normal(0, 0.3, size=b.shape) for b in m.biases])


def test_forward_matches_hand_computation():
    # 2-2-2 net with simple numbers, worked out with relu by hand
    w0 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b0 = np.array([0.0, -1.0])
    w1 = np.array([[1.0, 0.0], [-1.0, 1.0]])
    b1 = np.array([0.5, 0.0])
    model = MLPModel((2, 2, 2), [w0, w1], [b0, b1])
    x = np.array([[1.0, 2.0]])
    # pre = [1*1+2*0.5, 1*-1+2*2-1] = [2, 2]; relu -> [2, 2]
    # out = [2*1-2*1+0.5, 2*0+2*1] = [0.5, 2]
    np.testing.assert_allclose(forward(model, x), [[0.5, 2.0]])
    # negative pre-activation must clamp to zero
    x2 = np.array([[-1.0, 0.0]])
    # pre = [-1, 0]; relu -> [0, 0]; out = [0.5, 0]
    np.testing.assert_allclose(forward(model, x2), [[0.5, 0.0]])


def test_forward_rejects_nonfinite():
    model = init_model((2, 3, 2), seed=0)
    with pytest.raises(FloatingPointError):
        forward(model, np.array([[np.nan, 0.0]]))


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(32, 5)) * 50
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(32), atol=1e-12)
    np.testing.assert_allclose(softmax(logits + 123.0), p, atol=1e-12)


def test_softmax_ce_against_direct_formula():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(16, 4))
    labels = rng.integers(0, 4, size=16)
    loss, dlogits = softmax_ce(logits, labels)
    ref = np.mean([np.log(np.sum(np.exp(logits[i] - logits[i].max())))
                   - (logits[i, labels[i]] - logits[i].max())
                   for i in range(16)])
    assert loss == pytest.approx(ref, rel=1e-12)
    # gradient rows sum to zero (softmax minus one-hot)
    np.testing.assert_allclose(dlogits.sum(axis=1), np.zeros(16), atol=1e-12)


def test_softmax_ce_rejects_bad_labels():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        softmax_ce(logits, np.array([0, 3]))
    with pytest.raises(ValueError):
        softmax_ce(logits, np.array([-1, 0]))


def _fd_loss(model, x, y):
    loss, _ = softmax_ce(forward(model, x), y)
    return loss


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for sizes in [(2, 3, 2), (4, 5, 3), (3, 4, 4, 2)]:
        model = _rand_model(rng, sizes)
        x = rng.normal(size=(6, sizes[0]))
        y = rng.integers(0, sizes[-1], size=6)
        _, dlogits = softmax_ce(forward(model, x), y)
        g = backward(model, x, dlogits)
        for li in range(len(model.weights)):
            w = model.weights[li]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                wp = [a.copy() for a in model.weights]
                wm = [a.copy() for a in model.weights]
                wp[li][idx] += h
                wm[li][idx] -= h
                fp = _fd_loss(MLPModel(model.layer_sizes, wp, model.biases), x, y)
                fm = _fd_loss(MLPModel(model.layer_sizes, wm, model.biases), x, y)
                num = (fp - fm) / (2 * h)
                assert g.weight_grads[li][idx] == pytest.approx(
                    num, rel=1e-4, abs=1e-7)
            bp = [a.copy() for a in model.biases]
            bm = [a.copy() for a in model.biases]
            bp[li][0] += h
            bm[li][0] -= h
            fp = _fd_loss(MLPModel(model.layer_sizes, model.weights, bp), x, y)
            fm = _fd_loss(MLPModel(model.layer_sizes, model.weights, bm), x, y)
            assert g.bias_grads[li][0] == pytest.approx(
                (fp - fm) / (2 * h), rel=1e-4, abs=1e-7)


def test_input_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    model = _rand_model(rng, (3, 4, 2))
    x = rng.normal(size=(4, 3))
    y = rng.integers(0, 2, size=4)
    _, dlogits = softmax_ce(forward(model, x), y)
    g = backward(model, x, dlogits)
    h = 1e-5
    for i in range(4):
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            num = (_fd_loss(model, xp, y) - _fd_loss(model, xm, y)) / (2 * h)
            assert g.input_grads[i, j] == pytest.approx(num, rel=1e-4, abs=1e-7)


def test_single_pass_equals_forward_softmax_ce_backward_bitwise():
    # the one-forward pass behind training and attacks must give the exact
    # bits of the reference path, so run artifacts do not depend on which
    # path computed them
    rng = np.random.default_rng(21)
    shapes = [(2, 3, 2), (16, 32, 10), (1, 2), (5, 4, 6, 3)]
    shapes += [tuple(int(s) for s in rng.integers(1, 9, size=int(rng.integers(2, 5))))
               for _ in range(40)]
    for sizes in shapes:
        model = _rand_model(rng, sizes)
        n = int(rng.integers(1, 70))
        x = rng.normal(size=(n, sizes[0])) * rng.uniform(0.1, 5.0)
        y = rng.integers(0, sizes[-1], size=n)
        ref_loss, dlogits = softmax_ce(forward(model, x), y)
        ref = backward(model, x, dlogits)
        loss, got = ce_loss_and_grads(model, x, y)
        assert loss == ref_loss
        for a, b in zip(got.weight_grads + got.bias_grads,
                        ref.weight_grads + ref.bias_grads):
            assert np.array_equal(a, b)
        assert np.array_equal(got.input_grads, ref.input_grads)
        only_x = ce_input_grad(model, x, ce_targets(y, (n,), sizes[-1]))
        assert np.array_equal(only_x, ref.input_grads)


def test_single_pass_rejects_bad_labels_and_nonfinite_logits():
    model = init_model((2, 3, 2), seed=0)
    x = np.zeros((2, 2))
    for bad in (np.array([0, 2]), np.array([-1, 0]), np.array([0])):
        with pytest.raises(ValueError):
            ce_loss_and_grads(model, x, bad)
        with pytest.raises(ValueError):
            ce_targets(bad, (2,), 2)
    targets = ce_targets(np.array([1, 0]), (2,), 2)
    np.testing.assert_array_equal(targets, [[0.0, 1.0], [1.0, 0.0]])
    nan_x = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(FloatingPointError):
        ce_loss_and_grads(model, nan_x, np.array([0, 1]))
    with pytest.raises(FloatingPointError):
        ce_input_grad(model, nan_x, targets)


def test_init_model_deterministic_and_seed_sensitive():
    a = init_model((3, 5, 2), seed=11)
    b = init_model((3, 5, 2), seed=11)
    c = init_model((3, 5, 2), seed=12)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))
    for bias in a.biases:
        assert np.all(bias == 0.0)


def test_init_model_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_model((3,), seed=0)
    with pytest.raises(ValueError):
        init_model((3, 0, 2), seed=0)


def test_sgd_step_is_pure_and_exact():
    model = init_model((2, 3, 2), seed=3)
    x = np.array([[0.3, -0.2], [1.0, 0.4]])
    y = np.array([0, 1])
    _, g = ce_loss_and_grads(model, x, y)
    before = [w.copy() for w in model.weights]
    lr = 0.05
    stepped = sgd_step(model, g, SGDConfig(learning_rate=lr))
    for w, w0 in zip(model.weights, before):
        np.testing.assert_array_equal(w, w0)  # input untouched
    for wn, w0, gw in zip(stepped.weights, before, g.weight_grads):
        np.testing.assert_allclose(wn, w0 - lr * gw, atol=0)


def test_sgd_step_rejects_mismatched_grads():
    model = init_model((2, 3, 2), seed=3)
    other = init_model((2, 4, 2), seed=3)
    x = np.array([[0.1, 0.2]])
    y = np.array([0])
    _, g = ce_loss_and_grads(other, x, y)
    with pytest.raises(ValueError):
        sgd_step(model, g, SGDConfig())


def test_add_grads_sums_terms():
    model = init_model((2, 3, 2), seed=4)
    x = np.array([[0.5, -0.5]])
    y = np.array([1])
    _, g1 = ce_loss_and_grads(model, x, y)
    _, g2 = ce_loss_and_grads(model, x * 2, y)
    s = add_grads(g1, g2)
    for a, b, c in zip(s.weight_grads, g1.weight_grads, g2.weight_grads):
        np.testing.assert_allclose(a, b + c, atol=0)


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SGDConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        SGDConfig(learning_rate=-1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5), st.integers(1, 4))
def test_forward_rows_are_independent(seed, batch, dim):
    rng = np.random.default_rng(seed)
    model = init_model((dim, 3, 2), seed=seed)
    x = rng.normal(size=(batch, dim))
    full = forward(model, x)
    for i in range(batch):
        row = forward(model, x[i:i + 1])[0]
        np.testing.assert_allclose(full[i], row, atol=1e-12)


def test_stack_and_unstack_round_trip():
    rng = np.random.default_rng(30)
    members = [_rand_model(rng, (4, 5, 3)) for _ in range(3)]
    stacked = stack_models(members)
    assert stacked.members == 3 and members[0].members is None
    assert stacked.weights[0].shape == (3, 4, 5)
    assert stacked.biases[1].shape == (3, 1, 3)
    for got, ref in zip(unstack_models(stacked), members):
        for a, b in zip(got.weights + got.biases, ref.weights + ref.biases):
            assert a.shape == b.shape and np.array_equal(a, b)
    with pytest.raises(ValueError):
        stack_models([members[0], init_model((4, 6, 3), seed=0)])
    with pytest.raises(ValueError):
        stack_models([stacked])


def test_stacked_loss_and_sgd_step_equal_members_alone_bitwise():
    # E models in lockstep must give every member the exact bits it gets
    # alone: the loss, every gradient, and the stepped parameters
    rng = np.random.default_rng(31)
    cfg = SGDConfig(learning_rate=0.07)
    for sizes in [(2, 3, 2), (16, 32, 10), (5, 4, 6, 3), (3, 1)]:
        for e in (1, 3):
            members = [_rand_model(rng, sizes) for _ in range(e)]
            b = int(rng.integers(1, 40))
            xs = [rng.normal(size=(b, sizes[0])) for _ in range(e)]
            ys = [rng.integers(0, sizes[-1], size=b) for _ in range(e)]
            stacked = stack_models(members)
            x, y = np.vstack(xs), np.concatenate(ys)
            loss, grads = ce_loss_and_grads(stacked, x, y)
            stepped = unstack_models(sgd_step(stacked, grads, cfg))
            x3 = check_input(stacked, x)
            only_x = ce_input_grad(stacked, x3, ce_targets(y, x3.shape[:-1], sizes[-1]))
            assert loss.shape == (e,)
            assert grads.input_grads.shape == (e * b, sizes[0])
            for i, (m, x, y) in enumerate(zip(members, xs, ys)):
                ref_loss, ref = ce_loss_and_grads(m, x, y)
                assert loss[i] == ref_loss
                for got, want in zip(grads.weight_grads, ref.weight_grads):
                    assert np.array_equal(got[i], want)
                for got, want in zip(grads.bias_grads, ref.bias_grads):
                    assert np.array_equal(got[i, 0], want)
                assert np.array_equal(grads.input_grads[i * b:(i + 1) * b],
                                      ref.input_grads)
                assert np.array_equal(only_x[i], ref.input_grads)
                alone = sgd_step(m, ref, cfg)
                for got, want in zip(stepped[i].weights + stepped[i].biases,
                                     alone.weights + alone.biases):
                    assert got.shape == want.shape and np.array_equal(got, want)


def test_stacked_pass_rejects_bad_rows_labels_and_nonfinite_logits():
    members = [init_model((2, 3, 2), seed=s) for s in range(3)]
    stacked = stack_models(members)
    with pytest.raises(ValueError, match="do not split"):
        ce_loss_and_grads(stacked, np.zeros((4, 2)), np.zeros(4, dtype=int))
    for bad in (np.array([0, 1, 2, 0, 1, 0]), np.zeros(3, dtype=int)):
        with pytest.raises(ValueError):
            ce_loss_and_grads(stacked, np.zeros((6, 2)), bad)
    # one diverged member is enough
    weights = [w.copy() for w in stacked.weights]
    weights[0][1] = 1.0
    weights[-1][1] = 1e308
    huge = MLPModel(stacked.layer_sizes, weights, stacked.biases)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            ce_loss_and_grads(huge, np.full((6, 2), 10.0), np.zeros(6, dtype=int))
