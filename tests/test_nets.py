"""Net kernel tests: forward against hand computation, the one-pass
gradients against the reference backward pass, SGD mechanics, stacked
models against their members run alone. test_acceptance.py checks the
production gradients against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatcl.nets import (LR, MLPModel, ce_input_grad, check_input, forward, gradients,
                        init_model, one_hot, sgd_step, softmax_ce, stack_models,
                        unstack_models)
from eatcl.strategies import TrainConfig
from reference import backward, label_softmax_ce


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


def test_softmax_ce_against_direct_formula():
    # production computes the gradient alone; the reference's loss is the
    # one the finite-difference oracle differentiates
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(16, 4))
    labels = rng.integers(0, 4, size=16)
    loss = label_softmax_ce(logits, labels)[0]
    ref = np.mean([np.log(np.sum(np.exp(logits[i] - logits[i].max())))
                   - (logits[i, labels[i]] - logits[i].max())
                   for i in range(16)])
    assert loss == pytest.approx(ref, rel=1e-12)
    dlogits = softmax_ce(logits, one_hot(labels, 4))
    soft = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(dlogits, (soft - one_hot(labels, 4)) / 16, atol=1e-15)
    # gradient rows sum to zero (softmax minus one-hot)
    np.testing.assert_allclose(dlogits.sum(axis=1), np.zeros(16), atol=1e-12)
    # logits further apart than the largest float64: the label at the
    # maximum costs nothing and the other one costs inf, never NaN, and
    # the gradient stays exact
    extreme = np.array([[1e308, -1e308]])
    with np.errstate(over="ignore"):
        assert label_softmax_ce(extreme, np.array([0]))[0] == 0.0
        assert label_softmax_ce(extreme, np.array([1]))[0] == np.inf
        np.testing.assert_array_equal(softmax_ce(extreme, one_hot(np.array([0]), 2)),
                                      [[0.0, 0.0]])
        np.testing.assert_array_equal(softmax_ce(extreme, one_hot(np.array([1]), 2)),
                                      [[1.0, -1.0]])


def test_softmax_ce_rejects_bad_labels():
    # labels are checked where their targets are built; targets that do not
    # give one row per logits row are rejected by the kernel
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        one_hot(np.array([0, 3]), 3)
    with pytest.raises(ValueError):
        one_hot(np.array([-1, 0]), 3)
    for bad in (one_hot(np.array([0]), 3), one_hot(np.array([0, 1]), 2), np.ones(6)):
        with pytest.raises(ValueError):
            softmax_ce(logits, bad)


def test_one_hot_builds_and_checks_targets():
    np.testing.assert_array_equal(one_hot(np.array([1, 0, 2]), 3),
                                  [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    # any leading shape: stacked (E, B) labels give (E, B, classes) targets
    stacked = one_hot(np.array([[0, 1], [1, 1]]), 2)
    assert stacked.shape == (2, 2, 2) and stacked.dtype == np.float64
    np.testing.assert_array_equal(stacked[1], [[0.0, 1.0], [0.0, 1.0]])
    assert one_hot(np.zeros(0, dtype=int), 4).shape == (0, 4)
    for bad in (np.array([0, 4]), np.array([[0], [-1]]), np.array(1), np.array([0.0, 1.0])):
        with pytest.raises(ValueError):
            one_hot(bad, 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([None, 1, 2, 3]),
       st.integers(1, 96), st.integers(2, 10), st.floats(0.01, 100.0),
       st.integers(0, 3))
def test_softmax_ce_equals_label_indexed_reference_bitwise(seed, members, rows, classes,
                                                           scale, ties):
    # the one kernel over one-hot targets must give the gradient bits of
    # indexing each row's label entry, as one array shaped like the logits,
    # for 2-D and stacked logits; ties rows repeat their maximum (at class
    # 0, and with ties > 1 on rounded logits, anywhere)
    rng = np.random.default_rng(seed)
    lead = (rows,) if members is None else (members, rows)
    logits = rng.normal(size=(*lead, classes)) * scale
    if ties:
        top = np.argmax(logits, axis=-1)
        logits[..., 0] = np.take_along_axis(logits, top[..., None], axis=-1)[..., 0]
    if ties > 1:
        logits = np.round(logits)
    labels = rng.integers(0, classes, size=lead)
    grad = softmax_ce(logits, one_hot(labels, classes))
    ref_grad = label_softmax_ce(logits, labels)[1]
    assert isinstance(grad, np.ndarray) and grad.shape == logits.shape
    assert grad.tobytes() == ref_grad.tobytes()
    # stacked logits also take their E*B targets flat, block by block
    flat_grad = softmax_ce(logits, one_hot(labels.ravel(), classes))
    assert flat_grad.shape == logits.shape
    assert flat_grad.tobytes() == grad.tobytes()


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
        labels = rng.integers(0, sizes[-1], size=n)
        y = one_hot(labels, sizes[-1])
        ref = backward(model, x, label_softmax_ce(forward(model, x), labels)[1])
        got = gradients(model, x, lambda z: softmax_ce(z, y))
        for a, b in zip(got.weight_grads + got.bias_grads,
                        ref.weight_grads + ref.bias_grads):
            assert np.array_equal(a, b)
        assert np.array_equal(got.input_grads, ref.input_grads)
        only_x = ce_input_grad(model, x, y)
        assert np.array_equal(only_x, ref.input_grads)


class _CountedMatmuls(np.ndarray):
    """An array that counts the matmuls it enters, as either operand."""

    count = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedMatmuls.count += 1
        inputs = [a.view(np.ndarray) if isinstance(a, _CountedMatmuls) else a
                  for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_gradients_defer_the_input_matmul_until_read():
    # a training pass multiplies by layer 0's weights once, in the forward
    # pass; the input gradient's product with them runs when input_grads is
    # read, and gives the attack kernel's bits
    rng = np.random.default_rng(23)
    for e in (1, 3):
        members = [_rand_model(rng, (4, 5, 3)) for _ in range(e)]
        model = members[0] if e == 1 else stack_models(members)
        counted = MLPModel(model.layer_sizes,
                           [model.weights[0].view(_CountedMatmuls), *model.weights[1:]],
                           model.biases)
        x = rng.normal(size=(e * 6, 4))
        y = one_hot(rng.integers(0, 3, size=e * 6), 3)
        _CountedMatmuls.count = 0
        grads = gradients(counted, x, lambda z: softmax_ce(z, y))
        assert _CountedMatmuls.count == 1
        got = grads.input_grads
        assert _CountedMatmuls.count == 2 and type(got) is np.ndarray
        x3 = check_input(model, x)
        want = ce_input_grad(model, x3, y.reshape(*x3.shape[:-1], 3))
        assert got.tobytes() == want.tobytes() and got.shape == (e * 6, 4)


def test_single_pass_rejects_bad_labels_and_nonfinite_logits():
    model = init_model((2, 3, 2), seed=0)
    x = np.zeros((2, 2))
    for bad in (np.array([0, 2]), np.array([-1, 0])):
        with pytest.raises(ValueError):
            one_hot(bad, 2)
    # one label for a batch of two: its targets are a row short
    with pytest.raises(ValueError):
        gradients(model, x, lambda z: softmax_ce(z, one_hot(np.array([0]), 2)))
    targets = one_hot(np.array([1, 0]), 2)
    np.testing.assert_array_equal(targets, [[0.0, 1.0], [1.0, 0.0]])
    nan_x = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(FloatingPointError):
        gradients(model, nan_x, lambda z: softmax_ce(z, targets))
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
    y = one_hot(np.array([0, 1]), 2)
    g = gradients(model, x, lambda z: softmax_ce(z, y))
    before = [w.copy() for w in model.weights]
    stepped = sgd_step(model, g)
    for w, w0 in zip(model.weights, before):
        np.testing.assert_array_equal(w, w0)  # input untouched
    for wn, w0, gw in zip(stepped.weights, before, g.weight_grads):
        np.testing.assert_allclose(wn, w0 - LR * gw, atol=0)


def test_sgd_step_rejects_mismatched_grads():
    model = init_model((2, 3, 2), seed=3)
    other = init_model((2, 4, 2), seed=3)
    x = np.array([[0.1, 0.2]])
    y = one_hot(np.array([0]), 2)
    g = gradients(other, x, lambda z: softmax_ce(z, y))
    with pytest.raises(ValueError):
        sgd_step(model, g)


def test_sgd_config_validation():
    for kw in ({"epochs_per_task": 0}, {"batch_size": 0}, {"replay_batch_size": 0},
               {"buffer_capacity": -1}, {"eat_external_epochs": 0}, {"at_mix": "both"},
               {"hidden": (4, 0)}):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


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
    # alone: its logit gradient, which is that of its own mean loss, every
    # gradient, and the stepped parameters
    rng = np.random.default_rng(31)
    for sizes in [(2, 3, 2), (16, 32, 10), (5, 4, 6, 3), (3, 1)]:
        for e in (1, 3):
            members = [_rand_model(rng, sizes) for _ in range(e)]
            b = int(rng.integers(1, 40))
            xs = [rng.normal(size=(b, sizes[0])) for _ in range(e)]
            labels = [rng.integers(0, sizes[-1], size=b) for _ in range(e)]
            ys = [one_hot(lab, sizes[-1]) for lab in labels]
            stacked = stack_models(members)
            x, y = np.vstack(xs), np.vstack(ys)
            grads = gradients(stacked, x, lambda z: softmax_ce(z, y))
            stepped = unstack_models(sgd_step(stacked, grads))
            x3 = check_input(stacked, x)
            only_x = ce_input_grad(stacked, x3, y.reshape(*x3.shape[:-1], sizes[-1]))
            dlogits = softmax_ce(forward(stacked, x), y)
            assert dlogits.shape == (e, b, sizes[-1])
            assert grads.input_grads.shape == (e * b, sizes[0])
            for i, (m, x, y, lab) in enumerate(zip(members, xs, ys, labels)):
                ref = gradients(m, x, lambda z: softmax_ce(z, y))
                assert np.array_equal(dlogits[i], label_softmax_ce(forward(m, x), lab)[1])
                for got, want in zip(grads.weight_grads, ref.weight_grads):
                    assert np.array_equal(got[i], want)
                for got, want in zip(grads.bias_grads, ref.bias_grads):
                    assert np.array_equal(got[i, 0], want)
                assert np.array_equal(grads.input_grads[i * b:(i + 1) * b],
                                      ref.input_grads)
                assert np.array_equal(only_x[i], ref.input_grads)
                alone = sgd_step(m, ref)
                for got, want in zip(stepped[i].weights + stepped[i].biases,
                                     alone.weights + alone.biases):
                    assert got.shape == want.shape and np.array_equal(got, want)


def test_stacked_pass_rejects_bad_rows_labels_and_nonfinite_logits():
    members = [init_model((2, 3, 2), seed=s) for s in range(3)]
    stacked = stack_models(members)
    with pytest.raises(ValueError, match="do not split"):
        gradients(stacked, np.zeros((4, 2)),
                  lambda z: softmax_ce(z, one_hot(np.zeros(4, dtype=int), 2)))
    with pytest.raises(ValueError):
        one_hot(np.array([0, 1, 2, 0, 1, 0]), 2)
    # three labels for three members of two rows each
    with pytest.raises(ValueError):
        gradients(stacked, np.zeros((6, 2)),
                  lambda z: softmax_ce(z, one_hot(np.zeros(3, dtype=int), 2)))
    # one diverged member is enough
    weights = [w.copy() for w in stacked.weights]
    weights[0][1] = 1.0
    weights[-1][1] = 1e308
    huge = MLPModel(stacked.layer_sizes, weights, stacked.biases)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            gradients(huge, np.full((6, 2), 10.0),
                      lambda z: softmax_ce(z, one_hot(np.zeros(6, dtype=int), 2)))
