"""Strategy engine tests: determinism equivalences, audit trails, buffer
hygiene, loss-term gradients against finite differences."""

import numpy as np
import pytest

import eatcl.strategies
from eatcl.attacks import AttackConfig, attack
from eatcl.datasets import Dataset, gen_blob_stream, gen_crescent, single_task_stream
from eatcl.nets import (MLPModel, backward, ce_loss_and_grads, forward, init_model,
                        sgd_step, softmax_ce)
from eatcl.replay import BufferEntry, ReplayBuffer
from eatcl.runner import ConfigError, parse_config
from eatcl.strategies import (STRATEGIES, EvalSpec, TrainConfig, der_terms,
                              derpp_label_terms, eat_generate, parse_strategy,
                              train_stream)


def _models_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


def _small_stream(seed=0, tasks=3):
    return gen_blob_stream(tasks, 2, 8, 30, separation=1.5, noise=0.3,
                           seed=seed, sample_seed=[seed, 1])


def _cfg(**kw):
    base = dict(epochs_per_task=3, batch_size=16, buffer_capacity=40,
                attack=AttackConfig(eps=0.05, alpha=0.02, iters=2),
                seed=5, hidden_sizes=(6,))
    base.update(kw)
    return TrainConfig(**base)


def test_er_equals_joint_on_single_task():
    d = gen_crescent(60, seed=3)
    stream = single_task_stream(d)
    cfg = _cfg(buffer_capacity=30)
    m_er, _ = train_stream(stream, "er", cfg)
    m_joint, _ = train_stream(stream, "joint", cfg)
    assert _models_equal(m_er, m_joint)


def test_er_at_with_zero_eps_equals_er():
    stream = _small_stream(1)
    cfg = _cfg(attack=AttackConfig(kind="pgd", eps=0.0, alpha=0.01, iters=2,
                                   random_start=True))
    m_at, _ = train_stream(stream, "er_at", cfg)
    m_er, _ = train_stream(stream, "er", cfg)
    assert _models_equal(m_at, m_er)


def test_cat_equals_at_without_memory():
    # with no buffer there is nothing replayed, so attacking "only the
    # current batch" and "everything" coincide
    stream = _small_stream(2)
    for at_mix in ("replace", "union"):
        cfg = _cfg(buffer_capacity=0, at_mix=at_mix)
        m_at, _ = train_stream(stream, "er_at", cfg)
        m_cat, _ = train_stream(stream, "er_cat", cfg)
        assert _models_equal(m_at, m_cat), at_mix


def test_repeat_runs_bitwise_identical():
    stream = _small_stream(3)
    cfg = _cfg()
    for kind in ("er", "er_at", "er_eat", "derpp_at"):
        m1, l1 = train_stream(stream, kind, cfg)
        m2, l2 = train_stream(stream, kind, cfg)
        assert _models_equal(m1, m2)
        assert [r.mean_accuracy for r in l1.records] == \
               [r.mean_accuracy for r in l2.records]
        assert [r.mean_robustness for r in l1.records] == \
               [r.mean_robustness for r in l2.records]


def test_seed_changes_results():
    stream = _small_stream(4)
    m1, _ = train_stream(stream, "er", _cfg(seed=1))
    m2, _ = train_stream(stream, "er", _cfg(seed=2))
    assert not _models_equal(m1, m2)


def test_der_terms_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    model = init_model((3, 5, 4), seed=1)
    x = rng.normal(size=(6, 3))
    stored = rng.normal(size=(6, 4))
    alpha = 0.7
    loss, grads = der_terms(model, x, stored, alpha)
    ref = alpha * np.mean((forward(model, x) - stored) ** 2)
    assert loss == pytest.approx(ref, rel=1e-12)
    h = 1e-5
    for li in range(len(model.weights)):
        w = model.weights[li]
        idx = (0, 0)
        wp = [a.copy() for a in model.weights]
        wm = [a.copy() for a in model.weights]
        wp[li][idx] += h
        wm[li][idx] -= h
        lp = alpha * np.mean(
            (forward(MLPModel(model.layer_sizes, wp, model.biases), x)
             - stored) ** 2)
        lm = alpha * np.mean(
            (forward(MLPModel(model.layer_sizes, wm, model.biases), x)
             - stored) ** 2)
        num = (lp - lm) / (2 * h)
        assert grads.weight_grads[li][idx] == pytest.approx(num, rel=1e-4,
                                                            abs=1e-7)


def test_der_terms_single_pass_equals_forward_mse_backward_bitwise():
    # the DER term runs one forward pass; it must give the exact bits of
    # forward, then the MSE gradient, then backward
    rng = np.random.default_rng(4)
    for sizes in [(2, 3, 2), (16, 32, 10), (5, 4, 6, 3)]:
        model = init_model(sizes, seed=int(rng.integers(100)))
        x = rng.normal(size=(9, sizes[0]))
        stored = rng.normal(size=(9, sizes[-1]))
        alpha = 0.3
        diff = forward(model, x) - stored
        ref = backward(model, x, (2.0 * alpha / diff.size) * diff)
        loss, got = der_terms(model, x, stored, alpha)
        assert loss == alpha * float(np.mean(diff * diff))
        for a, b in zip(got.weight_grads + got.bias_grads + [got.input_grads],
                        ref.weight_grads + ref.bias_grads + [ref.input_grads]):
            assert np.array_equal(a, b)


def test_der_terms_requires_logits():
    model = init_model((3, 5, 4), seed=1)
    with pytest.raises(ValueError):
        der_terms(model, np.zeros((2, 3)), None, 0.5)


def test_derpp_terms_adds_weighted_ce():
    # the DER++ label term is beta times the cross-entropy, with beta
    # applied to the logit gradient before the backward pass
    rng = np.random.default_rng(2)
    model = init_model((3, 4, 3), seed=3)
    x2 = rng.normal(size=(5, 3))
    y2 = rng.integers(0, 3, size=5)
    beta = 0.9
    loss, grads = derpp_label_terms(model, x2, y2, beta)
    ce, dlogits = softmax_ce(forward(model, x2), y2)
    assert loss == beta * ce
    ref = backward(model, x2, beta * dlogits)
    for a, b in zip(grads.weight_grads + grads.bias_grads,
                    ref.weight_grads + ref.bias_grads):
        assert np.array_equal(a, b)
    # beta 0 removes the term
    loss0, grads0 = derpp_label_terms(model, x2, y2, 0.0)
    assert loss0 == 0.0
    assert not any(g.any() for g in grads0.weight_grads + grads0.bias_grads)


def _eat_copy(task, external, cfg):
    ext, rng = external
    return attack(ext, task.data.x, task.data.y, cfg.attack, rng)


def test_eat_generate_ball_and_labels():
    stream = _small_stream(5, tasks=1)
    task = stream.tasks[0]
    cfg = _cfg(eat_external_epochs=2,
               attack=AttackConfig(eps=0.07, alpha=0.03, iters=3))
    externals = eat_generate(task, (8, 6, 2), cfg, [[5, 4, 0], [5, 4, 0, 1]])
    assert len(externals) == 2
    ae = Dataset(_eat_copy(task, externals[0], cfg), task.data.y.copy())
    assert len(ae) == len(task.data)
    np.testing.assert_array_equal(ae.y, task.data.y)
    assert np.max(np.abs(ae.x - task.data.x)) <= 0.07 + 1e-12
    # separate seeds train separate models
    assert not _models_equal(externals[0][0], externals[1][0])


def test_eat_generate_independent_of_target_model():
    # the external models are fresh each call: generating before or after
    # target training must give identical examples
    stream = _small_stream(6, tasks=1)
    task = stream.tasks[0]
    cfg = _cfg()
    a = eat_generate(task, (8, 6, 2), cfg, [[1, 4, 0]])
    train_stream(stream, "er", cfg)  # unrelated training in between
    b = eat_generate(task, (8, 6, 2), cfg, [[1, 4, 0]])
    np.testing.assert_array_equal(_eat_copy(task, a[0], cfg), _eat_copy(task, b[0], cfg))


def _external_alone(task, layer_sizes, cfg, seed):
    """Reference: one external model trained by itself, a plain 2-D model
    stepped one batch at a time, and its adversarial copy of the task."""
    ext = init_model(layer_sizes, [*seed, 0])
    batch_rng = np.random.default_rng([*seed, 1])
    atk_rng = np.random.default_rng([*seed, 2])
    x, y = task.data.x, task.data.y
    for _ in range(cfg.eat_external_epochs):
        perm = batch_rng.permutation(len(x))
        for s in range(0, len(x), cfg.batch_size):
            idx = perm[s:s + cfg.batch_size]
            adv = attack(ext, x[idx], y[idx], cfg.attack, atk_rng)
            ext = sgd_step(ext, ce_loss_and_grads(ext, adv, y[idx])[1], cfg.sgd)
    return ext, attack(ext, x, y, cfg.attack, atk_rng)


def test_eat_lockstep_members_equal_members_trained_alone():
    # training a task's external models together must not change a bit of
    # any member or of its adversarial copy
    task = _small_stream(20, tasks=1).tasks[0]
    seeds = [[3, 4, 0], [3, 4, 0, 1], [3, 4, 0, 2]]
    for atk in (AttackConfig(eps=0.05, alpha=0.02, iters=3, random_start=True),
                AttackConfig(kind="fgsm", eps=0.05),
                AttackConfig(eps=0.2, alpha=0.1, iters=2, random_start=False,
                             clip=(-1.0, 1.0))):
        cfg = _cfg(eat_external_epochs=2, batch_size=13, attack=atk)
        lockstep = eat_generate(task, (8, 5, 4, 2), cfg, seeds)
        for seed, member in zip(seeds, lockstep):
            ref_model, ref_copy = _external_alone(task, (8, 5, 4, 2), cfg, seed)
            assert _models_equal(member[0], ref_model)
            assert _eat_copy(task, member, cfg).tobytes() == ref_copy.tobytes()


def test_eat_external_seeds_per_task_and_epoch(monkeypatch):
    # one external model per generation: the task's seed for the first
    # epoch, then one seed per later epoch with eat_refresh
    stream = _small_stream(21)
    calls = []

    def recording(task, layer_sizes, cfg, seeds, audit=None):
        calls.append((task.index, seeds))
        return eat_generate(task, layer_sizes, cfg, seeds, audit)

    monkeypatch.setattr(eatcl.strategies, "eat_generate", recording)
    for refresh in (False, True):
        calls.clear()
        cfg = _cfg(eat_refresh=refresh)
        train_stream(stream, "derpp_eat", cfg)
        epochs = range(1, cfg.epochs_per_task) if refresh else []
        assert calls == [(t, [[cfg.seed, 4, t]] + [[cfg.seed, 4, t, e] for e in epochs])
                         for t in range(len(stream.tasks))], refresh


def test_audit_counts_er_never_attacks():
    stream = _small_stream(7)
    _, log = train_stream(stream, "er", _cfg())
    assert log.attack_counts == {"current": 0, "memory": 0, "external": 0}
    _, log_joint = train_stream(stream, "joint", _cfg())
    assert log_joint.attack_counts == {"current": 0, "memory": 0, "external": 0}


def test_audit_counts_eat_only_external():
    stream = _small_stream(8)
    # per generation: 2 external epochs over 60 rows plus one final pass; one
    # generation per task, or one per epoch with eat_refresh
    for refresh in (False, True):
        cfg = _cfg(eat_external_epochs=2, eat_refresh=refresh)
        generations = cfg.epochs_per_task if refresh else 1
        _, log = train_stream(stream, "er_eat", cfg)
        assert log.attack_counts["current"] == 0
        assert log.attack_counts["memory"] == 0
        assert log.attack_counts["external"] == \
            len(stream.tasks) * generations * (2 + 1) * 60, refresh


def test_audit_counts_at_formula():
    stream = _small_stream(9)
    cfg = _cfg()
    n_rows = sum(len(t.data) for t in stream.tasks)
    batches_per_epoch = int(np.ceil(60 / cfg.batch_size))
    attacked_mem = (len(stream.tasks) - 1) * cfg.epochs_per_task * \
        batches_per_epoch * cfg.batch_size
    # ER's memory batch and DER++'s label batch are attacked from the second
    # task on (384 rows); DER's distillation batch stays clean
    for kind, memory in (("er_at", attacked_mem), ("der_at", 0),
                         ("derpp_at", attacked_mem)):
        _, log = train_stream(stream, kind, cfg)
        # every current row is attacked once per epoch: 540 rows
        assert log.attack_counts == {"current": cfg.epochs_per_task * n_rows,
                                     "memory": memory, "external": 0}, kind


def test_buffer_holds_only_clean_current_rows(monkeypatch):
    # under EAT the buffer must never contain generated examples
    stream = _small_stream(10, tasks=2)
    cfg = _cfg(buffer_capacity=25)
    clean_rows = {tuple(row) for t in stream.tasks for row in t.data.x}
    made = []

    class RecordedBuffer(ReplayBuffer):
        def __init__(self, capacity):
            super().__init__(capacity)
            made.append(self)

    monkeypatch.setattr(eatcl.strategies, "ReplayBuffer", RecordedBuffer)
    train_stream(stream, "er_eat", cfg)
    (buf,) = made
    assert len(buf) == cfg.buffer_capacity
    for e in buf.entries:
        assert tuple(e.x) in clean_rows


def test_data_access_stays_on_current_task():
    stream = _small_stream(11)
    for kind in ("er", "er_at", "er_eat", "derpp"):
        _, log = train_stream(stream, kind, _cfg())
        for step, touched in log.data_access.items():
            assert touched == {step}, f"{kind} touched {touched} at {step}"


def test_joint_accesses_everything_at_once():
    stream = _small_stream(12)
    _, log = train_stream(stream, "joint", _cfg())
    (step,) = log.data_access.keys()
    assert step == len(stream.tasks) - 1
    assert log.data_access[step] == {0, 1, 2}


def test_single_head_spans_all_classes():
    stream = _small_stream(13)
    model, _ = train_stream(stream, "er", _cfg())
    assert model.layer_sizes[-1] == 6  # 3 tasks x 2 classes


def test_metrics_records_shape_and_rate_zero_first():
    stream = _small_stream(14)
    _, log = train_stream(stream, "er_at", _cfg())
    assert len(log.records) == len(stream.tasks)
    for i, rec in enumerate(log.records):
        assert rec.step == i
        assert len(rec.per_task_accuracy) == i + 1
        assert len(rec.per_task_robustness) == i + 1
    assert log.records[0].prev_task_rate == 0.0
    assert log.records[1].prev_task_rate is not None


def test_attack_rates_only_after_first_task():
    stream = _small_stream(15)
    cfg = _cfg()
    _, log = train_stream(stream, "er_at", cfg)
    assert all(p.task >= 1 for p in log.attack_rates)
    # one point per epoch for each later task
    assert len(log.attack_rates) == (len(stream.tasks) - 1) * cfg.epochs_per_task
    assert all(0.0 <= p.rate <= 100.0 for p in log.attack_rates)


def test_der_without_stored_logits_fails_cleanly():
    model = init_model((4, 3, 2), seed=0)
    buf = ReplayBuffer(4)
    rng = np.random.default_rng(0)
    buf.reservoir_insert(BufferEntry(np.zeros(4), 0, None), rng)
    x, _, logits = buf.sample_arrays(2, rng)
    with pytest.raises(ValueError):
        der_terms(model, x, logits, 0.5)


def test_eval_spec_uses_held_out_stream():
    train_s = _small_stream(16)
    test_s = gen_blob_stream(3, 2, 8, 30, separation=1.5, noise=0.3,
                             seed=16, sample_seed=[16, 2])
    atk = AttackConfig(eps=0.05, alpha=0.02, iters=2)
    spec = EvalSpec(stream=test_s, attack=atk, seed=0)
    _, log_a = train_stream(train_s, "er", _cfg(), spec)
    _, log_b = train_stream(train_s, "er", _cfg())
    # held-out accuracy differs from train accuracy in general
    assert log_a.records[-1].mean_accuracy != log_b.records[-1].mean_accuracy


def test_eval_does_not_disturb_training():
    train_s = _small_stream(17)
    test_s = gen_blob_stream(3, 2, 8, 30, separation=1.5, noise=0.3,
                             seed=17, sample_seed=[17, 2])
    atk = AttackConfig(eps=0.05, alpha=0.02, iters=2)
    m1, _ = train_stream(train_s, "er_at", _cfg(),
                         EvalSpec(stream=test_s, attack=atk))
    m2, _ = train_stream(train_s, "er_at", _cfg())
    assert _models_equal(m1, m2)


def test_invalid_strategy_and_mismatched_eval():
    stream = _small_stream(18)
    with pytest.raises(ValueError):
        train_stream(stream, "magic", _cfg())
    short = gen_blob_stream(2, 2, 8, 10, 1.5, 0.3, seed=18)
    with pytest.raises(ValueError):
        train_stream(stream, "er", _cfg(),
                     EvalSpec(stream=short,
                              attack=AttackConfig(eps=0.1, alpha=0.05)))


def test_strategy_names_split_into_two_axes():
    assert len(STRATEGIES) == 12
    assert {parse_strategy(name) for name in STRATEGIES} == {
        ("joint", "clean"), ("joint", "at"),
        ("er", "clean"), ("er", "at"), ("er", "cat"), ("er", "eat"),
        ("der", "clean"), ("der", "at"), ("der", "eat"),
        ("derpp", "clean"), ("derpp", "at"), ("derpp", "eat")}
    stream = _small_stream(19)
    for bad in ("der_cat", "derpp_cat", "joint_cat", "joint_eat", "er_", "magic"):
        with pytest.raises(ValueError, match="unknown strategy"):
            train_stream(stream, bad, _cfg())
        with pytest.raises(ConfigError, match="unknown strategy"):
            parse_config(f"strategies = er {bad}\n")
