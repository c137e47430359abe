"""Strategy engine tests: determinism equivalences, attack counts, buffer
hygiene, loss-term gradients against finite differences, and lockstep
training equal to training alone."""

import itertools

import numpy as np
import pytest

import eatcl.strategies
from eatcl.attacks import AttackConfig, attack
from eatcl.datasets import Dataset, TaskStream, gen_blob_stream, gen_crescent
from eatcl.nets import (MLPModel, forward, init_model, loss_and_grads, one_hot, sgd_step,
                        softmax_ce, unstack_models)
from eatcl.replay import ReplayBuffer
from eatcl.runner import ConfigError, parse_config
from eatcl.strategies import (STRATEGIES, TrainConfig, der_terms, derpp_label_terms,
                              eat_generate, parse_strategy, train_streams)
from reference import backward


def _models_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


def _small_stream(seed=0, tasks=3):
    return gen_blob_stream(tasks, 2, 8, 30, separation=1.5, noise=0.3,
                           seed=seed, sample_seed=[seed, 1])


def _cfg(**kw):
    base = dict(epochs_per_task=3, batch_size=16, buffer_capacity=40,
                attack=AttackConfig(eps=0.05, alpha=0.02, iters=2), hidden=(6,))
    base.update(kw)
    return TrainConfig(**base)


def _train(stream, strategy, cfg, seed=5, test=None, atk=None):
    """One run from seed as a group of one, evaluated on test under atk, by
    default on the training stream under the training attack."""
    return train_streams([stream], [stream if test is None else test], strategy, cfg,
                         [seed], atk or cfg.attack)[0]


def _train_group(streams, strategy, cfg, seeds, tests=None):
    """train_streams, each run evaluated on its training stream unless tests
    are given, under the training attack."""
    return train_streams(streams, streams if tests is None else tests, strategy, cfg,
                         seeds, cfg.attack)


def test_er_equals_joint_on_single_task():
    d = gen_crescent(60, seed=3)
    stream = TaskStream([d])
    cfg = _cfg(buffer_capacity=30)
    m_er, _ = _train(stream, "er", cfg)
    m_joint, _ = _train(stream, "joint", cfg)
    assert _models_equal(m_er, m_joint)


def test_er_at_with_zero_eps_equals_er():
    stream = _small_stream(1)
    cfg = _cfg(attack=AttackConfig(kind="pgd", eps=0.0, alpha=0.01, iters=2))
    m_at, _ = _train(stream, "er_at", cfg)
    m_er, _ = _train(stream, "er", cfg)
    assert _models_equal(m_at, m_er)


def test_cat_equals_at_without_memory():
    # with no buffer there is nothing replayed, so attacking "only the
    # current batch" and "everything" coincide
    stream = _small_stream(2)
    for at_mix in ("replace", "union"):
        cfg = _cfg(buffer_capacity=0, at_mix=at_mix)
        m_at, _ = _train(stream, "er_at", cfg)
        m_cat, _ = _train(stream, "er_cat", cfg)
        assert _models_equal(m_at, m_cat), at_mix


def test_repeat_runs_bitwise_identical():
    stream = _small_stream(3)
    cfg = _cfg()
    for kind in ("er", "er_at", "er_eat", "derpp_at"):
        m1, l1 = _train(stream, kind, cfg)
        m2, l2 = _train(stream, kind, cfg)
        assert _models_equal(m1, m2)
        assert [r.mean_accuracy for r in l1.records] == \
               [r.mean_accuracy for r in l2.records]
        assert [r.mean_robustness for r in l1.records] == \
               [r.mean_robustness for r in l2.records]


def test_seed_changes_results():
    stream = _small_stream(4)
    m1, _ = _train(stream, "er", _cfg(), seed=1)
    m2, _ = _train(stream, "er", _cfg(), seed=2)
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
    y2 = one_hot(rng.integers(0, 3, size=5), 3)
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


def _targets(task, classes=2):
    return one_hot(task.y, classes)


def _eat_copy(task, external, cfg):
    ext, rng = external
    return attack(ext, task.x, _targets(task, ext.num_classes), cfg.attack, rng)


def test_eat_generate_ball_and_labels():
    stream = _small_stream(5, tasks=1)
    task = stream.tasks[0]
    cfg = _cfg(eat_external_epochs=2,
               attack=AttackConfig(eps=0.07, alpha=0.03, iters=3))
    counts = {"external": 0}
    externals = eat_generate([task, task], (8, 6, 2), cfg,
                             [[5, 4, 0], [5, 4, 0, 1]], [counts, counts])
    assert len(externals) == 2
    assert counts == {"external": 2 * 2 * len(task)}  # epochs x externals x rows
    ae = Dataset(_eat_copy(task, externals[0], cfg), task.y.copy(), task.classes)
    assert len(ae) == len(task)
    np.testing.assert_array_equal(ae.y, task.y)
    assert np.max(np.abs(ae.x - task.x)) <= 0.07 + 1e-12
    # separate seeds train separate models
    assert not _models_equal(externals[0][0], externals[1][0])


def test_eat_generate_independent_of_target_model():
    # the external models are fresh each call: generating before or after
    # target training must give identical examples
    stream = _small_stream(6, tasks=1)
    task = stream.tasks[0]
    cfg = _cfg()
    args = [task], (8, 6, 2), cfg, [[1, 4, 0]]
    a = eat_generate(*args, [{"external": 0}])
    _train(stream, "er", cfg)  # unrelated training in between
    b = eat_generate(*args, [{"external": 0}])
    np.testing.assert_array_equal(_eat_copy(task, a[0], cfg), _eat_copy(task, b[0], cfg))


def _external_alone(task, layer_sizes, cfg, seed):
    """Reference: one external model trained by itself, a plain 2-D model
    stepped one batch at a time, and its adversarial copy of the task."""
    ext = init_model(layer_sizes, [*seed, 0])
    batch_rng = np.random.default_rng([*seed, 1])
    atk_rng = np.random.default_rng([*seed, 2])
    x, y = task.x, _targets(task, layer_sizes[-1])
    for _ in range(cfg.eat_external_epochs):
        perm = batch_rng.permutation(len(x))
        for s in range(0, len(x), cfg.batch_size):
            idx = perm[s:s + cfg.batch_size]
            adv = attack(ext, x[idx], y[idx], cfg.attack, atk_rng)
            grads = loss_and_grads(ext, adv, lambda z: softmax_ce(z, y[idx]))[1]
            ext = sgd_step(ext, grads, cfg.lr)
    return ext, attack(ext, x, y, cfg.attack, atk_rng)


def test_eat_lockstep_members_equal_members_trained_alone():
    # training a task's external models together must not change a bit of
    # any member or of its adversarial copy
    task = _small_stream(20, tasks=1).tasks[0]
    seeds = [[3, 4, 0], [3, 4, 0, 1], [3, 4, 0, 2]]
    for atk in (AttackConfig(eps=0.05, alpha=0.02, iters=3),
                AttackConfig(kind="fgsm", eps=0.05),
                AttackConfig(eps=0.2, alpha=0.1, iters=2)):
        cfg = _cfg(eat_external_epochs=2, batch_size=13, attack=atk)
        lockstep = eat_generate([task] * len(seeds), (8, 5, 4, 2), cfg,
                                seeds, [{"external": 0}] * len(seeds))
        for seed, member in zip(seeds, lockstep):
            ref_model, ref_copy = _external_alone(task, (8, 5, 4, 2), cfg, seed)
            assert _models_equal(member[0], ref_model)
            assert _eat_copy(task, member, cfg).tobytes() == ref_copy.tobytes()


def test_eat_externals_of_different_members_equal_externals_alone():
    # one call trains the externals of members with different tasks: each
    # external, and its copy, must equal one trained alone on its member's
    # rows, whatever the target's at_mix and epochs_per_task
    tasks = [_small_stream(s, tasks=1).tasks[0] for s in (23, 24, 25)]
    for cfg, per_member in itertools.product(
            (_cfg(eat_external_epochs=2, batch_size=13),
             _cfg(eat_external_epochs=1, epochs_per_task=2, batch_size=13, at_mix="union")),
            (1, 3)):  # one external per task, or one per epoch
        seeds = [[m, 4, 0, g] for m in range(len(tasks)) for g in range(per_member)]
        counts = [{"external": 0} for _ in tasks]
        lockstep = eat_generate([tasks[k // per_member] for k in range(len(seeds))],
                                (8, 5, 2), cfg, seeds,
                                [counts[k // per_member] for k in range(len(seeds))])
        assert len(lockstep) == len(seeds)
        for k, (seed, member) in enumerate(zip(seeds, lockstep)):
            task = tasks[k // per_member]
            ref_model, ref_copy = _external_alone(task, (8, 5, 2), cfg, seed)
            assert _models_equal(member[0], ref_model), (cfg.at_mix, per_member, k)
            assert _eat_copy(task, member, cfg).tobytes() == ref_copy.tobytes()
        assert counts == [{"external": per_member * cfg.eat_external_epochs
                           * len(tasks[0])}] * len(tasks)


def test_eat_generate_rejects_bad_tasks_and_seeds_before_any_step(monkeypatch):
    # an empty task (which TaskStream never lets through), tasks of unequal
    # size, and a seed count other than the task count
    monkeypatch.setattr(eatcl.strategies, "batch_step", _no_step)
    task = _small_stream(26, tasks=1).tasks[0]
    empty = Dataset(np.zeros((0, 8)), np.zeros(0, dtype=int), task.classes)
    short = Dataset(task.x[:-1], task.y[:-1], task.classes)
    cases = [([empty], [[1]], r"sizes \[0\]"),
             ([task, short], [[1], [2]], rf"sizes \[{len(short)}, {len(task)}\]"),
             ([task, task], [[1]], "external seeds"),
             ([task, task], [[1], [2], [3]], "external seeds")]
    for tasks, seeds, match in cases:
        with pytest.raises(ValueError, match=match):
            eat_generate(tasks, (8, 5, 2), _cfg(), seeds, [{"external": 0}] * len(seeds))


def test_eat_external_seeds_per_task_and_epoch(monkeypatch):
    # one call, before the first task, trains every external of the group,
    # one per task, member and generation: each member's task seed for the
    # first epoch, then one seed per later epoch with eat_refresh, in
    # task-major, member, generation order
    streams = [_small_stream(21), _small_stream(22)]
    steps = len(streams[0].tasks)
    calls = []

    def recording(tasks, layer_sizes, cfg, seeds, counts):
        calls.append((tasks, seeds))
        return eat_generate(tasks, layer_sizes, cfg, seeds, counts)

    monkeypatch.setattr(eatcl.strategies, "eat_generate", recording)
    for refresh in (False, True):
        calls.clear()
        cfg = _cfg(eat_refresh=refresh)
        _train_group(streams, "derpp_eat", cfg, (5, 7))
        epochs = range(1, cfg.epochs_per_task) if refresh else []
        ((tasks, seeds),) = calls
        assert seeds == [seed for t in range(steps) for m in (5, 7)
                         for seed in [[m, 4, t]] + [[m, 4, t, e] for e in epochs]], refresh
        # each external trains on its member's task, in the same order
        assert [id(task) for task in tasks] == [
            id(s.tasks[t]) for t in range(steps) for s in streams
            for _ in range(1 + len(epochs))], refresh


def _sized_stream(seed, sizes, dim=4):
    """A stream of two-class tasks with the given row counts."""
    rng = np.random.default_rng(seed)
    tasks = []
    for t, n in enumerate(sizes):
        y = 2 * t + np.arange(n) % 2
        tasks.append(Dataset(rng.normal(size=(n, dim)) + y[:, None], y, (2 * t, 2 * t + 1)))
    return TaskStream(tasks)


def test_eat_group_externals_and_copies_equal_each_trained_alone(monkeypatch):
    # one eat_generate call for the group: every external, and the copy the
    # target trains on, equals one trained alone on its own task, and each
    # member of the group equals that member trained alone
    streams = [_sized_stream(s, (20, 20, 20)) for s in (50, 51)]
    seeds = (5, 7)
    cfg = _cfg(eat_external_epochs=2, batch_size=8)
    calls, refs = [], {}  # refs: id of an external -> (external, its task, its copy)
    real_attack = eatcl.strategies.attack

    def recording(tasks, layer_sizes, cfg, ext_seeds, counts):
        externals = eat_generate(tasks, layer_sizes, cfg, ext_seeds, counts)
        for seed, (ext, _) in zip(ext_seeds, externals):
            task = streams[seeds.index(seed[0])].tasks[seed[2]]
            ref_model, ref_copy = _external_alone(task, layer_sizes, cfg, seed)
            assert _models_equal(ext, ref_model), seed
            refs[id(ext)] = ext, task, ref_copy
        calls.append([seed[2] for seed in ext_seeds])
        return externals

    def recording_attack(model, x, *args):
        adv = real_attack(model, x, *args)
        if id(model) in refs:  # an external making its copy
            _, task, ref_copy = refs.pop(id(model))
            assert x is task.x and adv.tobytes() == ref_copy.tobytes()
        return adv

    monkeypatch.setattr(eatcl.strategies, "eat_generate", recording)
    monkeypatch.setattr(eatcl.strategies, "attack", recording_attack)
    group = _train_group(streams, "er_eat", cfg, seeds)
    assert calls == [[0, 0, 1, 1, 2, 2]]
    assert not refs  # every external made its copy
    monkeypatch.undo()
    for run, stream, seed in zip(group, streams, seeds):
        assert _run_bits(*run) == _run_bits(*_train(stream, "er_eat", cfg, seed))


def test_audit_counts_er_never_attacks():
    stream = _small_stream(7)
    _, log = _train(stream, "er", _cfg())
    assert log.attack_counts == {"current": 0, "memory": 0, "external": 0}
    _, log_joint = _train(stream, "joint", _cfg())
    assert log_joint.attack_counts == {"current": 0, "memory": 0, "external": 0}


def test_audit_counts_eat_only_external():
    stream = _small_stream(8)
    # per generation: 2 external epochs over 60 rows plus one final pass; one
    # generation per task, or one per epoch with eat_refresh
    for refresh in (False, True):
        cfg = _cfg(eat_external_epochs=2, eat_refresh=refresh)
        generations = cfg.epochs_per_task if refresh else 1
        _, log = _train(stream, "er_eat", cfg)
        assert log.attack_counts["current"] == 0
        assert log.attack_counts["memory"] == 0
        assert log.attack_counts["external"] == \
            len(stream.tasks) * generations * (2 + 1) * 60, refresh


def test_audit_counts_at_formula():
    stream = _small_stream(9)
    cfg = _cfg()
    n_rows = sum(len(t) for t in stream.tasks)
    batches_per_epoch = int(np.ceil(60 / cfg.batch_size))
    attacked_mem = (len(stream.tasks) - 1) * cfg.epochs_per_task * \
        batches_per_epoch * cfg.batch_size
    # ER's memory batch and DER++'s label batch are attacked from the second
    # task on (384 rows); DER's distillation batch stays clean
    for kind, memory in (("er_at", attacked_mem), ("der_at", 0),
                         ("derpp_at", attacked_mem)):
        _, log = _train(stream, kind, cfg)
        # every current row is attacked once per epoch: 540 rows
        assert log.attack_counts == {"current": cfg.epochs_per_task * n_rows,
                                     "memory": memory, "external": 0}, kind


def test_buffer_holds_only_clean_current_rows(monkeypatch):
    # under EAT the buffer must never contain generated examples
    stream = _small_stream(10, tasks=2)
    cfg = _cfg(buffer_capacity=25)
    clean_rows = {tuple(row) for t in stream.tasks for row in t.x}
    made = []

    class RecordedBuffer(ReplayBuffer):
        def __init__(self, capacity, members):
            super().__init__(capacity, members)
            made.append(self)

    monkeypatch.setattr(eatcl.strategies, "ReplayBuffer", RecordedBuffer)
    _train(stream, "er_eat", cfg)
    (buf,) = [b for b in made if b.capacity]  # the target's: the externals' holds no rows
    assert min(buf.seen_counts[0], buf.capacity) == cfg.buffer_capacity  # full
    for row in buf.x[0]:
        assert tuple(row) in clean_rows


def _record_run_task(monkeypatch):
    # the tasks handed to _run_task at each step are the data a run touches,
    # recorded with the task index it is given; the +EAT externals' own
    # training, inside eat_generate, is not a step of the run
    seen, generating = [], []
    real_run_task = eatcl.strategies._run_task
    real_eat_generate = eatcl.strategies.eat_generate

    def recording(model, index, tasks, *args):
        if not generating:
            seen.append((index, tasks))
        return real_run_task(model, index, tasks, *args)

    def flagged(*args):
        generating.append(True)
        try:
            return real_eat_generate(*args)
        finally:
            generating.pop()

    monkeypatch.setattr(eatcl.strategies, "_run_task", recording)
    monkeypatch.setattr(eatcl.strategies, "eat_generate", flagged)
    return seen


def test_data_access_stays_on_current_task(monkeypatch):
    # replay strategies train step i on task i alone
    stream = _small_stream(11)
    seen = _record_run_task(monkeypatch)
    for kind in ("er", "er_at", "er_eat", "derpp"):
        seen.clear()
        _, log = _train(stream, kind, _cfg())
        assert [rec.step for rec in log.records] == list(range(len(stream.tasks)))
        assert len(seen) == len(stream.tasks), kind
        for i, (index, tasks) in enumerate(seen):
            assert index == i, (kind, i)
            assert len(tasks) == 1 and tasks[0] is stream.tasks[i], (kind, i)


def test_joint_accesses_everything_at_once(monkeypatch):
    # joint trains once, at the last step, on the whole stream merged into one task
    stream = _small_stream(12)
    seen = _record_run_task(monkeypatch)
    _, log = _train(stream, "joint", _cfg())
    assert [rec.step for rec in log.records] == [len(stream.tasks) - 1]
    ((index, (task,)),) = seen
    assert index == 0
    merged = stream.merged()
    assert np.array_equal(task.x, merged.x)
    assert np.array_equal(task.y, merged.y)


def test_joint_is_one_task_at_index_zero():
    # joint trains the merged stream as its first and only task: no earlier
    # task, so no attack-rate points, and the model of the one-task stream
    stream = _small_stream(23)
    merged = TaskStream([stream.merged()])
    m_joint, log = _train(stream, "joint_at", _cfg())
    m_merged, _ = _train(merged, "joint_at", _cfg())
    assert log.attack_rates == []
    assert log.attack_counts["current"] > 0
    assert _models_equal(m_joint, m_merged)


def test_single_head_spans_all_classes():
    stream = _small_stream(13)
    model, _ = _train(stream, "er", _cfg())
    assert model.layer_sizes[-1] == 6  # 3 tasks x 2 classes


def test_metrics_records_shape_and_rate_zero_first():
    stream = _small_stream(14)
    _, log = _train(stream, "er_at", _cfg())
    assert len(log.records) == len(stream.tasks)
    for i, rec in enumerate(log.records):
        assert rec.step == i
        assert len(rec.per_task_accuracy) == i + 1
        assert len(rec.per_task_robustness) == i + 1
    assert not any(p.task == 0 for p in log.attack_rates)
    assert any(p.task == 1 for p in log.attack_rates)


def test_attack_rates_only_after_first_task():
    stream = _small_stream(15)
    cfg = _cfg()
    _, log = _train(stream, "er_at", cfg)
    assert all(p.task >= 1 for p in log.attack_rates)
    # one point per epoch for each later task
    assert len(log.attack_rates) == (len(stream.tasks) - 1) * cfg.epochs_per_task
    assert all(0.0 <= p.rate <= 100.0 for p in log.attack_rates)


def test_der_without_stored_logits_fails_cleanly():
    model = init_model((4, 3, 2), seed=0)
    buf = ReplayBuffer(4)
    (_, writes), ((idx,), _) = buf.plan_epoch([[1], [0]], 1, 2, [np.random.default_rng(0)])
    buf.insert(writes, np.zeros((1, 4)), np.zeros((1, 2)), None)
    x, _, logits = buf.sample_arrays(idx)
    with pytest.raises(ValueError):
        der_terms(model, x, logits, 0.5)


def test_only_der_buffers_store_logits(monkeypatch):
    # ER's buffer holds rows and their targets without logits and samples
    # logits None; DER's samples one stored logits row per sampled row, for
    # every member
    made = []

    class RecordedBuffer(ReplayBuffer):
        def __init__(self, capacity, members):
            super().__init__(capacity, members)
            made.append(self)

    monkeypatch.setattr(eatcl.strategies, "ReplayBuffer", RecordedBuffer)
    for strategy, stores in (("er", False), ("der", True)):
        made.clear()
        _train_group([_small_stream(s) for s in (5, 6)], strategy, _cfg(), (5, 6))
        (buf,) = made
        (((idx,), _),) = buf.plan_epoch([[0, 0]], 1, 4,
                                        [np.random.default_rng(s) for s in (0, 1)])
        x, targets, logits = buf.sample_arrays(idx)
        assert x.shape == (8, 8) and targets.shape == (8, 6)
        assert np.array_equal(targets.sum(axis=1), np.ones(8))
        assert (buf.logits is not None) == stores
        if stores:
            assert logits.shape == (8, 6)
        else:
            assert logits is None


def test_eval_spec_uses_held_out_stream():
    train_s = _small_stream(16)
    test_s = gen_blob_stream(3, 2, 8, 30, separation=1.5, noise=0.3,
                             seed=16, sample_seed=[16, 2])
    atk = AttackConfig(eps=0.05, alpha=0.02, iters=2)
    _, log_a = _train(train_s, "er", _cfg(), test=test_s, atk=atk)
    _, log_b = _train(train_s, "er", _cfg())
    # held-out accuracy differs from train accuracy in general
    assert log_a.records[-1].mean_accuracy != log_b.records[-1].mean_accuracy


def test_eval_does_not_disturb_training():
    train_s = _small_stream(17)
    test_s = gen_blob_stream(3, 2, 8, 30, separation=1.5, noise=0.3,
                             seed=17, sample_seed=[17, 2])
    atk = AttackConfig(eps=0.05, alpha=0.02, iters=2)
    m1, _ = _train(train_s, "er_at", _cfg(), test=test_s, atk=atk)
    m2, _ = _train(train_s, "er_at", _cfg())
    assert _models_equal(m1, m2)


def test_invalid_strategy_and_mismatched_eval():
    stream = _small_stream(18)
    with pytest.raises(ValueError):
        _train(stream, "magic", _cfg())
    short = gen_blob_stream(2, 2, 8, 10, 1.5, 0.3, seed=18)
    with pytest.raises(ValueError):
        _train(stream, "er", _cfg(), test=short, atk=AttackConfig(eps=0.1, alpha=0.05))


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
            _train(stream, bad, _cfg())
        with pytest.raises(ConfigError, match="unknown strategy"):
            parse_config(f"strategies = er {bad}\n")


def _run_bits(model, log):
    return ([a.tobytes() for a in model.weights + model.biases], log.records,
            log.attack_rates, log.attack_counts)


def test_lockstep_runs_equal_runs_alone():
    # a strategy's seeds trained together, as the members of one stacked
    # model, must each get exactly the bits they get as a group of one
    seeds = (5, 6, 7)
    streams = [_small_stream(30 + s) for s in seeds]
    atk = AttackConfig(eps=0.05, alpha=0.02, iters=2)
    tests = [_small_stream(40 + s) for s in seeds]
    for strategy, at_mix, refresh in itertools.product(
            STRATEGIES, ("replace", "union"), (False, True)):
        cfg = _cfg(epochs_per_task=2, batch_size=13, replay_batch_size=7,
                   eat_external_epochs=1, at_mix=at_mix, eat_refresh=refresh)
        lockstep = train_streams(streams, tests, strategy, cfg, seeds, atk)
        assert len(lockstep) == len(seeds)
        for run, stream, seed, test in zip(lockstep, streams, seeds, tests):
            alone = _train(stream, strategy, cfg, seed, test, atk)
            assert _run_bits(*run) == _run_bits(*alone), (strategy, at_mix, refresh)


def _no_step(*args, **kwargs):
    raise AssertionError("training started")


def test_lockstep_rejects_mismatched_runs_before_any_step(monkeypatch):
    monkeypatch.setattr(eatcl.strategies, "batch_step", _no_step)
    base, seeds = _small_stream(1), (1, 2)
    # +EAT trains every external of the group in one eat_generate call,
    # which rejects tasks of two sizes; plain ER trains on them (below)
    two_sizes = [_sized_stream(s, (20, 12, 20)) for s in (50, 51)]
    for streams, run_seeds in ((two_sizes, seeds), (two_sizes[:1], seeds[:1])):
        with pytest.raises(ValueError, match=r"sizes \[12, 20\]"):
            _train_group(streams, "er_eat", _cfg(), run_seeds)
    monkeypatch.setattr(eatcl.strategies, "eat_generate", _no_step)
    cases = [
        # task sizes, input dim, task count
        ([base, gen_blob_stream(3, 2, 8, 31, 1.5, 0.3, seed=2)], seeds, None),
        ([base, gen_blob_stream(3, 2, 9, 30, 1.5, 0.3, seed=2)], seeds, None),
        ([base, gen_blob_stream(2, 2, 8, 30, 1.5, 0.3, seed=2)], seeds, None),
        # seeds or test streams that do not pair with the streams
        ([base, _small_stream(2)], (1,), None),
        ([base, _small_stream(2)], seeds, [base]),
        ([], (), None),
        # a test stream of another input dim, or with a class the head lacks
        ([base], seeds[:1], [gen_blob_stream(3, 2, 7, 30, 1.5, 0.3, seed=2)]),
        ([base], seeds[:1], [gen_blob_stream(3, 3, 8, 30, 1.5, 0.3, seed=2)]),
    ]
    for (streams, run_seeds, tests), strategy in itertools.product(
            cases, ("er", "joint_at", "der_eat")):
        with pytest.raises(ValueError):
            _train_group(streams, strategy, _cfg(), run_seeds, tests)
    monkeypatch.undo()
    assert len(_train_group(two_sizes, "er", _cfg(), seeds)) == 2


def test_negative_class_id_in_a_later_task_fails_before_any_step(monkeypatch):
    # a library-built stream can hold class ids the head has no row for; its
    # labels fail train_streams' checks, not the first step of that task
    monkeypatch.setattr(eatcl.strategies, "sgd_step", _no_step)
    first, later = _small_stream(22, tasks=2).tasks
    y = np.where(later.y == later.classes[0], -1, later.y)
    bad = TaskStream([first, Dataset(later.x, y, (-1, later.classes[1]))])
    for strategy in ("er", "joint_at", "der_eat"):
        with pytest.raises(ValueError, match="out of range"):
            _train(bad, strategy, _cfg())


def test_stored_der_logits_equal_pre_step_forward_pass(monkeypatch):
    # clean DER and DER++ store the cross-entropy pass's logits of the rows
    # they insert; like the forward pass the other robustness schemes run,
    # they must equal the pre-step model's logits of those rows, bit for bit
    stepped, inserts = [], []
    real_sgd_step = eatcl.strategies.sgd_step

    def recording_sgd_step(model, grads, lr):
        stepped.append(model)
        return real_sgd_step(model, grads, lr)

    # each planned step's rows per member; the externals' capacity-0 buffer
    # plans no step and takes no insert, so every insert comes with logits
    planned = []

    class RecordedBuffer(ReplayBuffer):
        def plan_epoch(self, counts, *args):
            planned.extend(counts)
            return super().plan_epoch(counts, *args)

        def insert(self, writes, x, targets, logits):
            cuts = np.cumsum(planned.pop(0))[:-1]  # the rows are member-major
            for member, (xe, le) in enumerate(zip(np.split(x, cuts), np.split(logits, cuts))):
                inserts.append((member, stepped[-1], xe.copy(), le.copy()))
            super().insert(writes, x, targets, logits)

    monkeypatch.setattr(eatcl.strategies, "sgd_step", recording_sgd_step)
    monkeypatch.setattr(eatcl.strategies, "ReplayBuffer", RecordedBuffer)
    for strategy, seeds in itertools.product(("der", "derpp", "der_at", "derpp_eat"),
                                             ([5], [5, 6])):
        stepped.clear(), inserts.clear()
        _train_group([_small_stream(s) for s in seeds], strategy, _cfg(), seeds)
        assert len(inserts) > len(seeds)
        for member, pre_step, x, logits in inserts:
            model = (pre_step if pre_step.members is None
                     else unstack_models(pre_step)[member])
            assert forward(model, x).tobytes() == logits.tobytes(), strategy


def test_buffer_draws_one_integers_call_per_member_and_epoch(monkeypatch):
    # each member's buffer generator makes one integers call per epoch that
    # draws: every sample and insert draw of the epoch comes from that call
    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng, self.calls = rng, []
            calls.append(self.calls)

        def integers(self, *args, **kwargs):
            out = self.rng.integers(*args, **kwargs)
            self.calls.append(out.size)
            return out

    real_for_seed = eatcl.strategies._Rngs.for_seed

    def counted_for_seed(seed):
        rngs = real_for_seed(seed)
        rngs.buffer = Counting(rngs.buffer)
        return rngs

    monkeypatch.setattr(eatcl.strategies._Rngs, "for_seed", staticmethod(counted_for_seed))
    stream = _small_stream(9)
    # capacity below a task's 60 rows: every epoch's inserts draw
    cfg = _cfg(buffer_capacity=10)
    for strategy in ("der", "derpp"):
        calls.clear()
        _train_group([stream, stream], strategy, cfg, (5, 6))
        epochs = len(stream.tasks) * cfg.epochs_per_task
        assert len(calls) == 2
        for member in calls:  # the draws of each call
            assert len(member) == epochs and all(member), strategy


def test_a_step_schedule_off_the_plan_raises(monkeypatch):
    # the epoch plan fixes how many buffer batches each step samples; a step
    # handed more or fewer than its replay scheme samples fails at once
    # instead of shifting draws
    stream = _small_stream(9)
    real_plan_epoch = ReplayBuffer.plan_epoch
    for strategy, planned in (("er", 2), ("derpp", 1)):
        monkeypatch.setattr(ReplayBuffer, "plan_epoch",
                            lambda self, counts, samples, *args, planned=planned:
                            real_plan_epoch(self, counts, planned, *args))
        with pytest.raises(ValueError, match="planned"):
            _train(stream, strategy, _cfg())
