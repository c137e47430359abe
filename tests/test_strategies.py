"""Strategy engine tests: every strategy's lockstep runs equal to
reference.train_alone bit for bit, equivalences between strategies, +EAT's
copies equal to reference.train_external's, loss-term gradients against
finite differences, errors raised before any step, and the cost and memory
properties that equal bits cannot show."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import eatcl.strategies
from eatcl.attacks import AttackConfig, attack
from eatcl.datasets import Dataset, TaskStream, gen_blob_stream, gen_crescent
from eatcl.nets import (GradBundle, MLPModel, forward, init_model, one_hot, softmax_ce,
                        stack_models)
from eatcl.replay import ReplayBuffer
from eatcl.runner import ConfigError, parse_config
from eatcl.strategies import (DER_ALPHA, DERPP_BETA, STRATEGIES, TrainConfig, der_terms,
                              eat_generate, parse_strategy, train_streams)
from conftest import _counting
from reference import backward, label_softmax_ce, train_alone, train_external


def _models_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


def _small_stream(seed=0, tasks=3):
    return gen_blob_stream(tasks, 2, 8, 30, seed=seed, sample_seed=[seed, 1])


def _cfg(**kw):
    base = dict(epochs_per_task=3, batch_size=16, buffer_capacity=40,
                attack=AttackConfig(eps=0.05, alpha=0.02, iters=2), hidden=(6,))
    base.update(kw)
    return TrainConfig(**base)


def _train(stream, strategy, cfg, seed=5, test=None):
    """One run from seed as a group of one, evaluated on test, by default on
    the training stream."""
    return train_streams([stream], [stream if test is None else test], [strategy], cfg,
                         [seed])[0][0]


def _train_group(streams, strategy, cfg, seeds, tests=None):
    """One strategy's runs from train_streams, each evaluated on its
    training stream unless tests are given."""
    (runs,) = train_streams(streams, streams if tests is None else tests, [strategy], cfg,
                            seeds)
    return runs


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


def test_seed_changes_results():
    stream = _small_stream(4)
    m1, _ = _train(stream, "er", _cfg(), seed=1)
    m2, _ = _train(stream, "er", _cfg(), seed=2)
    assert not _models_equal(m1, m2)


def _zero_grads(model):
    """Gradients of model, all zero, for der_terms to add its terms into."""
    return GradBundle([np.zeros_like(w) for w in model.weights],
                      [np.zeros_like(b) for b in model.biases], None)


def test_der_terms_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    model = init_model((3, 5, 4), seed=1)
    x = rng.normal(size=(6, 3))
    stored = rng.normal(size=(6, 4))
    grads = _zero_grads(model)
    der_terms(model, x, stored, np.empty((0, 4)), grads)
    h = 1e-5
    for li in range(len(model.weights)):
        w = model.weights[li]
        idx = (0, 0)
        wp = [a.copy() for a in model.weights]
        wm = [a.copy() for a in model.weights]
        wp[li][idx] += h
        wm[li][idx] -= h
        lp = DER_ALPHA * np.mean(
            (forward(MLPModel(model.layer_sizes, wp, model.biases), x)
             - stored) ** 2)
        lm = DER_ALPHA * np.mean(
            (forward(MLPModel(model.layer_sizes, wm, model.biases), x)
             - stored) ** 2)
        num = (lp - lm) / (2 * h)
        assert grads.weight_grads[li][idx] == pytest.approx(num, rel=1e-4,
                                                            abs=1e-7)


def test_der_terms_single_pass_equals_forward_mse_backward_bitwise():
    # with no label rows, der_terms runs one forward pass for the DER term;
    # added into zero gradients it must give the exact bits of forward,
    # then the MSE gradient, then backward
    rng = np.random.default_rng(4)
    for sizes in [(2, 3, 2), (16, 32, 10), (5, 4, 6, 3)]:
        model = init_model(sizes, seed=int(rng.integers(100)))
        x = rng.normal(size=(9, sizes[0]))
        stored = rng.normal(size=(9, sizes[-1]))
        diff = forward(model, x) - stored
        ref = backward(model, x, (2.0 * DER_ALPHA / diff.size) * diff)
        got = _zero_grads(model)
        der_terms(model, x, stored, np.empty((0, sizes[-1])), got)
        for a, b in zip(got.weight_grads + got.bias_grads,
                        ref.weight_grads + ref.bias_grads, strict=True):
            assert np.array_equal(a, b)


def _der_terms_bits_hold(hidden, der, derpp, attacked) -> bool:
    """Whether der_terms, over a group of der members then derpp members
    (one plain model if one member), adds into random gradients the bits
    that reference.backward gives each term of each member apart, added in
    order; with attacked, the label rows are adversarial rows of their
    member, as under +AT."""
    rng = np.random.default_rng([4, der, derpp, len(hidden)])
    e, k, b = der + derpp, derpp, 5
    singles = [init_model((4, *hidden, 3), seed=int(s)) for s in rng.integers(100, size=e)]
    model = singles[0] if e == 1 else stack_models(singles)
    x0, stored = rng.normal(size=(e * b, 4)), rng.normal(size=(e * b, 3))
    x1, labels = rng.normal(size=(k * b, 4)), rng.integers(0, 3, size=k * b)
    targets = one_hot(labels, 3)
    if attacked:
        atk = AttackConfig(eps=0.3, alpha=0.1, iters=2)
        for j, m in enumerate(singles[e - k:]):
            rows = slice(j * b, (j + 1) * b)
            x1[rows] = attack(m, x1[rows], targets[rows], atk, np.random.default_rng(j))
    got = [rng.normal(size=p.shape) for p in model.weights + model.biases]
    want = [g.copy() for g in got]
    der_terms(model, np.concatenate([x0, x1]), stored, targets,
              GradBundle(got[:len(model.weights)], got[len(model.weights):], None))
    for i, m in enumerate(singles):
        # member i's slices, in its plain shapes; a plain model's are its own
        member = [g[i].reshape(p.shape) if e > 1 else g
                  for g, p in zip(want, m.weights + m.biases)]
        rows = slice(i * b, (i + 1) * b)
        diff = forward(m, x0[rows]) - stored[rows]
        terms = [(x0[rows], (2.0 * DER_ALPHA / diff.size) * diff)]
        j = i - (e - k)
        if j >= 0:  # a derpp member: its label rows, after the distillation term
            rows = slice(j * b, (j + 1) * b)
            dlogits = label_softmax_ce(forward(m, x1[rows]), labels[rows])[1]
            terms.append((x1[rows], DERPP_BETA * dlogits))
        for x, dlogits in terms:
            term = backward(m, x, dlogits)
            member = [g + t for g, t in zip(member, term.weight_grads + term.bias_grads)]
        for g, w in zip(got, member, strict=True):
            if not np.array_equal(g[i].reshape(w.shape) if e > 1 else g, w):
                return False
    return True


def test_der_terms_equal_both_terms_backward_apart_bitwise():
    # one pass over the group's members, then its derpp members again, must
    # give the bits of each term's forward pass, loss gradient and backward
    # pass taken apart, added into the gradients in order: the distillation
    # term into every member's, then the label term into the last derpp
    # members'. Groups: one plain model (derpp alone), a stacked der + derpp
    # group, a derpp-only and a der-only group, clean and under +AT
    for case in itertools.product([(), (6, 5)], [(0, 1), (1, 2), (0, 2), (2, 0)],
                                  [False, True]):
        hidden, (der, derpp), attacked = case
        assert _der_terms_bits_hold(hidden, der, derpp, attacked), case


def test_der_terms_requires_logits():
    model = init_model((3, 5, 4), seed=1)
    with pytest.raises(ValueError):
        der_terms(model, np.zeros((2, 3)), None, np.empty((0, 4)), _zero_grads(model))


def test_der_terms_rejects_stored_logits_of_another_shape():
    # stored logits pair with the model's logits row for row and class for
    # class: one row per buffer row, as (rows, classes) or, for a stacked
    # model, also member-major; another head width or row count raises
    model = init_model((3, 5, 4), seed=1)
    stacked = stack_models([model, init_model((3, 5, 4), seed=2)])
    x, none = np.zeros((6, 3)), np.empty((0, 4))
    for m, good in ((model, [(6, 4)]), (stacked, [(6, 4), (2, 3, 4)])):
        for shape in good:
            der_terms(m, x, np.zeros(shape), none, _zero_grads(m))
        for shape in [(6, 3), (6, 5), (5, 4), (7, 4), (12, 2)]:
            with pytest.raises(ValueError, match="does not match logits"):
                der_terms(m, x, np.zeros(shape), none, _zero_grads(m))


def test_derpp_terms_adds_weighted_ce():
    # the DER++ label term is DERPP_BETA times the cross-entropy, with the
    # weight applied to the logit gradient before the backward pass; stored
    # logits equal to the model's own make the DER term's gradient zero
    rng = np.random.default_rng(2)
    model = init_model((3, 4, 3), seed=3)
    x0 = rng.normal(size=(5, 3))
    x2 = rng.normal(size=(5, 3))
    y2 = one_hot(rng.integers(0, 3, size=5), 3)
    grads = _zero_grads(model)
    der_terms(model, np.concatenate([x0, x2]), forward(model, x0), y2, grads)
    dlogits = softmax_ce(forward(model, x2), y2)[1]
    ref = backward(model, x2, DERPP_BETA * dlogits)
    for a, b in zip(grads.weight_grads + grads.bias_grads,
                    ref.weight_grads + ref.bias_grads, strict=True):
        assert np.array_equal(a, b)


def _externals_alone(tasks, layer_sizes, cfg, seeds, copies):
    """Assert that each of eat_generate's copies and its rows, the copy's
    included, equal reference.train_external's copy of that task and count;
    return the copies."""
    for task, seed, (copy, rows) in zip(tasks, seeds, copies, strict=True):
        ref_copy, ref_rows = train_external(task, layer_sizes, cfg, seed)
        assert (copy.shape, copy.tobytes()) == (ref_copy.shape, ref_copy.tobytes()), (cfg, seed)
        assert rows == ref_rows, (cfg, seed)
    return [copy for copy, _ in copies]


def test_eat_generate_ball_and_labels():
    task = _small_stream(5, tasks=1).tasks[0]
    cfg = _cfg(eat_external_epochs=2,
               attack=AttackConfig(eps=0.07, alpha=0.03, iters=3))
    seeds = [[5, 4, 0], [5, 4, 0, 1]]
    generated = eat_generate([task, task], (8, 6, 2), cfg, seeds)
    # externals x (epochs + the copy) x rows
    assert sum(rows for _, rows in generated) == 2 * (2 + 1) * len(task)
    copies = _externals_alone([task, task], (8, 6, 2), cfg, seeds, generated)
    # a row's copy stays in its eps-ball, so it pairs with the row's label
    assert copies[0].shape == task.x.shape
    assert np.max(np.abs(copies[0] - task.x)) <= 0.07 + 1e-12
    # separate seeds train separate models, so make separate copies
    assert not np.array_equal(copies[0], copies[1])


def test_eat_generate_independent_of_target_model():
    # the external models are fresh each call: generating before or after
    # target training must give identical examples
    stream = _small_stream(6, tasks=1)
    task = stream.tasks[0]
    cfg = _cfg()
    args = [task], (8, 6, 2), cfg, [[1, 4, 0]]
    ((a, a_rows),) = eat_generate(*args)
    _train(stream, "er", cfg)  # unrelated training in between
    ((b, b_rows),) = eat_generate(*args)
    np.testing.assert_array_equal(a, b)
    assert a_rows == b_rows


def test_eat_lockstep_members_equal_members_trained_alone():
    # training a task's external models together must not change a bit of
    # any member's adversarial copy
    task = _small_stream(20, tasks=1).tasks[0]
    seeds = [[3, 4, 0], [3, 4, 0, 1], [3, 4, 0, 2]]
    for atk in (AttackConfig(eps=0.05, alpha=0.02, iters=3),
                AttackConfig(kind="fgsm", eps=0.05),
                AttackConfig(eps=0.2, alpha=0.1, iters=2)):
        cfg = _cfg(eat_external_epochs=2, batch_size=13, attack=atk)
        lockstep = eat_generate([task] * len(seeds), (8, 5, 4, 2), cfg, seeds)
        _externals_alone([task] * len(seeds), (8, 5, 4, 2), cfg, seeds, lockstep)


def test_eat_externals_of_different_members_equal_externals_alone():
    # one call trains the externals of members with different tasks: each
    # copy must equal one made by an external trained alone on its member's
    # rows, whatever the target's at_mix and epochs_per_task
    tasks = [_small_stream(s, tasks=1).tasks[0] for s in (23, 24, 25)]
    for cfg, per_member in itertools.product(
            (_cfg(eat_external_epochs=2, batch_size=13),
             _cfg(eat_external_epochs=1, epochs_per_task=2, batch_size=13, at_mix="union")),
            (1, 3)):  # one external per task, or one per epoch
        seeds = [[m, 4, 0, g] for m in range(len(tasks)) for g in range(per_member)]
        member_tasks = [tasks[k // per_member] for k in range(len(seeds))]
        lockstep = eat_generate(member_tasks, (8, 5, 2), cfg, seeds)
        _externals_alone(member_tasks, (8, 5, 2), cfg, seeds, lockstep)
        rows = [sum(r for _, r in lockstep[m * per_member:(m + 1) * per_member])
                for m in range(len(tasks))]
        assert rows == [per_member * (cfg.eat_external_epochs + 1) * len(tasks[0])] * len(tasks)


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
            eat_generate(tasks, (8, 5, 2), _cfg(), seeds)


def test_eat_external_seeds_per_task_and_epoch(monkeypatch):
    # one call, before the first task, trains every external of the group,
    # one per task, member and generation: each member's task seed for the
    # first epoch, then one seed per later epoch with eat_refresh, in
    # task-major, member, generation order
    streams = [_small_stream(21), _small_stream(22)]
    steps = len(streams[0].tasks)
    calls = []

    def recording(tasks, layer_sizes, cfg, seeds):
        calls.append((tasks, seeds))
        return eat_generate(tasks, layer_sizes, cfg, seeds)

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


def test_der_without_stored_logits_fails_cleanly():
    model = init_model((4, 3, 2), seed=0)
    buf = ReplayBuffer(4)
    (_, writes), ((idx,), _) = buf.plan_epoch([[1], [0]], [1], 2, [np.random.default_rng(0)])
    buf.insert(writes, np.zeros((1, 4)), np.zeros((1, 2)), None)
    x, _, logits = buf.sample_arrays(idx)
    with pytest.raises(ValueError):
        der_terms(model, x, logits, np.empty((0, 2)), _zero_grads(model))


def test_only_der_buffers_store_logits(monkeypatch):
    # ER's buffers, the family's and its branch's, hold rows and their
    # targets without logits and sample logits None; DER's sample one stored
    # logits row per sampled row, for every member
    made = []

    class RecordedBuffer(ReplayBuffer):
        def __init__(self, capacity, members):
            super().__init__(capacity, members)
            made.append(self)

    monkeypatch.setattr(eatcl.strategies, "ReplayBuffer", RecordedBuffer)
    for strategy, stores in (("er", False), ("der", True)):
        made.clear()
        _train_group([_small_stream(s) for s in (5, 6)], strategy, _cfg(), (5, 6))
        assert len(made) == 2
        for buf in made:
            (((idx,), _),) = buf.plan_epoch([[0, 0]], [1, 1], 4,
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
    # held-out accuracy differs from train accuracy in general; it shows
    # at every snapshot once the epochs and width let the model learn the
    # blobs, as the first task's training accuracy says it does
    train_s = _small_stream(16)
    test_s = gen_blob_stream(3, 2, 8, 30, seed=16, sample_seed=[16, 2])
    cfg = _cfg(epochs_per_task=50, hidden=(16,))
    _, log_a = _train(train_s, "er", cfg, test=test_s)
    _, log_b = _train(train_s, "er", cfg)
    assert log_b.records[0].mean_accuracy >= 90
    for held_out, trained in zip(log_a.records, log_b.records, strict=True):
        assert held_out.mean_accuracy != trained.mean_accuracy, held_out.step


def test_eval_does_not_disturb_training():
    train_s = _small_stream(17)
    test_s = gen_blob_stream(3, 2, 8, 30, seed=17, sample_seed=[17, 2])
    m1, _ = _train(train_s, "er_at", _cfg(), test=test_s)
    m2, _ = _train(train_s, "er_at", _cfg())
    assert _models_equal(m1, m2)


def test_invalid_strategy_and_mismatched_eval():
    stream = _small_stream(18)
    with pytest.raises(ValueError):
        _train(stream, "magic", _cfg())
    short = gen_blob_stream(2, 2, 8, 10, seed=18, sample_seed=18)
    with pytest.raises(ValueError):
        _train(stream, "er", _cfg(), test=short)


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


def _params(model):
    return model.layer_sizes, [a.tobytes() for a in model.weights + model.biases]


def _run_bits(model, log):
    """A run as train_alone returns it: model bits, metrics records, attack
    rates as (task, epoch, rate) and attack counts."""
    return (_params(model), log.records,
            [(p.task, p.epoch, p.rate) for p in log.attack_rates], log.attack_counts)


def reference_disagreements(streams, tests, strategies, cfg, seeds) -> list:
    """(strategy, seed) of every run of one train_streams call whose bits
    differ from what reference.train_alone gives that seed alone."""
    disagreements = []
    grid = train_streams(streams, tests, strategies, cfg, seeds)
    for strategy, runs in zip(strategies, grid, strict=True):
        for run, stream, test, seed in zip(runs, streams, tests, seeds, strict=True):
            ref, *log = train_alone(stream, test, strategy, cfg, seed)
            if _run_bits(*run) != (_params(ref), *log):
                disagreements.append((strategy, seed))
    return disagreements


def test_train_streams_equals_reference_trainer():
    # replay x robustness end to end: every strategy, trained in one call
    # whose families share their first task, and each strategy's two seeds
    # in lockstep, get the bits that reference.train_alone gives each seed,
    # from one plain model trained batch by batch by reference kernels; FGSM
    # at eps 0 leaves every row as it is
    seeds = (5, 6)
    streams = [_small_stream(s) for s in seeds]
    tests = [gen_blob_stream(3, 2, 8, 30, seed=s, sample_seed=[s, 2]) for s in seeds]
    cases = [*itertools.product(
        ("replace", "union"),
        (AttackConfig(eps=0.05, alpha=0.02, iters=3), AttackConfig(kind="fgsm", eps=0.05))),
        ("replace", AttackConfig(kind="fgsm", eps=0.0))]
    for at_mix, atk in cases:
        cfg = _cfg(epochs_per_task=2, batch_size=13, replay_batch_size=7, buffer_capacity=20,
                   eat_external_epochs=2, at_mix=at_mix, attack=atk)
        assert reference_disagreements(streams, tests, STRATEGIES, cfg, seeds) == [], \
            (at_mix, atk)


def drawn_grid(draw):
    """A grid for the oracle, drawn with draw (hypothesis' data.draw): a
    family of er, der and derpp under one robustness scheme, so that DER
    groups of 1-3 seeds train with and without er, beside up to two other
    strategies, in drawn order, over drawn stream shapes, training and
    attack settings. Returns train_streams' arguments (streams, tests,
    strategies, cfg, seeds); a draw whose blob centers do not fit the
    geometry, which build_streams rejects, is rejected by assume."""
    robust = draw(st.sampled_from(["", "_at", "_eat"]))
    family = draw(st.sampled_from([("der", "derpp"), ("er", "der", "derpp")] * 2 + [
        ("er",), ("der",), ("derpp",), ("er", "der"), ("er", "derpp")]))
    others = draw(st.sets(st.sampled_from(STRATEGIES), max_size=2))
    strategies = draw(st.permutations(sorted({r + robust for r in family} | others)))
    tasks, classes, dim, rows = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                                 draw(st.integers(1, 5)), draw(st.integers(1, 12)))
    seeds = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True))
    # more than 2 centers in dim 1 or 4 in dim 2 rarely fit, and trying is slow
    assume(tasks * classes <= (2, 4, 9, 9, 9)[dim - 1])
    try:
        streams, tests = ([gen_blob_stream(tasks, classes, dim, rows, seed=seeds[0],
                                           sample_seed=[s, k]) for s in seeds] for k in (1, 2))
    except ValueError:
        assume(False)
    kind = draw(st.sampled_from(["pgd", "fgsm"]))
    cfg = TrainConfig(
        epochs_per_task=draw(st.integers(1, 2)), batch_size=draw(st.integers(1, 20)),
        buffer_capacity=draw(st.integers(0, 25)),
        attack=AttackConfig(kind, draw(st.sampled_from([0.0, 0.05, 1.0])),
                            draw(st.sampled_from([0.02, 0.5])), draw(st.integers(1, 4))),
        eat_external_epochs=draw(st.integers(1, 2)),
        hidden=draw(st.sampled_from([(), (3,), (4, 3)])),
        replay_batch_size=draw(st.none() | st.integers(1, 9)),
        at_mix=draw(st.sampled_from(["replace", "union"])))
    return streams, tests, strategies, cfg, seeds


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.data())
def test_train_streams_equals_reference_trainer_on_drawn_configs(data):
    # the oracle over drawn configurations (differential testing); tests/fuzz.py
    # draws many more of them the same way
    assert reference_disagreements(*drawn_grid(data.draw)) == []


def test_lockstep_runs_equal_runs_alone():
    # train_alone has no eat_refresh: with a fresh external every epoch, a
    # strategy's seeds trained together must each get the bits they get as
    # a group of one
    seeds = (5, 6, 7)
    streams = [_small_stream(30 + s) for s in seeds]
    tests = [_small_stream(40 + s) for s in seeds]
    cfg = _cfg(epochs_per_task=2, batch_size=13, replay_batch_size=7,
               eat_external_epochs=1, eat_refresh=True)
    for strategy in ("er_eat", "der_eat", "derpp_eat"):
        lockstep = _train_group(streams, strategy, cfg, seeds, tests)
        assert len(lockstep) == len(seeds)
        for run, stream, seed, test in zip(lockstep, streams, seeds, tests):
            alone = _train(stream, strategy, cfg, seed, test)
            assert _run_bits(*run) == _run_bits(*alone), strategy


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
        ([base, gen_blob_stream(3, 2, 8, 31, seed=2, sample_seed=2)], seeds, None),
        ([base, gen_blob_stream(3, 2, 9, 30, seed=2, sample_seed=2)], seeds, None),
        ([base, gen_blob_stream(2, 2, 8, 30, seed=2, sample_seed=2)], seeds, None),
        # seeds or test streams that do not pair with the streams
        ([base, _small_stream(2)], (1,), None),
        ([base, _small_stream(2)], seeds, [base]),
        ([], (), None),
        # a test stream of another input dim, or with a class the head lacks
        ([base], seeds[:1], [gen_blob_stream(3, 2, 7, 30, seed=2, sample_seed=2)]),
        ([base], seeds[:1], [gen_blob_stream(3, 3, 8, 30, seed=2, sample_seed=2)]),
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


def test_buffer_draws_one_integers_call_per_member_and_epoch(monkeypatch):
    # each member's buffer generator makes one integers call per epoch that
    # draws: every sample and insert draw of the epoch comes from that call,
    # whether it draws before or after the branch copies the generator
    calls = {}  # each member's draws per call, by member seed

    class Counting:
        def __init__(self, rng, seed):
            self.rng, self.seed = rng, seed
            calls[seed] = []

        def integers(self, *args, **kwargs):
            out = self.rng.integers(*args, **kwargs)
            calls[self.seed].append(out.size)
            return out

    real_for_seed = eatcl.strategies._Rngs.for_seed

    def counted_for_seed(seed):
        rngs = real_for_seed(seed)
        rngs.buffer = Counting(rngs.buffer, seed)
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
        for member in calls.values():  # the draws of each call
            assert len(member) == epochs and all(member), strategy


def _sgd_steps(strategies, stream, cfg, seeds):
    """The SGD steps one train_streams call of strategies takes."""
    calls = {"sgd_step": 0}
    with _counting(eatcl.strategies, "sgd_step", calls):
        grid = train_streams([stream] * len(seeds), [stream] * len(seeds), strategies, cfg,
                             seeds)
    assert [len(runs) for runs in grid] == [len(seeds)] * len(strategies)
    return calls["sgd_step"]


def test_a_family_trains_its_first_task_once():
    # er, der and derpp replay nothing in the first task, so one call trains
    # it once for all three: one SGD step per step of the family's first
    # task, and one per step of each group's later tasks, er's and the DER
    # group's
    stream = _small_stream(10)
    cfg = _cfg()
    steps = [cfg.epochs_per_task * -(-len(task) // cfg.batch_size) for task in stream.tasks]
    assert _sgd_steps(["er", "der", "derpp"], stream, cfg, (5, 6)) == \
        steps[0] + 2 * sum(steps[1:])


def test_an_eat_family_makes_each_copy_once():
    # eat_generate makes every adversarial copy of the family before its
    # first task, and the branches share them: der_eat and derpp_eat add no
    # attack to er_eat's, which trains the externals (one attack per step)
    # and makes one copy per task and member
    stream = _small_stream(12)
    cfg = _cfg(eat_external_epochs=2)
    counts = []
    for strategies in (["er_eat"], ["er_eat", "der_eat", "derpp_eat"]):
        calls = {"attack": 0}
        with _counting(eatcl.strategies, "attack", calls):
            train_streams([stream] * 2, [stream] * 2, strategies, cfg, (5, 6))
        counts.append(calls["attack"])
    external_steps = cfg.eat_external_epochs * -(-len(stream.tasks[0]) // cfg.batch_size)
    assert counts == [external_steps + 2 * len(stream.tasks)] * 2


def test_der_and_derpp_step_as_one_group():
    # after the first task, der and derpp train as one lockstep group of
    # both schemes' members, so der adds no SGD step to derpp's, whether er
    # trains beside them or not
    stream = _small_stream(11)
    cfg = _cfg()
    for strategies, without_der in ((["der", "derpp"], ["derpp"]),
                                    (["er", "der", "derpp"], ["er", "derpp"])):
        assert _sgd_steps(strategies, stream, cfg, (5, 6)) == \
            _sgd_steps(without_der, stream, cfg, (5, 6)), strategies


def test_a_step_schedule_off_the_plan_raises(monkeypatch):
    # the epoch plan fixes how many buffer batches each member samples at a
    # step; a step handed more or fewer than its members' replay schemes
    # sample fails at once instead of shifting draws: ER planned two, DER++
    # one, and in a DER group the der members planned a second one
    stream = _small_stream(9)
    real_plan_epoch = ReplayBuffer.plan_epoch
    for strategies, planned in ((["er"], {1: 2}), (["derpp"], {2: 1}),
                                (["der", "derpp"], {1: 2})):
        monkeypatch.setattr(ReplayBuffer, "plan_epoch",
                            lambda self, counts, samples, *args, planned=planned:
                            real_plan_epoch(self, counts, [planned.get(n, n) for n in samples],
                                            *args))
        with pytest.raises(ValueError, match="planned"):
            train_streams([stream], [stream], strategies, _cfg(), [5])
