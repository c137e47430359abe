"""Reservoir buffer tests: the epoch plan against the per-call reference,
numpy's one-call draws, fill phase, retention statistics, sampling, slot
collisions and the member blocks of a lockstep group's buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatcl.nets import one_hot
from eatcl.replay import ReplayBuffer
from reference import PerCallReservoir


def _rows(ids, dim=3, with_logits=False):
    """(x, targets, logits-or-None) for stream items ids: x all id, the
    targets of class id % 5."""
    ids = np.asarray(ids, dtype=float)
    x = np.repeat(ids[:, None], dim, axis=1)
    logits = np.stack([ids, -ids], axis=1) if with_logits else None
    return x, one_hot(ids.astype(np.int64) % 5, 5), logits


def _sizes(buf):
    """The rows each member holds: all it has seen, up to capacity."""
    return [min(seen, buf.capacity) for seen in buf.seen_counts]


def _insert(buf, ids, rng, member=0, with_logits=False):
    """One planned step in which member offers the rows of ids and every
    other member none."""
    counts = [0] * len(buf.seen_counts)
    counts[member] = len(ids)
    ((batches, writes),) = buf.plan_epoch([counts], 0, 1, [rng] * len(counts))
    assert batches == []
    buf.insert(writes, *_rows(ids, with_logits=with_logits))


def _sample_plan(buf, batch_size, rngs):
    """The batches of one planned step that samples one buffer batch and
    offers no rows: none while a member is empty."""
    ((batches, _),) = buf.plan_epoch([[0] * len(rngs)], 1, batch_size, rngs)
    return batches


def _sample(buf, batch_size, rngs):
    """One planned step's buffer batch."""
    (idx,) = _sample_plan(buf, batch_size, rngs)
    return buf.sample_arrays(idx)


def _kept(buf, member=0):
    """The stream items member's block holds, slot by slot."""
    size = _sizes(buf)[member]
    return [] if size == 0 else buf.x[member, :size, 0].astype(int).tolist()


def _run_against_reference(capacity, epochs, samples, batch_size, seed, with_logits=True):
    """Train-loop schedule on a planned buffer and on the per-call reference:
    epochs[i][t][e] rows of member e at step t of epoch i, each step sampling
    `samples` batches first while every member holds rows. Asserts both
    sample and hold the same bytes, step by step, count the same rows each
    epoch, and leave the generators in one state."""
    members = len(epochs[0][0])
    buf, ref = ReplayBuffer(capacity, members), PerCallReservoir(capacity, members)
    rngs_buf = [np.random.default_rng([seed, e]) for e in range(members)]
    rngs_ref = [np.random.default_rng([seed, e]) for e in range(members)]
    start = 0
    for epoch in epochs:
        plan = buf.plan_epoch(epoch, samples, batch_size, rngs_buf)
        for counts, (batches, writes) in zip(epoch, plan, strict=True):
            assert len(batches) == (samples if min(ref.sizes) > 0 else 0)
            for idx in batches:
                got = buf.sample_arrays(idx)
                want = [row for e in range(members)
                        for row in ref.sample(e, batch_size, rngs_ref[e])]
                for k in range(2 + with_logits):
                    assert got[k].tobytes() == np.stack([r[k] for r in want]).tobytes()
            x, targets, logits = _rows(range(start, start + sum(counts)),
                                       with_logits=with_logits)
            buf.insert(writes, x, targets, logits)
            members_of_rows = np.repeat(np.arange(members), counts)  # member-major
            for i, e in enumerate(members_of_rows):
                ref.insert(e, (x[i], targets[i], None if logits is None else logits[i]),
                           rngs_ref[e])
            start += len(x)
            for e, rows in enumerate(ref.rows):
                for k, name in enumerate(("x", "targets", "logits")[:2 + with_logits]):
                    if rows:
                        assert getattr(buf, name)[e, :len(rows)].tobytes() == \
                            np.stack([r[k] for r in rows]).tobytes()
        assert buf.seen_counts == ref.seen_counts
        assert _sizes(buf) == ref.sizes
    assert (buf.logits is None) == (not with_logits or not any(ref.sizes))
    for rb, rr in zip(rngs_buf, rngs_ref):
        assert rb.bit_generator.state == rr.bit_generator.state
    return buf


def _steps(rng, epochs, steps, members, low, high):
    return [[rng.integers(low, high + 1, size=members).tolist() for _ in range(steps)]
            for _ in range(epochs)]


CASES = {
    # (capacity, epochs of steps of per-member row counts)
    "fill_phase": lambda m: (40, [[[6] * m] * 3] * 2),
    "short_last_batch": lambda m: (10, [[[8] * m] * 3 + [[3] * m]] * 3),
    "clean_counts_vary": lambda m: (12, _steps(np.random.default_rng(m), 3, 5, m, 0, 8)),
    "capacity_1": lambda m: (1, [[[5] * m] * 4] * 2),
    "capacity_above_task": lambda m: (100, [[[8] * m] * 4] * 4),
    "member_starts_empty": lambda m: (6, [[[0] + [4] * (m - 1)] * 2 + [[4] * m] * 3] * 2),
}


@pytest.mark.parametrize("samples", [0, 1, 2])
@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_planned_buffer_equals_per_call_reference(case, members, samples):
    capacity, epochs = CASES[case](members)
    _run_against_reference(capacity, epochs, samples, 4, seed=17)


def test_one_integers_call_equals_the_call_sequence():
    # the epoch plan rests on this: one integers call over the concatenated
    # bounds of a sequence of calls, scalar bound with size= or array bounds,
    # gives the sequence's values and leaves the generator where it would;
    # bound 1 draws nothing either way
    for seed in range(50):
        shape = np.random.default_rng([seed, 0])
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        values, bounds = [], []
        for _ in range(12):
            if shape.random() < 0.5:
                bound, size = int(shape.integers(1, 40)), int(shape.integers(0, 33))
                values.append(a.integers(0, bound, size=size))
                bounds.append(np.full(size, bound))
            else:
                low = int(shape.integers(1, 3000))
                arr = np.arange(low, low + int(shape.integers(0, 33)))
                values.append(a.integers(0, arr))
                bounds.append(arr)
        values.append(a.integers(0, 1, size=5))
        bounds.append(np.ones(5, dtype=np.int64))
        assert np.concatenate(values).tolist() == b.integers(0, np.concatenate(bounds)).tolist()
        assert a.bit_generator.state == b.bit_generator.state


def test_plan_must_be_consumed_exactly():
    rngs = [np.random.default_rng(0)]
    buf = ReplayBuffer(4)
    _insert(buf, range(6), rngs[0])
    ((_, writes), _) = buf.plan_epoch([[2], [2]], 1, 3, rngs)
    # a step offered other rows than planned
    for ids in ([10], [10, 11, 12]):
        with pytest.raises(ValueError):
            buf.insert(writes, *_rows(ids))
    buf.insert(writes, *_rows([10, 11]))


def test_fill_phase_keeps_everything():
    buf = ReplayBuffer(10)
    rng = np.random.default_rng(0)
    for i in range(10):
        _insert(buf, [i], rng)
    assert _sizes(buf) == [10]
    assert buf.seen_counts == [10]
    assert sorted(_kept(buf)) == list(range(10))


def test_capacity_bound_and_seen_count():
    buf = ReplayBuffer(5)
    rng = np.random.default_rng(1)
    for i in range(100):
        _insert(buf, [i], rng)
        assert _sizes(buf)[0] <= 5
    assert buf.seen_counts == [100]
    assert _sizes(buf) == [5]


def test_capacity_zero_accepts_nothing():
    buf = ReplayBuffer(0)
    rng = np.random.default_rng(2)
    for i in range(10):
        _insert(buf, [i], rng)
    assert _sizes(buf) == [0]
    assert buf.seen_counts == [10]
    assert buf.x is None  # allocates nothing
    assert _sample_plan(buf, 1, [rng]) == []  # and never replays


def test_retention_frequency_matches_reservoir_statistics():
    # every stream item should be retained with probability capacity/stream,
    # checked by monte carlo over many trials (scaled-down version); an epoch
    # of batches of 32 keeps what, and draws what, per-row inserts would
    capacity, stream, trials = 20, 200, 2000
    hits = np.zeros(stream)
    starts = range(0, stream, 32)
    for trial in range(trials):
        rng = np.random.default_rng([3, trial])
        buf = ReplayBuffer(capacity)
        plan = buf.plan_epoch([[min(32, stream - s)] for s in starts], 0, 1, [rng])
        for s, (_, writes) in zip(starts, plan, strict=True):
            buf.insert(writes, *_rows(range(s, min(s + 32, stream))))
        hits[_kept(buf)] += 1
    freq = hits / trials
    expected = capacity / stream
    assert np.all(np.abs(freq - expected) < 0.03)


def test_sample_draws_with_replacement_from_contents():
    buf = ReplayBuffer(4)
    rng = np.random.default_rng(4)
    for i in range(4):
        _insert(buf, [i], rng)
    x, _, _ = _sample(buf, 100, [np.random.default_rng(5)])
    assert len(x) == 100  # more draws than rows: must be with replacement
    ids = set(x[:, 0].astype(int).tolist())
    assert ids <= {0, 1, 2, 3}
    assert len(ids) > 1


def test_sample_arrays_stacks_entries():
    buf = ReplayBuffer(3)
    rng = np.random.default_rng(6)
    for i in range(3):
        _insert(buf, [i], rng, with_logits=True)
    x, targets, logits = _sample(buf, 8, [np.random.default_rng(7)])
    assert x.shape == (8, 3)
    assert targets.shape == (8, 5)
    assert logits.shape == (8, 2)
    # targets and logits must stay paired with their x rows
    for k in range(8):
        assert logits[k, 0] == x[k, 0]
        assert targets[k].tolist() == np.eye(5)[int(x[k, 0]) % 5].tolist()


def test_sample_arrays_without_logits_returns_none():
    buf = ReplayBuffer(2)
    rng = np.random.default_rng(8)
    _insert(buf, [0], rng)
    _, _, logits = _sample(buf, 3, [np.random.default_rng(9)])
    assert logits is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.lists(st.integers(0, 30), min_size=1, max_size=5),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_array_insert_equals_per_row_inserts(capacity, chunks, with_logits, seed):
    # the training loop inserts whole batches, an epoch of them planned at
    # once; they must keep exactly what, and draw exactly what, one
    # Algorithm-R insert per row would
    _run_against_reference(capacity, [[[n] for n in chunks]], 0, 1, seed, with_logits)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.sampled_from([1, 3]), st.integers(0, 2),
       st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5), min_size=1, max_size=3),
       st.integers(0, 2 ** 31 - 1))
def test_planned_epochs_equal_per_call_reference(capacity, members, samples, epochs, seed):
    # any schedule: epochs of steps whose members offer different row counts
    epochs = [[[(n + e) % 10 for e in range(members)] for n in steps] for steps in epochs]
    _run_against_reference(capacity, epochs, samples, 3, seed)


def test_slot_drawn_twice_keeps_the_later_row():
    # capacity 2, full, then a batch of 10 rows: row k of the batch draws
    # integers(0, 3 + k), and two accepted rows often draw one slot
    capacity, batch = 2, np.arange(2, 12)
    for seed in range(100):
        slots = np.random.default_rng(seed).integers(0, np.arange(3, 13))
        accepted = slots[slots < capacity]
        if len(accepted) > len(set(accepted.tolist())):
            break
    else:
        pytest.fail("no seed below 100 draws one slot twice")
    buf, ref = ReplayBuffer(capacity), PerCallReservoir(capacity)
    _insert(buf, [0, 1], None)
    for i in (0, 1):
        ref.insert(0, i, None)
    _insert(buf, batch, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for i in batch:
        ref.insert(0, int(i), rng)
    last = {int(s): int(i) for s, i in zip(slots, batch) if s < capacity}
    assert _kept(buf) == ref.rows[0]
    assert all(_kept(buf)[s] == i for s, i in last.items())


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12),
       st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=5),
       st.integers(0, 2 ** 31 - 1))
def test_members_equal_one_member_buffers(capacity, calls, seed):
    # an E = 3 buffer fed different row counts per member per step holds,
    # draws and samples exactly what three one-member buffers would
    group, alone = ReplayBuffer(capacity, 3), [ReplayBuffer(capacity) for _ in range(3)]
    rngs_group = [np.random.default_rng([seed, e]) for e in range(3)]
    rngs_alone = [np.random.default_rng([seed, e]) for e in range(3)]
    plan = group.plan_epoch(calls, 0, 1, rngs_group)
    plans = [b.plan_epoch([[n] for n in counts], 0, 1, [r])
             for b, counts, r in zip(alone, zip(*calls), rngs_alone)]
    start = 0
    for t, counts in enumerate(calls):
        rows = _rows(range(start, start + sum(counts)), with_logits=True)
        group.insert(plan[t][1], *rows)
        for e, n in enumerate(counts):
            lo = sum(counts[:e])  # member-major rows
            alone[e].insert(plans[e][t][1], *(a[lo:lo + n] for a in rows))
        start += sum(counts)
    assert group.seen_counts == [b.seen_counts[0] for b in alone]
    assert _sizes(group) == [_sizes(b)[0] for b in alone]
    for e, b in enumerate(alone):
        size = _sizes(b)[0]
        for name in ("x", "targets", "logits"):
            if size:
                assert getattr(group, name)[e, :size].tobytes() == \
                    getattr(b, name)[0, :size].tobytes()
    if all(_sizes(group)):
        got = _sample(group, 7, rngs_group)
        want = [_sample(b, 7, [r]) for b, r in zip(alone, rngs_alone)]
        for k in range(3):
            assert got[k].tobytes() == np.concatenate([w[k] for w in want]).tobytes()
    for rg, ra in zip(rngs_group, rngs_alone):
        assert rg.random() == ra.random()


def test_logits_come_with_every_insert_or_none():
    for first, then in ((True, False), (False, True)):
        buf = ReplayBuffer(4)
        rng = np.random.default_rng(13)
        _insert(buf, [0], rng, with_logits=first)
        with pytest.raises(ValueError):
            _insert(buf, [1], rng, with_logits=then)


def test_sampling_an_empty_member_raises():
    buf = ReplayBuffer(4, 2)
    rng = np.random.default_rng(12)
    _insert(buf, [0, 1, 2], rng, member=0)
    assert _sizes(buf) == [3, 0]
    # while a member is empty, the planned step holds no buffer batch
    assert _sample_plan(buf, 2, [rng, rng]) == []


def test_insertion_deterministic_given_rng():
    def fill(seed):
        buf = ReplayBuffer(7)
        rng = np.random.default_rng(seed)
        for i in range(50):
            _insert(buf, [i], rng)
        return _kept(buf)
    assert fill(10) == fill(10)
    assert fill(10) != fill(11)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(1, 15), st.integers(0, 2 ** 31 - 1))
def test_invariants_hold_for_any_stream(n, capacity, seed):
    buf = ReplayBuffer(capacity)
    rng = np.random.default_rng(seed)
    for i in range(n):
        _insert(buf, [i], rng)
    assert _sizes(buf) == [min(n, capacity)]
    assert buf.seen_counts == [n]


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ReplayBuffer(-1)
