"""Reservoir buffer tests: fill phase, retention statistics, sampling, slot
collisions and the member blocks of a lockstep group's buffer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatcl.replay import ReplayBuffer


class PerRowReservoir:
    """Algorithm R (Vitter, "Random sampling with a reservoir", ACM TOMS
    1985), one row at a time: the reference the batch insert must match."""

    def __init__(self, capacity):
        self.capacity, self.seen, self.rows = capacity, 0, []

    def insert(self, row, rng):
        self.seen += 1
        if len(self.rows) < self.capacity:
            self.rows.append(row)
        elif self.capacity:
            j = int(rng.integers(0, self.seen))
            if j < self.capacity:
                self.rows[j] = row


def _rows(ids, dim=3, with_logits=False):
    """(x, y, logits-or-None) for stream items ids: x all id, y id % 5."""
    ids = np.asarray(ids, dtype=float)
    x = np.repeat(ids[:, None], dim, axis=1)
    logits = np.stack([ids, -ids], axis=1) if with_logits else None
    return x, ids.astype(np.int64) % 5, logits


def _insert(buf, ids, rng, member=0, with_logits=False):
    buf.reservoir_insert_arrays(member, *_rows(ids, with_logits=with_logits), rng)


def _kept(buf, member=0):
    """The stream items member's block holds, slot by slot."""
    size = buf.sizes[member]
    return [] if size == 0 else buf.x[member, :size, 0].astype(int).tolist()


def test_fill_phase_keeps_everything():
    buf = ReplayBuffer(10)
    rng = np.random.default_rng(0)
    for i in range(10):
        _insert(buf, [i], rng)
    assert len(buf) == 10
    assert buf.seen_counts == [10]
    assert sorted(_kept(buf)) == list(range(10))


def test_capacity_bound_and_seen_count():
    buf = ReplayBuffer(5)
    rng = np.random.default_rng(1)
    for i in range(100):
        _insert(buf, [i], rng)
        assert len(buf) <= 5
    assert buf.seen_counts == [100]
    assert len(buf) == 5


def test_capacity_zero_accepts_nothing():
    buf = ReplayBuffer(0)
    rng = np.random.default_rng(2)
    for i in range(10):
        _insert(buf, [i], rng)
    assert len(buf) == 0
    assert buf.seen_counts == [10]
    assert buf.x is None  # allocates nothing
    with pytest.raises(ValueError):
        buf.sample_arrays(1, [rng])


def test_retention_frequency_matches_reservoir_statistics():
    # every stream item should be retained with probability capacity/stream,
    # checked by monte carlo over many trials (scaled-down version); batches
    # of 32 keep what, and draw what, per-row inserts would
    capacity, stream, trials = 20, 200, 2000
    hits = np.zeros(stream)
    for trial in range(trials):
        rng = np.random.default_rng([3, trial])
        buf = ReplayBuffer(capacity)
        for s in range(0, stream, 32):
            _insert(buf, range(s, min(s + 32, stream)), rng)
        hits[_kept(buf)] += 1
    freq = hits / trials
    expected = capacity / stream
    assert np.all(np.abs(freq - expected) < 0.03)


def test_sample_draws_with_replacement_from_contents():
    buf = ReplayBuffer(4)
    rng = np.random.default_rng(4)
    for i in range(4):
        _insert(buf, [i], rng)
    x, _, _ = buf.sample_arrays(100, [np.random.default_rng(5)])
    assert len(x) == 100  # more draws than rows: must be with replacement
    ids = set(x[:, 0].astype(int).tolist())
    assert ids <= {0, 1, 2, 3}
    assert len(ids) > 1


def test_sample_arrays_stacks_entries():
    buf = ReplayBuffer(3)
    rng = np.random.default_rng(6)
    for i in range(3):
        _insert(buf, [i], rng, with_logits=True)
    x, y, logits = buf.sample_arrays(8, [np.random.default_rng(7)])
    assert x.shape == (8, 3)
    assert y.shape == (8,)
    assert logits.shape == (8, 2)
    # y and logits must stay paired with their x rows
    for k in range(8):
        assert logits[k, 0] == x[k, 0]
        assert y[k] == int(x[k, 0]) % 5


def test_sample_arrays_without_logits_returns_none():
    buf = ReplayBuffer(2)
    rng = np.random.default_rng(8)
    _insert(buf, [0], rng)
    _, _, logits = buf.sample_arrays(3, [np.random.default_rng(9)])
    assert logits is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.lists(st.integers(0, 30), min_size=1, max_size=5),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_array_insert_equals_per_row_inserts(capacity, chunks, with_logits, seed):
    # the training loop inserts whole batches; they must keep exactly what,
    # and draw exactly what, one Algorithm-R insert per row would
    ref, buf, start = PerRowReservoir(capacity), ReplayBuffer(capacity), 0
    rng_ref, rng_buf = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in chunks:
        x, y, logits = _rows(range(start, start + n), with_logits=with_logits)
        start += n
        for k in range(n):
            ref.insert((x[k], y[k], None if logits is None else logits[k]), rng_ref)
        buf.reservoir_insert_arrays(0, x, y, logits, rng_buf)
    size = len(ref.rows)
    assert buf.seen_counts == [ref.seen]
    assert buf.sizes == [size]
    if size:
        assert buf.x[0, :size].tolist() == [r[0].tolist() for r in ref.rows]
        assert buf.y[0, :size].tolist() == [int(r[1]) for r in ref.rows]
        if with_logits:
            assert buf.logits[0, :size].tolist() == [r[2].tolist() for r in ref.rows]
    assert (buf.logits is None) == (not with_logits or size == 0)
    assert rng_buf.random() == rng_ref.random()


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
    buf, ref = ReplayBuffer(capacity), PerRowReservoir(capacity)
    _insert(buf, [0, 1], None)
    for i in (0, 1):
        ref.insert(i, None)
    _insert(buf, batch, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for i in batch:
        ref.insert(int(i), rng)
    last = {int(s): int(i) for s, i in zip(slots, batch) if s < capacity}
    assert _kept(buf) == ref.rows
    assert all(_kept(buf)[s] == i for s, i in last.items())


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12),
       st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=5),
       st.integers(0, 2 ** 31 - 1))
def test_members_equal_one_member_buffers(capacity, calls, seed):
    # an E = 3 buffer fed different row counts per member per call holds,
    # draws and samples exactly what three one-member buffers would
    group, alone = ReplayBuffer(capacity, 3), [ReplayBuffer(capacity) for _ in range(3)]
    rngs_group = [np.random.default_rng([seed, e]) for e in range(3)]
    rngs_alone = [np.random.default_rng([seed, e]) for e in range(3)]
    start = 0
    for counts in calls:
        for e, n in enumerate(counts):
            rows = _rows(range(start, start + n), with_logits=True)
            start += n
            group.reservoir_insert_arrays(e, *rows, rngs_group[e])
            alone[e].reservoir_insert_arrays(0, *rows, rngs_alone[e])
    assert group.seen_counts == [b.seen_counts[0] for b in alone]
    assert group.sizes == [b.sizes[0] for b in alone]
    for e, b in enumerate(alone):
        size = b.sizes[0]
        for name in ("x", "y", "logits"):
            if size:
                assert getattr(group, name)[e, :size].tobytes() == \
                    getattr(b, name)[0, :size].tobytes()
    if all(group.sizes):
        got = group.sample_arrays(7, rngs_group)
        want = [b.sample_arrays(7, [r]) for b, r in zip(alone, rngs_alone)]
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
    assert buf.sizes == [3, 0]
    assert len(buf) == 0
    with pytest.raises(ValueError):
        buf.sample_arrays(2, [rng, rng])


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
    assert len(buf) == min(n, capacity)
    assert buf.seen_counts == [n]


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ReplayBuffer(-1)
