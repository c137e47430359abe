"""Reservoir buffer tests: fill phase, retention statistics, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eatcl.replay import BufferEntry, ReplayBuffer


def _entry(i, dim=3, with_logits=False):
    x = np.full(dim, float(i))
    logits = np.array([float(i), -float(i)]) if with_logits else None
    return BufferEntry(x, i % 5, logits)


def test_fill_phase_keeps_everything():
    buf = ReplayBuffer(10)
    rng = np.random.default_rng(0)
    for i in range(10):
        buf.reservoir_insert(_entry(i), rng)
    assert len(buf) == 10
    assert buf.seen_count == 10
    kept = sorted(int(e.x[0]) for e in buf.entries)
    assert kept == list(range(10))


def test_capacity_bound_and_seen_count():
    buf = ReplayBuffer(5)
    rng = np.random.default_rng(1)
    for i in range(100):
        buf.reservoir_insert(_entry(i), rng)
        assert len(buf) <= 5
    assert buf.seen_count == 100
    assert len(buf) == 5


def test_capacity_zero_accepts_nothing():
    buf = ReplayBuffer(0)
    rng = np.random.default_rng(2)
    for i in range(10):
        buf.reservoir_insert(_entry(i), rng)
    assert len(buf) == 0
    assert buf.seen_count == 10
    with pytest.raises(ValueError):
        buf.sample(1, rng)


def test_retention_frequency_matches_reservoir_statistics():
    # every stream item should be retained with probability capacity/stream,
    # checked by monte carlo over many trials (scaled-down version)
    capacity, stream, trials = 20, 200, 2000
    hits = np.zeros(stream)
    for trial in range(trials):
        rng = np.random.default_rng([3, trial])
        buf = ReplayBuffer(capacity)
        for i in range(stream):
            buf.reservoir_insert(_entry(i), rng)
        for e in buf.entries:
            hits[int(e.x[0])] += 1
    freq = hits / trials
    expected = capacity / stream
    assert np.all(np.abs(freq - expected) < 0.03)


def test_sample_draws_with_replacement_from_contents():
    buf = ReplayBuffer(4)
    rng = np.random.default_rng(4)
    for i in range(4):
        buf.reservoir_insert(_entry(i), rng)
    got = buf.sample(100, np.random.default_rng(5))
    assert len(got) == 100  # more draws than entries: must be with replacement
    ids = {int(e.x[0]) for e in got}
    assert ids <= {0, 1, 2, 3}
    assert len(ids) > 1


def test_sample_arrays_stacks_entries():
    buf = ReplayBuffer(3)
    rng = np.random.default_rng(6)
    for i in range(3):
        buf.reservoir_insert(_entry(i, with_logits=True), rng)
    x, y, logits = buf.sample_arrays(8, np.random.default_rng(7))
    assert x.shape == (8, 3)
    assert y.shape == (8,)
    assert logits.shape == (8, 2)
    # logits must stay paired with their x rows
    for k in range(8):
        assert logits[k, 0] == x[k, 0]


def test_sample_arrays_without_logits_returns_none():
    buf = ReplayBuffer(2)
    rng = np.random.default_rng(8)
    buf.reservoir_insert(_entry(0), rng)
    _, _, logits = buf.sample_arrays(3, np.random.default_rng(9))
    assert logits is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.lists(st.integers(0, 30), min_size=1, max_size=5),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_array_insert_equals_per_row_inserts(capacity, chunks, with_logits, seed):
    # the training loop inserts whole batches; they must keep exactly what,
    # and draw exactly what, one reservoir_insert per row would
    rows, arrays, start = ReplayBuffer(capacity), ReplayBuffer(capacity), 0
    rng_rows, rng_arrays = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in chunks:
        batch = [_entry(i, with_logits=with_logits) for i in range(start, start + n)]
        start += n
        for e in batch:
            rows.reservoir_insert(e, rng_rows)
        x = np.array([e.x for e in batch]).reshape(n, 3)
        y = np.array([e.y for e in batch], dtype=np.int64)
        logits = np.array([e.logits for e in batch]).reshape(n, 2) if with_logits else None
        arrays.reservoir_insert_arrays(x, y, logits, rng_arrays)
    assert arrays.seen_count == rows.seen_count
    assert [(e.x.tolist(), e.y, None if e.logits is None else e.logits.tolist())
            for e in arrays.entries] == \
        [(e.x.tolist(), e.y, None if e.logits is None else e.logits.tolist())
         for e in rows.entries]
    assert rng_arrays.random() == rng_rows.random()


def test_insertion_deterministic_given_rng():
    def fill(seed):
        buf = ReplayBuffer(7)
        rng = np.random.default_rng(seed)
        for i in range(50):
            buf.reservoir_insert(_entry(i), rng)
        return [int(e.x[0]) for e in buf.entries]
    assert fill(10) == fill(10)
    assert fill(10) != fill(11)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(1, 15), st.integers(0, 2 ** 31 - 1))
def test_invariants_hold_for_any_stream(n, capacity, seed):
    buf = ReplayBuffer(capacity)
    rng = np.random.default_rng(seed)
    for i in range(n):
        buf.reservoir_insert(_entry(i), rng)
    assert len(buf) == min(n, capacity)
    assert buf.seen_count == n


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        ReplayBuffer(-1)
