"""Fixed-capacity experience-replay memory with reservoir-sampling insertion.

Every streamed item ends up retained with probability capacity / seen_count,
so the buffer's class composition tracks the stream composition — that bias
is the point, not a bug to correct. Entries may carry the model's logits at
insertion time for distillation-style replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BufferEntry:
    x: np.ndarray
    y: int
    logits: np.ndarray | None = None


class ReplayBuffer:
    """Reservoir buffer. Single-writer; the training loop owns it."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.seen_count = 0
        self.entries: list[BufferEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def reservoir_insert(self, entry: BufferEntry, rng) -> None:
        """Algorithm-R insertion: fill, then replace a random slot w.p. capacity/seen."""
        self.seen_count += 1
        if self.capacity == 0:
            return
        if len(self.entries) < self.capacity:
            self.entries.append(entry)
        else:
            j = int(rng.integers(0, self.seen_count))
            if j < self.capacity:
                self.entries[j] = entry

    def reservoir_insert_arrays(self, x, y, logits, rng) -> None:
        """reservoir_insert for each row of (x, y, logits-or-None) in order.

        Leaves the buffer and rng exactly as the per-row calls would: once
        the buffer is full, row k draws integers(0, seen_k) for its own
        running count seen_k, and all those draws come from one call.
        """
        n = len(y)
        start = self.seen_count
        self.seen_count += n
        if self.capacity == 0 or n == 0:
            return

        def entry(k):
            return BufferEntry(x[k].copy(), int(y[k]),
                               None if logits is None else logits[k].copy())

        fill = min(n, self.capacity - len(self.entries))
        self.entries.extend(entry(k) for k in range(fill))
        if fill == n:
            return
        slots = rng.integers(0, np.arange(start + fill + 1, start + n + 1))
        for k in np.flatnonzero(slots < self.capacity):
            self.entries[slots[k]] = entry(fill + k)

    def sample(self, batch_size: int, rng) -> list[BufferEntry]:
        """batch_size entries drawn uniformly with replacement."""
        if not self.entries:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self.entries), size=batch_size)
        return [self.entries[i] for i in idx]

    def sample_arrays(self, batch_size: int, rng):
        """Like sample() but stacked into (x, y, logits-or-None) arrays."""
        batch = self.sample(batch_size, rng)
        x = np.stack([e.x for e in batch])
        y = np.asarray([e.y for e in batch], dtype=np.int64)
        if all(e.logits is not None for e in batch):
            return x, y, np.stack([e.logits for e in batch])
        return x, y, None

