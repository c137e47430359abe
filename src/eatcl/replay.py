"""Fixed-capacity experience-replay memory with reservoir-sampling insertion.

Every streamed item ends up retained with probability capacity / seen_count,
so the buffer's class composition tracks the stream composition — that bias
is the point, not a bug to correct. The rows live in arrays with one block
per member of a lockstep group: x (E, capacity, d), y (E, capacity) and, when
the rows come with the model's logits at insertion time (for
distillation-style replay), logits (E, capacity, classes).
"""

from __future__ import annotations

import numpy as np


class ReplayBuffer:
    """Reservoir buffers of E members, each with its own seen count and size.
    Single-writer; the training loop owns it. The arrays are made at the
    first insert, so a capacity-0 buffer holds none."""

    def __init__(self, capacity: int, members: int = 1):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.seen_counts = [0] * members
        self.sizes = [0] * members
        self.x = self.y = self.logits = None
        self._offsets = [e * capacity for e in range(members)]

    def __len__(self) -> int:
        """The rows every member holds."""
        return min(self.sizes)

    def reservoir_insert_arrays(self, member: int, x, y, logits, rng) -> None:
        """Algorithm-R insertion of the rows of (x, y, logits-or-None), in
        order, into member's block: fill, then put row k in a random slot
        w.p. capacity / seen_k.

        Once the block is full, row k draws integers(0, seen_k) for its own
        running count seen_k, and all those draws come from one call. When
        two rows draw one slot, the later one stays, as it would inserted
        after the other. Logits come with every insert or with none.
        """
        n = len(y)
        start = self.seen_counts[member]
        self.seen_counts[member] += n
        if self.capacity == 0 or n == 0:
            return
        if self.x is None:
            shape = (len(self.sizes), self.capacity)
            self.x = np.empty(shape + x.shape[1:], dtype=x.dtype)
            self.y = np.empty(shape, dtype=np.int64)
            if logits is not None:
                self.logits = np.empty(shape + logits.shape[1:], dtype=logits.dtype)
        if (logits is None) != (self.logits is None):
            raise ValueError("insert logits with every row or with none")
        size = self.sizes[member]
        fill = min(n, self.capacity - size)
        if fill:
            self.sizes[member] += fill
            self._write(member, slice(size, size + fill), slice(0, fill), x, y, logits)
        if fill == n:
            return
        slots = rng.integers(0, np.arange(start + fill + 1, start + n + 1))
        kept = (slots < self.capacity).nonzero()[0]
        if len(kept) > 1:  # keep the last row that drew each slot
            kept = kept[::-1]
            at, last = np.unique(slots[kept], return_index=True)
            self._write(member, at, fill + kept[last], x, y, logits)
        elif len(kept):
            self._write(member, slots[kept], fill + kept, x, y, logits)

    def _write(self, member, at, rows, x, y, logits) -> None:
        """Rows rows of the inserted arrays into member's slots at."""
        self.x[member, at] = x[rows]
        self.y[member, at] = y[rows]
        if self.logits is not None:
            self.logits[member, at] = logits[rows]

    def sample_arrays(self, batch_size: int, rngs):
        """batch_size rows of every member, drawn uniformly with replacement
        with rngs[e] for member e, as member-major (E * batch_size, ...)
        arrays x, y and stored logits, or None when the rows have none."""
        if not all(self.sizes):
            raise ValueError("cannot sample from an empty buffer")
        # integers(lo, lo + size) draws what integers(0, size) does, plus lo:
        # here the offset of member e's block in the flattened arrays
        idx = np.concatenate([rng.integers(lo, lo + size, size=batch_size)
                              for lo, rng, size in zip(self._offsets, rngs, self.sizes)])
        return tuple(None if a is None else a.reshape(-1, *a.shape[2:]).take(idx, axis=0)
                     for a in (self.x, self.y, self.logits))
