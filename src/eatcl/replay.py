"""Fixed-capacity experience-replay memory with reservoir-sampling insertion.

Every streamed item ends up retained with probability capacity / seen_count,
so the buffer's class composition tracks the stream composition — that bias
is the point, not a bug to correct. The rows live in arrays with one block
of capacity rows per member of a lockstep group, member e's from row
e * capacity: x (E * capacity, d), the rows' one-hot targets
(E * capacity, classes) and, when the rows come with the model's logits at
insertion time (for distillation-style replay), logits (E * capacity,
classes).

A member's buffer draws never depend on the model: they are set by how many
rows it offers at each step and how many buffer batches it samples at each
replaying step, which members of one group may differ in.
So the training loop plans each epoch when it starts (``plan_epoch``), and
the buffer draws each member's whole epoch with one generator call over the
bounds that the per-step calls would use, in their order. One
``integers`` call over concatenated bounds gives the values, and leaves the
generator state, of the sequence of calls. The plan is data, one entry per
step: the indices of the step's buffer batches, which ``sample_arrays``
takes, and the slots its rows go to, which ``insert`` writes with one write
for every member. The buffer keeps no epoch state of its own.
"""

from __future__ import annotations

import numpy as np


class ReplayBuffer:
    """Reservoir buffers of E members, each with its own count of every row
    planned so far; a member holds min(seen count, capacity) rows.
    Single-writer; the training loop owns it. The arrays are made at the
    first insert: a capacity-0 buffer has none."""

    def __init__(self, capacity: int, members: int = 1):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.seen_counts = [0] * members
        self.x = self.targets = self.logits = None

    def plan_epoch(self, counts, samples, batch_size: int, rngs) -> list:
        """Plan the draws of an epoch of steps, with rngs[e] for member e:
        one (batches, writes) per step, for sample_arrays and insert.

        Member e offers counts[t][e] rows at step t. Step t first samples
        samples[e] buffer batches of batch_size rows for member e, drawn
        uniformly with replacement, if every member holds rows (else batches
        is empty); batch k holds the rows of the members with samples[e] > k,
        member-major. Then each member's rows enter its block by Algorithm R,
        in order: fill, then row k goes to slot integers(0, seen_k) if that
        is below capacity, where seen_k is its running count. When two rows
        of a step draw one slot, the later one stays. Each member's draws
        come from one call, so they are what it draws alone.
        """
        counts = np.asarray(counts, dtype=np.int64).reshape(-1, len(self.seen_counts))
        cap, steps = self.capacity, len(counts)
        seen0 = np.asarray(self.seen_counts)
        seen = seen0 + np.cumsum(counts, axis=0)  # each member's, after each step
        before = np.minimum(seen - counts, cap)  # each member's size at each step
        replays = (before > 0).all(axis=1) & (max(samples) > 0)
        # a step's rows are member-major: member e's start at first[t, e]
        first = np.cumsum(counts, axis=1) - counts
        draws, writes = [], []
        for e, (rng, s) in enumerate(zip(rngs, samples, strict=True)):
            sample_step = np.repeat(np.arange(steps), replays * s * batch_size)
            row_step = np.repeat(np.arange(steps), counts[:, e])
            seen_k = np.arange(seen0[e] + 1, seen0[e] + 1 + len(row_step))
            earlier = seen[:, e] - counts[:, e] - seen0[e]  # its rows in earlier steps
            row = np.arange(len(row_step)) + np.repeat(first[:, e] - earlier, counts[:, e])
            drawing = (seen_k > cap) & (cap > 0)
            bounds = np.concatenate([before[sample_step, e], seen_k[drawing]])
            # the call order: each step's samples, then its inserts
            order = np.argsort(np.concatenate([sample_step, row_step[drawing]]), kind="stable")
            drawn = np.empty_like(bounds)
            if len(bounds):
                drawn[order] = rng.integers(0, bounds[order])
            drawn[:len(sample_step)] += e * cap  # rows of the arrays, by replaying step
            draws.append(drawn[:len(sample_step)].reshape(replays.sum(), s, batch_size))
            slot = seen_k - 1
            slot[drawing] = drawn[len(sample_step):]
            kept = slot < cap
            writes.append((row_step[kept], slot[kept] + e * cap, row[kept]))
        # batch k of each replaying step: its sampling members' rows, member-major
        batches = zip(*(np.concatenate([d[:, k] for d in draws if d.shape[1] > k], axis=1)
                        for k in range(max(samples))))
        # of a step's rows that land in one slot, the last one stays
        write_step, at, row = (np.concatenate(a)[::-1] for a in zip(*writes))
        _, last = np.unique(write_step * cap * len(rngs) + at, return_index=True)
        write_step, at, row = write_step[last], at[last], row[last]
        # step t's writes are at[cuts[t]:cuts[t + 1]], and their rows likewise
        cuts = np.searchsorted(write_step, np.arange(steps + 1)).tolist()
        self.seen_counts = (seen0 + counts.sum(axis=0)).tolist()
        return [(list(next(batches)) if r else [], (n, at[a:b], row[a:b]))
                for r, n, a, b in zip(replays, counts.sum(axis=1), cuts, cuts[1:])]

    def sample_arrays(self, idx):
        """The planned buffer batch idx of every member, as member-major
        arrays x, targets and stored logits, or None when the rows have none."""
        return tuple(None if a is None else a.take(idx, axis=0)
                     for a in (self.x, self.targets, self.logits))

    def insert(self, writes, x, targets, logits) -> None:
        """Write one step's offered rows (x, targets, logits-or-None), member-major,
        as its planned writes say. Logits come with every insert or none."""
        n, at, rows = writes
        offered = (x, targets, logits)
        if len(x) != n:
            raise ValueError(f"the plan offers {n} rows at this step, got {len(x)}")
        if self.x is None and self.capacity and len(x):
            size = len(self.seen_counts) * self.capacity
            self.x, self.targets, self.logits = (
                None if a is None else np.empty((size, *a.shape[1:]), dtype=a.dtype)
                for a in offered)
        if self.x is not None and (logits is None) != (self.logits is None):
            raise ValueError("insert logits with every row or with none")
        if len(at):
            for stored, a in zip((self.x, self.targets, self.logits), offered):
                if stored is not None:
                    stored[at] = a[rows]
