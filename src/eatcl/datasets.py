"""Dataset generation and task-stream assembly.

Two generators cover the synthetic experiments: a two-band 2-D figure with
sectioned channel geometry (the toy problem) and Gaussian blob streams (a
desk-scale stand-in for the split image benchmarks). All generators are
seed-deterministic.

A Dataset states its class set once, in `classes`, and every label is one of
them. A task stream is its tasks' Datasets in stream order: task i is
`tasks[i]`, its class set that Dataset's `classes`, and the class sets are
pairwise disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The toy figure is two horizontal point bands (class 0 below, class 1
# above) spanning three x-sections with different channel half-widths and
# per-class jitter, plus a detached class-1 blob beyond the right tip.
# Channel widths are sized against the 0.1-radius attack ball: the first
# section clears it on both sides, the second is inside it for any
# boundary placement, and the third clears it only for a centered
# boundary, with the class-1 side jittered too wide to defend fully.
CRESCENT_EDGES = (-1.1, -0.44, 0.22, 1.1)
CRESCENT_LINES = ((-0.22, 0.22), (-0.055, 0.055), (-0.15, 0.15))
# jitter per section and class, as multiples of `noise`
CRESCENT_JITTER = ((1.0, 1.0), (2.0 / 3.0, 2.0 / 3.0), (1.0, 7.0))
# share of each class's band mass per section
CRESCENT_SHARES = ((0.27, 0.09, 0.64), (0.16, 0.38, 0.46))
TIP_BLOB_X = (1.3, 1.55)
TIP_BLOB_Y = -0.13
TIP_BLOB_JITTER = 7.0 / 3.0  # multiple of `noise`
TIP_BLOB_SHARE = 0.16  # fraction of class-1 points placed in the blob


@dataclass
class Dataset:
    x: np.ndarray  # (n, dim) float64
    y: np.ndarray  # (n,) int labels
    classes: tuple[int, ...]  # the class set; every label is one of them

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y)
        self.y = y.astype(np.int64, copy=False)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ValueError(f"bad dataset shapes x={self.x.shape} y={self.y.shape}")
        if not np.array_equal(self.y, y):
            raise ValueError("labels must be integers")
        if not set(np.unique(self.y)) <= set(self.classes):
            raise ValueError("labels outside declared class set")

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class TaskStream:
    tasks: list[Dataset]  # task i's classes are its class set

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("a stream needs at least one task")
        seen: set[int] = set()
        for i, t in enumerate(self.tasks):
            if len(t) == 0:
                raise ValueError(f"task {i} has no rows")
            if seen & set(t.classes):
                raise ValueError("task class sets must be pairwise disjoint")
            seen |= set(t.classes)

    @property
    def input_dim(self) -> int:
        return self.tasks[0].x.shape[1]

    @property
    def all_classes(self) -> tuple[int, ...]:
        return tuple(sorted(c for t in self.tasks for c in t.classes))

    @property
    def class_sets(self) -> list[tuple[int, ...]]:
        return [t.classes for t in self.tasks]

    def merged(self) -> Dataset:
        """All tasks concatenated in stream order."""
        x = np.vstack([t.x for t in self.tasks])
        y = np.concatenate([t.y for t in self.tasks])
        return Dataset(x, y, self.all_classes)


def gen_crescent(n_per_class: int, noise: float = 0.015, seed=0) -> Dataset:
    """Two interleaved 2-D point bands with a sectioned channel between them.

    Class 0 runs along the lower band lines and class 1 along the upper
    ones across the three x-sections of CRESCENT_EDGES; a detached class-1
    blob sits beyond the right tip. `noise` scales every jitter width, so
    noise=0 collapses each band onto its section line and the blob onto
    its center height.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    edges = np.asarray(CRESCENT_EDGES)
    lens = np.diff(edges)
    pts = []
    for cls in (0, 1):
        n_blob = int(round(n_per_class * TIP_BLOB_SHARE)) if cls == 1 else 0
        m = n_per_class - n_blob
        sec = rng.choice(3, size=m, p=CRESCENT_SHARES[cls])
        x = edges[sec] + rng.uniform(0.0, 1.0, size=m) * lens[sec]
        line = np.choose(sec, [CRESCENT_LINES[s][cls] for s in range(3)])
        sig = noise * np.choose(sec, [CRESCENT_JITTER[s][cls] for s in range(3)])
        band = np.column_stack([x, line + rng.normal(0.0, 1.0, size=m) * sig])
        if n_blob:
            bx = rng.uniform(TIP_BLOB_X[0], TIP_BLOB_X[1], size=n_blob)
            by = TIP_BLOB_Y + rng.normal(0.0, 1.0, size=n_blob) * (
                noise * TIP_BLOB_JITTER)
            band = np.vstack([band, np.column_stack([bx, by])])
        pts.append(band)
    y = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                        np.ones(n_per_class, dtype=np.int64)])
    return Dataset(np.vstack(pts), y, (0, 1))


def imbalance_subsample(d: Dataset, keep_fraction_per_class: dict, seed=0) -> Dataset:
    """Per-class uniform subsample without replacement.

    keep_fraction_per_class maps class id -> fraction in (0, 1]; classes not
    in the map keep everything. Resulting class sizes are
    round(fraction * original size); an empty class, or a key that is not
    one of d.classes, is an error.
    """
    for c, f in keep_fraction_per_class.items():
        if c not in d.classes:
            raise ValueError(f"class {c} is not one of the data's classes {sorted(d.classes)}")
        if not 0 < f <= 1:
            raise ValueError(f"fraction for class {c} must be in (0, 1], got {f}")
    rng = np.random.default_rng(seed)
    keep_rows = []
    for c in d.classes:
        idx = np.flatnonzero(d.y == c)
        frac = keep_fraction_per_class.get(c, 1.0)
        m = int(round(frac * idx.size))
        if m < 1:
            raise ValueError(f"class {c} would be empty (fraction {frac})")
        if m < idx.size:
            idx = np.sort(rng.choice(idx, size=m, replace=False))
        keep_rows.append(idx)
    rows = np.concatenate(keep_rows)
    return Dataset(d.x[rows], d.y[rows], d.classes)


def split_by_classes(d: Dataset, classes_per_task: int) -> TaskStream:
    """Form tasks by ascending class id, classes_per_task classes each."""
    if classes_per_task < 1:
        raise ValueError("classes_per_task must be >= 1")
    classes = sorted(d.classes)
    if len(classes) % classes_per_task != 0:
        raise ValueError(
            f"{len(classes)} classes not divisible by classes_per_task={classes_per_task}"
        )
    tasks = []
    for i in range(0, len(classes), classes_per_task):
        group = tuple(classes[i:i + classes_per_task])
        rows = np.flatnonzero(np.isin(d.y, group))
        tasks.append(Dataset(d.x[rows], d.y[rows], group))
    return TaskStream(tasks)


def gen_blob_stream(num_tasks: int, classes_per_task: int, dim: int,
                    n_per_class: int, separation: float, noise: float,
                    seed=0, sample_seed=None) -> TaskStream:
    """Gaussian clusters at seeded random centers, streamed in ascending class order.

    Centers are drawn uniformly in a cube of half-width `separation` and
    re-drawn until all pairwise distances reach `separation` (bounded
    retries), so the separation floor doubles as the geometry scale. `seed`
    fixes the centers; `sample_seed` (defaulting to seed) fixes the point
    noise, so train/test splits of the same geometry use equal seed and
    different sample_seed.
    """
    if min(num_tasks, classes_per_task, dim, n_per_class) < 1:
        raise ValueError("all counts must be >= 1")
    n_classes = num_tasks * classes_per_task
    center_rng = np.random.default_rng([_seed_int(seed), 0])
    centers = _place_centers(center_rng, n_classes, dim, separation)
    point_rng = np.random.default_rng(
        [_seed_int(seed if sample_seed is None else sample_seed), 1])
    xs, ys = [], []
    for c in range(n_classes):
        xs.append(centers[c] + point_rng.normal(0.0, noise, size=(n_per_class, dim)))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    full = Dataset(np.vstack(xs), np.concatenate(ys), tuple(range(n_classes)))
    return split_by_classes(full, classes_per_task)


def _seed_int(seed) -> int:
    if isinstance(seed, (list, tuple)):
        # fold a composite seed into one int for nested default_rng seeding
        h = 0
        for part in seed:
            h = (h * 1000003 + int(part)) % (2**63)
        return h
    return int(seed)


def _place_centers(rng, n: int, dim: int, separation: float, tries: int = 500):
    # the sampling cube scales with the separation floor, so `separation`
    # sets the overall geometry scale rather than just a rarely-active bound
    half = separation if separation > 0 else 1.0
    centers = np.empty((n, dim))
    placed = 0
    for _ in range(tries * n):
        cand = rng.uniform(-half, half, size=dim)
        if placed == 0 or np.min(
                np.linalg.norm(centers[:placed] - cand, axis=1)) >= separation:
            centers[placed] = cand
            placed += 1
            if placed == n:
                return centers
    raise ValueError(
        f"could not place {n} centers with separation {separation} in dim {dim}"
    )
