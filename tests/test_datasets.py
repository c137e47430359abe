"""Dataset generation, splitting, imbalance."""

import numpy as np
import pytest

import eatcl.datasets as D
from eatcl.datasets import Dataset, TaskStream, gen_blob_stream, gen_crescent, imbalance_subsample


def test_crescent_points_sit_on_section_lines():
    # each band point sits on its section's line and each blob point at the
    # blob's center height, offset by CRESCENT_NOISE times its jitter
    # multiple times a standard normal draw
    d = gen_crescent(500, seed=0)
    assert len(d) == 1000
    edges = np.asarray(D.CRESCENT_EDGES)
    band = d.x[:, 0] <= edges[-1]
    sec = np.searchsorted(edges[1:-1], d.x[band, 0])
    lines = np.asarray([D.CRESCENT_LINES[s][c] for s, c in zip(sec, d.y[band])])
    jitter = np.asarray([D.CRESCENT_JITTER[s][c] for s, c in zip(sec, d.y[band])])
    z = np.concatenate([(d.x[band, 1] - lines) / (D.CRESCENT_NOISE * jitter),
                        (d.x[~band, 1] - D.TIP_BLOB_Y) / (D.CRESCENT_NOISE * D.TIP_BLOB_JITTER)])
    assert np.max(np.abs(z)) < 5
    assert abs(np.std(z) - 1) < 0.1
    # everything past the band tip is the class-1 blob
    blob = d.x[~band]
    assert blob.shape[0] == int(round(500 * D.TIP_BLOB_SHARE))
    assert np.all(d.y[~band] == 1)
    assert np.all((blob[:, 0] >= D.TIP_BLOB_X[0]) & (blob[:, 0] <= D.TIP_BLOB_X[1]))


def test_crescent_deterministic():
    a = gen_crescent(200, seed=5)
    np.testing.assert_array_equal(a.x, gen_crescent(200, seed=5).x)
    assert not np.array_equal(a.x, gen_crescent(200, seed=6).x)


def test_crescent_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_crescent(0, seed=0)


def test_imbalance_subsample_counts():
    d = gen_crescent(100, seed=1)
    sub = imbalance_subsample(d, 0.25, seed=2)
    assert int(np.sum(sub.y == 0)) == 100
    assert int(np.sum(sub.y == 1)) == 25
    # subsample rows come from the original
    orig = {tuple(r) for r in d.x}
    assert all(tuple(r) in orig for r in sub.x)


def test_imbalance_subsample_validation():
    d = gen_crescent(10, seed=1)
    with pytest.raises(ValueError):
        imbalance_subsample(d, 0.0, seed=0)
    with pytest.raises(ValueError):
        imbalance_subsample(d, 1.5, seed=0)
    with pytest.raises(ValueError):
        imbalance_subsample(d, 0.01, seed=0)  # would round to zero rows


def test_task_stream_rejects_overlapping_class_sets():
    t0 = Dataset(np.zeros((2, 2)), np.array([0, 1]), (0, 1))
    t1 = Dataset(np.zeros((2, 2)), np.array([1, 1]), (1, 2))
    with pytest.raises(ValueError):
        TaskStream([t0, t1])


def test_task_stream_rejects_no_tasks():
    # train_streams would fail at its first look at the stream's input dim
    with pytest.raises(ValueError, match="at least one task"):
        TaskStream([])


def test_task_stream_rejects_a_task_with_no_rows():
    # a stream whose later task is empty would train the earlier tasks and
    # only then fail; the stream is rejected when it is built
    x = np.arange(8, dtype=float).reshape(4, 2)
    first = Dataset(x, np.array([0, 1, 1, 0]), (0, 1))
    with pytest.raises(ValueError, match="task 1 has no rows"):
        TaskStream([first, Dataset(np.zeros((0, 2)), np.zeros(0, int), (2, 3))])


def test_task_stream_rejects_tasks_of_two_input_dims():
    # such a stream would train its first task and only then fail, when a
    # batch of the second met the first's rows
    first = Dataset(np.zeros((4, 4)), np.array([0, 1, 1, 0]), (0, 1))
    second = Dataset(np.zeros((4, 5)), np.array([2, 3, 3, 2]), (2, 3))
    with pytest.raises(ValueError, match="task 1 has input dim 5, task 0 4"):
        TaskStream([first, second])


def _blob_stream_stacked(num_tasks, classes_per_task, dim, n_per_class, seed, sample_seed):
    """gen_blob_stream's stream built another way: every class's points
    stacked into one array, then each task's rows taken from it by label."""
    n_classes = num_tasks * classes_per_task
    centers = D._place_centers(np.random.default_rng([D._seed_int(seed), 0]), n_classes, dim)
    point_rng = np.random.default_rng([D._seed_int(sample_seed), 1])
    x = np.vstack([centers[c] + point_rng.normal(0.0, D.BLOB_NOISE, size=(n_per_class, dim))
                   for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    tasks = []
    for first in range(0, n_classes, classes_per_task):
        group = tuple(range(first, first + classes_per_task))
        rows = np.flatnonzero(np.isin(y, group))
        tasks.append((x[rows], y[rows], group))
    return tasks


def test_blob_stream_equals_the_stacked_split():
    # each task is its classes' rows, class by class, bit for bit; shapes
    # are (tasks, classes per task, dim, points per class)
    for i, shape in enumerate([(5, 2, 16, 500), (3, 2, 4, 60), (5, 2, 16, 200), (2, 3, 5, 7),
                               (4, 1, 3, 9)]):
        stream = gen_blob_stream(*shape, seed=i, sample_seed=[i, 1])
        expected = _blob_stream_stacked(*shape, seed=i, sample_seed=[i, 1])
        for task, (x, y, classes) in zip(stream.tasks, expected, strict=True):
            assert task.x.tobytes() == x.tobytes() and task.x.shape == x.shape, shape
            assert task.y.dtype == y.dtype and task.y.tobytes() == y.tobytes(), shape
            assert task.classes == classes, shape


def test_blob_stream_structure_and_separation():
    stream = gen_blob_stream(3, 2, 8, 30, seed=4, sample_seed=4)
    assert len(stream.tasks) == 3
    assert stream.all_classes == (0, 1, 2, 3, 4, 5)
    assert stream.input_dim == 8
    means = [stream.tasks[t].x[stream.tasks[t].y == c].mean(axis=0)
             for t in range(3) for c in stream.tasks[t].classes]
    for i in range(6):
        for j in range(i + 1, 6):
            # class means approximate the centers, which were placed at
            # least BLOB_SEPARATION apart
            assert np.linalg.norm(means[i] - means[j]) > 2 / 3 * D.BLOB_SEPARATION


def test_blob_stream_shares_centers_across_sample_seeds():
    a = gen_blob_stream(2, 2, 6, 200, seed=7, sample_seed=1)
    b = gen_blob_stream(2, 2, 6, 200, seed=7, sample_seed=2)
    assert not np.array_equal(a.tasks[0].x, b.tasks[0].x)
    for t in range(2):
        for c in a.tasks[t].classes:
            ma = a.tasks[t].x[a.tasks[t].y == c].mean(axis=0)
            mb = b.tasks[t].x[b.tasks[t].y == c].mean(axis=0)
            assert np.linalg.norm(ma - mb) < D.BLOB_NOISE


def test_blob_stream_deterministic():
    a = gen_blob_stream(2, 2, 4, 20, seed=9, sample_seed=9)
    b = gen_blob_stream(2, 2, 4, 20, seed=9, sample_seed=9)
    for ta, tb in zip(a.tasks, b.tasks):
        np.testing.assert_array_equal(ta.x, tb.x)
        np.testing.assert_array_equal(ta.y, tb.y)


def test_blob_stream_infeasible_separation():
    # an interval of width 2 * BLOB_SEPARATION holds at most 3 centers
    # BLOB_SEPARATION apart
    with pytest.raises(ValueError, match="could not place 4 centers"):
        gen_blob_stream(2, 2, 1, 5, seed=0, sample_seed=0)


def test_merged_preserves_order_and_classes():
    stream = gen_blob_stream(2, 2, 4, 10, seed=3, sample_seed=3)
    merged = stream.merged()
    assert len(merged) == 2 * 2 * 10
    np.testing.assert_array_equal(merged.x[:20], stream.tasks[0].x)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), (0,))
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), classes=(0, 1))


def test_dataset_rejects_labels_that_are_not_integers():
    # a cast to int64 would silently truncate them
    for labels in ([0.5, 1.7], [0.0, -0.5]):
        with pytest.raises(ValueError, match="labels must be integers"):
            Dataset(np.zeros((2, 1)), labels, (0, 1))
    d = Dataset(np.zeros((2, 1)), [1.0, 0.0], (0, 1))
    assert d.y.dtype == np.int64 and d.y.tolist() == [1, 0]


def test_single_task_stream_wraps_dataset():
    d = gen_crescent(10, seed=0)
    s = TaskStream([d])
    assert len(s.tasks) == 1
    assert s.tasks[0].classes == (0, 1)
