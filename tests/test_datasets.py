"""Dataset generation, splitting, imbalance."""

import numpy as np
import pytest

import eatcl.datasets as D
from eatcl.datasets import (Dataset, TaskStream, gen_blob_stream, gen_crescent,
                            imbalance_subsample, split_by_classes)


def test_crescent_noise_zero_lies_on_section_lines():
    d = gen_crescent(50, noise=0.0, seed=0)
    assert len(d) == 100
    edges = np.asarray(D.CRESCENT_EDGES)
    for cls in (0, 1):
        pts = d.x[d.y == cls]
        on_band = pts[pts[:, 0] <= edges[-1]]
        sec = np.searchsorted(edges[1:-1], on_band[:, 0])
        lines = np.asarray([D.CRESCENT_LINES[s][cls] for s in sec])
        np.testing.assert_allclose(on_band[:, 1], lines, atol=1e-12)
    # everything past the band tip is the class-1 blob at its center height
    blob = d.x[d.x[:, 0] > edges[-1]]
    n_blob = int(round(50 * D.TIP_BLOB_SHARE))
    assert blob.shape[0] == n_blob
    assert np.all(d.y[d.x[:, 0] > edges[-1]] == 1)
    np.testing.assert_allclose(blob[:, 1], D.TIP_BLOB_Y, atol=1e-12)
    assert np.all((blob[:, 0] >= D.TIP_BLOB_X[0]) & (blob[:, 0] <= D.TIP_BLOB_X[1]))


def test_crescent_deterministic_and_jitter_scale():
    a = gen_crescent(200, noise=0.1, seed=5)
    b = gen_crescent(200, noise=0.1, seed=5)
    np.testing.assert_array_equal(a.x, b.x)
    clean = gen_crescent(200, noise=0.0, seed=5)
    dev = a.x - clean.x
    assert np.all(dev[:, 0] == 0)  # jitter is vertical only
    assert np.std(dev[:, 1]) > 0
    # same seed draws the same unit jitter, so deviation scales linearly
    double = gen_crescent(200, noise=0.2, seed=5)
    np.testing.assert_allclose(double.x - clean.x, 2.0 * dev, atol=1e-12)


def test_crescent_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_crescent(0)
    with pytest.raises(ValueError):
        gen_crescent(10, noise=-0.1)


def test_imbalance_subsample_counts():
    d = gen_crescent(100, seed=1)
    sub = imbalance_subsample(d, {1: 0.25}, seed=2)
    assert int(np.sum(sub.y == 0)) == 100
    assert int(np.sum(sub.y == 1)) == 25
    # subsample rows come from the original
    orig = {tuple(r) for r in d.x}
    assert all(tuple(r) in orig for r in sub.x)


def test_imbalance_subsample_validation():
    d = gen_crescent(10, seed=1)
    with pytest.raises(ValueError):
        imbalance_subsample(d, {1: 0.0})
    with pytest.raises(ValueError):
        imbalance_subsample(d, {1: 1.5})
    with pytest.raises(ValueError):
        imbalance_subsample(d, {1: 0.01})  # would round to zero rows
    for unknown in ({5: 0.5}, {1: 0.5, -1: 0.5}):
        with pytest.raises(ValueError, match="not one of the data's classes"):
            imbalance_subsample(d, unknown)


def test_split_by_classes_ascending_and_disjoint():
    x = np.arange(12, dtype=float).reshape(6, 2)
    y = np.array([3, 0, 2, 1, 0, 2])
    stream = split_by_classes(Dataset(x, y, (0, 1, 2, 3)), classes_per_task=2)
    assert [t.classes for t in stream.tasks] == [(0, 1), (2, 3)]
    assert sorted(stream.tasks[0].y.tolist()) == [0, 0, 1]
    with pytest.raises(ValueError):
        split_by_classes(Dataset(x, y, (0, 1, 2, 3)), classes_per_task=3)


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
    with pytest.raises(ValueError, match="task 1 has no rows"):
        split_by_classes(Dataset(x, np.array([0, 1, 1, 0]), (0, 1, 2, 3)), 2)
    first = Dataset(x, np.array([0, 1, 1, 0]), (0, 1))
    with pytest.raises(ValueError, match="task 1 has no rows"):
        TaskStream([first, Dataset(np.zeros((0, 2)), np.zeros(0, int), (2, 3))])


def test_blob_stream_structure_and_separation():
    stream = gen_blob_stream(3, 2, 8, 30, separation=1.5, noise=0.2, seed=4)
    assert len(stream.tasks) == 3
    assert stream.all_classes == (0, 1, 2, 3, 4, 5)
    assert stream.input_dim == 8
    means = [stream.tasks[t].x[stream.tasks[t].y == c].mean(axis=0)
             for t in range(3) for c in stream.tasks[t].classes]
    for i in range(6):
        for j in range(i + 1, 6):
            # class means approximate the centers, which were placed >= 1.5 apart
            assert np.linalg.norm(means[i] - means[j]) > 1.0


def test_blob_stream_shares_centers_across_sample_seeds():
    a = gen_blob_stream(2, 2, 6, 200, 1.5, 0.1, seed=7, sample_seed=1)
    b = gen_blob_stream(2, 2, 6, 200, 1.5, 0.1, seed=7, sample_seed=2)
    assert not np.array_equal(a.tasks[0].x, b.tasks[0].x)
    for t in range(2):
        for c in a.tasks[t].classes:
            ma = a.tasks[t].x[a.tasks[t].y == c].mean(axis=0)
            mb = b.tasks[t].x[b.tasks[t].y == c].mean(axis=0)
            assert np.linalg.norm(ma - mb) < 0.1


def test_blob_stream_deterministic():
    a = gen_blob_stream(2, 2, 4, 20, 1.0, 0.2, seed=9)
    b = gen_blob_stream(2, 2, 4, 20, 1.0, 0.2, seed=9)
    for ta, tb in zip(a.tasks, b.tasks):
        np.testing.assert_array_equal(ta.x, tb.x)
        np.testing.assert_array_equal(ta.y, tb.y)


def test_blob_stream_infeasible_separation():
    with pytest.raises(ValueError):
        gen_blob_stream(5, 2, 2, 5, separation=10.0, noise=0.1, seed=0)


def test_merged_preserves_order_and_classes():
    stream = gen_blob_stream(2, 2, 4, 10, 1.0, 0.2, seed=3)
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
