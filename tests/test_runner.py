"""Runner tests: config parsing and round trips, stream assembly,
artifact determinism, summary math."""

import csv
import json
import os

import numpy as np
import pytest

from eatcl.runner import (ConfigError, build_eval_attack, build_streams,
                          build_train_config, default_config, emit_config,
                          format_summary_table, load_model_json, parse_config,
                          run_experiment, summarize_results)

TINY = """
experiment = unit
dataset = blobs
strategies = er
seeds = 0
blobs.tasks = 2
blobs.classes_per_task = 2
blobs.dim = 5
blobs.per_class = 15
blobs.test_per_class = 10
blobs.separation = 1.2
blobs.noise = 0.3
train.epochs_per_task = 2
train.batch_size = 8
train.buffer_capacity = 20
train.hidden = 6
attack.eps = 0.05
attack.alpha = 0.02
attack.iters = 2
save.models = false
save.grids = false
"""


def test_defaults_round_trip():
    cfg = default_config()
    assert parse_config(emit_config(cfg)) == cfg


def test_parse_then_emit_round_trip():
    cfg = parse_config(TINY)
    assert parse_config(emit_config(cfg)) == cfg
    assert cfg["experiment"] == "unit"
    assert cfg["strategies"] == ("er",)
    assert cfg["train.hidden"] == (6,)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*mystery"):
        parse_config("experiment = x\nmystery = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("experiment = a\nexperiment = b\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="line 1.*train.batch_size"):
        parse_config("train.batch_size = lots\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# a comment\n\nexperiment = c  # trailing\n")
    assert cfg["experiment"] == "c"


def test_validation_errors():
    with pytest.raises(ConfigError, match="strategy"):
        parse_config("strategies = er teleport\n")
    with pytest.raises(ConfigError, match="dataset"):
        parse_config("dataset = mnist\n")
    with pytest.raises(ConfigError, match="distinct"):
        parse_config("seeds = 1 1\n")
    with pytest.raises(ConfigError):
        parse_config("attack.eps = -0.5\n")
    with pytest.raises(ConfigError):
        parse_config("crescents.minority_fraction = 0\n")


def test_eval_attack_inherits_then_overrides():
    cfg = parse_config("attack.eps = 0.2\nattack.iters = 7\n")
    ev = build_eval_attack(cfg)
    assert ev.eps == 0.2 and ev.iters == 7
    cfg2 = parse_config("attack.eps = 0.2\neval.attack.eps = 0.3\n"
                        "eval.attack.iters = 1\n")
    ev2 = build_eval_attack(cfg2)
    assert ev2.eps == 0.3 and ev2.iters == 1
    assert ev2.alpha == cfg2["attack.alpha"]


def test_build_train_config_wires_fields():
    cfg = parse_config("train.lr = 0.07\ntrain.hidden = 4 5\n"
                       "train.at_mix = union\n")
    t = build_train_config(cfg, seed=9)
    assert t.sgd.learning_rate == 0.07
    assert t.hidden_sizes == (4, 5)
    assert t.at_mix == "union"
    assert t.seed == 9


def test_build_streams_blobs_share_centers():
    cfg = parse_config("dataset = blobs\nblobs.tasks = 2\nblobs.dim = 6\n"
                       "blobs.per_class = 120\nblobs.test_per_class = 120\n"
                       "blobs.separation = 1.4\nblobs.noise = 0.1\n")
    train, test = build_streams(cfg, seed=0)
    assert len(train.tasks) == len(test.tasks) == 2
    for t in range(2):
        for c in train.tasks[t].class_set:
            mtr = train.tasks[t].data.x[train.tasks[t].data.y == c].mean(axis=0)
            mte = test.tasks[t].data.x[test.tasks[t].data.y == c].mean(axis=0)
            assert np.linalg.norm(mtr - mte) < 0.1
    assert not np.array_equal(train.tasks[0].data.x, test.tasks[0].data.x)


def test_build_streams_crescent_imbalance_train_only():
    cfg = parse_config("dataset = crescents\ncrescents.per_class = 100\n"
                       "crescents.test_per_class = 80\n"
                       "crescents.minority_fraction = 0.25\n")
    train, test = build_streams(cfg, seed=1)
    ytr = train.tasks[0].data.y
    yte = test.tasks[0].data.y
    assert int(np.sum(ytr == 0)) == 100 and int(np.sum(ytr == 1)) == 25
    assert int(np.sum(yte == 0)) == 80 and int(np.sum(yte == 1)) == 80


def test_run_experiment_artifacts_and_determinism(tmp_path):
    cfg = parse_config(TINY)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_experiment(cfg, str(out1), quiet=True)
    run_experiment(cfg, str(out2), quiet=True)
    for name in ("metrics.csv", "rates.csv", "summary.json",
                 "config.resolved.conf", "manifest.json"):
        assert (out1 / name).exists()
    for name in ("metrics.csv", "rates.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    with open(out1 / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["run_id", "step", "task", "accuracy", "robustness"]
    assert rows[0]["run_id"] == "er_s0"
    assert {int(r["step"]) for r in rows} == {1, 2}
    last = [r for r in rows if r["step"] == "2"]
    assert {int(r["task"]) for r in last} == {1, 2}
    for r in rows:
        assert 0.0 <= float(r["accuracy"]) <= 100.0
        assert 0.0 <= float(r["robustness"]) <= 100.0


def test_run_experiment_seed_override(tmp_path):
    cfg = parse_config(TINY.replace("seeds = 0", "seeds = 0 1"))
    res = run_experiment(cfg, str(tmp_path / "o"), quiet=True, seeds=[1])
    assert [r.run_id for r in res] == ["er_s1"]


def test_model_artifact_round_trip(tmp_path):
    cfg = parse_config(TINY.replace("save.models = false",
                                    "save.models = true"))
    res = run_experiment(cfg, str(tmp_path / "m"), quiet=True)
    path = tmp_path / "m" / "models" / "er_s0.json"
    model, bounds = load_model_json(str(path))
    assert bounds is None  # 5-d inputs: no plot bounds
    np.testing.assert_allclose(model.weights[0], res[0].model.weights[0],
                               atol=0)


def test_crescent_run_writes_grid(tmp_path):
    text = """
experiment = grids
dataset = crescents
strategies = joint
seeds = 0
crescents.per_class = 30
crescents.test_per_class = 20
train.epochs_per_task = 2
train.batch_size = 16
train.buffer_capacity = 0
train.hidden = 3
attack.eps = 0.1
attack.alpha = 0.1
attack.iters = 2
grid.resolution = 8
"""
    cfg = parse_config(text)
    run_experiment(cfg, str(tmp_path / "g"), quiet=True)
    grid_path = tmp_path / "g" / "grids" / "joint_s0.csv"
    assert grid_path.exists()
    lines = grid_path.read_text().strip().splitlines()
    assert lines[0] == "x,y,class"
    assert len(lines) == 1 + 8 * 8
    model_path = tmp_path / "g" / "models" / "joint_s0.json"
    _, bounds = load_model_json(str(model_path))
    assert set(bounds) == {"x", "y"}


def test_summary_math():
    class FakeRec:
        def __init__(self, acc, rob):
            self.mean_accuracy = acc
            self.mean_robustness = rob

    class FakeLog:
        def __init__(self, acc, rob):
            self.records = [FakeRec(acc, rob)]

    class FakeRun:
        def __init__(self, rid, strat, seed, acc, rob):
            self.run_id, self.strategy, self.seed = rid, strat, seed
            self.model, self.log = None, FakeLog(acc, rob)

    results = [FakeRun("er_s0", "er", 0, 50.0, 10.0),
               FakeRun("er_s1", "er", 1, 60.0, 20.0)]
    s = summarize_results({"experiment": "t"}, results)
    assert s["strategies"]["er"]["accuracy"]["mean"] == 55.0
    assert s["strategies"]["er"]["accuracy"]["std"] == pytest.approx(
        np.std([50, 60], ddof=1))
    table = format_summary_table(s)
    assert "er" in table and "55.00" in table


def test_manifest_lists_runs(tmp_path):
    cfg = parse_config(TINY)
    run_experiment(cfg, str(tmp_path / "mf"), quiet=True)
    manifest = json.loads((tmp_path / "mf" / "manifest.json").read_text())
    assert manifest["runs"] == ["er_s0"]
    assert "metrics.csv" in manifest["artifacts"]
    assert "er_s0" in manifest["train_seconds"]
