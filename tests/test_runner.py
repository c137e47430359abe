"""Runner tests: config parsing and round trips, stream assembly,
artifact determinism, summary math."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import eatcl.runner
from eatcl.cli import main
from eatcl.attacks import AttackConfig
from eatcl.metrics import robustness
from eatcl.runner import (ConfigError, RunResult, _write_metrics_csv,
                          _write_rates_csv, build_attack, build_streams,
                          build_train_config, default_config, emit_config,
                          format_summary_table, parse_config, run_experiment,
                          summarize_results)
from eatcl.strategies import TrainConfig, parse_strategy, train_streams

from conftest import CONFIG_DIR, SHIPPED

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
train.epochs_per_task = 2
train.batch_size = 8
train.buffer_capacity = 20
train.hidden = 6
attack.eps = 0.05
attack.alpha = 0.02
attack.iters = 2
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


def test_removed_keys_are_unknown():
    for line in ("save.grids = false", "grid.resolution = 8", "attack.clip = 0 1",
                 "attack.random_start = true", "eval.attack.random_start = true",
                 "eval.seed = 0", "save.models = false", "train.der_alpha = 0.5",
                 "train.derpp_beta = 0.5", "blobs.separation = 0.09", "blobs.noise = 0.05",
                 "crescents.noise = 0.015", "crescents.minority_class = 1",
                 "crescents.test_per_class = 1000", "train.lr = 0.1",
                 "eval.attack.kind = pgd", "eval.attack.eps = 0.0314",
                 "eval.attack.alpha = 0.0078", "eval.attack.iters = 4"):
        key = line.partition(" ")[0]
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"experiment = x\n{line}\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("experiment = a\nexperiment = b\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="line 1.*train.batch_size"):
        parse_config("train.batch_size = lots\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_float_reports_key_and_line(value):
    floats = [k for k, v in default_config().items() if isinstance(v, float)]
    assert len(floats) == 3
    for key in floats:
        with pytest.raises(ConfigError,
                           match=f"line 2: bad value for '{key}': not a finite number"):
            parse_config(f"experiment = x\n{key} = {value}\n")


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
    with pytest.raises(ConfigError, match="seeds must be distinct"):
        parse_config("seeds = 1 1\n")
    with pytest.raises(ConfigError, match="strategies must be distinct"):
        parse_config("strategies = er er\nseeds = 0 1\n")
    with pytest.raises(ConfigError, match="seeds must be >= 0"):
        parse_config("seeds = 0 -1\n")
    with pytest.raises(ConfigError):
        parse_config("attack.eps = -0.5\n")
    with pytest.raises(ConfigError):
        parse_config("crescents.minority_fraction = 0\n")
    # the experiment names one new directory under the output root
    for name in ("..", ".", "", "a/b", "/abs", "a/"):
        with pytest.raises(ConfigError, match="experiment must be one path component"):
            parse_config(f"experiment = {name}\n")
    with pytest.raises(ConfigError, match="attack kind must be one of"):
        parse_config("attack.kind = cw\n")


def test_eval_attack_is_pgd_of_the_training_attack():
    # train_streams measures robustness under PGD at the training attack's
    # eps, alpha and iters, whatever its kind: on each shipped config's
    # streams, a joint run's robustness is its final model's under that
    # config's evaluation attack, hard-coded here, with the evaluation rngs
    stream = AttackConfig("pgd", 0.0314, 0.0078, 4)
    toy = AttackConfig("pgd", 0.1, 0.1, 10)
    shipped = {"smoke": stream, "stream_fgsm": stream, "stream_pgd": stream,
               "toy_balanced": toy, "toy_imbalanced": toy}
    assert sorted(shipped) == sorted(SHIPPED)
    for name, expected in shipped.items():
        cfg = parse_config((CONFIG_DIR / f"{name}.conf").read_text())
        train_s, test_s = build_streams(cfg, 0)
        tcfg = build_train_config(cfg)
        ((model, log),), = train_streams([train_s], [test_s], ["joint"], tcfg, [0])
        last = len(test_s.tasks) - 1
        rob = {atk.kind: [robustness(model, data, atk, np.random.default_rng([0, last, t]))
                          for t, data in enumerate(test_s.tasks)]
               for atk in (expected, replace(expected, kind="fgsm"))}
        assert log.records[-1].per_task_robustness == rob["pgd"], name
        assert rob["pgd"] != rob["fgsm"], name  # so an FGSM evaluation would show


def test_cli_and_library_defaults_agree():
    # the config's train.* / attack.* defaults are read off the dataclasses
    assert build_train_config(default_config()) == TrainConfig()
    assert build_attack(default_config()) == AttackConfig()


OFF_DEFAULT = """
train.epochs_per_task = 3
train.batch_size = 7
train.buffer_capacity = 11
train.hidden = 4 5
train.replay_batch_size = 9
train.at_mix = union
train.eat_external_epochs = 2
train.eat_refresh = true
attack.kind = fgsm
attack.eps = 0.1
attack.alpha = 0.05
attack.iters = 6
"""


def test_build_train_config_wires_fields():
    # every train.* and attack.* key, set off its default, lands in the
    # TrainConfig / AttackConfig field of its name
    cfg, default = parse_config(OFF_DEFAULT), default_config()
    t = build_train_config(cfg)
    for key in (k for k in default if k.startswith(("train.", "attack."))):
        prefix, name = key.split(".")
        assert cfg[key] != default[key], key
        assert getattr(t if prefix == "train" else t.attack, name) == cfg[key], key
    assert t.attack == build_attack(cfg)


def test_shipped_eat_configs_make_one_external_per_task():
    # the paper trains EAT's external model once per time step, a task in
    # class-incremental learning, so no shipped config refreshes it per epoch
    eat = []
    for name in SHIPPED:
        cfg = parse_config((CONFIG_DIR / f"{name}.conf").read_text())
        if any(parse_strategy(s)[1] == "eat" for s in cfg["strategies"]):
            eat.append(name)
            assert not build_train_config(cfg).eat_refresh, name
    assert {"stream_pgd", "stream_fgsm"} <= set(eat), eat


def test_nonpositive_replay_batch_size_rejected_before_training(tmp_path, monkeypatch):
    for bad in ("0", "-1"):
        with pytest.raises(ConfigError, match="replay_batch_size must be >= 1"):
            parse_config(f"train.replay_batch_size = {bad}\n")
    assert parse_config("train.replay_batch_size = 1\n")["train.replay_batch_size"] == 1
    trained = []
    monkeypatch.setattr(eatcl.runner, "train_streams",
                        lambda *a, **k: trained.append(a))
    conf = tmp_path / "bad.conf"
    conf.write_text("train.replay_batch_size = -1\n")
    assert main(["run", str(conf), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert trained == [] and not (tmp_path / "out").exists()


def test_build_streams_blobs_share_centers():
    cfg = parse_config("dataset = blobs\nblobs.tasks = 2\nblobs.dim = 6\n"
                       "blobs.per_class = 120\nblobs.test_per_class = 120\n")
    train, test = build_streams(cfg, seed=0)
    assert len(train.tasks) == len(test.tasks) == 2
    for t in range(2):
        for c in train.tasks[t].classes:
            mtr = train.tasks[t].x[train.tasks[t].y == c].mean(axis=0)
            mte = test.tasks[t].x[test.tasks[t].y == c].mean(axis=0)
            assert np.linalg.norm(mtr - mte) < 0.1
    assert not np.array_equal(train.tasks[0].x, test.tasks[0].x)


def test_build_streams_crescent_imbalance_train_only():
    cfg = parse_config("dataset = crescents\ncrescents.per_class = 100\n"
                       "crescents.minority_fraction = 0.25\n")
    train, test = build_streams(cfg, seed=1)
    ytr = train.tasks[0].y
    yte = test.tasks[0].y
    assert int(np.sum(ytr == 0)) == 100 and int(np.sum(ytr == 1)) == 25
    assert int(np.sum(yte == 0)) == 1000 and int(np.sum(yte == 1)) == 1000


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


def test_lockstep_grid_writes_the_csvs_of_cells_run_alone(tmp_path):
    # each strategy's seeds train as one lockstep group, and the strategies
    # of a family (clean, +AT, +EAT here) share their first task; the
    # artifacts must not show it: the CSVs are those of cells trained one by
    # one, in seed-major order, and every run keeps its manifest entries
    grid = "der derpp er_at der_at er_eat derpp_eat"
    cfg = parse_config(TINY.replace("strategies = er", f"strategies = {grid}")
                       .replace("seeds = 0", "seeds = 0 1 2"))
    out = tmp_path / "grid"
    results = run_experiment(cfg, str(out), quiet=True)
    alone = []
    for seed in cfg["seeds"]:
        train_s, test_s = build_streams(cfg, seed)
        for strat in cfg["strategies"]:
            ((model, log),), = train_streams([train_s], [test_s], [strat],
                                             build_train_config(cfg), [seed])
            alone.append(RunResult(f"{strat}_s{seed}", strat, seed, model, log))
    _write_metrics_csv(str(tmp_path / "metrics.csv"), alone)
    _write_rates_csv(str(tmp_path / "rates.csv"), alone)
    for name in ("metrics.csv", "rates.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert len((out / "rates.csv").read_text().splitlines()) > 1
    run_ids = [r.run_id for r in alone]
    assert [r.run_id for r in results] == run_ids
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"] == run_ids
    assert sorted(manifest["train_seconds"]) == sorted(run_ids)
    one = run_experiment({**cfg, "seeds": (1,)}, str(tmp_path / "one"), quiet=True)
    assert [r.run_id for r in one] == [f"{s}_s1" for s in grid.split()]


def test_run_experiment_seed_override(tmp_path):
    # a config's seeds replaced by one seed runs that seed alone, and the
    # resolved config names it
    cfg = parse_config(TINY.replace("seeds = 0", "seeds = 0 1"))
    res = run_experiment({**cfg, "seeds": (1,)}, str(tmp_path / "o"), quiet=True)
    assert [r.run_id for r in res] == ["er_s1"]
    assert "\nseeds = 1\n" in (tmp_path / "o" / "config.resolved.conf").read_text()


CRESCENTS = """
experiment = crescents
dataset = crescents
strategies = joint
seeds = 0
crescents.per_class = 30
train.epochs_per_task = 2
train.batch_size = 16
train.buffer_capacity = 0
train.hidden = 3
attack.eps = 0.1
attack.alpha = 0.1
attack.iters = 2
"""


def test_crescent_run_writes_exactly_the_five_artifacts(tmp_path):
    res = run_experiment(parse_config(CRESCENTS), str(tmp_path / "g"), quiet=True)
    assert sorted(p.name for p in (tmp_path / "g").iterdir()) == [
        "config.resolved.conf", "manifest.json", "metrics.csv", "rates.csv",
        "summary.json"]
    manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
    assert manifest["artifacts"] == ["config.resolved.conf", "metrics.csv",
                                     "rates.csv", "summary.json"]
    # the trained model stays in memory
    assert res[0].model.layer_sizes == (2, 3, 2)


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
