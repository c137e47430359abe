"""CLI tests through main(argv): exit codes, identical run/report tables,
and the documented subcommands against the parser."""

import argparse
import json
import re
from pathlib import Path

import pytest

import eatcl.cli
from eatcl.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"

CONF = """
experiment = cli
dataset = crescents
strategies = joint
seeds = 0 1
crescents.per_class = 25
train.epochs_per_task = 2
train.batch_size = 16
train.buffer_capacity = 0
train.hidden = 3
attack.eps = 0.1
attack.alpha = 0.1
attack.iters = 2
"""


@pytest.fixture()
def conf_path(tmp_path):
    p = tmp_path / "exp.conf"
    p.write_text(CONF)
    return p


def test_validate_ok(conf_path, capsys):
    assert main(["validate", str(conf_path)]) == 0
    out = capsys.readouterr().out
    assert "cli" in out and "2 seeds" in out


def test_validate_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.conf"
    p.write_text("no_such_key = 1\n")
    assert main(["validate", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


# (old text of CONF, its replacement, a fragment of the one stderr line)
BAD_CONFIGS = [
    ("seeds = 0 1", "seeds = 0 -1", "seeds must be >= 0"),
    ("strategies = joint", "strategies = joint joint", "strategies must be distinct"),
    ("crescents.per_class = 25", "crescents.per_class = 0", "n_per_class must be >= 1"),
    ("dataset = crescents", "dataset = blobs\nblobs.per_class = 0",
     "all counts must be >= 1"),
    # blob centers that fit for seed 2 but not for seed 0, the second seed
    ("dataset = crescents\nstrategies = joint\nseeds = 0 1",
     "dataset = blobs\nstrategies = joint\nseeds = 2 0\nblobs.tasks = 5\n"
     "blobs.classes_per_task = 1\nblobs.dim = 2", "could not place 5 centers"),
    # non-finite floats
    ("attack.eps = 0.1", "attack.eps = nan", "'attack.eps': not a finite number"),
    ("attack.eps = 0.1", "attack.eps = inf", "'attack.eps': not a finite number"),
    ("attack.alpha = 0.1", "attack.alpha = nan", "'attack.alpha': not a finite number"),
    ("crescents.per_class = 25",
     "crescents.per_class = 25\ncrescents.minority_fraction = nan",
     "'crescents.minority_fraction': not a finite number"),
    # an experiment name that is not one directory under the output root
    ("experiment = cli", "experiment = ..", "experiment must be one path component"),
    ("experiment = cli", "experiment = .", "experiment must be one path component"),
    ("experiment = cli", "experiment =", "experiment must be one path component"),
    ("experiment = cli", "experiment = a/b", "experiment must be one path component"),
    ("experiment = cli", "experiment = /tmp", "experiment must be one path component"),
    # an eps ball too wide for the random start to draw from
    ("attack.eps = 0.1", "attack.eps = 1e308", "eps must be >= 0 with 2 * eps finite"),
    # evaluation is PGD under the training attack, so no key sets it
    ("seeds = 0 1", "seeds = 0 1\neval.attack.iters = 4",
     "line 6: unknown key 'eval.attack.iters'"),
]


@pytest.mark.parametrize("old, new, error", BAD_CONFIGS,
                         ids=[f"{old}-{new}" for old, new, _ in BAD_CONFIGS])
def test_bad_seed_or_dataset_value_fails_before_any_file(old, new, error, tmp_path, capsys):
    p = tmp_path / "bad.conf"
    p.write_text(CONF.replace(old, new))
    out_dir = tmp_path / "out"
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(out_dir)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error"), err
        assert error in err[0], err
        assert captured.out == ""
    assert not out_dir.exists()


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/nonexistent/x.conf"]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    (["run", "{conf}", "--out", "{file}", "--quiet"], "File exists: {file}"),
    (["report", "{file}"], "Not a directory: {file}/summary.json"),
])
def test_path_of_the_wrong_kind_is_one_line_not_a_traceback(command, line, conf_path,
                                                           tmp_path, capsys):
    # --out naming a file, or report given a file, exits 1 with one line
    # naming the error and the path, and leaves the file alone
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    names = {"conf": conf_path, "file": a_file}
    assert main([arg.format(**names) for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [line.format(**names)]
    assert a_file.read_text() == ""


def test_run_then_report_same_table(conf_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", str(conf_path), "--out", str(out_dir)]) == 0
    run_out = capsys.readouterr().out
    table_start = run_out.index("experiment: cli")
    run_table = run_out[table_start:].split("artifacts written")[0].strip()
    assert main(["report", str(out_dir)]) == 0
    report_table = capsys.readouterr().out.strip()
    assert report_table == run_table


def _report(capsys, *dirs):
    code = main(["report", *map(str, dirs)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_prints_each_run_in_argument_order(conf_path, tmp_path, capsys):
    both, one = tmp_path / "both", tmp_path / "one"
    assert main(["run", str(conf_path), "--out", str(both), "--quiet"]) == 0
    assert main(["run", str(conf_path), "--out", str(one), "--seed", "1", "--quiet"]) == 0
    _, both_out, _ = _report(capsys, both)
    _, one_out, _ = _report(capsys, one)
    assert both_out != one_out
    assert _report(capsys, both, one) == (0, both_out + one_out, "")
    assert _report(capsys, one, both) == (0, one_out + both_out, "")


def test_report_rejects_a_bad_summary_before_printing(conf_path, tmp_path, capsys):
    good = tmp_path / "good"
    assert main(["run", str(conf_path), "--out", str(good), "--quiet"]) == 0
    for name, text in (("truncated", "{"), ("empty", "{}")):
        bad = tmp_path / name
        bad.mkdir()
        (bad / "summary.json").write_text(text)
        for dirs in ((bad,), (good, bad), (bad, good)):
            code, out, err = _report(capsys, *dirs)
            assert code == 2 and out == "", (name, dirs)
            err = err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith(f"unreadable summary in {bad}"), err
    # a missing directory keeps its one "not found" line and exit 1
    for dirs in ((tmp_path / "missing",), (good, tmp_path / "missing")):
        code, out, err = _report(capsys, *dirs)
        assert code == 1 and out == ""
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("not found"), err


def test_run_quiet_prints_nothing(conf_path, tmp_path, capsys):
    out_dir = tmp_path / "quiet"
    assert main(["run", str(conf_path), "--out", str(out_dir), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_seed_override(conf_path, tmp_path, capsys):
    # --seed replaces the config's seeds: the resolved config reruns the run,
    # and a bad seed is a config error before any file is written
    out_dir = tmp_path / "one"
    assert main(["run", str(conf_path), "--out", str(out_dir),
                 "--seed", "1", "--quiet"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["runs"] == ["joint_s1"]
    assert "\nseeds = 1\n" in (out_dir / "config.resolved.conf").read_text()
    rerun = tmp_path / "rerun"
    assert main(["run", str(out_dir / "config.resolved.conf"), "--out", str(rerun),
                 "--quiet"]) == 0
    for name in ("metrics.csv", "rates.csv"):
        assert (rerun / name).read_bytes() == (out_dir / name).read_bytes()
    bad = tmp_path / "bad"
    assert main(["run", str(conf_path), "--out", str(bad), "--seed", "-1", "--quiet"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error"), err
    assert not bad.exists()


def test_out_env_var(conf_path, tmp_path, monkeypatch):
    monkeypatch.setenv("EATCL_OUT", str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(conf_path), "--quiet"]) == 0
    assert (tmp_path / "envroot" / "cli" / "metrics.csv").exists()


def test_documented_subcommands_match_the_parser():
    # README's CLI block and the cli module docstring name exactly the
    # parser's subcommands, so a removed command cannot linger in the docs
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    parsed = set(sub.choices)
    assert parsed == {"run", "validate", "report"}
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(),
                      re.S | re.M).group(1)
    readme = {line.split()[1] for line in block.splitlines() if line.startswith("eatcl ")}
    docstring = set(re.findall(r"^\* ``(\w+)", eatcl.cli.__doc__, re.M))
    assert readme == parsed
    assert docstring == parsed
