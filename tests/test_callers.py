"""Every public function and method in src/eatcl has a caller in src/eatcl,
every line of src/eatcl but error paths and a short allowlist runs when the
shipped configs go through the CLI, every module but eatcl/__init__.py, and
every test module, uses each name it imports, one training loop steps every
model, every config key but three takes two values across the shipped
configs, smoke.conf runs every strategy, and every mutant in mutants.py
still applies to the source.

A name counts as used when it occurs anywhere in the package as a name, an
attribute or an import alias; being re-exported by eatcl/__init__.py counts,
since that is the library API. Code that only the tests reach belongs in
the tests (see reference.py)."""

import ast
import inspect
import sys
import types
from pathlib import Path

from eatcl.cli import main
from eatcl.runner import _SCHEMA, parse_config
from eatcl.strategies import STRATEGIES

from conftest import CONFIG_DIR, shrunk
from mutants import MUTANTS, ROOT

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "eatcl"


def _public_functions(tree: ast.Module):
    """(qualified name, definition) of the module's public functions and
    the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def public_signatures() -> tuple[int, int, int]:
    """The number of src/eatcl's public functions and methods, their
    parameters, self not counted, and how many of those have defaults."""
    functions = params = defaults = 0
    for path in SRC.glob("*.py"):
        for _, fn in _public_functions(ast.parse(path.read_text(), str(path))):
            functions += 1
            a = fn.args
            named = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
            params += sum(arg.arg != "self" for arg in named)
            defaults += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return functions, params, defaults


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
            if node.asname:
                used.add(node.asname)
    return used


def test_every_public_function_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert "nets" in trees and "strategies" in trees
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    unused = [f"{module}.{qualified}" for module, tree in trees.items()
              for qualified, fn in _public_functions(tree) if fn.name not in used]
    assert unused == [], f"public functions with no caller in src/eatcl: {unused}"


# statements no shipped config runs, by module and the text of their first
# line, and why they stay
UNRUN = {
    ("runner.py", "return True"):
        "_parse_bool's true branch: train.eat_refresh, its only key, is off in "
        "every shipped config (ROADMAP item 1)",
    ("metrics.py", "return 0.0"):
        "prev_task_rate at the first task: training records rates from the "
        "second task on; the tests call it at index 0",
    ("datasets.py", "return int(seed)"):
        "_seed_int of an int seed: the runner passes list seeds, the README's "
        "library example ints",
    ("strategies.py", "return (MLPModel(model.layer_sizes, [w[-k:] for w in model.weights],"):
        "_tail of more than one derpp member: no shipped config runs derpp with "
        "two seeds; the oracle tests do",
}


def _function_lines(code: types.CodeType):
    """The lines of every function, lambda and comprehension in code that
    hold bytecode, their def lines not counted; module and class bodies,
    which run at import, are left out."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield from (line for *_, line in const.co_lines()
                            if line not in (None, const.co_firstlineno))
            yield from _function_lines(const)


def _cli_run_lines(tmp_path, monkeypatch) -> dict[str, set[int]]:
    """The lines of each src/eatcl module that ran while every shipped
    config, shrunk, went through the CLI: validate, a run of its first seed
    into the default output directory (one into --out, one quiet), then
    one report of every run."""
    ran: dict[str, set[int]] = {str(path): set() for path in SRC.glob("*.py")}

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in ran else None

    assert main.__code__.co_filename == str(SRC / "cli.py"), "eatcl not imported from src/"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EATCL_OUT", raising=False)
    configs = sorted(CONFIG_DIR.glob("*.conf"))
    for path in configs:
        (tmp_path / path.name).write_text(shrunk(path.read_text()))
    options = {0: ["--out", "out"], 1: ["--quiet"]}  # the rest: default directory
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        for k, path in enumerate(configs):
            assert main(["validate", path.name]) == 0
            assert main(["run", path.name, "--seed", "0", *options.get(k, [])]) == 0
        assert main(["report", "out", *map(str, sorted((tmp_path / "runs").iterdir()))]) == 0
    finally:
        sys.settrace(previous)
    return ran


def test_every_line_runs_in_a_shipped_config(tmp_path, monkeypatch, capsys):
    # a line that no shipped config reaches through the CLI is dead or
    # untested in production; error paths (raise statements and except
    # bodies) are exempt, and UNRUN names the rest, each of which must
    # still be unrun
    ran = _cli_run_lines(tmp_path, monkeypatch)
    assert "artifacts written to" in capsys.readouterr().out
    unrun, allowed = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        exempt = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
                continue
            span = set(range(node.lineno, node.end_lineno + 1))
            entry = (path.name, lines[node.lineno - 1].strip())
            if isinstance(node, (ast.Raise, ast.ExceptHandler)):
                exempt |= span
            elif entry in UNRUN:
                assert not ran[str(path)] & span, f"{path.name}:{node.lineno} runs"
                allowed.add(entry)
                exempt |= span
        missed = set(_function_lines(compile(source, str(path), "exec"))) - ran[str(path)]
        unrun += [f"{path.name}:{n}: {lines[n - 1].strip()}" for n in sorted(missed - exempt)]
    assert unrun == [], f"lines no shipped config runs: {unrun}"
    assert allowed == set(UNRUN)


def _unused_imports(tree: ast.Module, lines: list[str]) -> list[str]:
    """Names the module imports but never reads. `from __future__` imports
    and imports on a line marked `# noqa: F401` are exempt."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                unused.append(bound)
    return unused


def test_every_import_is_used_in_its_module():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    assert {"strategies", "test_callers"} <= {path.stem for path in paths}
    unused = {}
    for path in paths:
        source = path.read_text()
        names = _unused_imports(ast.parse(source, str(path)), source.splitlines())
        if names:
            unused[f"{path.parent.name}/{path.name}"] = names
    assert unused == {}, f"imports never used in their module: {unused}"


def _call_sites(name: str) -> list[str]:
    """module.name of every call of `name` in src/eatcl, named by the
    top-level function or class it is in."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    sites.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return sites


def test_one_training_loop():
    # every model, the target and +EAT's externals alike, steps in one place
    assert _call_sites("sgd_step") == ["strategies.batch_step"]


def test_every_config_key_takes_two_values_in_the_shipped_configs():
    # a setting with one value in use is a constant, not a key; a crescents.*
    # or blobs.* key counts only in the configs of its dataset
    configs = [parse_config(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.conf"))]
    values = {key: {repr(cfg[key]) for cfg in configs
                    if key.partition(".")[0] not in ("crescents", "blobs")
                    or key.startswith(cfg["dataset"] + ".")}
              for key in _SCHEMA}
    # perfbench/workloads.py reads these three, so they go with ROADMAP item 1
    assert {key for key, seen in values.items() if len(seen) < 2} == {
        "crescents.per_class", "blobs.classes_per_task", "train.eat_refresh"}


def test_smoke_runs_every_strategy():
    # so the smoke digests pin every strategy's training path
    smoke = parse_config((CONFIG_DIR / "smoke.conf").read_text())
    assert sorted(smoke["strategies"]) == sorted(STRATEGIES)  # parse_config rejects repeats


def test_every_mutant_applies_once():
    # running mutants.py is slow; this keeps its list in step with the code
    for name, old, _, test_ids in MUTANTS:
        assert (SRC / name).read_text().count(old) == 1, (name, old)
        for test_id in test_ids:
            path, _, func = test_id.partition("::")
            assert f"\ndef {func}(" in (ROOT / path).read_text(), test_id
