"""Every public function and method in src/eatcl has a caller in src/eatcl,
every module but eatcl/__init__.py uses each name it imports, one
training loop steps every model, a shipped config sets every config key
but one, smoke.conf runs every strategy, and every mutant in mutants.py
still applies to the source.

A name counts as used when it occurs anywhere in the package as a name, an
attribute or an import alias; being re-exported by eatcl/__init__.py counts,
since that is the library API. Code that only the tests reach belongs in
the tests (see reference.py)."""

import ast
from pathlib import Path

from eatcl.runner import _SCHEMA, parse_config
from eatcl.strategies import STRATEGIES

from conftest import CONFIG_DIR
from mutants import MUTANTS, ROOT

SRC = Path(__file__).resolve().parent.parent / "src" / "eatcl"


def _public_functions(tree: ast.Module):
    """(qualified name, name) of the module's public functions and the
    public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


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
              for qualified, name in _public_functions(tree) if name not in used]
    assert unused == [], f"public functions with no caller in src/eatcl: {unused}"


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
    assert any(path.stem == "strategies" for path in paths)
    unused = {}
    for path in paths:
        source = path.read_text()
        names = _unused_imports(ast.parse(source, str(path)), source.splitlines())
        if names:
            unused[path.stem] = names
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


def test_every_config_key_is_set_by_a_shipped_config():
    set_keys = {line.split("#", 1)[0].partition("=")[0].strip()
                for path in CONFIG_DIR.glob("*.conf") for line in path.read_text().splitlines()}
    # train.eat_refresh goes with ROADMAP item 1: perfbench/workloads.py reads it
    assert set(_SCHEMA) - set_keys == {"train.eat_refresh"}


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
