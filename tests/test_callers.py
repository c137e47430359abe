"""Every public function and method in src/eatcl has a caller in src/eatcl,
every module but eatcl/__init__.py, and every test module, uses each name
it imports, one training loop steps every model, every config key but
three takes two values across the shipped configs, smoke.conf runs every
strategy, and every mutant in mutants.py still applies to the source.

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
