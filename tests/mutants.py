"""Deliberate breaks of src/eatcl that the tests must catch.

Each entry of MUTANTS is (file in src/eatcl, exact old text, new text,
test ids that must fail once the old text becomes the new). Run as a
script from anywhere,

    python tests/mutants.py

it copies src/, tests/, configs/ and pyproject.toml to a temporary
directory, runs every listed test there unmutated (they must pass), then
applies each mutant in turn to a fresh copy, runs its test ids in a
subprocess and names every mutant that no failing test kills. It exits 1
if a mutant survives. Tier-1 checks only that each old text occurs
exactly once in its file (test_callers.py): a refactor that moves the text
must restate the mutant rather than lose it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_STRAT = "tests/test_strategies.py::"
_REPLAY = "tests/test_replay.py::"

MUTANTS = [
    # +EAT: external seeds in generation-major order
    ("strategies.py",
     "for _, index, _ in plan for m in members for g in gens]",
     "for g in gens for _, index, _ in plan for m in members]",
     [_STRAT + "test_eat_external_seeds_per_task_and_epoch"]),
    # +EAT: external seeds member-major across tasks
    ("strategies.py",
     "for _, index, _ in plan for m in members for g in gens]",
     "for m in members for _, index, _ in plan for g in gens]",
     [_STRAT + "test_eat_external_seeds_per_task_and_epoch",
      _STRAT + "test_eat_group_externals_and_copies_equal_each_trained_alone"]),
    # +EAT: a task's externals handed to the next task
    ("strategies.py",
     "externals.pop(index, ())",
     "externals.get(max(index - 1, 0), ())",
     [_STRAT + "test_eat_group_externals_and_copies_equal_each_trained_alone"]),
    # +EAT: external attack counts credited to member 0 only
    ("strategies.py",
     "[m.log.attack_counts\n",
     "[members[0].log.attack_counts\n",
     [_STRAT + "test_lockstep_runs_equal_runs_alone"]),
    # +EAT: the externals train with the target's at_mix
    ("strategies.py",
     'replace(cfg, epochs_per_task=cfg.eat_external_epochs, at_mix="replace")',
     "replace(cfg, epochs_per_task=cfg.eat_external_epochs)",
     [_STRAT + "test_eat_externals_of_different_members_equal_externals_alone"]),
    # +EAT: the externals train for the target's epochs_per_task
    ("strategies.py",
     'replace(cfg, epochs_per_task=cfg.eat_external_epochs, at_mix="replace")',
     'replace(cfg, at_mix="replace")',
     [_STRAT + "test_eat_externals_of_different_members_equal_externals_alone"]),
    # buffer: of a step's rows that draw one slot, the first one stays
    ("replay.py",
     "(np.concatenate(a)[::-1] for a in zip(*writes))",
     "(np.concatenate(a) for a in zip(*writes))",
     [_REPLAY + "test_slot_drawn_twice_keeps_the_later_row"]),
    # buffer: a step's samples drawn after its inserts
    ("replay.py",
     "np.concatenate([sample_step, row_step[drawing]])",
     "np.concatenate([2 * sample_step + 1, 2 * row_step[drawing]])",
     [_REPLAY + "test_planned_buffer_equals_per_call_reference"]),
    # buffer: insert's row-count check dropped
    ("replay.py",
     "if len(x) != n:",
     "if False:",
     [_REPLAY + "test_plan_must_be_consumed_exactly"]),
    # buffer: batch_step's batch-count check dropped
    ("strategies.py",
     "if batches and len(batches) != _BUFFER_BATCHES[replay]:",
     "if False:",
     [_STRAT + "test_a_step_schedule_off_the_plan_raises"]),
]


def _copy(dest: Path) -> Path:
    for name in ("src", "tests", "configs"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def _passes(root: Path, test_ids) -> bool:
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "-o", "addopts=", *test_ids], cwd=root,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(Path(tmp) / "clean")
        every_id = sorted({i for *_, ids in MUTANTS for i in ids})
        if not _passes(clean, every_id):
            print("the listed tests fail on the unmutated source")
            return 1
        survivors = []
        for k, (name, old, new, test_ids) in enumerate(MUTANTS):
            root = _copy(Path(tmp) / f"mutant{k}")
            path = root / "src" / "eatcl" / name
            text = path.read_text()
            assert text.count(old) == 1, f"mutant {k}: old text not found once in {name}"
            path.write_text(text.replace(old, new))
            killed = not _passes(root, test_ids)
            print(f"mutant {k} {name}: {old.strip()!r} -> {new.strip()!r}: "
                  f"{'killed' if killed else 'SURVIVED'}", flush=True)
            if not killed:
                survivors.append(k)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed; survivors: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
