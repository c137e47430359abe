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
_ORACLE = _STRAT + "test_train_streams_equals_reference_trainer"
_RUNNER = "tests/test_runner.py::"

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
     [_STRAT + "test_eat_external_seeds_per_task_and_epoch", _ORACLE]),
    # families: a branch shares the first task's member rngs
    ("strategies.py",
     "replace(m, replay=r, rngs=deepcopy(m.rngs), log=deepcopy(m.log))",
     "replace(m, replay=r, rngs=m.rngs, log=deepcopy(m.log))",
     [_ORACLE]),
    # DER group: the label term on every member, der's too
    ("strategies.py",
     'derpp = sum(m.replay == "derpp" for m in members)',
     'derpp = len(members) * any(m.replay == "derpp" for m in members)',
     [_ORACLE]),
    # DER group: the label term's gradients added into the der members' slice
    ("strategies.py",
     "g[e - k:] += tg[e:]",
     "g[:k] += tg[e:]",
     [_ORACLE]),
    # DER group: the DER term added into the derpp slice only
    ("strategies.py",
     "g += tg[:e]",
     "g[e - k:] += tg[e - k:e]",
     [_ORACLE]),
    # DER group: the label rows paired with the leading members' weights
    ("strategies.py",
     "order = np.array([*range(e), *range(e - k, e)])",
     "order = np.array([*range(e), *range(k)])",
     [_STRAT + "test_der_terms_equal_both_terms_backward_apart_bitwise", _ORACLE]),
    # DER group: der members draw a second buffer batch
    ("strategies.py",
     '_BUFFER_BATCHES = {"er": 1, "der": 1, "derpp": 2}',
     '_BUFFER_BATCHES = {"er": 1, "der": 2, "derpp": 2}',
     [_ORACLE]),
    # families: the ER branch keeps the stored DER logits
    ("strategies.py",
     "branch.logits = None",
     "branch.logits = branch.logits",
     [_ORACLE]),
    # families: the first task stores no DER logits when ER comes first
    ("strategies.py",
     'first = next((r for r in replays if r in ("der", "derpp")), replays[0])',
     "first = replays[0]",
     [_ORACLE]),
    # +EAT: a task's copies handed to the next task
    ("strategies.py",
     "copies.get(index, ())",
     "copies.get(max(index - 1, 0), ())",
     [_ORACLE]),
    # +EAT: external attack counts credited to member 0 only
    ("strategies.py",
     "for m in members[r::runs]:",
     "for m in members[:1]:",
     [_ORACLE]),
    # DER group: a member gathers another run's rows
    ("strategies.py",
     "(np.arange(len(members)) % runs)",
     "(np.arange(len(members)) // (len(members) // runs))",
     [_ORACLE]),
    # +EAT: the rows attacked in training an external not counted
    ("strategies.py",
     'm.log.attack_counts["current"] + len(task))',
     "len(task))",
     [_ORACLE]),
    # +EAT: the copy's own rows not counted
    ("strategies.py",
     'm.log.attack_counts["current"] + len(task))',
     'm.log.attack_counts["current"])',
     [_ORACLE]),
    # +EAT: the copy is the clean rows
    ("strategies.py",
     """(attack(single, task.x, one_hot(task.y, single.num_classes), cfg.attack,
                    m.rngs.attack),""",
     "(task.x,",
     [_ORACLE]),
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
    # streams: a task of another input dim let through
    ("datasets.py",
     "if t.x.shape[1] != dim:",
     "if False:",
     ["tests/test_datasets.py::test_task_stream_rejects_tasks_of_two_input_dims"]),
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
    # buffer: batch_step's check of the planned batches dropped
    ("strategies.py",
     "if planned and planned != [size * k for k in (len(members), derpp) if k]:",
     "if False:",
     [_STRAT + "test_a_step_schedule_off_the_plan_raises"]),
    # evaluation: another seed for its attack starts
    ("strategies.py",
     "np.random.default_rng([0, step, t])",
     "np.random.default_rng([1, step, t])",
     [_ORACLE]),
    # DER: another distillation weight
    ("strategies.py",
     "DER_ALPHA = 0.5  # DER's distillation weight",
     "DER_ALPHA = 0.4  # DER's distillation weight",
     [_ORACLE]),
    # DER++: another label weight
    ("strategies.py",
     "DERPP_BETA = 0.5  # DER++'s label weight",
     "DERPP_BETA = 0.4  # DER++'s label weight",
     [_ORACLE]),
    # evaluation: one FGSM step at eps instead of PGD
    ("strategies.py",
     'replace(cfg.attack, kind="pgd")',
     'replace(cfg.attack, kind="fgsm")',
     [_RUNNER + "test_eval_attack_is_pgd_of_the_training_attack"]),
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
