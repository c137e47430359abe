"""Differential fuzzing of train_streams against the reference trainer.

Draws grids the way the tier-1 oracle test
test_strategies.py::test_train_streams_equals_reference_trainer_on_drawn_configs
does (drawn_grid), many more of them, trains each with one train_streams
call and compares every run with reference.train_alone bit for bit
(reference_disagreements). Run as a script from anywhere, for changes to
strategies, replay, nets or attacks:

    python tests/fuzz.py [--examples 2000] [--seed 0]

It prints the number of grids trained, the seconds taken and each grid
with a disagreement, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from hypothesis import HealthCheck, Phase, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_strategies import drawn_grid, reference_disagreements  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=2000, help="grids to train")
    parser.add_argument("--seed", type=int, default=0, help="hypothesis seed")
    args = parser.parse_args(argv)
    trained, failures = [0], []

    @seed(args.seed)
    @settings(max_examples=args.examples, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(st.data())
    def fuzz(data):
        streams, tests, strategies, cfg, seeds = drawn_grid(data.draw)
        trained[0] += 1
        found = reference_disagreements(streams, tests, strategies, cfg, seeds)
        if found:
            shape = [(len(t), t.input_dim) for t in streams[0].tasks]
            failures.append((strategies, cfg, seeds, shape, found))
            print(f"DISAGREE: strategies {strategies}, seeds {seeds}, tasks (rows, dim) "
                  f"{shape}, {cfg}: {found}", flush=True)

    started = time.perf_counter()
    fuzz()
    print(f"{trained[0]} grids in {time.perf_counter() - started:.1f} s, "
          f"{len(failures)} with disagreements")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
