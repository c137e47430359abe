"""Command-line front end.

Subcommands:

* ``run <config>`` — execute the experiment grid and write artifacts.
* ``validate <config>`` — check a config and every seed's data, no training.
* ``report <out_dir> [<out_dir> ...]`` — reprint the summary tables of
  finished runs, in the order given.

The output root defaults to ``--out``, then the EATCL_OUT environment
variable, then ``runs/<experiment>`` under the working directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import runner
from .runner import ConfigError


def _read_config(path: str) -> dict:
    with open(path) as fh:
        return runner.parse_config(fh.read())


def _cmd_run(args) -> int:
    cfg = _read_config(args.config)
    if args.seed is not None:  # validated, and written to config.resolved.conf
        cfg = runner.parse_config(runner.emit_config({**cfg, "seeds": (args.seed,)}))
    if args.out is not None:
        out_dir = args.out
    else:
        root = os.environ.get("EATCL_OUT", "runs")
        out_dir = os.path.join(root, cfg["experiment"])
    runner.run_experiment(cfg, out_dir, quiet=args.quiet)
    if not args.quiet:
        print(f"artifacts written to {out_dir}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _read_config(args.config)
    runner.grid_streams(cfg)  # dataset values the generators reject, as run does
    print(f"ok: {cfg['experiment']} "
          f"({len(cfg['strategies'])} strategies x {len(cfg['seeds'])} seeds, "
          f"dataset={cfg['dataset']})")
    return 0


def _cmd_report(args) -> int:
    tables = []  # every summary is read before anything is printed
    for out_dir in args.out_dirs:
        try:
            tables.append(runner.format_summary_table(runner.load_summary(out_dir)))
        except (ValueError, KeyError, TypeError) as exc:
            print(f"unreadable summary in {out_dir}: {exc!r}", file=sys.stderr)
            return 2
    print("\n".join(tables))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eatcl",
        description="Continual-learning robustness experiments on toy data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config", help="path to a key = value config file")
    p.add_argument("--seed", type=int, default=None,
                   help="run only this seed (overrides the config's list)")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines and the final table")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="check a config without running it")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="reprint the summary tables of runs")
    p.add_argument("out_dirs", nargs="+", metavar="out_dir")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that is missing or not of the kind needed
        reason = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"{reason}: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
