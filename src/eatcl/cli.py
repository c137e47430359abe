"""Command-line front end.

Subcommands:

* ``run <config>`` — execute the experiment grid and write artifacts.
* ``validate <config>`` — check a config and its first seed's data, no training.
* ``grid <model.json>`` — decision-boundary grid CSV from a saved model.
* ``report <out_dir> [<out_dir> ...]`` — reprint the summary tables of
  finished runs, in the order given.

The output root defaults to ``--out``, then the EATCL_OUT environment
variable, then ``runs/<experiment>`` under the working directory.
"""

from __future__ import annotations

import argparse
import math
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
    runner.build_streams(cfg, cfg["seeds"][0])  # dataset values the generators reject
    print(f"ok: {cfg['experiment']} "
          f"({len(cfg['strategies'])} strategies x {len(cfg['seeds'])} seeds, "
          f"dataset={cfg['dataset']})")
    return 0


def _cmd_grid(args) -> int:
    if args.res < 2:
        print(f"--res must be >= 2, got {args.res}", file=sys.stderr)
        return 2
    bounds = args.bounds  # XLO XHI YLO YHI
    if bounds is not None and not all(map(math.isfinite, bounds)):
        print(f"--bounds must be finite, got {bounds}", file=sys.stderr)
        return 2
    try:
        model, stored = runner.load_model_json(args.model)
        if bounds is None and stored is not None:  # the grid uses the stored bounds
            (lo_x, hi_x), (lo_y, hi_y) = stored["x"], stored["y"]
            bounds = [float(v) for v in (lo_x, hi_x, lo_y, hi_y)]
            if not all(map(math.isfinite, bounds)):
                raise ValueError(f"stored bounds must be finite, got {stored}")
    except (ValueError, KeyError, TypeError) as exc:
        print(f"unreadable model artifact {args.model}: {exc!r}", file=sys.stderr)
        return 2
    if bounds is None:
        print("model artifact has no stored bounds; pass --bounds XLO XHI YLO YHI",
              file=sys.stderr)
        return 2
    if model.input_dim != 2:
        print(f"grids need a 2-d input model, this one takes {model.input_dim}",
              file=sys.stderr)
        return 2
    out = args.out or (os.path.splitext(args.model)[0] + ".grid.csv")
    lo_x, hi_x, lo_y, hi_y = bounds
    runner.write_grid_csv(model, {"x": [lo_x, hi_x], "y": [lo_y, hi_y]}, args.res, out)
    print(f"grid written to {out}")
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

    p = sub.add_parser("grid", help="boundary grid CSV from a saved model")
    p.add_argument("model", help="model artifact JSON")
    p.add_argument("--res", type=int, default=120, help="grid resolution per axis")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--bounds", type=float, nargs=4, default=None,
                   metavar=("XLO", "XHI", "YLO", "YHI"))
    p.set_defaults(func=_cmd_grid)

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
    except FileNotFoundError as exc:
        print(f"not found: {exc.filename}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
