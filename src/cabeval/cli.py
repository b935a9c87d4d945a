"""Command line entry points: run, validate, sizing."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import BrokenExecutor

from .config import MODES, ConfigError, parse_config
from .harness import run_experiment
from .replay import StreamFormatError, required_log_length
from .rewards import ActionRange


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabeval",
        description="Offline and online evaluation of continuous-armed bandit policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument(
        "--seed", type=int, dest="master_seed", metavar="SEED", help="override master_seed"
    )
    run_p.add_argument("--out", dest="out_dir", metavar="OUT", help="override output directory")
    run_p.add_argument("--workers", type=int, default=1)

    val_p = sub.add_parser("validate", help="check a config file and exit")
    val_p.add_argument("--config", required=True)

    size_p = sub.add_parser(
        "sizing", help="log length needed for a desired evaluation length"
    )
    size_p.add_argument("--t-prime", type=int, required=True)
    size_p.add_argument("--delta", type=float, required=True)
    size_p.add_argument(
        "--range", type=float, nargs=2, default=[0.0, 1.0], metavar=("LO", "HI")
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "sizing":
        try:
            print(required_log_length(args.t_prime, args.delta, ActionRange(*args.range)))
        except ValueError as exc:
            print(f"sizing error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "run" and args.workers < 1:
        print(f"run error: --workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 2

    # The run flags that override a config field are stored under its name.
    overrides = {
        name: value
        for name in ("mode", "master_seed", "out_dir")
        if (value := getattr(args, name, None)) is not None
    }
    try:
        config = dataclasses.replace(parse_config(args.config), **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"{args.config}: ok ({config.mode} mode, {len(config.policies)} policies)")
        return 0

    try:
        result = run_experiment(config, workers=args.workers)
    except (OSError, StreamFormatError, BrokenExecutor) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote results to {config.out_dir}")
    errors = result.manifest["errors"]
    if errors:
        print(f"{len(errors)} run(s) failed; see manifest.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
