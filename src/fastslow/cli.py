"""Command-line experiment runner.

Usage:
    fastslow run <config> [--out DIR] [--seed N] [--workers N] [--json]
    fastslow list [--json]

``<config>`` is either a path to a config file or the name of a bundled
experiment (see ``fastslow list``). The default output directory is taken
from the FASTSLOW_OUT environment variable, falling back to
``./fastslow-out``. All parallel work flows through streams keyed by task
indices, so outputs are identical for any ``--workers`` value.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

from .experiments import ConfigError, parse_config, run_experiment
from .sde import IntegrationFailure


def bundled_configs() -> dict[str, Path]:
    """Name -> path of the configs shipped with the package."""
    root = resources.files("fastslow").joinpath("configs")
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".cfg"):
            out[entry.name[:-4]] = Path(str(entry))
    return out


def list_experiments() -> list[tuple[str, str]]:
    """(name, one-line description) of every bundled config."""
    rows = []
    for name, path in bundled_configs().items():
        try:
            cfg = parse_config(path, name=name)
            desc = cfg.title or cfg.analysis
        except ConfigError as err:
            desc = f"(broken config: {err})"
        rows.append((name, desc))
    return rows


def _resolve_config(arg: str) -> tuple[Path, str]:
    registry = bundled_configs()
    if arg in registry:
        return registry[arg], arg
    path = Path(arg)
    if not path.exists():
        raise ConfigError(
            f"{arg!r} is neither a bundled experiment nor an existing file; "
            "run 'fastslow list' for bundled names")
    return path, path.stem


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="Run multiscale fast-slow experiments from config files.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="bundled experiment name or config path")
    run_p.add_argument("--out", default=None,
                       help="output directory (default: $FASTSLOW_OUT or "
                            "./fastslow-out)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker pool size (default: hardware parallelism)")
    run_p.add_argument("--json", action="store_true",
                       help="also write JSON mirrors of the CSV outputs")

    list_p = sub.add_parser("list", help="list bundled experiments")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable registry")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        rows = list_experiments()
        if args.json:
            print(json.dumps([{"name": n, "description": d} for n, d in rows],
                             indent=2))
        else:
            width = max(len(n) for n, _ in rows)
            for name, desc in rows:
                print(f"{name:<{width}}  {desc}")
        return 0

    if args.workers is not None and args.workers < 1:
        parser.error(f"argument --workers: must be at least 1, got "
                     f"{args.workers}")
    out_dir = args.out or os.environ.get("FASTSLOW_OUT") or "fastslow-out"
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    try:
        path, name = _resolve_config(args.config)
        with (ThreadPoolExecutor(max_workers=workers) if workers > 1
              else contextlib.nullcontext()) as pool:
            summary, _ = run_experiment(path, out_dir, name=name,
                                        seed=args.seed, executor=pool,
                                        json_mirror=args.json)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (IntegrationFailure, OverflowError, RuntimeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
