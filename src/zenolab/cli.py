"""Command-line entry point.

One executable, one subcommand per task. Exit codes: 0 success, 1 the run
finished but flagged warnings (NonExponential, NoCrossing, Indeterminate),
2 a configuration or runtime error, a failed write to stdout or an
interrupt, reported as one ``error:`` line on stderr without a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import ConfigError, ZenoLabError
from .scenarios import TASKS, load_config, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zenolab", description="Iterated-measurement dynamics laboratory")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a {task} scenario")
        p.add_argument("--config", required=True, help="path to the YAML scenario config")
        p.add_argument("--out", default=None, help="output directory (default: config output_path)")
        p.add_argument("--seed", type=int, default=None, help="replace every seed key; sweep run i of n gets seed*n+i")
        p.add_argument("--quiet", action="store_true", help="suppress the report printout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report = None
    try:
        config = load_config(args.config, args.seed)
        if config.task != args.task:
            raise ConfigError(f"task: config declares {config.task!r} but subcommand is {args.task!r}")
        report = run_scenario(config, out_dir=args.out)
        if not args.quiet:
            lines = [f"task: {report.task}", *(f"  {key}: {value}" for key, value in report.headline.items())]
            lines += [f"  warning: {w}" for w in report.warnings] + [f"  wrote: {p}" for p in report.csv_paths]
            print("\n".join(lines), flush=True)
        return 1 if report.warnings else 0
    except KeyboardInterrupt:
        text = "interrupted"
    except Exception as exc:
        # every failure, a crash or a failed write to stdout included, is exit 2 with one line; exit 1 means warnings
        text = str(exc) if isinstance(exc, ZenoLabError) else f"{type(exc).__name__}: {exc}"
        if report is not None:  # stdout failed (EPIPE, ENOSPC): point it at os.devnull, so exit flushes write nowhere
            with contextlib.suppress(AttributeError, ValueError):  # a stdout with no file descriptor is left as it is
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
    print("error: " + " ".join(text.split()), file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
