"""Command-line front end.

Diagnostics go to stderr; report data goes to files.  Exit codes: 0 success,
1 validation failure, 2 config error, 3 simulator rejected its input or
ran out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .. import __version__
from .config import KINDS, ConfigError, load_config, resolve_config
from .experiments import run_experiment
from .report import write_report
from .validation import CORPUS_SIZE, run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_SIM_INPUT = 3


def _err(message: str) -> None:
    print(f"gemmsim: {message}", file=sys.stderr)


def _run(args: argparse.Namespace) -> int:
    """Run one parsed command; a rejected input raises, and main maps it to its exit code."""
    if args.command == "version":
        print(f"gemmsim {__version__}")
        return EXIT_OK
    if args.command == "validate":
        if args.corpus_size < 1:
            raise ConfigError("--corpus-size must be >= 1")
        report = run_validation(seed=args.seed, corpus_size=args.corpus_size)
        for line in report.lines():
            print(line, file=sys.stderr)
        return EXIT_OK if report.ok else EXIT_VALIDATION
    resolved = resolve_config(load_config(args.config))
    if args.command == "sweep" and not KINDS[resolved["kind"]].sweepable:
        accepted = " or ".join(f"'{kind}'" for kind, spec in KINDS.items() if spec.sweepable)
        raise ConfigError(f"the sweep command needs kind {accepted}, got '{resolved['kind']}'")
    rows = run_experiment(resolved)  # a bad or infeasible point is a ConfigError
    csv_path, sidecar_path = write_report(resolved, rows, __version__)  # so is a bad directory
    _err(f"wrote {csv_path} and {sidecar_path} ({len(rows)} rows)")
    if any(row.get("failures") for row in rows):
        _err("validation: FAIL")
        return EXIT_VALIDATION
    return EXIT_OK


@functools.cache  # built by the first call, not at import, and shared by every later one
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gemmsim",
        description="Simulation workbench for matrix-multiply architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")

    sweep_p = sub.add_parser("sweep", help="execute a parameter-grid config")
    sweep_p.add_argument("config", help="path to a JSON sweep config")

    val_p = sub.add_parser("validate", help="run the cross-simulator oracle suite")
    val_p.add_argument("--seed", type=int, default=0)
    val_p.add_argument("--corpus-size", type=int, default=CORPUS_SIZE)

    sub.add_parser("version", help="print the tool version")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        _err(f"config error: {exc}")
        return EXIT_CONFIG
    except (ValueError, OverflowError) as exc:
        _err(f"simulation input rejected: {exc}")
        return EXIT_SIM_INPUT
    except MemoryError as exc:  # numpy names the allocation; a bare one is empty
        _err(f"simulation input rejected: out of memory{f' ({exc})' if str(exc) else ''}")
        return EXIT_SIM_INPUT


if __name__ == "__main__":
    sys.exit(main())
