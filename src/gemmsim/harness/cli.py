"""Command-line front end.

Diagnostics go to stderr; report data goes to files.  Exit codes: 0 success,
1 validation failure, 2 config error, 3 simulator rejected its input.
"""

from __future__ import annotations

import argparse
import sys

from .. import __version__
from .config import KINDS, ConfigError, load_config, resolve_config
from .experiments import run_experiment, validation_failed
from .report import write_report
from .validation import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_SIM_INPUT = 3


def _err(message: str) -> None:
    print(f"gemmsim: {message}", file=sys.stderr)


def _execute(config_path: str, require_sweep: bool) -> int:
    try:
        resolved = resolve_config(load_config(config_path))
        if require_sweep and not KINDS[resolved["kind"]].sweepable:
            accepted = " or ".join(f"'{kind}'" for kind, spec in KINDS.items() if spec.sweepable)
            raise ConfigError(f"the sweep command needs kind {accepted}, got '{resolved['kind']}'")
    except ConfigError as exc:
        _err(f"config error: {exc}")
        return EXIT_CONFIG

    try:
        rows = run_experiment(resolved)
    except (ValueError, OverflowError) as exc:
        _err(f"simulation input rejected: {exc}")
        return EXIT_SIM_INPUT

    try:
        csv_path, sidecar_path = write_report(resolved, rows, __version__)
    except ConfigError as exc:  # the output directory could not be created
        _err(f"config error: {exc}")
        return EXIT_CONFIG
    _err(f"wrote {csv_path} and {sidecar_path} ({len(rows)} rows)")
    if validation_failed(rows):
        _err("validation: FAIL")
        return EXIT_VALIDATION
    return EXIT_OK


def _run_validate(seed: int, corpus_size: int) -> int:
    report = run_validation(seed=seed, corpus_size=corpus_size)
    for line in report.lines():
        print(line, file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
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
    val_p.add_argument("--corpus-size", type=int, default=200)

    sub.add_parser("version", help="print the tool version")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _execute(args.config, require_sweep=False)
    if args.command == "sweep":
        return _execute(args.config, require_sweep=True)
    if args.command == "validate":
        if args.corpus_size < 1:
            _err("config error: --corpus-size must be >= 1")
            return EXIT_CONFIG
        return _run_validate(args.seed, args.corpus_size)
    if args.command == "version":
        print(f"gemmsim {__version__}")
        return EXIT_OK
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
