"""Command-line entry point.

Usage::

    hcbmeasure VERB [--config FILE] [--seed N] [--out DIR]
                    [--ordering {interleaved,reordered}]

Verbs: ``integrals``, ``decompose``, ``groups``, ``shots``, ``sample``,
``depth``, ``eigen``.  The configuration file is YAML following the schema
documented in the README and :mod:`hcbmeasure.experiments`; command-line
flags override the corresponding config fields.  On success the command's
summary is printed to stdout as JSON and the exit code is 0; any validation
or I/O failure prints a machine-readable error JSON to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import NoReturn

from .encoding import ORDERINGS
from .experiments import COMMANDS, ExperimentConfig, load_config


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so main reports
    them as error JSON like every other bad input; --help still exits 0."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hcbmeasure",
        description="Measurement-reduction experiments for paired-electron "
                    "Hamiltonians: integral generation, iterative grouping "
                    "protocol, baselines, shot estimates, finite-shot "
                    "simulation, and circuit-depth accounting.",
    )
    parser.add_argument("verb", choices=sorted(COMMANDS),
                        help="which experiment stage to run")
    parser.add_argument("--config", metavar="FILE",
                        help="YAML experiment configuration (defaults apply "
                             "when omitted)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="override the sampling seed")
    parser.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    parser.add_argument("--ordering", choices=list(ORDERINGS),
                        help="override the orbital-to-qubit ordering")
    return parser


def _apply_overrides(config: ExperimentConfig,
                     args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["output_dir"] = args.out
    if args.ordering is not None:
        updates["ordering"] = args.ordering
    return dataclasses.replace(config, **updates) if updates else config


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config) if args.config else ExperimentConfig()
        config = _apply_overrides(config, args)
        payload = COMMANDS[args.verb](config)
    except Exception as exc:  # noqa: BLE001 - boundary: everything becomes exit 1
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
