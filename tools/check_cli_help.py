#!/usr/bin/env python
"""Check ``osprof <path> --help`` for every command path.

Each subcommand adds its arguments on first use, importing what they
need where they are built.  This runs ``python -m repro.cli <path>
--help`` in a fresh interpreter for every path from ``osprof`` down to
``osprof db baseline rm``, so a builder whose import fails only when it
is the first one fails here.  Each run must exit 0 and print ``usage:
osprof <path>``.  The paths come from ``build_parser()``, so a new
subcommand is covered without editing this script.

    PYTHONPATH=src python tools/check_cli_help.py
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from typing import Iterator, Tuple

from repro.cli import build_parser


def command_paths(parser: argparse.ArgumentParser,
                  prefix: Tuple[str, ...] = ()) -> Iterator[Tuple[str, ...]]:
    """Every command path under *parser*, parents before children."""
    parser.format_usage()  # builds the subcommand's arguments
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from command_paths(sub, prefix + (name,))


def main() -> int:
    failures = 0
    paths = list(command_paths(build_parser()))
    for path in paths:
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", *path, "--help"],
            capture_output=True, text=True, timeout=60)
        usage = " ".join(("usage: osprof",) + path) + " "
        if out.returncode != 0 or not out.stdout.startswith(usage):
            failures += 1
            print(f"FAIL osprof {' '.join(path)} --help: exit "
                  f"{out.returncode}\n{out.stdout}{out.stderr}")
    print(f"{len(paths) - failures}/{len(paths)} command paths print "
          f"their help")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
