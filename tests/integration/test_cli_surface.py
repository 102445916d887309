"""The ``osprof`` argument surface, pinned.

``cli_surface.json`` records, for every command path from ``osprof``
down to ``osprof db baseline rm``, each argument's option strings,
dest, nargs, default, choices, required flag, metavar and help, plus
the action and type.  It holds no formatted help text, which differs
between Python versions, so the file is the same on all of them.

Subcommands add their arguments on first use, so the walk formats each
parser's usage first, which builds it.  After an intended change to the
command line, regenerate the pin with::

    PYTHONPATH=src python tests/integration/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

PIN = Path(__file__).resolve().parent / "cli_surface.json"


def describe(action: argparse.Action) -> dict:
    choices = action.choices
    if isinstance(action, argparse._SubParsersAction):
        choices = [[choice.dest, choice.help]
                   for choice in action._choices_actions]
    elif choices is not None:
        choices = list(choices)
    return {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "nargs": action.nargs,
        "default": repr(action.default),
        "type": getattr(action.type, "__name__", action.type),
        "choices": choices,
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
    }


def surface(parser: argparse.ArgumentParser) -> dict:
    """Every command path's arguments, keyed by the path's ``prog``."""
    parser.format_usage()
    found = {parser.prog: [describe(a) for a in parser._actions]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found.update(surface(sub))
    return found


def test_argument_surface_matches_pin():
    pinned = json.loads(PIN.read_text())
    current = surface(build_parser())
    assert sorted(current) == sorted(pinned)
    for path, actions in pinned.items():
        assert current[path] == actions, path


if __name__ == "__main__":
    # One action per line, so a change to the surface diffs as one line.
    PIN.write_text("{\n" + ",\n".join(
        f"{json.dumps(path)}: [\n"
        + ",\n".join(f"  {json.dumps(action)}" for action in actions)
        + "\n]" for path, actions in surface(build_parser()).items())
        + "\n}\n")
    print(f"wrote {PIN}")
