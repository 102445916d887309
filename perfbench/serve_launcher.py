"""Run ``osprof serve`` in this process, optionally with the tracer.

Usage, from the root of a checkout::

    python3 perfbench/serve_launcher.py [--trace-out PATH] serve ARGS...

Without ``--trace-out`` this is exactly ``osprof serve ARGS...``.  With
it, the boundary wrappers of :mod:`tracer` are installed before the CLI
starts, and the counters are written to PATH as JSON when the server
exits (on SIGINT, like any ``osprof serve``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_program  # noqa: E402


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    use_program()
    from repro.cli import main as cli_main
    if trace_out is None:
        return cli_main(argv)
    import tracer
    active = tracer.Tracer().install()
    try:
        return cli_main(argv)
    finally:
        active.uninstall()
        Path(trace_out).write_text(json.dumps(active.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
