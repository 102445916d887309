"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload capture --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` additionally runs a traced phase and prints the
per-layer metrics instead (see README.md).  Human-readable notes go to
stderr; the last stdout line is the result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (Checks, ProgramMissing, emit, pin_to_one_cpu,  # noqa: E402
                    use_program)

WORKLOADS = ("capture", "capture-sampled", "ingest", "warehouse")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    if args.workload.startswith("capture"):
        import wl_capture as module
    elif args.workload == "ingest":
        import wl_ingest as module
    else:
        import wl_warehouse as module
    checks = Checks()
    metrics, notes = module.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), checks)
    emit(checks, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
