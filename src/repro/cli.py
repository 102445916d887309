"""The ``osprof`` command line: run, render, compare, analyze.

The paper shipped "several scripts to generate formatted text views and
Gnuplot scripts" plus the automated comparison tool.  This module rolls
them into one CLI over the library:

* ``osprof run <workload>`` — run a workload on a simulated machine and
  write the captured profile set (text or binary format) to stdout or a
  file; ``--shards``/``--workers`` split the run across worker
  processes and merge the per-shard profiles.
* ``osprof merge <dump>...`` — fold several saved profile sets into one.
* ``osprof render <dump>`` — ASCII figures from a saved profile set.
* ``osprof peaks <dump>`` — peak detection + characteristic-time
  attribution.
* ``osprof compare <a> <b>`` — the three-phase automated selector over
  two profile sets, with a choice of metric.
* ``osprof sampled <workload>`` — run with time-segmented (3-D)
  profiling and render the Figure 9-style density map.
* ``osprof gnuplot <dump>`` — Gnuplot-ready data blocks.
* ``osprof serve`` — run the continuous profiling service: TCP
  ingestion of binary profiles, a rolling time-segmented store, and
  online differential alerting.
* ``osprof relay --upstream <host:port>`` — run a leaf of the fleet
  aggregation tree: accept pushes like a server, spool them durably,
  and forward canonically merged batches upstream.
* ``osprof push <host:port>`` — stream saved dumps, or live workload
  segments (``--workload``), to a running service.
* ``osprof top <host:port>`` — live auto-refreshing view of the
  service's sampled wait states: the hottest (state, layer, op,
  wait_site) cells of the rolling state window, fed by
  ``osprof run --sample-interval`` + ``osprof push --samples``.
* ``osprof watch <host:port>`` — follow the service's alert log (and
  optionally its plaintext metrics page).
* ``osprof trace <workload>`` — per-request cross-layer event slices
  from the probe pipeline's unified stream.
* ``osprof db {ingest,query,sql,compact,gc,scrub,baseline,gate}`` —
  the durable profile warehouse: persist closed segments, query time
  ranges, run SQL-style analytics over the stored history (local
  directory or live service), tier-compact aged history, re-verify
  every committed byte in place (``scrub``, exit 3 on unrepaired
  damage; ``--repair`` restores from a ``--mirror`` tree), manage
  named baselines, and gate a fresh capture against a stored baseline
  (nonzero exit on breach).

All dump-reading commands auto-detect the format, so text and binary
profiles mix freely.

Examples::

    osprof run grep --scale 0.02 -o before.prof
    osprof run grep --scale 0.02 --patched-llseek -o after.prof
    osprof run randomread --shards 4 --workers 4 --format binary -o rr.ospb
    osprof run --list-scenarios
    osprof run --scenario ssd-gc --layer driver -o ssd.prof
    osprof merge rr.ospb other.prof -o merged.prof
    osprof compare before.prof after.prof --metric emd
    osprof compare before.prof after.prof --threshold emd=0.5
    osprof render after.prof --op readdir
    osprof serve --port 7461 --segment-seconds 5 --db /var/osprof/db &
    osprof relay --upstream 127.0.0.1:7461 --port 7462 --dir /var/osprof/leaf &
    osprof push 127.0.0.1:7462 --workload randomread --segments 3
    osprof watch 127.0.0.1:7461 --once --metrics
    osprof db ingest --db wh --source web rr.ospb
    osprof db query --db wh --source web --since 0 --until 99 -o out.prof
    osprof db sql "SELECT op, count() GROUP BY op ORDER BY count() DESC" \\
        --db wh
    osprof db baseline save clean --db wh --from before.prof
    osprof db gate after.prof --db wh --baseline clean
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import (TYPE_CHECKING, Callable, List, Optional, Sequence,
                    Tuple)

# Module level keeps only what every start needs.  Each subcommand's
# builder imports what its arguments need and each handler what it runs,
# so a start pays only for the subcommand it runs.
if TYPE_CHECKING:
    import threading

    from .core.profileset import ProfileSet

__all__ = ["main", "build_parser"]

_Builder = Callable[[argparse.ArgumentParser], None]

#: One subcommand: its name, its help line, the builder that adds its
#: arguments, and the handler that runs it (``None`` for a group whose
#: own subcommands carry the handlers).
_Command = Tuple[str, str, _Builder,
                 Optional[Callable[[argparse.Namespace], int]]]


class _Parser(argparse.ArgumentParser):
    """An argument parser that adds its arguments on first use.

    ``build(parser)`` runs once, the first time the parser parses or
    formats its usage or help.  Its name and help line are registered
    with its parent up front, so ``osprof --help`` and the
    invalid-choice errors still list every subcommand.
    """

    def __init__(self, *args, build: Optional[_Builder] = None,
                 **kwargs):
        super().__init__(*args, **kwargs)
        self._build = build

    def _ensure_built(self) -> None:
        build, self._build = self._build, None
        if build is not None:
            build(self)

    def parse_known_args(self, args=None, namespace=None):
        self._ensure_built()
        return super().parse_known_args(args, namespace)

    def format_usage(self) -> str:
        self._ensure_built()
        return super().format_usage()

    def format_help(self) -> str:
        self._ensure_built()
        return super().format_help()


def _add_commands(parser: argparse.ArgumentParser, dest: str,
                  commands: Sequence[_Command]) -> None:
    """Register *commands* under *parser*; each builds on first use."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help, build, handler in commands:
        sub.add_parser(name, help=help, build=build).set_defaults(
            handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="osprof",
        description="OSprof: latency profiling of a simulated OS")
    _add_commands(parser, "command", _COMMANDS)
    return parser


def _port_number(text: str) -> int:
    """A ``--port`` value: 0 (pick a free port) through 65535."""
    try:
        port = int(text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a port number (0-65535)")
    return port


def _build_run(run: argparse.ArgumentParser) -> None:
    from .workloads.runner import WORKLOAD_NAMES
    run.add_argument("workload", choices=WORKLOAD_NAMES, nargs="?",
                     default=None,
                     help="workload to drive (optional when --scenario "
                          "supplies one)")
    run.add_argument("--scenario", default=None, metavar="NAME",
                     help="build the machine from a scenario registry "
                          "row (device model + workload defaults); see "
                          "--list-scenarios")
    run.add_argument("--list-scenarios", action="store_true",
                     help="print the scenario registry and exit")
    # fs/scale/processes/iterations default to None here so cmd_run can
    # resolve precedence: explicit flag > scenario default > global
    # default (ext2 / 0.02 / 2 / 1000).
    run.add_argument("--fs", choices=("ext2", "reiserfs"),
                     default=None)
    run.add_argument("--cpus", type=int, default=1)
    run.add_argument("--seed", type=int, default=2006)
    run.add_argument("--scale", type=float, default=None,
                     help="source tree scale (grep)")
    run.add_argument("--processes", type=int, default=None)
    run.add_argument("--iterations", type=int, default=None)
    run.add_argument("--patched-llseek", action="store_true")
    run.add_argument("--kernel-preemption", action="store_true")
    run.add_argument("--layer", choices=("user", "fs", "driver"),
                     default="fs", help="which profile layer to dump")
    run.add_argument("--shards", type=int, default=None,
                     help="split the workload into N shards "
                          "(default: --workers)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes collecting shards in parallel")
    run.add_argument("--format", choices=("text", "binary"),
                     default="text", help="output format")
    run.add_argument("-o", "--output", default="-",
                     help="output file ('-' = stdout)")
    run.add_argument("--deadline", type=float, default=None,
                     help="per-shard attempt deadline in seconds "
                          "(pooled runs; hung workers are retried)")
    run.add_argument("--shard-retries", type=int, default=2,
                     help="retries per crashed/hung/corrupt shard")
    run.add_argument("--salvage", action="store_true",
                     help="merge surviving shards if one fails every "
                          "retry, marking the result degraded")
    run.add_argument("--spool-dir", default=None,
                     help="append the collected profile to an on-disk "
                          "push spool (drained by 'osprof push "
                          "--spool-dir')")
    run.add_argument("--sample-interval", type=float, default=None,
                     metavar="SECONDS",
                     help="also arm the wait-state sampler, ticking "
                          "every SECONDS of simulated time (single "
                          "shard only; the measured profile is "
                          "byte-identical either way)")
    run.add_argument("--samples-output", default=None, metavar="PATH",
                     help="where the sampled state profile lands "
                          "(default: <output>.osps, or samples.osps "
                          "when dumping to stdout)")


def _build_merge(merge: argparse.ArgumentParser) -> None:
    merge.add_argument("dumps", nargs="+",
                       help="profile dumps (text or binary, auto-detected)")
    merge.add_argument("--format", choices=("text", "binary"),
                       default="text", help="output format")
    merge.add_argument("-o", "--output", default="-",
                       help="output file ('-' = stdout)")


def _build_render(render: argparse.ArgumentParser) -> None:
    render.add_argument("dump")
    render.add_argument("--op", action="append", default=None,
                        help="operation(s) to render (default: all)")
    render.add_argument("--top", type=int, default=None,
                        help="only the N highest-latency operations")


def _build_peaks(peaks: argparse.ArgumentParser) -> None:
    peaks.add_argument("dump")
    peaks.add_argument("--min-ops", type=int, default=5)


def _build_compare(compare: argparse.ArgumentParser) -> None:
    from .analysis.compare import METRICS
    compare.add_argument("dump_a")
    compare.add_argument("dump_b")
    compare.add_argument("--metric", choices=sorted(METRICS),
                         default="emd")
    compare.add_argument("--limit", type=int, default=None)
    compare.add_argument("--threshold", action="append", default=None,
                         metavar="METRIC=VALUE",
                         help="fail (exit 3) if any operation's score "
                              "under METRIC exceeds VALUE; repeatable")
    compare.add_argument("--min-ops", type=int, default=1,
                         help="operations sparser than this on both "
                              "sides are skipped by --threshold")


def _build_gnuplot(gnuplot: argparse.ArgumentParser) -> None:
    gnuplot.add_argument("dump")


def _build_sampled(sampled: argparse.ArgumentParser) -> None:
    sampled.add_argument("workload", choices=("grep", "compile"))
    sampled.add_argument("--fs", choices=("ext2", "reiserfs", "ntfs"),
                         default="reiserfs")
    sampled.add_argument("--seed", type=int, default=2006)
    sampled.add_argument("--scale", type=float, default=0.02)
    sampled.add_argument("--interval", type=float, default=2.5,
                         help="segment length in seconds")
    sampled.add_argument("--duration", type=float, default=12.0,
                         help="run length in seconds")
    sampled.add_argument("--op", action="append", default=None,
                         help="operation(s) to render")
    sampled.add_argument("--splot", action="store_true",
                         help="emit gnuplot splot data instead of ASCII")


def _build_serve(serve: argparse.ArgumentParser) -> None:
    from .analysis.compare import METRICS
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port_number, default=7461,
                       help="TCP port (0 = pick a free one)")
    serve.add_argument("--segment-seconds", type=float, default=10.0,
                       help="rolling store segment length")
    serve.add_argument("--retention", type=int, default=360,
                       help="closed segments kept in the ring")
    serve.add_argument("--baseline", type=int, default=4,
                       help="segments merged into the alert baseline")
    serve.add_argument("--metric", choices=sorted(METRICS), default="emd")
    serve.add_argument("--threshold", type=float, default=0.5,
                       help="metric score that raises an alert")
    serve.add_argument("--min-ops", type=int, default=50,
                       help="operations sparser than this never alert")
    serve.add_argument("--read-timeout", type=float, default=60.0,
                       help="per-connection read timeout in seconds")
    serve.add_argument("--max-frame-mb", type=float, default=64.0,
                       help="largest accepted frame payload (MB)")
    serve.add_argument("--max-pending", type=int, default=8,
                       help="in-flight pushes before RETRY_AFTER "
                            "backpressure")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       help="seconds to wait for in-flight connections "
                            "on shutdown")
    serve.add_argument("--db", default=None, metavar="DIR",
                       help="durable warehouse directory: closed "
                            "segments are flushed to it and the alert "
                            "baseline is seeded from its history")
    serve.add_argument("--db-mirror", default=None, metavar="DIR",
                       help="mirror tree double-committed with every "
                            "warehouse segment (see 'osprof db scrub')")
    serve.add_argument("--db-source", default="service",
                       help="warehouse source name for flushed segments")
    serve.add_argument("--flush-batch", type=int, default=1,
                       help="closed segments accumulated before one "
                            "batched warehouse commit (single fsync)")


def _build_relay(relay: argparse.ArgumentParser) -> None:
    relay.add_argument("--upstream", required=True, metavar="HOST:PORT",
                       help="parent to forward merged batches to "
                            "(a root service or another relay)")
    relay.add_argument("--host", default="127.0.0.1")
    relay.add_argument("--port", type=_port_number, default=7462,
                       help="TCP port to accept pushes on (0 = free)")
    relay.add_argument("--dir", default=None, metavar="DIR",
                       help="durable relay state + spool directory "
                            "(default: a temp dir, not crash-safe)")
    relay.add_argument("--batch", type=int, default=64,
                       help="spooled pushes merged into one upstream "
                            "push")
    relay.add_argument("--flush-interval", type=float, default=1.0,
                       help="seconds between partial-batch forwards")
    relay.add_argument("--read-timeout", type=float, default=60.0,
                       help="per-connection read timeout in seconds")
    relay.add_argument("--max-frame-mb", type=float, default=64.0,
                       help="largest accepted frame payload (MB)")
    relay.add_argument("--max-pending", type=int, default=64,
                       help="in-flight pushes before RETRY_AFTER "
                            "backpressure")
    relay.add_argument("--retries", type=int, default=4,
                       help="retry budget per upstream push")
    relay.add_argument("--drain-timeout", type=float, default=5.0,
                       help="seconds to wait for in-flight connections "
                            "on shutdown")


def _build_push(push: argparse.ArgumentParser) -> None:
    from .workloads.runner import WORKLOAD_NAMES
    push.add_argument("endpoint", help="service address, host:port")
    push.add_argument("dumps", nargs="*",
                      help="saved profile dumps to push "
                           "(text or binary, auto-detected)")
    push.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                      help="collect live segments instead of "
                           "pushing saved dumps")
    push.add_argument("--segments", type=int, default=1,
                      help="live segments to collect and push")
    push.add_argument("--fs", choices=("ext2", "reiserfs"), default="ext2")
    push.add_argument("--cpus", type=int, default=1)
    push.add_argument("--seed", type=int, default=2006)
    push.add_argument("--scale", type=float, default=0.02)
    push.add_argument("--processes", type=int, default=2)
    push.add_argument("--iterations", type=int, default=1000)
    push.add_argument("--layer", choices=("user", "fs", "driver"),
                      default="fs")
    push.add_argument("--patched-llseek", action="store_true")
    push.add_argument("--retries", type=int, default=4,
                      help="retry budget per push before giving up")
    push.add_argument("--backoff", type=float, default=0.05,
                      help="base reconnect backoff in seconds "
                           "(grows exponentially, full jitter)")
    push.add_argument("--spool-dir", default=None,
                      help="crash-safe on-disk spool; pushes survive a "
                           "down server and drain on reconnect (alone: "
                           "just drain the spool)")
    push.add_argument("--samples", action="append", default=None,
                      metavar="PATH",
                      help="also push saved wait-state sample profiles "
                           "(.osps from 'osprof run --sample-interval'); "
                           "repeatable")


def _build_trace(trace: argparse.ArgumentParser) -> None:
    from .workloads.runner import WORKLOAD_NAMES
    trace.add_argument("workload", choices=WORKLOAD_NAMES, nargs="?",
                       default=None,
                       help="workload to trace (optional when "
                            "--scenario supplies one)")
    trace.add_argument("--scenario", default=None, metavar="NAME",
                       help="trace on a scenario's device model "
                            "(see 'osprof run --list-scenarios')")
    trace.add_argument("--fs", choices=("ext2", "reiserfs"),
                       default=None)
    trace.add_argument("--cpus", type=int, default=1)
    trace.add_argument("--seed", type=int, default=2006)
    trace.add_argument("--scale", type=float, default=None)
    trace.add_argument("--processes", type=int, default=None)
    trace.add_argument("--iterations", type=int, default=None)
    trace.add_argument("--requests", type=int, default=10,
                       help="print the N slowest requests")
    trace.add_argument("--limit", type=int, default=200_000,
                       help="cap on retained trace events")


def _build_top(top: argparse.ArgumentParser) -> None:
    top.add_argument("endpoint", help="service address, host:port")
    top.add_argument("--lines", type=int, default=10,
                     help="hottest (state, wait_site) rows per frame")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (no screen clear)")


def _build_watch(watch: argparse.ArgumentParser) -> None:
    watch.add_argument("endpoint", help="service address, host:port")
    watch.add_argument("--poll", type=float, default=2.0,
                       help="seconds between polls")
    watch.add_argument("--once", action="store_true",
                       help="print the current state and exit")
    watch.add_argument("--metrics", action="store_true",
                       help="also print the plaintext metrics page")
    watch.add_argument("--reconnect-cap", type=float, default=5.0,
                       help="cap on the reconnect backoff in seconds")


def _build_db(db: argparse.ArgumentParser) -> None:
    _add_commands(db, "db_command", _DB_COMMANDS)


def _build_db_baseline(baseline: argparse.ArgumentParser) -> None:
    _add_commands(baseline, "baseline_command", _BASELINE_COMMANDS)


def _add_db_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--db", required=True, metavar="DIR",
                   help="warehouse directory")
    p.add_argument("--mirror", default=None, metavar="DIR",
                   help="mirror tree double-committed with every "
                        "segment (the redundancy 'scrub --repair' "
                        "restores from)")


def _add_db_policy(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fanout", type=int, default=4,
                   help="epoch-width ratio between adjacent tiers")
    p.add_argument("--keep", default="8,8,8",
                   help="comma-separated per-tier retention "
                        "(windows kept hot before aging)")


def _build_db_ingest(ingest: argparse.ArgumentParser) -> None:
    _add_db_dir(ingest)
    ingest.add_argument("dumps", nargs="+",
                        help="profile dumps (text or binary)")
    ingest.add_argument("--source", required=True,
                        help="source name the segments file under")
    ingest.add_argument("--epoch", type=int, default=None,
                        help="base epoch of the first dump (later dumps "
                             "get consecutive epochs); default appends "
                             "after everything stored")


def _build_db_query(query: argparse.ArgumentParser) -> None:
    _add_db_dir(query)
    query.add_argument("--source", required=True)
    query.add_argument("--layer", default=None,
                       help="restrict to one capture layer")
    query.add_argument("--op", default=None,
                       help="restrict to one operation")
    query.add_argument("--since", type=int, default=None, metavar="T0",
                       help="first base epoch (inclusive)")
    query.add_argument("--until", type=int, default=None, metavar="T1",
                       help="last base epoch (inclusive)")
    query.add_argument("--format", choices=("text", "binary"),
                       default="text")
    query.add_argument("-o", "--output", default="-")


def _build_db_sql(dbsql: argparse.ArgumentParser) -> None:
    dbsql.add_argument("query",
                       help="the SELECT statement (quote it; see "
                            "docs/QUERY.md)")
    dbsql.add_argument("--db", default=None, metavar="DIR",
                       help="warehouse directory to query")
    dbsql.add_argument("--endpoint", default=None, metavar="HOST:PORT",
                       help="query a live 'osprof serve --db' service "
                            "instead of a local directory")
    dbsql.add_argument("--format", choices=("table", "csv", "json"),
                       default="table",
                       help="output format (default: table)")


def _build_db_compact(compact: argparse.ArgumentParser) -> None:
    _add_db_dir(compact)
    _add_db_policy(compact)
    compact.add_argument("--source", default=None,
                         help="one source (default: all)")


def _build_db_gc(gc: argparse.ArgumentParser) -> None:
    _add_db_dir(gc)
    _add_db_policy(gc)
    gc.add_argument("--source", default=None,
                    help="one source (default: all)")


def _build_db_scrub(scrub: argparse.ArgumentParser) -> None:
    _add_db_dir(scrub)
    scrub.add_argument("--repair", action="store_true",
                       help="restore quarantined segments from the "
                            "--mirror tree (byte-identity re-checked)")


def _build_db_baseline_save(bl_save: argparse.ArgumentParser) -> None:
    _add_db_dir(bl_save)
    bl_save.add_argument("name")
    bl_save.add_argument("--from", dest="from_file", default=None,
                         metavar="DUMP",
                         help="take the baseline from a profile dump")
    bl_save.add_argument("--source", default=None,
                         help="or build it from a warehouse query")
    bl_save.add_argument("--layer", default=None)
    bl_save.add_argument("--op", default=None)
    bl_save.add_argument("--since", type=int, default=None)
    bl_save.add_argument("--until", type=int, default=None)


def _build_db_baseline_rm(bl_rm: argparse.ArgumentParser) -> None:
    _add_db_dir(bl_rm)
    bl_rm.add_argument("name")


def _build_db_gate(gate: argparse.ArgumentParser) -> None:
    _add_db_dir(gate)
    gate.add_argument("capture", help="fresh profile dump to judge")
    gate.add_argument("--baseline", required=True,
                      help="stored baseline name")
    gate.add_argument("--threshold", action="append", default=None,
                      metavar="METRIC=VALUE",
                      help="breach rule; repeatable "
                           "(default: emd=0.5 chi_squared=1.0)")
    gate.add_argument("--min-ops", type=int, default=1,
                      help="operations sparser than this on both sides "
                           "are skipped")


def _load(path: str) -> ProfileSet:
    from .core.profileset import ProfileSet
    return ProfileSet.load_path(path)


def _write_pset(pset: ProfileSet, output: str, format: str) -> None:
    if output == "-":
        if format == "binary":
            sys.stdout.buffer.write(pset.to_bytes())
        else:
            sys.stdout.write(pset.dumps())
        return
    pset.save(output, format=format)
    print(f"wrote {len(pset)} operation profiles "
          f"({pset.total_ops()} requests) to {output}",
          file=sys.stderr)


def cmd_run(args) -> int:
    from .scenarios import (UnknownScenarioError, get_scenario,
                            render_scenarios)
    if args.list_scenarios:
        print(render_scenarios())
        return 0
    from .core.shard import DEGRADED_ATTRIBUTE, collect_sharded
    scenario = None
    if args.scenario is not None:
        try:
            scenario = get_scenario(args.scenario)
        except UnknownScenarioError as exc:
            print(f"osprof run: {exc}", file=sys.stderr)
            return 2
    workload = args.workload
    if workload is None:
        if scenario is None:
            print("osprof run: give a workload or --scenario",
                  file=sys.stderr)
            return 2
        workload = scenario.workload

    # Explicit flags beat scenario defaults beat the global defaults.
    def resolve(explicit, scenario_value, fallback):
        if explicit is not None:
            return explicit
        if scenario_value is not None:
            return scenario_value
        return fallback

    fs_type = resolve(args.fs, scenario.fs_type if scenario else None,
                      "ext2")
    scale = resolve(args.scale, scenario.scale if scenario else None,
                    0.02)
    processes = resolve(args.processes,
                        scenario.processes if scenario else None, 2)
    iterations = resolve(args.iterations,
                         scenario.iterations if scenario else None, 1000)
    shards = args.shards if args.shards is not None else max(args.workers, 1)
    if args.sample_interval is not None:
        from .sim.engine import seconds
        from .workloads.runner import collect_sampled_run
        if args.sample_interval <= 0:
            print("osprof run: --sample-interval must be positive",
                  file=sys.stderr)
            return 2
        if shards != 1:
            print("osprof run: --sample-interval needs a single shard "
                  "(drop --shards/--workers)", file=sys.stderr)
            return 2
        # Same seed derivation as the one-shard plan, so the measured
        # profile is byte-identical to an unsampled `osprof run`.
        from .sim.rng import derive_seed
        layers, sprof, health = collect_sampled_run(
            workload,
            state_sample_interval=seconds(args.sample_interval),
            seed=derive_seed(args.seed, "shard:0"),
            fs_type=fs_type, num_cpus=args.cpus,
            scale=scale, processes=processes, iterations=iterations,
            patched_llseek=args.patched_llseek,
            kernel_preemption=args.kernel_preemption,
            scenario=args.scenario)
        pset = layers[args.layer]
        samples_path = args.samples_output
        if samples_path is None:
            samples_path = "samples.osps" if args.output == "-" \
                else args.output + ".osps"
        sprof.save(samples_path)
        print(f"sampled {sprof.total_samples()} state samples over "
              f"{sprof.intervals} interval(s) "
              f"({health['osprof_sampler_overhead_ns_total']} ns "
              f"sampler overhead) to {samples_path}", file=sys.stderr)
    else:
        pset = collect_sharded(
            workload, shards=shards, workers=args.workers,
            seed=args.seed, layer=args.layer, fs_type=fs_type,
            num_cpus=args.cpus, scale=scale,
            processes=processes, iterations=iterations,
            patched_llseek=args.patched_llseek,
            kernel_preemption=args.kernel_preemption,
            scenario=args.scenario,
            deadline=args.deadline, max_retries=args.shard_retries,
            salvage=args.salvage)
    if DEGRADED_ATTRIBUTE in pset.attributes:
        print(f"warning: profile is degraded "
              f"({pset.attributes[DEGRADED_ATTRIBUTE]})", file=sys.stderr)
    if args.spool_dir is not None:
        from .service.spool import Spool
        seq = Spool(args.spool_dir).append(pset.to_bytes())
        print(f"spooled {len(pset)} operation profiles "
              f"({pset.total_ops()} requests) to {args.spool_dir} "
              f"as seq {seq}", file=sys.stderr)
        if args.output != "-":
            _write_pset(pset, args.output, args.format)
        return 0
    _write_pset(pset, args.output, args.format)
    return 0


def cmd_merge(args) -> int:
    merged = _load(args.dumps[0])
    for path in args.dumps[1:]:
        other = _load(path)
        if other.spec != merged.spec:
            print(f"{path}: resolution {other.spec.resolution} differs "
                  f"from {merged.spec.resolution}", file=sys.stderr)
            return 1
        merged.merge(other)
    bad = merged.verify_checksums()
    if bad:
        print(f"merged profile fails checksum for: {bad}", file=sys.stderr)
        return 1
    _write_pset(merged, args.output, args.format)
    return 0


def cmd_render(args) -> int:
    from .analysis.report import render_profile
    pset = _load(args.dump)
    profiles = pset.by_total_latency()
    if args.op:
        wanted = set(args.op)
        profiles = [p for p in profiles if p.operation in wanted]
        missing = wanted - {p.operation for p in profiles}
        if missing:
            print(f"unknown operations: {sorted(missing)}",
                  file=sys.stderr)
            return 1
    if args.top is not None:
        profiles = profiles[:args.top]
    for prof in profiles:
        print(render_profile(prof))
        print()
    return 0


def cmd_peaks(args) -> int:
    from .analysis.peaks import find_peaks
    from .analysis.priorknowledge import CharacteristicTimes
    pset = _load(args.dump)
    table = CharacteristicTimes()
    for prof in pset.by_total_latency():
        peaks = find_peaks(prof, min_ops=args.min_ops)
        if not peaks:
            continue
        print(f"{prof.operation}:")
        for peak in peaks:
            names = [t.name
                     for t in table.candidates(peak.apex, tolerance=1)]
            label = ", ".join(names) if names else "-"
            print(f"  buckets {peak.low}-{peak.high} apex={peak.apex} "
                  f"ops={peak.ops}  [{label}]")
    return 0


def cmd_compare(args) -> int:
    from .analysis.select import ProfileSelector, SelectionConfig
    set_a = _load(args.dump_a)
    set_b = _load(args.dump_b)
    selector = ProfileSelector(SelectionConfig(metric=args.metric))
    reports = selector.select(set_a, set_b)
    if args.limit is not None:
        reports = reports[:args.limit]
    if not reports:
        print("no interesting differences")
    for report in reports:
        print(report.describe())
    if args.threshold:
        # Scriptable mode: judge every operation pair against the given
        # METRIC=VALUE rules and exit 3 on breach, so `osprof compare`
        # can gate a shell pipeline without parsing its prose.
        from .warehouse.gate import evaluate_gate, parse_threshold
        thresholds = [parse_threshold(text) for text in args.threshold]
        gate = evaluate_gate(set_a, set_b, thresholds,
                             min_ops=args.min_ops)
        print(gate.describe())
        return gate.exit_code()
    return 0


def cmd_sampled(args) -> int:
    from .analysis.report import gnuplot_sampled_data, render_sampled
    from .fs import make_flush_daemons
    from .sim.engine import seconds
    from .system import System
    from .workloads import build_source_tree, compile_body, grep_body

    system = System.build(fs_type=args.fs, seed=args.seed,
                          with_timer=False,
                          sample_interval=seconds(args.interval),
                          pagecache_pages=512)
    root, _ = build_source_tree(system, scale=args.scale,
                                seed=args.seed)
    if args.fs == "reiserfs":
        metadata_daemon, data_daemon = make_flush_daemons(
            system.kernel, system.vfs)
        metadata_daemon.start()
        data_daemon.start()

    if args.workload == "grep":
        def looped(proc):
            while True:
                yield from grep_body(system, proc, root)
    else:
        def looped(proc):
            while True:
                yield from compile_body(system, proc, root)

    system.kernel.spawn(looped, args.workload)
    system.run(until=seconds(args.duration))
    system.shutdown()
    series = system.sampled.series()
    operations = args.op if args.op else series.operations()
    for op in operations:
        if args.splot:
            sys.stdout.write(gnuplot_sampled_data(
                series, op, interval_seconds=args.interval))
        else:
            print(render_sampled(series, op,
                                 interval_seconds=args.interval))
            print()
    return 0


@contextlib.contextmanager
def _stop_signals():
    """Yield an event that SIGTERM and SIGINT set, for a foreground server.

    Both signals ask for the same graceful stop, even in a process that
    inherited SIGINT ignored (any background shell job).  A signal that
    arrives while the server stops is absorbed: the drain has its own
    deadline.  The previous handlers come back on exit.
    """
    import signal
    import threading
    stop = threading.Event()

    def request_stop(signum, frame):
        stop.set()

    previous = {sig: signal.signal(sig, request_stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        yield stop
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _serve_until(stop: threading.Event, server, thread, name: str,
                 drain_timeout: float) -> None:
    """Serve until *stop* is set, then drain and close *server*."""
    while thread.is_alive() and not stop.wait(timeout=1.0):
        pass
    if not server.drain(timeout=drain_timeout):
        print(f"osprof {name}: cancelled {server.drain_cancelled} "
              f"connection(s) still active after {drain_timeout:g}s "
              f"drain", file=sys.stderr)
    server.server_close()


def cmd_serve(args) -> int:
    from .service.server import ProfileService, ServiceConfig
    config = ServiceConfig(
        segment_seconds=args.segment_seconds, retention=args.retention,
        baseline_segments=args.baseline, metric=args.metric,
        threshold=args.threshold, min_ops=args.min_ops,
        read_timeout=args.read_timeout,
        max_frame_bytes=int(args.max_frame_mb * (1 << 20)),
        max_pending=args.max_pending,
        flush_batch=args.flush_batch)
    warehouse = None
    if args.db is not None:
        from .warehouse import Warehouse
        warehouse = Warehouse(args.db, mirror_dir=args.db_mirror)
    elif args.db_mirror is not None:
        print("osprof serve: --db-mirror needs --db", file=sys.stderr)
        return 2
    service = ProfileService(config, warehouse=warehouse,
                             warehouse_source=args.db_source)
    from .service.aio_server import AsyncProfileServer
    server = AsyncProfileServer(service, host=args.host, port=args.port)
    with _stop_signals() as stop:
        thread = server.serve_in_thread()
        host, port = server.address
        print(f"osprof service listening on {host}:{port} "
              f"(segment={config.segment_seconds:g}s "
              f"retention={config.retention} metric={config.metric})",
              file=sys.stderr)
        if warehouse is not None:
            print(f"warehouse at {args.db}: "
                  f"{warehouse.segments_total} segment(s) on record, "
                  f"baseline seeded from {service.baseline_seeded} "
                  f"segment(s)", file=sys.stderr)
        _serve_until(stop, server, thread, "serve", args.drain_timeout)
        service.close()
    return 0


def cmd_relay(args) -> int:
    import tempfile

    from .service.client import parse_endpoint
    from .service.relay import RelayServer, RelayService
    from .service.server import ServiceConfig
    upstream = parse_endpoint(args.upstream)
    root = args.dir
    if root is None:
        root = tempfile.mkdtemp(prefix="osprof-relay-")
        print(f"osprof relay: no --dir given, spooling to {root} "
              f"(not crash-safe across reboots)", file=sys.stderr)
    config = ServiceConfig(read_timeout=args.read_timeout,
                           max_frame_bytes=int(
                               args.max_frame_mb * (1 << 20)),
                           max_pending=args.max_pending)
    relay = RelayService(root, upstream=upstream, config=config,
                         batch=args.batch, retries=args.retries)
    server = RelayServer(relay, host=args.host, port=args.port,
                         flush_interval=args.flush_interval)
    with _stop_signals() as stop:
        thread = server.serve_in_thread()
        host, port = server.address
        print(f"osprof relay {relay.relay_id} listening on {host}:{port} "
              f"(forwarding batches of {args.batch} to "
              f"{upstream[0]}:{upstream[1]})", file=sys.stderr)
        pending = relay.pending_entries()
        if pending:
            print(f"osprof relay: {len(pending)} spooled push(es) from "
                  f"a previous run will be forwarded", file=sys.stderr)
            server.signal_forward()
        _serve_until(stop, server, thread, "relay", args.drain_timeout)
        left = len(relay.pending_entries())
        if left:
            print(f"osprof relay: {left} push(es) still spooled "
                  f"(upstream unreachable); they survive in {root}",
                  file=sys.stderr)
    return 0


def cmd_push(args) -> int:
    from .service.client import (Backoff, ResilientServiceClient,
                                 ServiceUnavailableError, parse_endpoint)
    from .workloads.runner import iter_segment_profiles
    sources = sum(
        [bool(args.dumps), bool(args.workload), bool(args.spool_dir),
         bool(args.samples)])
    if bool(args.dumps) and bool(args.workload):
        print("osprof push: give saved dumps or --workload, not both",
              file=sys.stderr)
        return 2
    if sources == 0:
        print("osprof push: give saved dumps, --workload, --samples, "
              "or --spool-dir", file=sys.stderr)
        return 2
    host, port = parse_endpoint(args.endpoint)
    client = ResilientServiceClient(
        host, port, retries=args.retries,
        backoff=Backoff(base=args.backoff), spool_dir=args.spool_dir)
    unavailable = False
    with client:
        try:
            if args.dumps:
                for path in args.dumps:
                    status = client.push(_load(path))
                    print(f"{path}: {status}", file=sys.stderr)
            elif args.workload:
                stream = iter_segment_profiles(
                    args.workload, segments=args.segments, seed=args.seed,
                    layer=args.layer, fs_type=args.fs, num_cpus=args.cpus,
                    scale=args.scale, processes=args.processes,
                    iterations=args.iterations,
                    patched_llseek=args.patched_llseek)
                for index, pset in enumerate(stream):
                    status = client.push(pset)
                    print(f"segment {index}: {status}", file=sys.stderr)
            elif args.spool_dir:
                delivered = client.drain()
                print(f"drained {delivered} spooled push(es)",
                      file=sys.stderr)
            if args.samples:
                from .sampling import StateProfile
                for path in args.samples:
                    status = client.push_state(StateProfile.load_path(path))
                    print(f"{path}: {status}", file=sys.stderr)
        except ServiceUnavailableError as exc:
            # With a spool the data is safe on disk; without one this
            # is a real failure the caller must see.
            print(f"osprof push: {exc}", file=sys.stderr)
            unavailable = True
    if unavailable:
        if args.spool_dir is not None:
            print(f"pending pushes kept in {args.spool_dir}; rerun "
                  f"'osprof push {args.endpoint} --spool-dir "
                  f"{args.spool_dir}' to drain", file=sys.stderr)
            return 0
        return 1
    if client.spool is not None and len(client.spool):
        print(f"{len(client.spool)} push(es) still spooled in "
              f"{args.spool_dir}", file=sys.stderr)
    if client.spool is not None and client.spool.corrupted:
        print(f"warning: {client.spool.corrupted} corrupt spooled "
              f"push(es) quarantined in {args.spool_dir} (*.corrupt)",
              file=sys.stderr)
    return 0


def _render_top_frame(sprof, lines: int, endpoint: str) -> str:
    """One ``osprof top`` frame over a merged state snapshot."""
    from .sim.engine import seconds as _seconds
    total = sprof.total_samples()
    header = (f"osprof top — {endpoint}  "
              f"{total} samples / {sprof.intervals} interval(s)")
    if sprof.interval:
        header += f" @ {sprof.interval / _seconds(1.0) * 1e3:g} ms"
    out = [header]
    out.append(f"{'SAMPLES':>9}  {'%':>5}  {'STATE':<9}  {'LAYER':<12}  "
               f"{'OP':<10}  WAIT_SITE")
    for (state, layer, op, site), count in sprof.top(lines):
        share = 100.0 * count / total if total else 0.0
        out.append(f"{count:>9}  {share:>5.1f}  {state:<9}  {layer:<12}  "
                   f"{op:<10}  {site}")
    if not total:
        out.append("(no state samples pushed yet)")
    return "\n".join(out)


def cmd_top(args) -> int:
    """``osprof top``: auto-refreshing sampled wait-state view.

    Each frame asks the service for the wait-state merge of its
    retained segments (``STATE_SNAPSHOT``) and prints the ``--lines`` hottest
    ``(state, layer, op, wait_site)`` cells by sample count — the
    "what is the system waiting on right now" view, fed by
    ``osprof run --sample-interval`` pushes.
    """
    import time as _time

    from .service.client import ServiceClient, parse_endpoint
    if args.lines < 1:
        print("osprof top: --lines must be >= 1", file=sys.stderr)
        return 2
    host, port = parse_endpoint(args.endpoint)
    client = ServiceClient(host, port)
    try:
        while True:
            frame = _render_top_frame(client.state_snapshot(),
                                      args.lines, args.endpoint)
            if args.once:
                print(frame)
                return 0
            # ANSI clear + home keeps the view in place, like top(1).
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def cmd_watch(args) -> int:
    import time as _time

    from .service.client import Backoff, ServiceClient, parse_endpoint
    from .service.protocol import ProtocolError
    host, port = parse_endpoint(args.endpoint)
    cursor = 0
    backoff = Backoff(cap=max(args.reconnect_cap, 0.05))
    attempts = 0
    client: Optional[ServiceClient] = None
    try:
        while True:
            try:
                if client is None:
                    client = ServiceClient(host, port)
                    if attempts:
                        print(f"reconnected after {attempts} attempt(s)",
                              file=sys.stderr)
                        attempts = 0
                cursor, alerts = client.alerts(cursor)
                for alert in alerts:
                    print(alert.describe())
                if args.metrics:
                    metrics = client.metrics()
                    sys.stdout.write(metrics)
                    sampler = {}
                    for line in metrics.splitlines():
                        # A relay quarantining spooled pushes means
                        # data is being delayed — loud, not buried in
                        # the counter dump.
                        if line.startswith("osprof_spool_corrupt_total"):
                            count = int(line.rsplit(" ", 1)[-1])
                            if count:
                                print(f"warning: {count} corrupt "
                                      f"spooled push(es) quarantined",
                                      file=sys.stderr)
                        for key in ("osprof_samples_total",
                                    "osprof_sample_intervals_total",
                                    "osprof_sampler_overhead_ns_total"):
                            if line.startswith(key + " "):
                                sampler[key] = int(line.rsplit(" ", 1)[-1])
                    if sampler.get("osprof_samples_total"):
                        print(f"sampler: "
                              f"{sampler['osprof_samples_total']} "
                              f"samples over "
                              f"{sampler.get('osprof_sample_intervals_total', 0)} "
                              f"interval(s), "
                              f"{sampler.get('osprof_sampler_overhead_ns_total', 0) / 1e6:.1f} "
                              f"ms capture overhead", file=sys.stderr)
                if args.once:
                    if not alerts:
                        print("no alerts")
                    return 0
                sys.stdout.flush()
                _time.sleep(args.poll)
            except (OSError, ProtocolError):
                # The service went away mid-watch; keep following and
                # reconnect quietly (a watcher should outlive restarts).
                if args.once:
                    raise
                if client is not None:
                    client.close()
                    client = None
                _time.sleep(backoff.delay(attempts))
                attempts += 1
    finally:
        if client is not None:
            client.close()


def cmd_trace(args) -> int:
    """Per-request slices of the unified probe event stream.

    A global :class:`~repro.core.pipeline.TraceSink` sees every layer's
    events with their shared request ids, so each printed request shows
    its syscall, file-system, and driver activity as one tree.
    """
    from .core.pipeline import TraceSink
    from .scenarios import (UnknownScenarioError, build_system,
                            get_scenario)
    from .workloads.runner import run_named_workload

    scenario = None
    if args.scenario is not None:
        try:
            scenario = get_scenario(args.scenario)
        except UnknownScenarioError as exc:
            print(f"osprof trace: {exc}", file=sys.stderr)
            return 2
    workload = args.workload
    if workload is None:
        if scenario is None:
            print("osprof trace: give a workload or --scenario",
                  file=sys.stderr)
            return 2
        workload = scenario.workload
    fs_type = args.fs if args.fs is not None else \
        (scenario.fs_type if scenario else "ext2")
    scale = args.scale if args.scale is not None else \
        (scenario.scale if scenario else 0.02)
    processes = args.processes if args.processes is not None else \
        (scenario.processes if scenario else 2)
    iterations = args.iterations if args.iterations is not None else \
        (scenario.iterations if scenario else 1000)
    system = build_system(args.scenario, fs_type=fs_type,
                          num_cpus=args.cpus, seed=args.seed,
                          with_timer=False)
    sink = TraceSink(limit=args.limit)
    system.pipeline.add_global_sink(sink)
    run_named_workload(system, workload, seed=args.seed,
                       scale=scale, processes=processes,
                       iterations=iterations)
    system.pipeline.flush()

    def root_latency(events) -> float:
        return max((e.latency for e in events if e.depth == 0),
                   default=0.0)

    ranked = sorted(sink.requests().items(),
                    key=lambda kv: root_latency(kv[1]), reverse=True)
    for rid, events in ranked[:args.requests]:
        root = next((e for e in events if e.depth == 0), events[0])
        print(f"request #{rid}: {root.layer}:{root.operation} "
              f"{root.latency:.0f} cycles, {len(events)} events")
        for event in events:
            indent = "  " * (event.depth + 1)
            print(f"{indent}{event.layer}:{event.operation} "
                  f"{event.latency:.0f}")
        print()
    if sink.dropped:
        print(f"(dropped {sink.dropped} events past --limit "
              f"{args.limit})", file=sys.stderr)
    return 0


def cmd_gnuplot(args) -> int:
    from .analysis.report import gnuplot_data
    pset = _load(args.dump)
    for prof in pset.by_total_latency():
        sys.stdout.write(gnuplot_data(prof))
        sys.stdout.write("\n")
    return 0


def _open_warehouse(args):
    from .warehouse import CompactionPolicy, Warehouse
    policy = None
    if getattr(args, "keep", None) is not None \
            and getattr(args, "fanout", None) is not None:
        try:
            keep = tuple(int(k) for k in args.keep.split(","))
        except ValueError:
            raise ValueError(
                f"bad --keep {args.keep!r}: expected comma-separated "
                f"integers, e.g. 8,8,8") from None
        policy = CompactionPolicy(fanout=args.fanout, keep=keep)
    return Warehouse(args.db, policy=policy,
                     mirror_dir=getattr(args, "mirror", None))


def cmd_db_ingest(args) -> int:
    warehouse = _open_warehouse(args)
    epoch = args.epoch
    for path in args.dumps:
        meta = warehouse.ingest(args.source, _load(path), epoch=epoch)
        print(f"{path}: segment {meta.seg_id} source={meta.source} "
              f"epoch={meta.epoch} ({meta.nbytes} bytes)",
              file=sys.stderr)
        if epoch is not None:
            epoch += 1
    return 0


def cmd_db_query(args) -> int:
    pset = _open_warehouse(args).query(
        args.source, layer=args.layer, op=args.op, t0=args.since,
        t1=args.until)
    _write_pset(pset, args.output, args.format)
    return 0


def cmd_db_compact(args) -> int:
    created = _open_warehouse(args).compact(source=args.source)
    for meta in created:
        print(f"compacted -> segment {meta.seg_id} tier={meta.tier} "
              f"epochs {meta.epoch}..{meta.epoch_end} "
              f"source={meta.source}", file=sys.stderr)
    print(f"{len(created)} compaction(s)", file=sys.stderr)
    return 0


def cmd_db_gc(args) -> int:
    warehouse = _open_warehouse(args)
    evicted = warehouse.gc(source=args.source)
    print(f"evicted {evicted} segment(s) past retention"
          + (f", removed {warehouse.orphans_removed} orphan file(s)"
             if warehouse.orphans_removed else ""),
          file=sys.stderr)
    return 0


def cmd_db_sql(args) -> int:
    """``osprof db sql``: analytics queries over a warehouse or service."""
    if (args.db is None) == (args.endpoint is None):
        print("osprof db sql: give exactly one of --db or --endpoint",
              file=sys.stderr)
        return 2
    if args.endpoint is not None:
        from .service.client import ServiceClient, parse_endpoint
        host, port = parse_endpoint(args.endpoint)
        client = ServiceClient(host, port)
        try:
            columns, rows = client.sql(args.query)
        finally:
            client.close()
    else:
        from .warehouse import Warehouse, execute_sql
        result = execute_sql(Warehouse(args.db), args.query)
        columns, rows = result.columns, list(result.rows)
    _write_sql_result(columns, rows, args.format)
    return 0


def _write_sql_result(columns, rows, fmt: str) -> None:
    if fmt == "json":
        import json
        json.dump({"columns": list(columns),
                   "rows": [list(r) for r in rows]},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        return
    cells = [[("-" if v is None
               else f"{v:.6g}" if isinstance(v, float) else str(v))
              for v in row] for row in rows]
    widths = [max([len(name)] + [len(r[i]) for r in cells])
              for i, name in enumerate(columns)]
    print("  ".join(n.ljust(w) for n, w in zip(columns, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    print(f"({len(rows)} row{'' if len(rows) == 1 else 's'})",
          file=sys.stderr)


def cmd_db_scrub(args) -> int:
    """``osprof db scrub``: verify committed bytes, optionally repair.

    Exit 0 when everything verified (or every damaged segment was
    restored byte-identically from the mirror), exit 3 when unrepaired
    damage remains — same contract as ``osprof db gate``.
    """
    warehouse = _open_warehouse(args)
    if args.repair and warehouse.mirror is None:
        print("osprof db scrub: --repair needs --mirror (nothing to "
              "restore from)", file=sys.stderr)
        return 2
    report = warehouse.scrub(repair=args.repair)
    for issue in report.issues:
        print(f"osprof db scrub: {issue}", file=sys.stderr)
    print(f"scanned {report.scanned} segment(s), "
          f"{report.journal_records} journal record(s): "
          f"{report.corrupt} corrupt, {report.repaired} repaired",
          file=sys.stderr)
    return 0 if report.clean else 3


def cmd_db_baseline_save(args) -> int:
    warehouse = _open_warehouse(args)
    if (args.from_file is None) == (args.source is None):
        print("osprof db baseline save: give exactly one of --from "
              "or --source", file=sys.stderr)
        return 2
    if args.from_file is not None:
        pset = _load(args.from_file)
    else:
        pset = warehouse.query(args.source, layer=args.layer,
                               op=args.op, t0=args.since,
                               t1=args.until)
    warehouse.save_baseline(args.name, pset)
    print(f"baseline {args.name!r}: {len(pset)} operation profiles "
          f"({pset.total_ops()} requests)", file=sys.stderr)
    return 0


def cmd_db_baseline_list(args) -> int:
    for name in _open_warehouse(args).baselines():
        print(name)
    return 0


def cmd_db_baseline_rm(args) -> int:
    if not _open_warehouse(args).remove_baseline(args.name):
        print(f"no baseline named {args.name!r}", file=sys.stderr)
        return 1
    return 0


def cmd_db_gate(args) -> int:
    from .warehouse.gate import (DEFAULT_GATE_THRESHOLDS, evaluate_gate,
                                 parse_threshold)
    baseline = _open_warehouse(args).load_baseline(args.baseline)
    capture = _load(args.capture)
    thresholds = ([parse_threshold(text) for text in args.threshold]
                  if args.threshold else DEFAULT_GATE_THRESHOLDS)
    report = evaluate_gate(baseline, capture, thresholds,
                           min_ops=args.min_ops)
    print(report.describe())
    return report.exit_code()


_BASELINE_COMMANDS: List[_Command] = [
    ("save", "store a named baseline",
     _build_db_baseline_save, cmd_db_baseline_save),
    ("list", "list stored baselines", _add_db_dir, cmd_db_baseline_list),
    ("rm", "remove a stored baseline",
     _build_db_baseline_rm, cmd_db_baseline_rm),
]

_DB_COMMANDS: List[_Command] = [
    ("ingest", "persist profile dumps as warehouse segments",
     _build_db_ingest, cmd_db_ingest),
    ("query", "merge a source's stored history over a range",
     _build_db_query, cmd_db_query),
    ("sql", "run an analytics query over the stored history",
     _build_db_sql, cmd_db_sql),
    ("compact", "merge aged segments into coarser tiers",
     _build_db_compact, cmd_db_compact),
    ("gc", "apply top-tier retention and sweep dead files",
     _build_db_gc, cmd_db_gc),
    ("scrub", "re-verify every committed byte in place "
              "(exit 3 on unrepaired damage)",
     _build_db_scrub, cmd_db_scrub),
    ("baseline", "manage named reference profiles",
     _build_db_baseline, None),
    ("gate", "score a capture against a stored baseline "
             "(exit 3 on threshold breach)",
     _build_db_gate, cmd_db_gate),
]

#: Every ``osprof`` subcommand, in ``osprof --help`` order.
_COMMANDS: List[_Command] = [
    ("run", "run a workload and dump profiles", _build_run, cmd_run),
    ("merge", "merge several profile dumps into one",
     _build_merge, cmd_merge),
    ("render", "ASCII figures from a dump", _build_render, cmd_render),
    ("peaks", "peak detection + attribution", _build_peaks, cmd_peaks),
    ("compare", "automated profile-pair selection",
     _build_compare, cmd_compare),
    ("gnuplot", "Gnuplot data blocks", _build_gnuplot, cmd_gnuplot),
    ("sampled", "3-D sampled profiling of a workload",
     _build_sampled, cmd_sampled),
    ("serve", "run the continuous profiling service",
     _build_serve, cmd_serve),
    ("relay", "run a leaf of the fleet aggregation tree",
     _build_relay, cmd_relay),
    ("push", "stream profiles to a running service", _build_push, cmd_push),
    ("trace", "cross-layer request traces of a workload",
     _build_trace, cmd_trace),
    ("top", "live sampled wait-state view of a running service",
     _build_top, cmd_top),
    ("watch", "follow a service's alert log", _build_watch, cmd_watch),
    ("db", "durable profile warehouse", _build_db, None),
]


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        return 130
    except (ValueError, OSError) as exc:
        # Corrupt dumps, impossible shard plans, unreadable paths: one
        # clear line, not a traceback.
        print(f"osprof: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
