"""The per-layer metric table, built from a traced run's boundary counters.

Every workload's traced run prints every metric below; a layer the
workload never enters reads zero (``sim.*`` on ``ingest``, ``sampling.*``
on ``capture``, ...), which is itself part of the contract in README.md.
"""

from __future__ import annotations

from typing import Dict, Optional

from common import metric, ratio

#: name -> unit, in report order.  BENCHMARK.json lists the same names.
PER_LAYER = {
    "sim.engine.events": "count",
    "sim.engine.self_s": "s",
    "sim.rng.draws": "count",
    "sim.rng.self_s": "s",
    "sim.syscalls.calls": "count",
    "sim.syscalls.self_s": "s",
    "vfs.calls": "count",
    "vfs.self_s": "s",
    "vfs.pagecache.hit_ratio": "ratio",
    "fs.calls": "count",
    "fs.self_s": "s",
    "disk.driver.calls": "count",
    "disk.driver.self_s": "s",
    "disk.device.submits": "count",
    "disk.model.calls": "count",
    "disk.model.self_s": "s",
    "disk.cache.hit_ratio": "ratio",
    "core.pipeline.records": "count",
    "core.pipeline.self_s": "s",
    "core.pipeline.flush_s": "s",
    "core.buckets.add_many_s": "s",
    "sampling.ticks": "count",
    "sampling.samples": "count",
    "sampling.overhead_s": "s",
    "service.protocol.frames": "count",
    "service.protocol.self_s": "s",
    "core.profileset.decode_s": "s",
    "service.server.ingest_s": "s",
    "service.server.state_ingest_s": "s",
    "service.store.merge_s": "s",
    "service.store.rotations": "count",
    "service.alerts.observe_calls": "count",
    "service.alerts.observe_s": "s",
    "bench.loadgen.lag_p99_ms": "ms",
    "warehouse.ingest_s": "s",
    "warehouse.log.append_s": "s",
    "warehouse.log.recover_s": "s",
    "warehouse.index.applies": "count",
    "warehouse.columnar.decodes": "count",
    "warehouse.columnar.decode_s": "s",
    "warehouse.cache.hit_ratio": "ratio",
    "warehouse.columnar.merge_s": "s",
    "warehouse.sql.parse_s": "s",
    "warehouse.sql.execute_s": "s",
    "warehouse.tiers.plan_s": "s",
    "core.profileset.encode_s": "s",
    "warehouse.scrub.verify_s": "s",
    "core.durable.writes": "count",
    "core.durable.write_s": "s",
    "core.durable.fsyncs": "count",
    "core.durable.fsync_s": "s",
    "core.durable.write_amp": "B/B",
    "bench.tracing_overhead_pct": "%",
    # Workload-specific end-to-end breakdown, from the untraced phase.
    "error_ratio": "ratio",
    "push_ack_p50_ms": "ms",
    "push_ack_p99_ms": "ms",
    "state_push_ack_p50_ms": "ms",
    "wh_open_s": "s",
    "query_cold_s": "s",
    "sql_s": "s",
    "compact_s": "s",
    "scrub_s": "s",
}

#: (metric, boundary, field): a straight copy of one boundary counter.
_COPIED = (
    ("sim.engine.events", "sim.engine", "calls"),
    ("sim.engine.self_s", "sim.engine", "self_s"),
    ("sim.rng.draws", "sim.rng", "calls"),
    ("sim.rng.self_s", "sim.rng", "self_s"),
    ("sim.syscalls.calls", "sim.syscalls", "calls"),
    ("sim.syscalls.self_s", "sim.syscalls", "self_s"),
    ("vfs.calls", "vfs", "calls"),
    ("vfs.self_s", "vfs", "self_s"),
    ("fs.calls", "fs", "calls"),
    ("fs.self_s", "fs", "self_s"),
    ("disk.driver.calls", "disk.driver", "calls"),
    ("disk.driver.self_s", "disk.driver", "self_s"),
    ("disk.device.submits", "disk.device", "calls"),
    ("disk.model.calls", "disk.model", "calls"),
    ("disk.model.self_s", "disk.model", "self_s"),
    ("core.pipeline.records", "core.pipeline.record", "calls"),
    ("core.pipeline.flush_s", "core.pipeline.flush", "total_s"),
    ("core.buckets.add_many_s", "core.buckets.add_many", "total_s"),
    ("service.protocol.frames", "service.protocol", "hits"),
    ("service.protocol.self_s", "service.protocol", "self_s"),
    ("core.profileset.decode_s", "core.profileset.decode", "total_s"),
    ("service.server.ingest_s", "service.server.ingest", "total_s"),
    ("service.server.state_ingest_s", "service.server.state_ingest",
     "total_s"),
    ("service.store.merge_s", "service.store.merge", "total_s"),
    ("service.store.rotations", "service.store.advance", "items"),
    ("service.alerts.observe_calls", "service.alerts.observe", "calls"),
    ("service.alerts.observe_s", "service.alerts.observe", "total_s"),
    ("warehouse.ingest_s", "warehouse.ingest", "total_s"),
    ("warehouse.log.append_s", "warehouse.log.append", "total_s"),
    ("warehouse.log.recover_s", "warehouse.log.recover", "total_s"),
    ("warehouse.index.applies", "warehouse.index.apply", "calls"),
    ("warehouse.columnar.decodes", "warehouse.columnar.decode", "calls"),
    ("warehouse.columnar.decode_s", "warehouse.columnar.decode", "total_s"),
    ("warehouse.columnar.merge_s", "warehouse.columnar.merge", "total_s"),
    ("warehouse.sql.parse_s", "warehouse.sql.parse", "total_s"),
    ("warehouse.sql.execute_s", "warehouse.sql.execute", "total_s"),
    ("warehouse.tiers.plan_s", "warehouse.tiers.plan", "total_s"),
    ("core.profileset.encode_s", "core.profileset.encode", "total_s"),
    ("warehouse.scrub.verify_s", "warehouse.scrub", "total_s"),
    ("core.durable.writes", "core.durable.write", "calls"),
    ("core.durable.write_s", "core.durable.write", "total_s"),
    ("core.durable.fsyncs", "core.durable.fsync", "calls"),
    ("core.durable.fsync_s", "core.durable.fsync", "total_s"),
)


def per_layer_metrics(stats: Dict[str, Dict[str, float]],
                      extras: Optional[Dict[str, float]] = None,
                      write_amp_base: float = 0.0
                      ) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric; *extras* supplies the non-boundary ones."""
    def field(boundary: str, name: str) -> float:
        return stats.get(boundary, {}).get(name, 0)

    values: Dict[str, float] = {name: 0 for name in PER_LAYER}
    for name, boundary, attr in _COPIED:
        values[name] = field(boundary, attr)
    values["core.pipeline.self_s"] = sum(
        field(f"core.pipeline.{method}", "self_s")
        for method in ("record", "enter", "exit"))
    for name, boundary in (("vfs.pagecache.hit_ratio", "vfs.pagecache"),
                           ("disk.cache.hit_ratio", "disk.cache"),
                           ("warehouse.cache.hit_ratio", "warehouse.cache")):
        values[name] = ratio(field(boundary, "hits"),
                             field(boundary, "calls"))
    values["core.durable.write_amp"] = ratio(
        field("core.durable.write", "nbytes"), write_amp_base)
    for name, value in (extras or {}).items():
        if name not in PER_LAYER:
            raise KeyError(f"unknown per-layer metric {name}")
        values[name] = value
    return {name: metric(values[name], unit)
            for name, unit in PER_LAYER.items()}
