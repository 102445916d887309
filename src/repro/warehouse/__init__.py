"""Durable profile warehouse: segment log, tiered compaction, queries.

The continuous-profiling service keeps only a small rolling window in
memory; this package is where closed segments go to *live*.  It is the
repo's durable history layer, in the spirit of 0xtools' always-on
sampled archives:

* :mod:`repro.warehouse.log` — the append-only, CRC-framed commit
  journal; the single source of truth, replayed on every open,
* :mod:`repro.warehouse.index` — segment metadata + the
  ``(source, layer, op, epoch)`` postings map, a pure reduction of the
  log,
* :mod:`repro.warehouse.tiers` — RRD-style tier geometry: aged
  segments merge into coarser epochs, per-tier retention bounds the
  footprint,
* :mod:`repro.warehouse.warehouse` — the :class:`Warehouse` facade:
  ``ingest`` / ``query`` / ``compact`` / ``gc`` plus named baselines,
* :mod:`repro.warehouse.columnar` — the cached segment decode and
  merge: each segment's checked ``parse_binary`` rows, decoded once and
  folded with ``ProfileSet.fold_rows``, byte-identical to
  ``ProfileSet.merged`` (the module and its ``ColumnarSegment`` /
  ``merged_profile_set`` keep their names because the benchmark's
  tracer wraps them by name),
* :mod:`repro.warehouse.sql` — the analytics query engine behind
  ``osprof db sql``: SELECT / WHERE / GROUP BY / ORDER BY / LIMIT over
  warehouse dimensions with latency aggregates,
* :mod:`repro.warehouse.gate` — the CI regression gate: score a fresh
  capture against a stored baseline, exit nonzero on breach.

Exposed on the CLI as ``osprof db {ingest,query,sql,compact,gc,scrub,
baseline,gate}`` and wired into ``osprof serve --db``.
"""

from .._lazy import lazy_exports

__all__ = [
    "Breach",
    "ColumnarSegment",
    "CompactionPolicy",
    "EXIT_BREACH",
    "GateReport",
    "LogError",
    "QueryError",
    "QueryResult",
    "ScrubReport",
    "SegmentLog",
    "SegmentMeta",
    "SelectStatement",
    "Threshold",
    "Warehouse",
    "WarehouseError",
    "WarehouseIndex",
    "evaluate_gate",
    "execute_sql",
    "merged_profile_set",
    "parse_sql",
    "parse_threshold",
    "plan_compactions",
    "plan_gc",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".columnar": ("ColumnarSegment", "merged_profile_set"),
    ".gate": ("EXIT_BREACH", "Breach", "GateReport", "Threshold",
              "evaluate_gate", "parse_threshold"),
    ".index": ("SegmentMeta", "WarehouseIndex"),
    ".log": ("LogError", "SegmentLog"),
    ".sql": ("QueryError", "QueryResult", "SelectStatement", "execute_sql",
             "parse_sql"),
    ".tiers": ("CompactionPolicy", "plan_compactions", "plan_gc"),
    ".warehouse": ("ScrubReport", "Warehouse", "WarehouseError"),
})
