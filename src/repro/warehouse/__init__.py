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
* :mod:`repro.warehouse.columnar` — the columnar segment decoder and
  merge engine: struct-packed postings decoded once into flat arrays,
  merged without intermediate :class:`~repro.core.profileset.ProfileSet`
  objects, byte-identical to ``ProfileSet.merged``,
* :mod:`repro.warehouse.sql` — the analytics query engine behind
  ``osprof db sql``: SELECT / WHERE / GROUP BY / ORDER BY / LIMIT over
  warehouse dimensions with latency aggregates,
* :mod:`repro.warehouse.gate` — the CI regression gate: score a fresh
  capture against a stored baseline, exit nonzero on breach.

Exposed on the CLI as ``osprof db {ingest,query,sql,compact,gc,scrub,
baseline,gate}`` and wired into ``osprof serve --db``.
"""

from .columnar import ColumnarSegment, group_histogram, merged_profile_set
from .gate import (EXIT_BREACH, Breach, GateReport, Threshold,
                   evaluate_gate, parse_threshold)
from .index import SegmentMeta, WarehouseIndex
from .log import LogError, SegmentLog
from .sql import (QueryError, QueryResult, SelectStatement, execute_sql,
                  parse_sql)
from .tiers import CompactionPolicy, plan_compactions, plan_gc
from .warehouse import ScrubReport, Warehouse, WarehouseError

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
    "group_histogram",
    "merged_profile_set",
    "parse_sql",
    "parse_threshold",
    "plan_compactions",
    "plan_gc",
]
