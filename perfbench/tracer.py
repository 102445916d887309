"""Boundary tracing for the traced benchmark run.

The tracer times calls into the public functions of each module from the
outside: :meth:`Tracer.install` replaces the named class attributes and module
functions with wrappers that record, per boundary, the number of calls,
the inclusive host time, and the *self* time (inclusive time minus the
part of that interval covered by wrapped children on the same thread).
A generator function is wrapped by a generator that times every resume,
so a simulated process stepping through ``yield from`` chains is split
across the layers it passes through.

Nothing here is imported by the program and nothing is patched until
:meth:`Tracer.install` runs; :meth:`Tracer.uninstall` restores every original
attribute.  Spans are folded into in-memory counters and only written
out (as a JSON dict) when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

_RNG_DRAWS = ("uniform", "randint", "random", "choice", "shuffle",
              "sample", "chance", "jitter", "exponential", "pareto_cycles")
_MODELS = ("DeviceModel", "SpindleModel", "SSDModel", "RAID0Model",
           "ThrottledModel")

#: (boundary, "module:Class.method" or "module:function", options).
#: ``hit`` says from the result whether a cache served the call; ``items``
#: counts work units in the result; ``nbytes`` names the positional
#: argument whose length is the bytes written; ``cache_counter`` names an
#: instance counter that grows when a cache serves the call.
PLAN: List[Tuple[str, str, dict]] = [
    ("sim.engine", "repro.sim.engine:Engine.step", {}),
    *[("sim.rng", f"repro.sim.rng:SimRandom.{name}", {})
      for name in _RNG_DRAWS],
    ("sim.syscalls", "repro.sim.syscalls:SyscallLayer.invoke", {}),
    *[("vfs", f"repro.vfs.vfs:Vfs.{name}", {})
      for name in ("read", "write", "llseek", "readdir", "fsync", "close")],
    ("vfs.pagecache", "repro.vfs.pagecache:PageCache.lookup",
     {"hit": lambda page: page is not None}),
    ("fs", "repro.fs.ext2:Ext2.*", {}),
    *[("disk.driver", f"repro.disk.driver:ScsiDriver.{name}", {})
      for name in ("read", "write")],
    ("disk.device", "repro.disk.device:Disk.submit", {}),
    *[("disk.model", f"repro.disk.model:{cls}.{name}", {})
      for cls in _MODELS for name in ("service_time", "pick_next")],
    ("disk.cache", "repro.disk.cache:SegmentCache.lookup",
     {"hit": bool}),
    ("core.pipeline.record", "repro.core.pipeline:ProbePoint.record", {}),
    ("core.pipeline.enter", "repro.core.pipeline:ProbePoint.enter", {}),
    ("core.pipeline.exit", "repro.core.pipeline:ProbePoint.exit", {}),
    ("core.pipeline.flush", "repro.core.pipeline:Pipeline.flush", {}),
    ("core.buckets.add_many",
     "repro.core.buckets:LatencyBuckets.add_many", {}),
    ("service.protocol", "repro.service.protocol:FrameParser.next_frame",
     {"hit": lambda frame: frame is not None}),
    ("core.profileset.decode",
     "repro.core.profileset:ProfileSet.from_bytes", {}),
    ("core.profileset.encode", "repro.core.profileset:ProfileSet.to_bytes",
     {}),
    ("service.server.ingest",
     "repro.service.server:ProfileService.ingest_sequenced", {}),
    ("service.server.state_ingest",
     "repro.service.server:ProfileService.ingest_state", {}),
    ("service.store.merge", "repro.service.store:SegmentStore.ingest", {}),
    ("service.store.advance", "repro.service.store:SegmentStore.advance",
     {"items": len}),
    ("service.alerts.observe",
     "repro.service.alerts:DifferentialAlerter.observe", {}),
    ("warehouse.ingest", "repro.warehouse.warehouse:Warehouse.ingest_many",
     {}),
    ("warehouse.ingest", "repro.warehouse.warehouse:Warehouse.ingest_state",
     {}),
    ("warehouse.log.append", "repro.warehouse.log:SegmentLog.append", {}),
    ("warehouse.log.append", "repro.warehouse.log:SegmentLog.append_many",
     {}),
    ("warehouse.log.recover", "repro.warehouse.log:SegmentLog.recover", {}),
    ("warehouse.index.apply", "repro.warehouse.index:WarehouseIndex.apply",
     {}),
    ("warehouse.columnar.decode",
     "repro.warehouse.columnar:ColumnarSegment.from_bytes", {}),
    ("warehouse.columnar.merge",
     "repro.warehouse.columnar:merged_profile_set", {}),
    ("warehouse.cache", "repro.warehouse.warehouse:Warehouse.load_columns",
     {"cache_counter": "cache_hits_total"}),
    ("warehouse.sql.parse", "repro.warehouse.sql:parse_sql", {}),
    ("warehouse.sql.execute", "repro.warehouse.sql:execute_sql", {}),
    ("warehouse.tiers.plan", "repro.warehouse.tiers:plan_compactions", {}),
    ("warehouse.scrub", "repro.warehouse.warehouse:Warehouse.scrub", {}),
    *[("core.durable.write", f"repro.core.durable:{name}", {"nbytes": 1})
      for name in ("write_atomic", "write_file", "append_bytes")],
]


class Stat:
    """Accumulated counters of one boundary."""

    __slots__ = ("calls", "total_s", "self_s", "hits", "items", "nbytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.hits = 0
        self.items = 0
        self.nbytes = 0

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Per-boundary counters plus the per-thread stack of open spans."""

    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stat: Stat, stack: List[float], started: float) -> None:
        elapsed = _now() - started
        child = stack.pop()
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - child
        if stack:
            stack[-1] += elapsed

    # -- wrapper factories ---------------------------------------------------

    def wrap(self, boundary: str, fn: Callable, hit=None, items=None,
             nbytes: Optional[int] = None,
             cache_counter: Optional[str] = None) -> Callable:
        stat = self.stats.setdefault(boundary, Stat())
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(stat, fn)
        close = self._close
        stack_of = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = stack_of()
            if cache_counter is not None:
                before = getattr(args[0], cache_counter)
            if nbytes is not None:
                stat.nbytes += len(args[nbytes])
            stack.append(0.0)
            started = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, stack, started)
            if hit is not None and hit(result):
                stat.hits += 1
            if items is not None:
                stat.items += items(result)
            if cache_counter is not None \
                    and getattr(args[0], cache_counter) > before:
                stat.hits += 1
            return result

        return timed

    def _wrap_generator(self, stat: Stat, fn: Callable) -> Callable:
        close = self._close
        stack_of = self._stack

        @functools.wraps(fn)
        def timed_generator(*args, **kwargs):
            inner = fn(*args, **kwargs)
            value = None
            error = None
            while True:
                stack = stack_of()
                stack.append(0.0)
                started = _now()
                try:
                    if error is None:
                        effect = inner.send(value)
                    else:
                        effect = inner.throw(error)
                except StopIteration as stop:
                    close(stat, stack, started)
                    return stop.value
                except BaseException:
                    close(stat, stack, started)
                    raise
                close(stat, stack, started)
                error = None
                try:
                    value = yield effect
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # relayed into the wrapped body
                    error = exc
                    value = None

        return timed_generator

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_method(self, cls: type, name: str, boundary: str,
                      options: dict) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(boundary, raw.__func__,
                                            **options))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(boundary, raw.__func__,
                                             **options))
        else:
            wrapped = self.wrap(boundary, raw, **options)
        self._patch(cls, name, wrapped)

    def _patch_function(self, module, name: str, boundary: str,
                        options: dict) -> None:
        original = getattr(module, name)
        wrapped = self.wrap(boundary, original, **options)
        # Callers that imported the function by name hold their own
        # reference: rebind every repro module that does.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                if getattr(mod, name, None) is original:
                    self._patch(mod, name, wrapped)

    def install(self, plan=PLAN) -> "Tracer":
        """Import the stack's modules and wrap every boundary in *plan*."""
        for boundary, target, options in plan:
            module_name, _, attr = target.partition(":")
            module = importlib.import_module(module_name)
            if "." not in attr:
                self._patch_function(module, attr, boundary, options)
                continue
            cls_name, _, method = attr.partition(".")
            cls = getattr(module, cls_name)
            if method == "*":
                names = [n for n, v in cls.__dict__.items()
                         if not n.startswith("_") and inspect.isfunction(v)]
            else:
                names = [method] if method in cls.__dict__ else []
            for name in names:
                self._patch_method(cls, name, boundary, options)
        self._install_fsync()
        return self

    def _install_fsync(self) -> None:
        """Split fsync out of the durable writes.

        ``core/durable.py`` calls ``os.fsync`` through its module-level
        ``os`` name; giving that module a proxy whose ``fsync`` is timed
        scopes the split to durable writes without touching ``os``.
        """
        durable = importlib.import_module("repro.core.durable")
        timed_fsync = self.wrap("core.durable.fsync", os.fsync)

        class _OsProxy:
            fsync = staticmethod(timed_fsync)

            def __getattr__(self, name):
                return getattr(os, name)

        self._patch(durable, "os", _OsProxy())

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {name: stat.as_dict() for name, stat in self.stats.items()}
