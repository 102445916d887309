"""Continuous profiling service (the paper's §3.5 sampling, productionized).

The paper turns OSprof into a continuous monitor by collecting many
small time-segmented profiles and comparing successive pairs with the
automated tool of Section 4.  This package is that idea as a
long-running network service:

* :mod:`repro.service.protocol` — the length-prefixed TCP framing that
  carries binary :class:`~repro.core.profileset.ProfileSet` payloads,
* :mod:`repro.service.store` — a rolling time-segmented 3-D profile
  store (ring buffer of per-interval profile sets),
* :mod:`repro.service.alerts` — online differential analysis: each
  closed segment is scored against a rolling baseline and structured
  alerts fire on new peaks or metric threshold crossings,
* :mod:`repro.service.server` — the ingestion core, its sans-IO frame
  table, and a plaintext metrics page,
* :mod:`repro.service.aio_server` — the event-loop TCP transport that
  serves the frame table, and
* :mod:`repro.service.client` — the collector-side client used by the
  ``osprof push`` / ``osprof watch`` CLI subcommands.
"""

from .._lazy import lazy_exports

__all__ = [
    "Alert",
    "DifferentialAlerter",
    "FrameType",
    "ProfileService",
    "ProtocolError",
    "Segment",
    "SegmentStore",
    "ServiceClient",
    "ServiceConfig",
    "parse_endpoint",
    "recv_frame",
    "send_frame",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".alerts": ("Alert", "DifferentialAlerter"),
    ".client": ("ServiceClient", "parse_endpoint"),
    ".protocol": ("FrameType", "ProtocolError", "recv_frame", "send_frame"),
    ".server": ("ProfileService", "ServiceConfig"),
    ".store": ("Segment", "SegmentStore"),
})
