"""Wait-state sampling: the second, orthogonal profile family.

Latency profiles (:mod:`repro.core`) measure every request; this package
*samples* instead — "what is every process doing right now" — the
always-on production pattern of tools like ``psn``/``xtop``.  The paper
validates measured profiles against sampled ones (Section 5); here the
two families coexist so the sampled view can be checked against measured
ground truth under identical simulated workloads.

* :class:`StateProfile` — aggregated sample counts keyed by
  ``(state, layer, op, wait_site)``, with the same canonical
  CRC-trailed binary codec discipline as
  :class:`~repro.core.profileset.ProfileSet`.
* :class:`WaitStateSampler` — a sim-clock driven periodic sampler over
  a running :class:`~repro.sim.scheduler.Kernel`.
"""

from .._lazy import lazy_exports

__all__ = ["StateProfile", "WaitStateSampler", "canonical_wait_site"]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".stateprofile": ("StateProfile",),
    ".sampler": ("WaitStateSampler", "canonical_wait_site"),
})
