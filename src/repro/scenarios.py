"""The scenario registry: one table that builds every system.

The paper's six case studies all ran on one hardware configuration — a
single 15 kRPM SCSI spindle — so the alerter/gate corpus could only
ever contain the latency pathologies that spindle produces.  A
*scenario* bundles a device model with the workload and parameters that
surface its signature latency shape, and every consumer — the ``osprof
run`` CLI, shard workers, the fault matrix, pinned captures, and the CI
gate fixtures — constructs its simulated machine from this table, so a
scenario behaves identically no matter which door it enters through.

Clean scenarios pin the healthy profile of each device model;
regression variants (``*-worn``, ``*-degraded``, ``*-tight``) are the
same models with a realistic pathology dialled in, and exist so the
warehouse gate provably breaches (exit 3) when a device regresses —
growing the corpus from the paper's six case studies toward a matrix.

Scenario membership is part of the public CLI surface:
``osprof run --list-scenarios`` prints this table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional

# The device models load in the factories that build them, so printing
# the registry (``osprof run --list-scenarios``) loads no simulator.
if TYPE_CHECKING:
    from .disk.model import DeviceModel

__all__ = ["Scenario", "SCENARIOS", "UnknownScenarioError", "get_scenario",
           "build_device", "build_system", "render_scenarios"]


class UnknownScenarioError(ValueError):
    """Raised for a scenario name missing from the registry.

    The message always carries the full registry listing so a CLI user
    sees their options in the error itself.
    """

    def __init__(self, name: str):
        super().__init__(
            f"unknown scenario {name!r}; available scenarios: "
            f"{', '.join(sorted(SCENARIOS))}")
        self.name = name


class Scenario(NamedTuple):
    """One row of the matrix: a device model plus its workload defaults.

    ``device_factory`` returns a *fresh* model per call (models carry
    run state: head positions, GC counters, token buckets) or ``None``
    for the stock spindle — the byte-identity reference configuration,
    constructed exactly as a scenario-less ``System.build``.  The
    workload parameters are defaults: explicit CLI flags and API
    arguments override them.
    """

    name: str
    description: str
    workload: str
    device: str                      #: human-readable device label
    device_factory: Optional[Callable[[], DeviceModel]] = None
    fs_type: str = "ext2"
    processes: int = 2
    iterations: int = 1000
    scale: float = 0.02


def _ssd() -> DeviceModel:
    from .disk.model import SSDModel
    # A small-over-provisioning consumer drive: foreground GC every 16
    # programs, often enough that the slow mode is a real peak.
    return SSDModel(gc_period=16)


def _ssd_worn() -> DeviceModel:
    from .disk.model import SSDModel
    from .sim.engine import seconds
    # A worn drive: sparse free pool, so GC runs 4x as often and each
    # collection relocates more data; programs slow as cells age.
    return SSDModel(gc_period=4, gc_pause=seconds(10e-3),
                    program_latency=seconds(400e-6))


def _raid0() -> DeviceModel:
    from .disk.model import RAID0Model
    return RAID0Model(num_children=2)


def _raid0_degraded() -> DeviceModel:
    from .disk.model import RAID0Model
    # The array collapsed to one member: same striped address space,
    # no parallelism left — every queue-split benefit gone.
    return RAID0Model(num_children=1)


def _throttled() -> DeviceModel:
    from .disk.model import SSDModel, ThrottledModel
    return ThrottledModel(SSDModel(), iops=60.0, burst=4)


def _throttled_tight() -> DeviceModel:
    from .disk.model import SSDModel, ThrottledModel
    # The cgroup limit cut to a third: the plateau shifts buckets
    # upward and swallows the device's native latency entirely.
    return ThrottledModel(SSDModel(), iops=20.0, burst=2)


SCENARIOS: Dict[str, Scenario] = {scenario.name: scenario for scenario in (
    Scenario(
        name="spindle-randomread",
        description="baseline: the paper's Section 6.1 random-read "
                    "workload on the stock 15kRPM SCSI spindle",
        workload="randomread", device="spindle (15kRPM SCSI)",
        device_factory=None, processes=2, iterations=800),
    Scenario(
        name="ssd-gc",
        description="flash under a write-heavy workload: bimodal "
                    "disk_write profile from erase-block GC pauses",
        workload="postmark", device="ssd",
        device_factory=_ssd, iterations=1600),
    Scenario(
        name="ssd-gc-worn",
        description="regression variant of ssd-gc: a worn drive with "
                    "4x GC frequency and 4x pause (gate must breach)",
        workload="postmark", device="ssd (worn)",
        device_factory=_ssd_worn, iterations=1600),
    Scenario(
        name="raid0-stripe",
        description="2-spindle RAID-0 under overlapping random reads "
                    "(private files, no shared i_sem): per-child "
                    "queues split the load and the disk_read profile "
                    "narrows versus one spindle",
        workload="randomread-private", device="raid0 (2 spindles)",
        device_factory=_raid0, processes=8, iterations=600),
    Scenario(
        name="raid0-degraded",
        description="regression variant of raid0-stripe: the array "
                    "reduced to one member, all queueing on one "
                    "spindle (gate must breach)",
        workload="randomread-private",
        device="raid0 (1 spindle, degraded)",
        device_factory=_raid0_degraded, processes=8, iterations=600),
    Scenario(
        name="throttled-iops",
        description="cgroup-style 60-IOPS token bucket over an SSD: "
                    "six readers contend for tokens and disk_read "
                    "collapses onto the inter-token plateau",
        workload="randomread", device="throttled(ssd) @60iops",
        device_factory=_throttled, processes=6, iterations=400),
    Scenario(
        name="throttled-iops-tight",
        description="regression variant of throttled-iops: the cap cut "
                    "to 20 IOPS (gate must breach)",
        workload="randomread", device="throttled(ssd) @20iops",
        device_factory=_throttled_tight, processes=6, iterations=400),
)}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario; raise :class:`UnknownScenarioError` if absent."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise UnknownScenarioError(name) from None


def build_device(scenario: Optional[str]) -> Optional[DeviceModel]:
    """A fresh device model for a scenario (None = stock spindle)."""
    if scenario is None:
        return None
    found = get_scenario(scenario)
    if found.device_factory is None:
        return None
    return found.device_factory()


def build_system(scenario: Optional[str] = None, *,
                 fs_type: str = "ext2", num_cpus: int = 1,
                 seed: int = 2006, patched_llseek: bool = False,
                 kernel_preemption: bool = False,
                 with_timer: bool = False, **build_kwargs):
    """The one construction funnel: registry row -> wired System.

    Every scenario consumer builds its machine here, so the CLI, shard
    workers, the fault matrix, and gate fixtures cannot drift apart in
    how a scenario's device is wired.  ``scenario=None`` is the plain
    default machine (identical to ``System.build`` with no device).
    """
    from .system import System
    return System.build(fs_type=fs_type, num_cpus=num_cpus, seed=seed,
                        patched_llseek=patched_llseek,
                        kernel_preemption=kernel_preemption,
                        with_timer=with_timer,
                        device=build_device(scenario), **build_kwargs)


def render_scenarios() -> str:
    """The ``--list-scenarios`` table: name, device, workload, description."""
    rows = [(s.name, s.device, s.workload, s.description)
            for _, s in sorted(SCENARIOS.items())]
    header = ("scenario", "device model", "workload", "description")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(3)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header[:3], widths))
             + "  " + header[3],
             "  ".join("-" * w for w in widths) + "  " + "-" * 11]
    for name, device, workload, description in rows:
        lines.append(f"{name.ljust(widths[0])}  {device.ljust(widths[1])}  "
                     f"{workload.ljust(widths[2])}  {description}")
    return "\n".join(lines)
