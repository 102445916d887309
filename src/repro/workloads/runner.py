"""Run a named workload on a freshly built machine.

One registry shared by the ``osprof run`` CLI path and the shard engine
(:mod:`repro.core.shard`), so a serial run and every parallel shard
execute exactly the same code with exactly the same parameters — the
precondition for merged shard profiles matching serial ones
bucket-for-bucket.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:
    from ..core.profileset import ProfileSet
    from ..sampling.stateprofile import StateProfile
    from ..system import System

__all__ = ["WORKLOAD_NAMES", "PROFILE_LAYERS", "run_named_workload",
           "collect_profiles", "collect_layer_profiles",
           "collect_sampled_run", "iter_segment_profiles"]

#: Workloads the runner (and therefore ``osprof run``) knows how to drive.
#: ``randomread-private`` is the random-read loop with one file per
#: process instead of the paper's single shared file: no shared i_sem,
#: so direct reads overlap and the device sees real queue depth.
WORKLOAD_NAMES = ("grep", "randomread", "randomread-private", "postmark",
                  "zerobyte", "clone")

#: Profiling layers a collection can be read from (Figure 2).
PROFILE_LAYERS = ("user", "fs", "driver")


def run_named_workload(system: System, workload: str, *,
                       seed: int = 2006, scale: float = 0.02,
                       processes: int = 2, iterations: int = 1000) -> None:
    """Drive *workload* to completion on an already-built *system*.

    ``scale``/``seed`` shape the grep source tree; ``processes`` and
    ``iterations`` parameterize the request-driven workloads.
    """
    if workload == "grep":
        from .grep import run_grep
        from .sourcetree import build_source_tree
        root, _ = build_source_tree(system, scale=scale, seed=seed)
        run_grep(system, root)
    elif workload == "randomread":
        from .randomread import RandomReadConfig, run_random_read
        run_random_read(system, RandomReadConfig(
            processes=processes, iterations=iterations))
    elif workload == "randomread-private":
        from .randomread import RandomReadConfig, run_random_read
        run_random_read(system, RandomReadConfig(
            processes=processes, iterations=iterations,
            files=processes))
    elif workload == "postmark":
        from .postmark import PostmarkConfig, run_postmark
        run_postmark(system, PostmarkConfig(
            files=max(10, iterations // 10), transactions=iterations))
    elif workload == "zerobyte":
        from .microbench import run_zero_byte_reads
        run_zero_byte_reads(system, processes=processes,
                            iterations=iterations)
    elif workload == "clone":
        from .microbench import CloneStress
        CloneStress(system).run(processes=processes, iterations=iterations)
    else:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of "
            f"{', '.join(WORKLOAD_NAMES)}")


def collect_profiles(workload: str, *, layer: str = "fs",
                     fs_type: str = "ext2", num_cpus: int = 1,
                     seed: int = 2006, scale: float = 0.02,
                     processes: int = 2, iterations: int = 1000,
                     patched_llseek: bool = False,
                     kernel_preemption: bool = False,
                     scenario: Optional[str] = None) -> ProfileSet:
    """Build a machine, run *workload*, return one layer's profile set.

    A thin selection over :func:`collect_layer_profiles` — all three
    profiling layers are always attached, so extracting one costs
    nothing extra and both entry points share a single construction
    path through the scenario registry.
    """
    if layer not in PROFILE_LAYERS:
        raise ValueError(
            f"unknown layer {layer!r}; expected one of "
            f"{', '.join(PROFILE_LAYERS)}")
    return collect_layer_profiles(
        workload, fs_type=fs_type, num_cpus=num_cpus, seed=seed,
        scale=scale, processes=processes, iterations=iterations,
        patched_llseek=patched_llseek,
        kernel_preemption=kernel_preemption, scenario=scenario)[layer]


def collect_layer_profiles(workload: str, *, fs_type: str = "ext2",
                           num_cpus: int = 1, seed: int = 2006,
                           scale: float = 0.02, processes: int = 2,
                           iterations: int = 1000,
                           patched_llseek: bool = False,
                           kernel_preemption: bool = False,
                           scenario: Optional[str] = None,
                           ) -> Dict[str, ProfileSet]:
    """One run, all of Figure 2's layers: layer name -> profile set.

    Because every layer emits through the same machine-wide pipeline,
    a single workload execution yields the user, file-system, and
    driver profiles together — the cross-layer comparison input of
    Section 3.1 without three per-layer reruns (and without the
    cross-run seed-alignment caveats those carry).

    ``scenario`` mounts that registry row's device model (SSD, RAID-0,
    throttled...); the workload and its parameters stay whatever the
    caller passed — scenario *defaults* are resolved by the CLI.
    """
    from ..scenarios import build_system
    system = build_system(scenario, fs_type=fs_type, num_cpus=num_cpus,
                          seed=seed, patched_llseek=patched_llseek,
                          kernel_preemption=kernel_preemption,
                          with_timer=False)
    run_named_workload(system, workload, seed=seed, scale=scale,
                       processes=processes, iterations=iterations)
    return {"user": system.user_profiles(),
            "fs": system.fs_profiles(),
            "driver": system.driver_profiles()}


def collect_sampled_run(workload: str, *,
                        state_sample_interval: float,
                        fs_type: str = "ext2", num_cpus: int = 1,
                        seed: int = 2006, scale: float = 0.02,
                        processes: int = 2, iterations: int = 1000,
                        patched_llseek: bool = False,
                        kernel_preemption: bool = False,
                        scenario: Optional[str] = None,
                        ) -> Tuple[Dict[str, ProfileSet], StateProfile,
                                   Dict[str, int]]:
    """One run with the wait-state sampler armed alongside measurement.

    Same construction funnel as :func:`collect_layer_profiles` plus a
    :class:`~repro.sampling.WaitStateSampler` ticking every
    ``state_sample_interval`` cycles.  Returns the measured per-layer
    profile sets (byte-identical to an unsampled run under the same
    seed — the sampler never perturbs the simulation), the accumulated
    :class:`StateProfile`, and the sampler's health-counter dict.
    """
    from ..scenarios import build_system
    system = build_system(scenario, fs_type=fs_type, num_cpus=num_cpus,
                          seed=seed, patched_llseek=patched_llseek,
                          kernel_preemption=kernel_preemption,
                          with_timer=False,
                          state_sample_interval=state_sample_interval)
    run_named_workload(system, workload, seed=seed, scale=scale,
                       processes=processes, iterations=iterations)
    layers = {"user": system.user_profiles(),
              "fs": system.fs_profiles(),
              "driver": system.driver_profiles()}
    return layers, system.state_profile(), system.state_sampler.metrics()


def iter_segment_profiles(workload: str, *, segments: int = 1,
                          seed: int = 2006,
                          **kwargs) -> Iterator[ProfileSet]:
    """Yield *segments* independent profile sets of one workload.

    Segment *i* runs on a fresh machine seeded
    ``derive_seed(seed, "segment:i")`` — the same derivation discipline
    as the shard engine, so a segment stream is reproducible from
    ``(workload, seed)`` alone.  This is the collector loop behind
    ``osprof push --workload``: each yielded set is one push to the
    continuous profiling service.
    """
    from ..sim.rng import derive_seed
    if segments < 1:
        raise ValueError("segments must be >= 1")
    for index in range(segments):
        yield collect_profiles(workload,
                               seed=derive_seed(seed, f"segment:{index}"),
                               **kwargs)
