"""Sharded parallel profile collection.

The paper's aggregate-stats library is built for SMP scale: per-CPU
bucket sets updated without locks and merged at collection time
(Section 3.4), with profiles small and checksummed so they are cheap to
ship around.  This module applies the same design one level up: a
workload is split into N *shards*, each shard runs on its own simulated
machine in its own worker process, and the per-shard profile sets are
streamed back through the binary codec
(:meth:`~repro.core.profileset.ProfileSet.to_bytes`) and folded together
with :meth:`~repro.core.profileset.ProfileSet.merge` — the same
histogram addition that merges per-thread buckets inside one machine.

Determinism is the whole point of the seed plumbing: shard *i* of a run
seeded ``s`` always simulates with ``derive_seed(s, "shard:i")``
(:func:`repro.sim.rng.derive_seed`), so the merged result depends only
on ``(workload, seed, shards)`` — never on the worker count, scheduling,
or whether the shards ran in parallel at all.  ``workers=1`` therefore
*is* the serial reference: the same shard plan executed in-process, and
the acceptance check ``collect_sharded(..., workers=N) ==
collect_sharded(..., workers=1)`` holds bucket-for-bucket.

Shard semantics per workload: the request-driven workloads
(``randomread``, ``postmark``, ``zerobyte``, ``clone``) divide their
``iterations`` across shards (remainder to the earliest shards); the
trace-shaped ``grep`` workload replicates — each shard greps a full
source tree generated from its own derived seed.

Self-healing: because a shard's result is a pure function of its
:class:`ShardTask` (same derived seed in → byte-identical payload out),
a crashed, hung, or corrupted worker can simply be re-run with the
*same* task up to ``max_retries`` times without perturbing the merge —
the recovered run stays byte-identical to a fault-free run.  A shard
that exhausts its retries either fails the collection loudly
(:class:`ShardError`) or, with ``salvage=True``, is dropped from the
merge and recorded in the result's ``degraded`` attribute so a partial
profile can never masquerade as a complete one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.rng import derive_seed
from ..workloads.runner import (PROFILE_LAYERS, WORKLOAD_NAMES,
                                collect_profiles)
from .faults import FaultPlan
from .profileset import ProfileSet

__all__ = ["ShardTask", "ShardError", "DEGRADED_ATTRIBUTE", "plan_shards",
           "run_shard", "collect_sharded"]

#: ProfileSet attribute naming the shards dropped from a salvaged merge.
DEGRADED_ATTRIBUTE = "degraded"


class ShardError(RuntimeError):
    """A shard failed every attempt (and salvage was not allowed)."""

    def __init__(self, failures: Dict[int, BaseException], attempts: int):
        detail = "; ".join(
            f"shard {index}: {exc}" for index, exc in sorted(failures.items()))
        super().__init__(
            f"{len(failures)} shard(s) failed after {attempts} attempt(s) "
            f"each: {detail}")
        self.failures = dict(failures)
        self.attempts = attempts

#: Workloads whose ``iterations`` are divided across shards; the rest
#: replicate the full workload per shard (with a derived seed).
ITERATION_SHARDED = ("randomread", "randomread-private", "postmark",
                     "zerobyte", "clone")


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to produce one shard's profile set.

    Frozen and built from plain scalars so it pickles cheaply into a
    worker process regardless of start method.
    """

    workload: str
    index: int
    shards: int
    seed: int                 # derived: derive_seed(base, f"shard:{index}")
    layer: str = "fs"
    fs_type: str = "ext2"
    num_cpus: int = 1
    scale: float = 0.02
    processes: int = 2
    iterations: int = 1000
    patched_llseek: bool = False
    kernel_preemption: bool = False
    scenario: Optional[str] = None  # registry name; device is rebuilt per shard


def plan_shards(workload: str, *, shards: int = 1, seed: int = 2006,
                layer: str = "fs", fs_type: str = "ext2",
                num_cpus: int = 1, scale: float = 0.02,
                processes: int = 2, iterations: int = 1000,
                patched_llseek: bool = False,
                kernel_preemption: bool = False,
                scenario: Optional[str] = None) -> List[ShardTask]:
    """Deterministically split a workload into per-shard tasks.

    ``scenario`` travels by *name*: each worker rebuilds a fresh device
    model from the registry, because model instances carry run state
    (head positions, GC counters, token buckets) that must not be shared
    across shard machines.
    """
    if scenario is not None:
        from ..scenarios import get_scenario  # validate before fan-out
        get_scenario(scenario)
    if workload not in WORKLOAD_NAMES:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of "
            f"{', '.join(WORKLOAD_NAMES)}")
    if layer not in PROFILE_LAYERS:
        raise ValueError(
            f"unknown layer {layer!r}; expected one of "
            f"{', '.join(PROFILE_LAYERS)}")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if workload in ITERATION_SHARDED and iterations < shards:
        raise ValueError(
            f"cannot split {iterations} iterations across {shards} shards")
    tasks = []
    base, remainder = divmod(iterations, shards)
    for index in range(shards):
        if workload in ITERATION_SHARDED:
            share = base + (1 if index < remainder else 0)
        else:
            share = iterations
        tasks.append(ShardTask(
            workload=workload, index=index, shards=shards,
            seed=derive_seed(seed, f"shard:{index}"), layer=layer,
            fs_type=fs_type, num_cpus=num_cpus, scale=scale,
            processes=processes, iterations=share,
            patched_llseek=patched_llseek,
            kernel_preemption=kernel_preemption,
            scenario=scenario))
    return tasks


def run_shard(task: ShardTask) -> bytes:
    """Execute one shard on a fresh simulated machine.

    Returns the shard's profile set in the checksummed binary wire
    format — this is what crosses the process boundary, exercising the
    same codec whether the shard ran remotely or in-process.
    """
    pset = collect_profiles(
        task.workload, layer=task.layer, fs_type=task.fs_type,
        num_cpus=task.num_cpus, seed=task.seed, scale=task.scale,
        processes=task.processes, iterations=task.iterations,
        patched_llseek=task.patched_llseek,
        kernel_preemption=task.kernel_preemption,
        scenario=task.scenario)
    return pset.to_bytes()


def _pool_context():
    # fork skips re-importing the package in workers; fall back to the
    # platform default (spawn) where fork is unavailable.  Imported here
    # so that a one-shard run, which takes the serial path, never loads
    # multiprocessing.
    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def _run_shard_job(job: Tuple[ShardTask, int, Optional[FaultPlan]]) -> bytes:
    """One worker attempt: fire armed faults, run the shard, return bytes.

    Module-level (not a closure) so it pickles into pool workers under
    any start method.  The fault plan travels by value with the job, so
    injection decisions are identical whether the attempt runs pooled
    or in-process.
    """
    task, attempt, plan = job
    key = f"shard:{task.index}"
    if plan is not None:
        plan.fire("shard.worker", key=key, attempt=attempt)
    payload = run_shard(task)
    if plan is not None:
        payload = plan.fire("shard.payload", key=key, attempt=attempt,
                            data=payload)
    return payload


def _decode_payload(payload: bytes) -> ProfileSet:
    """CRC-check and decode one shard payload (ValueError on damage)."""
    pset = ProfileSet.from_bytes(payload)
    bad = pset.verify_checksums()
    if bad:
        raise ValueError(f"shard profile fails checksum for: {bad}")
    return pset


def _collect_serial(tasks: List[ShardTask], max_retries: int,
                    fault_plan: Optional[FaultPlan],
                    ) -> Tuple[Dict[int, ProfileSet],
                               Dict[int, BaseException]]:
    results: Dict[int, ProfileSet] = {}
    failures: Dict[int, BaseException] = {}
    for task in tasks:
        last: Optional[BaseException] = None
        for attempt in range(max_retries + 1):
            try:
                payload = _run_shard_job((task, attempt, fault_plan))
                results[task.index] = _decode_payload(payload)
                break
            except (ValueError, RuntimeError, OSError) as exc:
                last = exc
        else:
            failures[task.index] = last if last is not None else RuntimeError(
                "shard failed with no recorded cause")
    return results, failures


def _collect_pooled(tasks: List[ShardTask], workers: int, max_retries: int,
                    deadline: Optional[float],
                    fault_plan: Optional[FaultPlan],
                    ) -> Tuple[Dict[int, ProfileSet],
                               Dict[int, BaseException]]:
    """Run shards in a pool with per-attempt deadlines and retries.

    A hung worker is detected by its attempt outliving *deadline*; the
    attempt is abandoned (the stuck process dies with the pool at exit)
    and the task is resubmitted — the same task, so the retried result
    is byte-identical to what the hung attempt would have produced.
    """
    results: Dict[int, ProfileSet] = {}
    failures: Dict[int, BaseException] = {}
    ctx = _pool_context()
    with ctx.Pool(min(workers, len(tasks))) as pool:
        # index -> (async result, attempt number, attempt start time)
        pending = {
            task.index: (pool.apply_async(_run_shard_job,
                                          ((task, 0, fault_plan),)),
                         0, time.monotonic())
            for task in tasks}
        by_index = {task.index: task for task in tasks}
        while pending:
            progressed = False
            for index, (handle, attempt, started) in list(pending.items()):
                failure: Optional[BaseException] = None
                if handle.ready():
                    progressed = True
                    try:
                        results[index] = _decode_payload(handle.get())
                        del pending[index]
                        continue
                    except (ValueError, RuntimeError, OSError) as exc:
                        failure = exc
                elif (deadline is not None
                        and time.monotonic() - started > deadline):
                    progressed = True
                    failure = TimeoutError(
                        f"shard {index} attempt {attempt} exceeded its "
                        f"{deadline:g}s deadline")
                if failure is None:
                    continue
                if attempt >= max_retries:
                    failures[index] = failure
                    del pending[index]
                else:
                    pending[index] = (
                        pool.apply_async(
                            _run_shard_job,
                            ((by_index[index], attempt + 1, fault_plan),)),
                        attempt + 1, time.monotonic())
            if pending and not progressed:
                time.sleep(0.002)
    return results, failures


def collect_sharded(workload: str, *, shards: int = 1,
                    workers: Optional[int] = None, seed: int = 2006,
                    layer: str = "fs", fs_type: str = "ext2",
                    num_cpus: int = 1, scale: float = 0.02,
                    processes: int = 2, iterations: int = 1000,
                    patched_llseek: bool = False,
                    kernel_preemption: bool = False,
                    scenario: Optional[str] = None,
                    deadline: Optional[float] = None,
                    max_retries: int = 2, salvage: bool = False,
                    fault_plan: Optional[FaultPlan] = None) -> ProfileSet:
    """Run a workload as *shards* independent shards and merge the profiles.

    ``workers`` bounds process-level parallelism (default: one per
    shard); it never changes the result.  Every shard payload passes the
    binary codec's CRC check before merging, so a corrupted worker
    result fails loudly instead of skewing the merged histogram.

    Self-healing: a shard whose attempt crashes, hangs past *deadline*
    (pooled runs only — an in-process shard cannot be preempted), or
    returns a corrupt payload is retried with the same task (same
    derived seed) up to ``max_retries`` times, so a recovered run is
    byte-identical to a fault-free one.  A shard failing every attempt
    raises :class:`ShardError` — unless ``salvage=True``, in which case
    the surviving shards merge and the result carries a ``degraded``
    attribute naming the dropped shards (never a silently short
    profile).  ``fault_plan`` arms deliberate failures for testing
    (see :mod:`repro.core.faults`).
    """
    tasks = plan_shards(
        workload, shards=shards, seed=seed, layer=layer, fs_type=fs_type,
        num_cpus=num_cpus, scale=scale, processes=processes,
        iterations=iterations, patched_llseek=patched_llseek,
        kernel_preemption=kernel_preemption, scenario=scenario)
    workers = len(tasks) if workers is None else workers
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if deadline is not None and deadline <= 0:
        raise ValueError("deadline must be positive")
    if workers == 1 or len(tasks) == 1:
        results, failures = _collect_serial(tasks, max_retries, fault_plan)
    else:
        results, failures = _collect_pooled(tasks, workers, max_retries,
                                            deadline, fault_plan)
    if failures and not salvage:
        raise ShardError(failures, attempts=max_retries + 1)
    if not results:
        raise ShardError(failures, attempts=max_retries + 1)
    merged: Optional[ProfileSet] = None
    for index in sorted(results):
        if merged is None:
            merged = results[index]
        else:
            merged.merge(results[index])
    assert merged is not None
    if failures:
        merged.attributes[DEGRADED_ATTRIBUTE] = "shards:" + ",".join(
            str(index) for index in sorted(failures))
    bad = merged.verify_checksums()
    if bad:
        raise ValueError(f"merged profile fails checksum for: {bad}")
    return merged
