"""Wait-state sampler overhead: observer-free bytes, bounded cost.

Two halves of the "always-on" claim:

* byte-identity — arming the sampler changes *nothing* measured: all
  three layer profiles of a sampled run are byte-identical to an
  unsampled run under the same seed (always asserted, CI included);
* bounded cost — the sampler's record path (one process-table walk per
  batch of ticks that fall between two engine events) stays under a
  documented fraction of the unsampled wall time at the default
  half-millisecond interval (threshold enforced only outside CI, like
  every timing gate in this suite).
"""

import os
import time

from conftest import run_once

from repro.workloads.runner import (collect_layer_profiles,
                                    collect_sampled_run)

SEED = 2006
ITERATIONS = 600
INTERVAL = 0.0005 * 1.7e9  # 0.5 ms of simulated time, in cycles

#: Documented bound: at a 0.5 ms sampling interval the sampler may add
#: at most 30% to the wall time of a randomread run.  The engine hands
#: the sampler all the ticks between two events in one call, so the
#: ~32k ticks of this run cost one process-table walk per batch
#: (measured +7% to +9% on a 2-vCPU VM); the slack absorbs
#: shared-runner noise.
OVERHEAD_BOUND = 0.30


def run_plain():
    return collect_layer_profiles("randomread", seed=SEED, processes=2,
                                  iterations=ITERATIONS)


def run_sampled():
    return collect_sampled_run("randomread",
                               state_sample_interval=INTERVAL,
                               seed=SEED, processes=2,
                               iterations=ITERATIONS)


def test_sampling_overhead(benchmark, artifacts):
    def experiment():
        plain_start = time.perf_counter()
        plain = run_plain()
        plain_elapsed = time.perf_counter() - plain_start
        sampled_start = time.perf_counter()
        sampled_layers, sprof, metrics = run_sampled()
        sampled_elapsed = time.perf_counter() - sampled_start
        return (plain, plain_elapsed, sampled_layers, sampled_elapsed,
                sprof, metrics)

    (plain, plain_elapsed, sampled_layers, sampled_elapsed, sprof,
     metrics) = run_once(benchmark, experiment)

    # -- byte-identity: the sampler is a pure observer ------------------------
    for layer in ("user", "fs", "driver"):
        assert sampled_layers[layer].to_bytes() == \
            plain[layer].to_bytes(), (
            f"{layer} profile moved when the sampler was armed")

    overhead = sampled_elapsed / plain_elapsed - 1.0
    capture_ns = metrics["osprof_sampler_overhead_ns_total"]
    per_tick_ns = capture_ns / max(1, metrics[
        "osprof_sample_intervals_total"])

    artifacts.add(
        "Wait-state sampler overhead (randomread, 2 procs, "
        f"{ITERATIONS} iterations, 0.5 ms interval)\n\n"
        f"unsampled wall time : {plain_elapsed * 1e3:8.1f} ms\n"
        f"sampled wall time   : {sampled_elapsed * 1e3:8.1f} ms "
        f"({overhead:+.1%})\n"
        f"samples captured    : {sprof.total_samples()} over "
        f"{sprof.intervals} interval(s)\n"
        f"capture loop cost   : {capture_ns / 1e6:.2f} ms total, "
        f"{per_tick_ns:.0f} ns/tick\n"
        f"documented bound    : +{OVERHEAD_BOUND:.0%} wall time\n"
        f"measured profiles   : byte-identical sampler on vs off")

    benchmark.extra_info["overhead"] = round(overhead, 4)
    benchmark.extra_info["per_tick_ns"] = round(per_tick_ns)
    benchmark.extra_info["samples"] = sprof.total_samples()

    # The sampler actually sampled (the run wasn't trivially short)...
    assert sprof.total_samples() > 100
    # ...its self-reported capture cost is consistent (captures cannot
    # have cost more than the whole sampled run)...
    assert 0 <= capture_ns <= sampled_elapsed * 1e9
    # ...and the wall-time cost stays within the documented bound
    # (outside CI: shared runners time too noisily to gate on).
    if not os.environ.get("CI"):
        assert overhead < OVERHEAD_BOUND, (
            f"sampler overhead {overhead:.1%} exceeds the documented "
            f"+{OVERHEAD_BOUND:.0%} bound")
