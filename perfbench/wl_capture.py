"""``capture`` and ``capture-sampled``: the ``osprof run`` path.

One pass captures the four clean pinned scenarios serially at their
registry defaults, through the same construction funnel as ``osprof
run --scenario``.  Pass 0 runs at the pinned seed and is checked against
the committed digests; later passes run at seeds derived from the
workload seed.  ``capture-sampled`` arms the wait-state sampler at the
pinned 0.5 ms interval, so the simulated work is identical and any
difference is the sampler's cost.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
from typing import Dict, List, Optional, Tuple

from common import (PINNED_SEED, SAMPLE_INTERVAL_S, SCENARIOS, Checks,
                    Deadline, RefClock, derive, load_pins, load_state_pins,
                    median, metric, peak_rss_mb, run_cli, typical)

#: Times the set-up is repeated for the ``setup_s`` median.
SETUP_REPEATS = 5
#: Passes in the traced half: a fixed amount of work, so the call
#: counts repeat exactly for a given seed.
TRACED_PASSES = 2


def _digest(obj) -> str:
    return hashlib.sha256(obj.to_bytes()).hexdigest()


class CapturePass:
    """The result of one pass over the four scenarios."""

    def __init__(self, seed: int):
        self.seed = seed
        #: scenario -> reference seconds of its capture / user-layer ops.
        self.seconds: Dict[str, float] = {}
        self.ops: Dict[str, int] = {}
        #: scenario -> (driver profile set, state profile or None) until
        #: :meth:`finish` replaces them by their digests, which a traced
        #: run does only after the wrappers are gone, so encoding is
        #: never charged to the traced layers.
        self.outputs: Dict[str, tuple] = {}
        self.digests: Dict[str, Tuple[str, Optional[str]]] = {}
        self.sampler = {"ticks": 0, "samples": 0, "overhead_ns": 0}

    def total_s(self) -> float:
        return sum(self.seconds.values())

    def finish(self) -> "CapturePass":
        for name, (driver, sprof) in self.outputs.items():
            self.digests[name] = (_digest(driver), None if sprof is None
                                  else _digest(sprof))
        self.outputs.clear()
        return self


def pass_seed(seed: int, index: int) -> int:
    return PINNED_SEED if index == 0 else derive(seed, f"capture:{index}")


def run_pass(seed: int, sampled: bool, checks: Checks,
             clock: RefClock) -> CapturePass:
    from repro.scenarios import get_scenario
    from repro.sim.engine import seconds
    from repro.workloads.runner import (collect_layer_profiles,
                                        collect_sampled_run)
    result = CapturePass(seed)
    for name in SCENARIOS:
        scenario = get_scenario(name)
        params = dict(scenario=name, seed=seed, fs_type=scenario.fs_type,
                      scale=scenario.scale, processes=scenario.processes,
                      iterations=scenario.iterations)
        if sampled:
            (layers, sprof, health), result.seconds[name] = clock.time(
                collect_sampled_run, scenario.workload,
                state_sample_interval=seconds(SAMPLE_INTERVAL_S), **params)
        else:
            layers, result.seconds[name] = clock.time(
                collect_layer_profiles, scenario.workload, **params)
            sprof = health = None
        ops = result.ops[name] = layers["user"].total_ops()
        bad = [layer for layer, pset in layers.items()
               if not len(pset) or pset.verify_checksums()]
        checks.op(ops > 0 and not bad,
                  f"{name} seed {seed}: empty or bad layers {bad}")
        if sprof is not None:
            result.sampler["ticks"] += \
                health["osprof_sample_intervals_total"]
            result.sampler["samples"] += health["osprof_samples_total"]
            result.sampler["overhead_ns"] += \
                health["osprof_sampler_overhead_ns_total"]
            checks.op(sprof.total_samples() > 0,
                      f"{name} seed {seed}: sampler took no samples")
        result.outputs[name] = (layers["driver"], sprof)
        # Each `osprof run` starts from a clean heap; collecting the
        # previous capture's cycles here, outside the timed call, keeps
        # the peak RSS independent of where the collector happens to run.
        del layers, sprof
        gc.collect()
    return result


def check_pins(first: CapturePass, checks: Checks) -> None:
    """Pass 0 ran at the pinned seed: its bytes must match the pins."""
    pins = load_pins()
    state_pins = load_state_pins()
    for name, (driver, state) in first.digests.items():
        checks.op(driver == pins[f"scenario-{name}"],
                  f"{name}: driver profile differs from its pin")
        state_pin = state_pins.get(f"scenario-{name}-sampled")
        if state is not None and state_pin is not None:
            checks.op(state == state_pin,
                      f"{name}: state profile differs from its pin")


def run_phase(seed: int, sampled: bool, seconds: float, checks: Checks,
              clock: RefClock) -> List[CapturePass]:
    """Passes until the window closes (at least one).

    Each pass is finished at once, so memory stays flat however many
    passes fit.
    """
    deadline = Deadline(seconds)
    passes: List[CapturePass] = []
    while not passes or not deadline.passed():
        passes.append(run_pass(pass_seed(seed, len(passes)), sampled,
                               checks, clock).finish())
    return passes


def setup(clock: RefClock) -> float:
    """What ``osprof run`` pays before its workload starts.

    One set-up is a fresh interpreter starting the CLI (``osprof run
    --list-scenarios``: imports and argument parsing) plus building the
    four scenario machines in this process; the median of several, in
    reference seconds.
    """
    from repro.scenarios import build_system
    for module in ("repro.workloads.randomread", "repro.workloads.postmark",
                   "repro.workloads.runner", "repro.sampling"):
        importlib.import_module(module)

    def one_setup():
        run_cli("run", "--list-scenarios")
        for name in SCENARIOS:
            build_system(name, seed=PINNED_SEED, with_timer=False)

    return median([clock.time(one_setup)[1]
                   for _ in range(SETUP_REPEATS)])


def ops_per_s(passes: List[CapturePass]) -> float:
    """Profiled ops per reference second of a pass of typical captures.

    Each scenario's speed is the median over passes of its own captures,
    so a burst of host noise during one capture cannot move the figure.
    """
    pass_s = 0.0
    ops = 0.0
    for name in SCENARIOS:
        mean_ops = sum(p.ops[name] for p in passes) / len(passes)
        rate = median([p.ops[name] / p.seconds[name] for p in passes])
        ops += mean_ops
        pass_s += mean_ops / rate
    return ops / pass_s


def capture_ms(passes: List[CapturePass], name: str) -> float:
    return median([p.seconds[name] for p in passes]) * 1e3


def end_to_end(passes: List[CapturePass], setup_s: float
               ) -> Dict[str, Dict[str, object]]:
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ops_per_s": metric(ops_per_s(passes), "1/s"),
        "latency_ms": metric(typical([list(p.seconds.values())
                                      for p in passes], 50) * 1e3, "ms"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        checks: Checks):
    sampled = workload == "capture-sampled"
    clock = RefClock()
    setup_s = setup(clock)
    if not trace:
        passes = run_phase(seed, sampled, seconds, checks, clock)
        check_pins(passes[0], checks)
        notes = [f"{workload}: {len(passes)} passes; median capture ms "
                 + ", ".join(f"{name} {capture_ms(passes, name):.0f}"
                             for name in SCENARIOS)
                 + f"; host speed {clock.speed():.3f}"]
        return end_to_end(passes, setup_s), notes

    import tracer
    from layers import per_layer_metrics
    plain = run_phase(seed, sampled, seconds / 2, checks, clock)
    active = tracer.Tracer().install()
    try:
        traced = [run_pass(pass_seed(seed, index), sampled, checks, clock)
                  for index in range(TRACED_PASSES)]
    finally:
        active.uninstall()
    check_pins(plain[0], checks)
    common = min(len(plain), len(traced))
    for before, after in zip(plain[:common], traced[:common]):
        checks.op(before.digests == after.finish().digests,
                  f"seed {before.seed}: traced digests differ")
    overhead = (sum(p.total_s() for p in traced[:common])
                / sum(p.total_s() for p in plain[:common]) - 1.0) * 100.0
    extras = {
        "sampling.ticks": sum(p.sampler["ticks"] for p in traced),
        "sampling.samples": sum(p.sampler["samples"] for p in traced),
        "sampling.overhead_s": sum(p.sampler["overhead_ns"]
                                   for p in traced) / 1e9,
        "bench.tracing_overhead_pct": overhead,
        "error_ratio": checks.ratio(),
    }
    notes = [f"{workload}: {len(plain)} untraced and {len(traced)} traced "
             f"passes, tracing overhead {overhead:.0f}%"]
    return per_layer_metrics(active.snapshot(), extras), notes
