"""Microbenchmarks of the library's hot paths (multi-round timing).

Unlike the experiment benches (one-shot regenerations), these measure
the reproduction's own performance: the per-sample profiling cost (the
Python analogue of the paper's 200-cycle hook budget), histogram
comparison, and simulator event throughput.  pytest-benchmark runs them
with its normal calibration, so regressions show up in the timing
table.
"""

import os
import time

from repro.analysis.compare import earth_movers_distance
from repro.core.buckets import BucketSpec, LatencyBuckets
from repro.core.pipeline import Pipeline, wire_probe
from repro.core.profile import Layer
from repro.core.profiler import Profiler
from repro.core.profileset import ProfileSet
from repro.core.shard import collect_sharded
from repro.sim.engine import Engine
from repro.sim.process import CpuBurst, YieldCpu
from repro.sim.scheduler import Kernel


def test_perf_bucket_add(benchmark):
    """One histogram update: the FSPROF_POST hot path."""
    hist = LatencyBuckets()

    def add():
        hist.add(123_456.0)

    benchmark(add)
    assert hist.verify_checksum()


def test_perf_bucket_lookup(benchmark):
    """The pure log2 bucketing arithmetic."""
    spec = BucketSpec()
    benchmark(spec.bucket, 987_654.321)


def test_perf_profiler_request(benchmark):
    """A full begin/end pair against the wall-clock TSC."""
    profiler = Profiler(name="perf")

    def request():
        token = profiler.begin("op")
        profiler.end(token)

    benchmark(request)


def test_perf_emd(benchmark):
    """EMD over two realistic 30-bucket profiles."""
    a = LatencyBuckets.from_counts({b: (b * 37) % 101 + 1
                                    for b in range(5, 35)})
    b_hist = LatencyBuckets.from_counts({b: (b * 53) % 97 + 1
                                         for b in range(5, 35)})
    result = benchmark(earth_movers_distance, a, b_hist)
    assert result >= 0


def test_perf_engine_events(benchmark):
    """Engine throughput: schedule + dispatch of 1000 events."""

    def run_1000():
        engine = Engine()
        for i in range(1000):
            engine.schedule(float(i), lambda: None)
        engine.run()
        return engine.events_processed

    assert benchmark(run_1000) == 1000


def test_perf_binary_codec_roundtrip(benchmark):
    """Encode + decode of a realistic multi-operation profile set."""
    pset = ProfileSet(name="bench")
    for op in ("read", "write", "llseek", "readdir", "lookup"):
        for b in range(5, 35):
            pset.profile(op).histogram.add_to_bucket(b, (b * 37) % 101 + 1)

    def roundtrip():
        return ProfileSet.from_bytes(pset.to_bytes())

    decoded = benchmark(roundtrip)
    assert decoded == pset
    benchmark.extra_info["payload_bytes"] = len(pset.to_bytes())


def test_perf_shard_scaling(benchmark):
    """Shard scaling: parallel collection must match serial bucket-for-bucket.

    The correctness half of the acceptance criterion is asserted hard:
    the merged 4-shard profile collected by 2 worker processes is
    byte-identical to the same shard plan run serially.  The wall-clock
    half is asserted only where it can hold — process-level parallelism
    of a CPU-bound simulation cannot beat serial on a single-core box,
    so there the timings are recorded (extra_info) but not enforced.
    """
    kwargs = dict(shards=4, seed=17, iterations=2_000, processes=2)

    t0 = time.perf_counter()
    serial = collect_sharded("randomread", workers=1, **kwargs)
    serial_elapsed = time.perf_counter() - t0

    parallel = benchmark.pedantic(
        lambda: collect_sharded("randomread", workers=2, **kwargs),
        rounds=1, iterations=1)
    t0 = time.perf_counter()
    collect_sharded("randomread", workers=2, **kwargs)
    parallel_elapsed = time.perf_counter() - t0

    assert parallel == serial
    assert parallel.to_bytes() == serial.to_bytes()
    benchmark.extra_info["serial_seconds"] = round(serial_elapsed, 4)
    benchmark.extra_info["parallel_seconds"] = round(parallel_elapsed, 4)
    benchmark.extra_info["speedup"] = round(
        serial_elapsed / parallel_elapsed, 3)
    benchmark.extra_info["cpus"] = os.cpu_count()
    if (os.cpu_count() or 1) >= 2:
        assert parallel_elapsed < serial_elapsed


def test_perf_scheduler_switches(benchmark):
    """Kernel throughput: 2 processes x 200 yield cycles."""

    def run_switches():
        kernel = Kernel(num_cpus=1, context_switch_cost=0.0,
                        tsc_skew_seconds=0.0)

        def body(proc):
            for _ in range(200):
                yield CpuBurst(10)
                yield YieldCpu()

        procs = [kernel.spawn(body, f"p{i}") for i in range(2)]
        kernel.run_until_done(procs)
        return kernel.engine.events_processed

    assert benchmark(run_switches) > 0


def test_perf_record_path_batched_vs_per_sample(benchmark):
    """The pipeline's batched record path against the seed per-sample path.

    Acceptance bar for the probe/event refactor: routing samples through
    the probe's event list with ``add_many``'s ``bit_length`` bucketing
    must be at least 1.3x faster than the pre-refactor per-sample
    ``ProfileSet.add`` loop over the same latencies, while producing a
    byte-identical ProfileSet.  The byte-identity half is always
    asserted; the throughput ratio is recorded in extra_info and only
    enforced outside CI (shared runners time too noisily to gate on).
    """
    n = 100_000
    # Deterministic pseudo-random latencies spanning the bucket range.
    state = 0x9E3779B9
    latencies = []
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        latencies.append(float(state % 10_000_000 + 1))
    operations = ("read", "write", "llseek")

    def per_sample():
        # The per-sample reference, spelled out because Profiler.record
        # records through a probe: one clamped ProfileSet.add a sample.
        pset = ProfileSet(name="seed")
        add = pset.add
        for i, lat in enumerate(latencies):
            add(operations[i % 3], max(lat, 0.0), layer=Layer.USER)
        return pset

    def batched():
        pipeline = Pipeline()
        profiler = Profiler(name="seed", layer=Layer.USER)
        probe = wire_probe(pipeline, Layer.USER, profiler=profiler)
        record = probe.record
        for i, lat in enumerate(latencies):
            record(operations[i % 3], lat)
        return profiler.profile_set()

    # Best-of-3 interleaved timings: a single pair is at the mercy of
    # whatever else the box is doing, and the ratio is what's gated.
    per_sample_elapsed = batched_elapsed = float("inf")
    baseline_set = None
    for _ in range(3):
        t0 = time.perf_counter()
        baseline_set = per_sample()
        per_sample_elapsed = min(per_sample_elapsed,
                                 time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched()
        batched_elapsed = min(batched_elapsed, time.perf_counter() - t0)

    batched_set = benchmark.pedantic(batched, rounds=3, iterations=1)
    assert batched_set.to_bytes() == baseline_set.to_bytes()
    speedup = per_sample_elapsed / batched_elapsed
    benchmark.extra_info["samples"] = n
    benchmark.extra_info["per_sample_seconds"] = round(per_sample_elapsed, 4)
    benchmark.extra_info["batched_seconds"] = round(batched_elapsed, 4)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    if not os.environ.get("CI"):
        assert speedup >= 1.3, (
            f"batched record path only {speedup:.2f}x faster "
            f"({batched_elapsed:.3f}s vs {per_sample_elapsed:.3f}s)")
