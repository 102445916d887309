"""Tests for the wait-state sampler: determinism, provenance, isolation.

The two load-bearing properties:

* determinism — same seed, same interval, same StateProfile bytes, so
  sampled captures can be pinned by digest exactly like measured ones;
* isolation — arming the sampler never perturbs the simulation, so the
  measured profiles of a sampled run are byte-identical to an
  unsampled run under the same seed.
"""

import pytest

from repro.sampling import WaitStateSampler, canonical_wait_site
from repro.sim import Condition, WaitCondition
from repro.system import System
from repro.workloads.runner import (collect_layer_profiles,
                                    collect_sampled_run)


def seconds(s):
    """Seconds of simulated time in cycles (1.7 GHz, as the paper)."""
    return s * 1.7e9

INTERVAL = seconds(0.0005)


def sampled_randomread(processes=2, seed=2006, iterations=200,
                       interval=INTERVAL):
    return collect_sampled_run(
        "randomread", state_sample_interval=interval, seed=seed,
        processes=processes, iterations=iterations)


@pytest.fixture(scope="module")
def two_proc():
    return sampled_randomread(processes=2)


class TestCanonicalWaitSite:
    @pytest.mark.parametrize("raw,canon", [
        ("io:w1893", "io:write"),
        ("io:r20724", "io:read"),
        ("page:44", "page"),
        ("nfs:rpc-7", "nfs"),
        ("smb:oplock", "smb"),
        ("exit:519", "exit"),
    ])
    def test_per_request_families_collapse(self, raw, canon):
        assert canonical_wait_site(raw) == canon

    @pytest.mark.parametrize("site", [
        "sem:i_sem:3",      # the §6.1 signature stays per-inode
        "rw:super:read",
        "rw:super:write",
        "unknown",
        "-",
    ])
    def test_named_resources_pass_through(self, site):
        assert canonical_wait_site(site) == site

    def test_sampled_profile_only_contains_canonical_sites(self, two_proc):
        _layers, sprof, _metrics = two_proc
        for (_state, _layer, _op, site), _count in sprof:
            assert canonical_wait_site(site) == site


class TestDeterminism:
    def test_same_seed_same_state_bytes(self, two_proc):
        _layers, first, _m = two_proc
        _layers2, second, _m2 = sampled_randomread(processes=2)
        assert first.to_bytes() == second.to_bytes()

    def test_different_seed_diverges(self, two_proc):
        _layers, first, _m = two_proc
        _layers2, other, _m2 = sampled_randomread(processes=2, seed=7)
        assert first.to_bytes() != other.to_bytes()

    def test_measured_profiles_unperturbed_by_sampler(self, two_proc):
        sampled_layers, _sprof, _m = two_proc
        plain = collect_layer_profiles("randomread", seed=2006,
                                       processes=2, iterations=200)
        for layer in ("user", "fs", "driver"):
            assert sampled_layers[layer].to_bytes() == \
                plain[layer].to_bytes(), (
                f"{layer} profile moved when the sampler was armed")


class TestSection61Signature:
    def test_two_process_blocked_samples_dominated_by_i_sem(self,
                                                            two_proc):
        _layers, sprof, _m = two_proc
        sites = sprof.wait_sites()
        i_sem = sum(count for site, count in sites.items()
                    if site.startswith("sem:i_sem:"))
        # At any sampled instant one process holds i_sem across its
        # direct IO while the other waits on it, so blocked time splits
        # roughly evenly between the disk and the semaphore.
        assert i_sem >= 0.35 * sum(sites.values())
        # The §6.1 signature: llseek itself shows up blocked on the
        # inode semaphore (it has no IO of its own to wait for).
        llseek_on_sem = sum(
            count for (state, _layer, op, site), count in sprof
            if state == "blocked" and op == "llseek"
            and site.startswith("sem:i_sem:"))
        assert llseek_on_sem > 0

    def test_single_process_never_waits_on_i_sem(self):
        _layers, sprof, _m = sampled_randomread(processes=1)
        assert not any(site.startswith("sem:i_sem:")
                       for site in sprof.wait_sites())


class TestSamplerLifecycle:
    def build(self, interval=INTERVAL):
        return System.build(fs_type="ext2", seed=2006, with_timer=False,
                            state_sample_interval=interval)

    def test_armed_system_exposes_sampler(self):
        system = self.build()
        assert isinstance(system.state_sampler, WaitStateSampler)
        assert system.state_sampler.running
        assert system.state_sampler.interval == INTERVAL

    def test_unarmed_system_has_no_sampler(self):
        system = System.build(fs_type="ext2", seed=2006,
                              with_timer=False)
        assert system.state_sampler is None
        assert system.state_profile() is None

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            self.build(interval=0.0)
        with pytest.raises(ValueError):
            self.build(interval=-1.0)

    def test_stop_is_idempotent_start_rearms(self):
        sampler = self.build().state_sampler
        sampler.stop()
        sampler.stop()
        assert not sampler.running
        sampler.start()
        assert sampler.running

    def test_double_start_rejected(self):
        sampler = self.build().state_sampler
        with pytest.raises(RuntimeError):
            sampler.start()

    def test_stopped_sampler_accumulates_nothing(self):
        from repro.workloads.runner import run_named_workload
        system = self.build()
        system.state_sampler.stop()
        run_named_workload(system, "randomread", seed=2006,
                           processes=2, iterations=100)
        assert system.state_profile().total_samples() == 0

    def test_reset_clears_profile_but_counters_keep_running(self):
        from repro.workloads.runner import run_named_workload
        system = self.build()
        run_named_workload(system, "randomread", seed=2006,
                           processes=2, iterations=100)
        sampler = system.state_sampler
        before = sampler.metrics()
        assert before["osprof_samples_total"] > 0
        sampler.reset()
        assert sampler.profile().total_samples() == 0
        # Health counters are lifetime totals, not per-window.
        assert sampler.metrics() == before

    def test_armed_sampler_does_not_mask_a_deadlock(self):
        # The sampler queues no events: once the queue drains the run
        # ends and reports the deadlock, the clock where the last event
        # left it.
        system = self.build()
        never = Condition("never")

        def stuck(proc):
            yield WaitCondition(never)

        proc = system.kernel.spawn(stuck, "stuck")
        with pytest.raises(RuntimeError, match="^deadlock:"):
            system.kernel.run_until_done([proc], max_events=200_000)
        assert system.kernel.now == 0

    def test_profile_returns_a_snapshot_copy(self):
        sampler = self.build().state_sampler
        snap = sampler.profile()
        snap.add("blocked", "fs", "read", "io:read")
        assert sampler.profile().total_samples() == 0


class TestMetrics:
    def test_counters_match_profile(self, two_proc):
        _layers, sprof, metrics = two_proc
        assert metrics["osprof_samples_total"] == sprof.total_samples()
        assert metrics["osprof_sample_intervals_total"] == sprof.intervals
        assert metrics["osprof_sampler_overhead_ns_total"] >= 0
        assert sprof.total_samples() > 0
