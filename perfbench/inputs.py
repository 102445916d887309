"""Generated inputs: real profile sets and state profiles from the seed.

Both the ``ingest`` payloads and the ``warehouse`` contents are captured
from pinned scenarios (sampler armed, so every run also yields wait-state
profiles) at seeds derived from the workload seed, so their shape is the
shape real collectors push.
"""

from __future__ import annotations

from typing import List, Tuple

from common import SAMPLE_INTERVAL_S, derive

#: The scenarios captured for the pool: cheap to run, and between them
#: a spindle, an SSD with GC stalls and a token-bucket throttle.
POOL_SCENARIOS = ("spindle-randomread", "ssd-gc", "throttled-iops")


def capture_pool(seed: int) -> Tuple[List[bytes], List[bytes]]:
    """(profile-set payloads, state-profile payloads), canonical bytes.

    Each scenario contributes its user, file-system and driver profile
    sets plus its wait-state profile.
    """
    from repro.scenarios import get_scenario
    from repro.sim.engine import seconds
    from repro.workloads.runner import collect_sampled_run
    psets: List[bytes] = []
    sprofs: List[bytes] = []
    for name in POOL_SCENARIOS:
        scenario = get_scenario(name)
        layers, sprof, _health = collect_sampled_run(
            scenario.workload,
            state_sample_interval=seconds(SAMPLE_INTERVAL_S),
            scenario=name, seed=derive(seed, f"pool:{name}"),
            fs_type=scenario.fs_type, scale=scenario.scale,
            processes=scenario.processes, iterations=scenario.iterations)
        psets.extend(layers[layer].to_bytes()
                     for layer in ("user", "fs", "driver"))
        sprofs.append(sprof.to_bytes())
    return psets, sprofs
