"""Deterministic randomness for the simulator.

All stochastic behaviour in the simulated OS — execution-time jitter,
workload choices, disk geometry randomization — flows through one seeded
:class:`SimRandom`, so every experiment replays bit-identically.

Execution times use a log-normal jitter: real code-path latencies are
right-skewed (cache misses, TLB refills), and a log-normal around the
mean reproduces the slightly asymmetric peaks visible in the paper's
figures.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, TypeVar

__all__ = ["SimRandom", "derive_seed"]

T = TypeVar("T")

#: ``random.NV_MAGICCONST``: the Kinderman–Monahan constant 4·e^(-1/2)/√2.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


def derive_seed(base_seed: int, salt: str) -> int:
    """Deterministic child seed for ``(base_seed, salt)``.

    This is the seed-derivation rule behind :meth:`SimRandom.fork`,
    exposed separately so components that ship seeds across process
    boundaries (the shard engine) can derive them without constructing
    a generator.  Stable across interpreters and hash randomization
    (zlib.crc32, not ``hash()``).
    """
    import zlib

    return zlib.crc32(f"{base_seed}:{salt}".encode()) & 0x7FFFFFFF


class SimRandom:
    """Seeded random source with simulation-flavoured helpers."""

    def __init__(self, seed: int = 2006):
        self._rng = random.Random(seed)
        self._random = self._rng.random
        self.seed = seed

    def fork(self, salt: str) -> "SimRandom":
        """A derived, independent stream (e.g. one per subsystem).

        Deterministic: the same (seed, salt) always yields the same
        stream regardless of draw order elsewhere — and regardless of
        the interpreter's hash randomization (zlib.crc32, not hash()).
        """
        return SimRandom(derive_seed(self.seed, salt))

    # -- core draws ----------------------------------------------------------

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        return self._rng.random()

    def choice(self, items: Sequence[T]) -> T:
        return self._rng.choice(items)

    def shuffle(self, items: List[T]) -> None:
        self._rng.shuffle(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(items, k)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        return self._rng.random() < probability

    # -- latency-shaped draws ---------------------------------------------------

    def jitter(self, mean: float, sigma: float = 0.15) -> float:
        """Log-normal execution time with the given mean.

        ``sigma`` is the standard deviation of the underlying normal in
        log space; 0.15 keeps ~95% of draws within ±30% of the mean,
        which matches how tight the paper's CPU peaks are (about one
        bucket wide).
        """
        if not 0 < mean < math.inf:
            raise ValueError(
                f"mean must be positive and finite, got {mean!r}")
        if not 0 <= sigma < math.inf:
            raise ValueError(
                f"sigma must be non-negative and finite, got {sigma!r}")
        if sigma == 0:
            return mean
        mu = math.log(mean) - sigma * sigma / 2.0
        # random.lognormvariate(mu, sigma), inline: the same
        # Kinderman–Monahan draws and float arithmetic as
        # normalvariate, so the stream stays where it would be.
        random_ = self._random
        log = math.log
        while True:
            u1 = random_()
            u2 = 1.0 - random_()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                return math.exp(mu + z * sigma)

    def exponential(self, mean: float) -> float:
        """Exponential inter-arrival time with the given mean."""
        if not 0 < mean < math.inf:
            raise ValueError(
                f"mean must be positive and finite, got {mean!r}")
        return self._rng.expovariate(1.0 / mean)

    def pareto_cycles(self, minimum: float, alpha: float = 2.5) -> float:
        """Heavy-tailed latency (rare slow paths), bounded below."""
        if not 0 < minimum < math.inf:
            raise ValueError(
                f"minimum must be positive and finite, got {minimum!r}")
        if not 0 < alpha < math.inf:
            raise ValueError(
                f"alpha must be positive and finite, got {alpha!r}")
        return minimum * self._rng.paretovariate(alpha)
