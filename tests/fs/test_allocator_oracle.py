"""Differential oracle: the run-based block allocator against a per-block one.

:class:`ReferenceAllocator` keeps the ``allocate`` that
``BlockAllocator.allocate`` replaced: it walks the disk one block at a
time and returns a list with one int per block.  It is kept here
verbatim as the reference, with one marked addition: a call that runs
off the disk restores ``_next`` and ``allocated`` before it raises, as
the production allocator does (the original left both advanced, so
``free_space()`` could go negative).

For any seed, fragmentation and sequence of counts on a disk small
enough to fill, both allocators must hand out the same blocks, keep the
same accounting, raise the same exception, and leave their random
streams at the same point.  The block map must also hold exactly one
run per stretch of consecutive blocks, and its page lookup must agree
with the reference list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.geometry import DiskGeometry
from repro.fs.mkfs import BlockAllocator
from repro.sim.rng import SimRandom


class ReferenceAllocator(BlockAllocator):
    """The per-block allocator, one list entry per block."""

    def allocate(self, count: int = 1):
        """Allocate *count* (mostly) contiguous blocks."""
        if count < 1:
            raise ValueError("must allocate at least one block")
        blocks = []
        # Addition: remember the accounting a failed call restores.
        saved = self._next, self.allocated
        # The draw chance(fragmentation) makes, without re-checking the
        # range __init__ already validated.
        random = self.rng.random
        fragmentation = self.fragmentation
        for _ in range(count):
            if random() < fragmentation:
                # Skip ahead: a hole left by deleted files.
                self._next += self.rng.randint(1, 64)
            if self._next >= self.geometry.num_blocks:
                # Addition: undo this call's accounting.
                self._next, self.allocated = saved
                raise RuntimeError("disk full")
            blocks.append(self._next)
            self._next += 1
            self.allocated += 1
        return blocks


def breaks(blocks):
    """Places where the next block does not follow the previous one."""
    return sum(1 for a, b in zip(blocks, blocks[1:]) if b != a + 1)


def outcome(allocate, count):
    try:
        return allocate(count), None
    except (RuntimeError, ValueError) as exc:
        return None, (type(exc), str(exc))


def state(alloc):
    return alloc._next, alloc.allocated, alloc.free_space()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       fragmentation=st.sampled_from([0.0, 0.02, 0.5, 0.99]),
       num_blocks=st.integers(1, 600),
       counts=st.lists(st.integers(0, 150), min_size=1, max_size=12))
def test_allocator_matches_the_per_block_reference(seed, fragmentation,
                                                  num_blocks, counts):
    geometry = DiskGeometry(num_blocks=num_blocks)
    alloc = BlockAllocator(geometry, SimRandom(seed), fragmentation)
    ref = ReferenceAllocator(geometry, SimRandom(seed), fragmentation)
    for count in counts:
        got, got_error = outcome(alloc.allocate, count)
        want, want_error = outcome(ref.allocate, count)
        assert got_error == want_error
        if want is not None:
            assert list(got) == want
            assert len(got) == count
            assert len(got.runs()) == 1 + breaks(want)
            assert [got[page] for page in range(count)] == want
        assert state(alloc) == state(ref)
        assert alloc.free_space() >= 0
    assert alloc.rng.random() == ref.rng.random()


@pytest.mark.parametrize("fragmentation", [0.0, 0.02, 0.5])
def test_one_large_file_is_a_few_runs(fragmentation):
    # A 64 MB file on a fresh disk: the map holds one entry per break.
    geometry = DiskGeometry(num_blocks=1 << 20)
    alloc = BlockAllocator(geometry, SimRandom(2006), fragmentation)
    ref = ReferenceAllocator(geometry, SimRandom(2006), fragmentation)
    got, want = alloc.allocate(16384), ref.allocate(16384)
    assert list(got) == want
    assert len(got.runs()) == 1 + breaks(want)
    assert alloc.rng.random() == ref.rng.random()
