"""``ProfileSet.merge`` folds in place with copy-then-merge arithmetic.

The reference is the merge it replaced: ``insert(prof.copy())`` for
every incoming profile.  ``Profile.copy`` re-grows the latency
expansion from empty, so folding an incoming histogram directly would
change ``_latency_partials`` — the exact total is the same real number,
but the component list is not, and that list feeds
``latency_residual()`` and through it the warehouse commit log.  These
tests pin the components element for element, including expansions
whose components span 1e-317 to 1e16, and pin that nothing of the
merged-in set is shared with the target afterwards.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import BucketSpec
from repro.core.profile import Layer
from repro.core.profileset import ProfileSet


def reference_merge(target: ProfileSet, other: ProfileSet) -> None:
    for prof in other:
        target.insert(prof.copy())


def state(pset: ProfileSet):
    """Everything a merge may touch, floats compared bit for bit."""
    return {op: (prof.layer, list(prof.histogram._counts.items()),
                 prof.histogram.total_ops,
                 [x.hex() for x in prof.histogram._latency_partials],
                 prof.histogram.min_latency, prof.histogram.max_latency)
            for op, prof in pset._profiles.items()}


magnitudes = st.one_of(
    st.floats(min_value=1e-317, max_value=1e16),
    st.integers(min_value=-317, max_value=16).map(lambda e: 10.0 ** e),
    st.integers(min_value=-317, max_value=16).map(lambda e: 3.3 * 10.0 ** e))


@st.composite
def profile_sets(draw, spec=BucketSpec(1)):
    pset = ProfileSet(spec=spec)
    for op in draw(st.lists(st.sampled_from(["read", "write", "llseek"]),
                            max_size=3, unique=True)):
        layer = draw(st.sampled_from([Layer.USER, Layer.DRIVER]))
        prof = pset.profile(op, layer)
        for lat in draw(st.lists(magnitudes, max_size=6)):
            prof.add(lat)
        # Residual components, as the warehouse folds them back in.
        prof.histogram.correct_total_latency(
            draw(st.lists(magnitudes.map(lambda x: -x) | magnitudes,
                          max_size=3)))
    return pset


class TestMergeParity:
    @given(st.lists(profile_sets(), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_partials_match_copy_then_merge(self, sets):
        got = ProfileSet()
        want = ProfileSet()
        for pset in sets:
            got.merge(pset)
            reference_merge(want, pset)
            assert state(got) == state(want)
        assert got.to_bytes() == want.to_bytes()
        for op in got.operations():
            assert got[op].histogram.latency_residual() \
                == want[op].histogram.latency_residual()

    def test_extreme_magnitudes(self):
        a = ProfileSet()
        b = ProfileSet()
        for x in (1e16, 1e-317, 3.0, 7e15, 1e-300):
            a.add("read", x)
        for x in (1e-317, 1e16, 2.5e-310, 0.1):
            b.add("read", x)
        b["read"].histogram.correct_total_latency([-1e-317, 5e-324])
        got, want = copy.deepcopy(a), copy.deepcopy(a)
        got.merge(b)
        reference_merge(want, b)
        assert state(got) == state(want)
        assert len(got["read"].histogram._latency_partials) > 1

    @given(profile_sets())
    @settings(max_examples=50, deadline=None)
    def test_merge_into_itself(self, pset):
        want = copy.deepcopy(pset)
        reference_merge(want, copy.deepcopy(pset))
        pset.merge(pset)
        assert state(pset) == state(want)


class TestMergeAliasing:
    def test_mutating_the_merged_in_set_leaves_the_target(self):
        target = ProfileSet()
        target.add("read", 100.0)
        other = ProfileSet()
        other.add("read", 5000.0)
        other.add("write", 70.0)
        target.merge(other)
        before = state(target)
        for prof in other:
            prof.add(1e9)
            prof.histogram.correct_total_latency([0.25])
            prof.layer = "changed"
        other.add("fsync", 3.0)
        assert state(target) == before
        assert "fsync" not in target

    def test_mutating_the_target_leaves_the_merged_in_set(self):
        other = ProfileSet()
        other.add("read", 5000.0)
        before = state(other)
        target = ProfileSet()
        target.merge(other)
        target.add("read", 1.0)
        target.merge(other)
        assert state(other) == before


class TestMergeResolution:
    def test_empty_set_of_another_resolution_merges_as_a_no_op(self):
        target = ProfileSet(spec=BucketSpec(1))
        target.add("read", 10.0)
        before = state(target)
        target.merge(ProfileSet(spec=BucketSpec(3)))
        assert target.spec == BucketSpec(1)
        assert state(target) == before
        empty = ProfileSet(spec=BucketSpec(1))
        empty.merge(ProfileSet(spec=BucketSpec(4)))
        assert empty.spec == BucketSpec(1) and len(empty) == 0

    def test_non_empty_set_of_another_resolution_is_refused(self):
        target = ProfileSet(spec=BucketSpec(1))
        target.add("read", 10.0)
        before = state(target)
        other = ProfileSet(spec=BucketSpec(2))
        other.add("read", 10.0)
        with pytest.raises(ValueError, match="resolution differs"):
            target.merge(other)
        assert state(target) == before
