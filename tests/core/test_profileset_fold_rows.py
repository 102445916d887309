"""``ProfileSet.fold_rows`` folds decoded rows as ``merge`` folds sets.

The service folds a push's :func:`parse_binary` rows straight into the
open segment instead of decoding them into a set and merging that.  The
reference is the path it replaced, ``merge(ProfileSet.from_bytes(p))``:
the same bytes, and the same ``_latency_partials`` element for element
(they feed ``latency_residual()`` and through it the warehouse log),
for new and existing operations, extrema missing on either side, an
existing operation's layer, and every resolution.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import MAX_BUCKET, BucketSpec
from repro.core.profile import Layer
from repro.core.profileset import ProfileSet, parse_binary


def state(pset: ProfileSet):
    """Everything a fold may touch, floats compared bit for bit."""
    return {op: (prof.layer, list(prof.histogram._counts.items()),
                 prof.histogram.total_ops,
                 [x.hex() for x in prof.histogram._latency_partials],
                 prof.histogram.min_latency, prof.histogram.max_latency)
            for op, prof in pset._profiles.items()}


magnitudes = st.one_of(
    st.floats(min_value=0.0, max_value=1e16),
    st.integers(min_value=-317, max_value=16).map(lambda e: 10.0 ** e),
    st.integers(min_value=-317, max_value=16).map(lambda e: 3.3 * 10.0 ** e))


@st.composite
def profile_sets(draw, spec):
    pset = ProfileSet(spec=spec)
    for op in draw(st.lists(st.sampled_from(["read", "write", "llseek"]),
                            max_size=3, unique=True)):
        layer = draw(st.sampled_from([Layer.USER, Layer.DRIVER]))
        prof = pset.profile(op, layer)
        # Samples set min/max; direct bucket counts leave them None, and
        # an op with neither is an empty histogram.
        for lat in draw(st.lists(magnitudes, max_size=5)):
            prof.add(lat)
        for bucket, count in draw(st.lists(
                st.tuples(st.integers(0, MAX_BUCKET),
                          st.integers(1, 1 << 40)), max_size=3)):
            prof.histogram.add_to_bucket(bucket, count)
        prof.histogram.correct_total_latency(
            draw(st.lists(magnitudes.map(lambda x: -x) | magnitudes,
                          max_size=2)))
    return pset


@st.composite
def fold_cases(draw):
    spec = BucketSpec(draw(st.integers(1, 8)))
    target = draw(profile_sets(spec))
    payloads = [p.to_bytes() for p in draw(
        st.lists(profile_sets(spec), min_size=1, max_size=4))]
    return target, payloads


class TestFoldRowsParity:
    @given(fold_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_merge_of_decoded_set(self, case):
        target, payloads = case
        got = copy.deepcopy(target)
        want = copy.deepcopy(target)
        for payload in payloads:
            got.fold_rows(parse_binary(payload)[4])
            want.merge(ProfileSet.from_bytes(payload))
            assert state(got) == state(want)
        assert got.to_bytes() == want.to_bytes()

    def test_existing_op_keeps_its_layer(self):
        target = ProfileSet()
        target.add("read", 100.0, layer=Layer.USER)
        pushed = ProfileSet()
        pushed.add("read", 300.0, layer=Layer.DRIVER)
        pushed.add("write", 50.0, layer=Layer.DRIVER)
        target.fold_rows(parse_binary(pushed.to_bytes())[4])
        assert target["read"].layer == Layer.USER
        assert target["write"].layer == Layer.DRIVER
        assert target["read"].total_ops == 2
        assert (target["read"].histogram.min_latency,
                target["read"].histogram.max_latency) == (100.0, 300.0)

    def test_missing_extrema_on_either_side(self):
        with_extrema = ProfileSet()
        with_extrema.add("read", 70.0)
        bare = ProfileSet()
        bare.profile("read").histogram.add_to_bucket(9, 4)
        for target, pushed in ((with_extrema, bare), (bare, with_extrema)):
            got = copy.deepcopy(target)
            got.fold_rows(parse_binary(pushed.to_bytes())[4])
            hist = got["read"].histogram
            assert (hist.min_latency, hist.max_latency) == (70.0, 70.0)
            assert hist.total_ops == 5
