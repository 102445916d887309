"""Differential oracle: the warehouse merge against its CSR predecessor.

``merged_profile_set`` folds each cached segment's ``parse_binary`` rows
with ``ProfileSet.fold_rows`` and then grows every folded op's
expansion by that segment's residual components.  The engine it
replaced — CSR columns folded by ``_OpAccumulator`` — is kept verbatim
in :mod:`tests.warehouse.reference_merged`.  Over generated segment
sets (mixed operations and layers, real and arbitrary multi-component
residuals) and every ``layer``/``op`` filter, both must give the same
bytes, the same latency partials per operation and the same
``latency_residual()`` per operation, which is what compaction
journals.  Equal partials, not just an equal rounded total, is what
keeps compacted residuals, and with them every later compaction,
byte-identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import MAX_BUCKET, BucketSpec
from repro.core.profile import Layer
from repro.core.profileset import ProfileSet
from repro.warehouse import ColumnarSegment, merged_profile_set

from . import reference_merged

OPS = ("read", "write", "llseek")
LAYERS = (Layer.USER, Layer.FILESYSTEM, Layer.DRIVER)
FILTERS = [(layer, op) for layer in (None,) + LAYERS
           for op in (None,) + OPS + ("absent",)]

#: Latencies over many magnitudes, so in-memory totals need several
#: expansion components and their encode drops a real residual.
latencies = st.one_of(
    st.sampled_from([0.0, 1e-9, 0.1, 1.0, 3.3, 1e6, 2.0 ** 53 + 1, 1e15]),
    st.floats(min_value=0, max_value=1e15, allow_nan=False,
              allow_infinity=False))
components = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False,
                       allow_infinity=False).filter(bool)


@st.composite
def segment_sets(draw):
    """1-6 segments at one resolution, each with its residual map.

    A segment's map is its in-memory residuals (the ones ingest
    journals), one op's entry replaced by drawn components — up to
    four, more than an ingest ever journals — or an entry for an op
    the segment lacks, which both engines must ignore.
    """
    spec = BucketSpec(draw(st.integers(min_value=1, max_value=8)))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        pset = ProfileSet(spec=spec)
        for op in draw(st.lists(st.sampled_from(OPS), unique=True,
                                max_size=3)):
            prof = pset.profile(op, draw(st.sampled_from(LAYERS)))
            for latency in draw(st.lists(latencies, max_size=6)):
                prof.add(latency)
            for bucket, count in draw(st.dictionaries(
                    st.integers(min_value=0, max_value=MAX_BUCKET),
                    st.integers(min_value=1, max_value=1000),
                    max_size=5)).items():
                prof.histogram.add_to_bucket(bucket, count)
        resid = {}
        for prof in pset:
            comps = tuple(prof.histogram.latency_residual())
            if comps:
                resid[prof.operation] = comps
        if draw(st.booleans()):
            resid[draw(st.sampled_from(OPS))] = tuple(
                draw(st.lists(components, min_size=1, max_size=4)))
        out.append((pset.to_bytes(), resid))
    return out


def merge_both(segments, layer, op):
    got = merged_profile_set(
        ((ColumnarSegment.from_bytes(blob), resid)
         for blob, resid in segments), layer=layer, op=op)
    want = reference_merged.merged_profile_set(
        ((reference_merged.ColumnarSegment.from_bytes(blob), resid)
         for blob, resid in segments), layer=layer, op=op)
    return got, want


@given(segment_sets())
@settings(max_examples=60, deadline=None)
def test_merge_matches_the_csr_engine_under_every_filter(segments):
    for layer, op in FILTERS:
        got, want = merge_both(segments, layer, op)
        assert got.to_bytes() == want.to_bytes()
        assert list(got._profiles) == list(want._profiles)
        for prof in want:
            mine = got[prof.operation].histogram
            theirs = prof.histogram
            assert prof.layer == got[prof.operation].layer
            assert list(mine._counts.items()) \
                == list(theirs._counts.items())
            assert mine._latency_partials == theirs._latency_partials
            assert mine.latency_residual() == theirs.latency_residual()

