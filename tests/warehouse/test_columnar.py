"""Tests for the cached-segment merge engine behind warehouse queries.

The engine exists for speed, but its license to exist is byte
determinism: caching a segment's decoded rows and folding those rows
must reproduce ``ProfileSet.merged`` over the decoded sets
bit-for-bit — through layer/op filters, resid folding, tiered
compaction, and a directory reopen.  These tests pin that contract,
plus the decoded-segment cache that makes repeated queries cheap.
"""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import MAX_BUCKET, BucketSpec
from repro.core.profile import Layer, Profile
from repro.core.profileset import ProfileSet
from repro.warehouse import (ColumnarSegment, CompactionPolicy, Warehouse,
                             WarehouseError, merged_profile_set)

SMALL = CompactionPolicy(fanout=2, keep=(2, 2, 2))

op_names = st.text(alphabet="abcdefgh_", min_size=1, max_size=10)
latency_lists = st.lists(st.floats(min_value=0, max_value=1e14),
                         min_size=1, max_size=40)
layers = st.sampled_from([Layer.USER, Layer.FILESYSTEM, Layer.DRIVER,
                          Layer.NETWORK])


@st.composite
def profile_sets(draw):
    pset = ProfileSet(name=draw(st.text(alphabet="abcxyz", max_size=8)),
                      spec=BucketSpec(draw(st.integers(min_value=1,
                                                       max_value=4))),
                      attributes=draw(st.dictionaries(
                          st.text(alphabet="kv_", min_size=1, max_size=6),
                          st.text(alphabet="kv_", max_size=6),
                          max_size=3)))
    samples = draw(st.dictionaries(op_names, latency_lists, max_size=6))
    for (op, latencies), layer in zip(
            samples.items(), (draw(layers) for _ in samples)):
        for lat in latencies:
            pset.profile(op, layer).add(lat)
    return pset


#: Bucket ids over the whole range, with the edges and a few shared ids
#: drawn often so that inputs overlap as well as stay disjoint.
bucket_ids = st.one_of(st.sampled_from([0, 1, 255, MAX_BUCKET - 1,
                                        MAX_BUCKET]),
                       st.integers(min_value=0, max_value=MAX_BUCKET))


@st.composite
def merge_groups(draw):
    """1-6 sets at one resolution (1-8) with direct bucket counts."""
    spec = BucketSpec(draw(st.integers(min_value=1, max_value=8)))
    psets = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        pset = ProfileSet(spec=spec)
        for op in draw(st.lists(st.sampled_from(["read", "write", "llseek"]),
                                unique=True, max_size=3)):
            hist = pset.profile(op, draw(layers)).histogram
            for bucket, count in draw(st.dictionaries(
                    bucket_ids, st.integers(min_value=1, max_value=1000),
                    min_size=1, max_size=12)).items():
                hist.add_to_bucket(bucket, count)
        psets.append(pset)
    return psets


def random_pset(seed):
    rng = random.Random(seed)
    layer_pool = (Layer.FILESYSTEM, Layer.USER, Layer.DRIVER)
    out = ProfileSet()
    for op in rng.sample(["read", "write", "llseek", "readdir", "fsync",
                          "mmap", "open"], rng.randint(1, 4)):
        prof = Profile(op, layer=rng.choice(layer_pool))
        for _ in range(rng.randint(1, 40)):
            prof.add(rng.uniform(1.0, 1e6))
        out.insert(prof)
    return out


def filtered(pset, layer, op):
    """Restrict a set to one layer and/or operation (canonical copy)."""
    if layer is None and op is None:
        return pset
    out = ProfileSet(spec=pset.spec)
    for prof in pset:
        if op in (None, prof.operation) and layer in (None, prof.layer):
            out.insert(prof.copy())
    return out


def reference_query(wh, source, layer=None, op=None, t0=None, t1=None):
    """The oracle for ``Warehouse.query``: ``ProfileSet.merged`` over
    per-segment ``load_segment`` decodes of the same selection."""
    metas = wh.index.select(source, layer=layer, op=op, t0=t0, t1=t1)
    return ProfileSet.merged([filtered(wh.load_segment(meta), layer, op)
                              for meta in metas])


class TestDecode:
    @given(profile_sets())
    @settings(max_examples=60, deadline=None)
    def test_decode_reencodes_byte_identical(self, pset):
        blob = pset.to_bytes()
        cols = ColumnarSegment.from_bytes(blob)
        assert cols.to_profile_set().to_bytes() == blob

    @given(profile_sets())
    @settings(max_examples=30, deadline=None)
    def test_decode_matches_reference_decoder(self, pset):
        blob = pset.to_bytes()
        assert ColumnarSegment.from_bytes(blob).to_profile_set() \
            == ProfileSet.from_bytes(blob)

    def test_crc_is_the_stored_trailer(self):
        blob = random_pset(1).to_bytes()
        cols = ColumnarSegment.from_bytes(blob)
        assert cols.crc == int.from_bytes(blob[-4:], "little")
        assert cols.crc == zlib.crc32(blob[8:-4])
        assert cols.nbytes == len(blob)

    @pytest.mark.parametrize("mangle", [
        lambda b: b"XXXXXXXX" + b[8:],            # bad magic
        lambda b: b[:12],                          # truncated header
        lambda b: b[:-1],                          # truncated trailer
        lambda b: b + b"\x00",                     # trailing garbage
        lambda b: b[:-4] + bytes(4),               # wrong CRC
        lambda b: b[:20] + bytes([b[20] ^ 0xFF]) + b[21:],  # flipped byte
    ])
    def test_corruption_raises_value_error(self, mangle):
        blob = random_pset(2).to_bytes()
        with pytest.raises(ValueError):
            ColumnarSegment.from_bytes(mangle(blob))


class TestColumnarMerge:
    def segments(self, psets):
        return [(ColumnarSegment.from_bytes(p.to_bytes()), {})
                for p in psets]

    def test_merge_matches_profileset_merged(self):
        # Without resid sidecars the reference is a merge of the decoded
        # segments (rounded totals), exactly like reference_query.
        psets = [random_pset(seed) for seed in range(8)]
        merged = merged_profile_set(self.segments(psets))
        want = ProfileSet.merged([ProfileSet.from_bytes(p.to_bytes())
                                  for p in psets])
        assert merged.to_bytes() == want.to_bytes()

    def test_resid_components_restore_sum_exactness(self):
        # With each segment's residual folded back in, the merge is
        # byte-identical to merging the *original* in-memory sets,
        # whose Shewchuk partials never saw the encode rounding.
        psets = [random_pset(seed) for seed in range(8)]
        pairs = []
        for p in psets:
            resid = {prof.operation: tuple(prof.histogram
                                           .latency_residual())
                     for prof in p}
            pairs.append((ColumnarSegment.from_bytes(p.to_bytes()),
                          {op: comps for op, comps in resid.items()
                           if comps}))
        merged = merged_profile_set(pairs)
        assert merged.to_bytes() == ProfileSet.merged(psets).to_bytes()

    @pytest.mark.parametrize("layer,op", [
        (Layer.FILESYSTEM, None), (None, "read"),
        (Layer.USER, "llseek"), (Layer.NETWORK, None)])
    def test_filtered_merge_matches_legacy_filtering(self, layer, op):
        psets = [random_pset(seed) for seed in range(6)]
        merged = merged_profile_set(self.segments(psets),
                                    layer=layer, op=op)
        want = ProfileSet.merged([filtered(p, layer, op) for p in psets])
        assert merged.to_bytes() == want.to_bytes()

    @given(merge_groups())
    @settings(max_examples=80, deadline=None)
    def test_merge_finish_parity_over_the_whole_bucket_range(self, psets):
        blobs = [p.to_bytes() for p in psets]
        merged = merged_profile_set(
            (ColumnarSegment.from_bytes(blob), {}) for blob in blobs)
        want = ProfileSet.merged([ProfileSet.from_bytes(blob)
                                  for blob in blobs])
        assert merged.to_bytes() == want.to_bytes()
        for prof in merged:
            buckets = list(prof.histogram._counts)
            assert buckets == sorted(buckets)

    def test_empty_merge_is_default_empty_set(self):
        assert merged_profile_set([]).to_bytes() \
            == ProfileSet.merged([]).to_bytes()

    def test_resolution_mismatch_raises(self):
        a = ProfileSet(spec=BucketSpec(2))
        a.profile("read", Layer.FILESYSTEM).add(10.0)
        b = ProfileSet(spec=BucketSpec(3))
        b.profile("read", Layer.FILESYSTEM).add(10.0)
        with pytest.raises(ValueError, match="resolution"):
            merged_profile_set(self.segments([a, b]))


class TestEngineParity:
    """The merge engine agrees byte-for-byte with ``ProfileSet.merged``
    over per-segment decodes, on live and compacted disk state."""

    def fill(self, wh, seeds):
        for epoch, seed in enumerate(seeds):
            wh.ingest("web", random_pset(seed), epoch=epoch)

    @pytest.mark.parametrize("seed0", [100, 200, 300])
    def test_query_parity(self, tmp_path, seed0):
        wh = Warehouse(tmp_path, policy=SMALL)
        self.fill(wh, range(seed0, seed0 + 12))
        for kwargs in ({}, {"op": "read"}, {"layer": Layer.USER},
                       {"t0": 3, "t1": 9},
                       {"layer": Layer.FILESYSTEM, "op": "write"}):
            assert wh.query("web", **kwargs).to_bytes() \
                == reference_query(wh, "web", **kwargs).to_bytes()

    def test_parity_through_compaction_and_reopen(self, tmp_path):
        raw = [random_pset(seed) for seed in range(40, 56)]
        wh = Warehouse(tmp_path, policy=SMALL)
        for epoch, pset in enumerate(raw):
            wh.ingest("web", pset, epoch=epoch)
        while wh.compact():
            pass
        reopened = Warehouse(tmp_path, policy=SMALL)
        want = ProfileSet.merged(raw).to_bytes()
        assert reopened.query("web").to_bytes() == want
        assert reference_query(reopened, "web").to_bytes() == want

    def test_compaction_outputs_match_merged_inputs(self, tmp_path):
        raw = [random_pset(seed) for seed in range(70, 82)]
        wh = Warehouse(tmp_path, policy=SMALL)
        for epoch, pset in enumerate(raw):
            wh.ingest("web", pset, epoch=epoch)
        while wh.compact():
            pass
        outputs = [m for m in wh.segments("web") if m.tier > 0]
        assert outputs
        for meta in outputs:
            want = ProfileSet.merged(raw[meta.epoch:meta.epoch_end + 1])
            assert wh.load_segment(meta).to_bytes() == want.to_bytes()


class TestColumnCache:
    def test_repeat_queries_hit_the_cache(self, tmp_path):
        wh = Warehouse(tmp_path)
        for epoch in range(4):
            wh.ingest("web", random_pset(epoch), epoch=epoch)
        wh.query("web")
        assert (wh.cache_hits_total, wh.cache_misses_total) == (0, 4)
        wh.query("web")
        assert (wh.cache_hits_total, wh.cache_misses_total) == (4, 4)
        wh.query("web", op="read")  # postings narrow the selection
        assert wh.cache_misses_total == 4
        assert wh.cache_hits_total >= 4

    def test_compaction_invalidates_consumed_segments(self, tmp_path):
        wh = Warehouse(tmp_path, policy=SMALL)
        for epoch in range(6):
            wh.ingest("web", random_pset(epoch), epoch=epoch)
        wh.query("web")
        wh.compact()
        live = {m.seg_id for m in wh.segments("web")}
        assert set(wh._columns) <= live

    def test_gc_invalidates_evicted_segments(self, tmp_path):
        wh = Warehouse(tmp_path, policy=CompactionPolicy(fanout=2,
                                                         keep=(1, 1, 1)))
        for epoch in range(10):
            wh.ingest("web", random_pset(epoch), epoch=epoch)
        while wh.compact():
            pass
        wh.query("web")
        wh.gc()
        live = {m.seg_id for m in wh.segments("web")}
        assert set(wh._columns) <= live

    def test_cache_hit_validates_the_trailer_crc(self, tmp_path):
        wh = Warehouse(tmp_path)
        meta = wh.ingest("web", random_pset(5))
        wh.query("web")
        # Replace the segment file behind the cache's back: the stale
        # entry must be dropped, not served.
        replacement = random_pset(6).to_bytes()
        (tmp_path / meta.file).write_bytes(replacement)
        misses = wh.cache_misses_total
        cols = wh.load_columns(wh.segments("web")[0])
        assert wh.cache_misses_total == misses + 1
        assert cols.to_profile_set().to_bytes() == replacement

    def test_truncated_file_raises_warehouse_error(self, tmp_path):
        wh = Warehouse(tmp_path)
        meta = wh.ingest("web", random_pset(7))
        blob = (tmp_path / meta.file).read_bytes()
        (tmp_path / meta.file).write_bytes(blob[:2])
        wh._columns.clear()
        with pytest.raises(WarehouseError):
            wh.load_columns(wh.segments("web")[0])

    def test_short_file_on_a_cache_hit_reports_damage(self, tmp_path):
        # A file shorter than the trailer cannot be seeked from its end;
        # the hit falls back to a decode, whose message names the damage.
        wh = Warehouse(tmp_path)
        meta = wh.ingest("web", random_pset(7))
        wh.query("web")
        (tmp_path / meta.file).write_bytes(b"OS")
        with pytest.raises(WarehouseError,
                           match="damaged: not a binary osprof profile"):
            wh.load_columns(wh.segments("web")[0])

    def test_grown_file_on_a_cache_hit_reports_damage(self, tmp_path):
        # Grown, the file still ends in the cached CRC, so a trailer
        # check at the end of the file would serve the stale entry; the
        # check at the committed size sees more bytes than a trailer.
        wh = Warehouse(tmp_path)
        meta = wh.ingest("web", random_pset(7))
        wh.query("web")
        blob = (tmp_path / meta.file).read_bytes()
        (tmp_path / meta.file).write_bytes(
            blob + b"\0" * 6 + blob[-4:])
        with pytest.raises(WarehouseError,
                           match="damaged: binary profile CRC mismatch"):
            wh.load_columns(wh.segments("web")[0])
