"""Differential oracle: the shared ``OSPROFB1`` parse against a cursor decoder.

:func:`reference_decode` is the decoder :func:`parse_binary` replaced:
a bounds-checked cursor that ``struct.unpack``\\ s one field at a time
and rebuilds every histogram with a per-bucket restore.  It is kept here
verbatim as the reference, with two marked additions.  The pair-count
bound of docs/FORMATS.md rejects a count no valid operation can carry
before its pairs are read; every input the bound rejects is also
rejected by the unbounded reference, so the two accept the same set,
and the bound only changes which message such a payload gets.  The
duplicate-attribute rule rejects a repeated attribute key, checked
after the key is read and before its value, where the original kept
the last value; it is part of both references, so it narrows what is
accepted (such a payload never re-encoded to its own bytes).

Both production decoders — ``ProfileSet.from_bytes`` and
``ColumnarSegment.from_bytes`` — must accept exactly what the reference
accepts, re-encode accepted input to the same bytes, and reject
everything else with the reference's exception type and message.  The
inputs are canonical encodings of generated sets (every resolution,
unicode names and attributes, each min/max flag combination, empty
operations) and raw payloads the encoder never writes (unsorted or
repeated buckets, zero counts, out-of-range indices, wrong totals),
each cut at every offset and with every byte flipped.  Flipped and cut
payloads get a fresh CRC so the structural checks behind it are
reached; the untouched-CRC variants exercise magic, trailer and CRC.
"""

import struct
import zlib
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import profileset
from repro.core.buckets import MAX_BUCKET, BucketSpec, LatencyBuckets
from repro.core.profile import Layer, Profile
from repro.core.profileset import MAX_PAIRS, ProfileSet
from repro.warehouse import ColumnarSegment

MAGIC = b"OSPROFB1"


# -- the reference decoder -----------------------------------------------------

class _Reader:
    """Bounds-checked cursor over a binary profile payload."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise ValueError(
                f"truncated binary profile: wanted {n} bytes at offset "
                f"{self.offset}, only {len(self.data) - self.offset} left")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str) -> Tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (length,) = self.unpack("<H")
        return self.take(length).decode("utf-8")


def _restore(counts: Dict[int, int], total_ops, total_latency, min_latency,
             max_latency, spec):
    """``LatencyBuckets.restore`` as the reference decoder called it."""
    hist = LatencyBuckets(spec)
    for b in sorted(counts):
        c = counts[b]
        if c < 0:
            raise ValueError(f"negative count {c} in bucket {b}")
        if b < 0 or b > MAX_BUCKET:
            raise ValueError(f"bucket index {b} out of range")
        if c:
            hist._counts[b] = c
    if sum(hist._counts.values()) != total_ops:
        raise ValueError(
            f"checksum mismatch: bucket counts sum to "
            f"{sum(hist._counts.values())}, header says {total_ops}")
    hist.total_ops = total_ops
    hist.total_latency = total_latency
    hist.min_latency = min_latency
    hist.max_latency = max_latency
    return hist


def reference_decode(data, bounded: bool = True) -> ProfileSet:
    """The cursor decoder; *bounded* adds the pair-count bound."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValueError("binary profile must be a bytes-like object")
    data = bytes(data)
    if not data.startswith(MAGIC):
        raise ValueError(
            f"not a binary osprof profile: magic {data[:8]!r}")
    if len(data) < len(MAGIC) + 4:
        raise ValueError("truncated binary profile: missing trailer")
    payload = data[len(MAGIC):-4]
    (declared_crc,) = struct.unpack("<I", data[-4:])
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if declared_crc != actual_crc:
        raise ValueError(
            f"binary profile CRC mismatch: trailer says "
            f"{declared_crc:#010x}, payload hashes to {actual_crc:#010x}")
    reader = _Reader(payload)
    (resolution,) = reader.unpack("<B")
    try:
        spec = BucketSpec(resolution)
    except ValueError as exc:
        raise ValueError(f"bad binary profile header: {exc}") from None
    name = reader.string()
    (nattrs,) = reader.unpack("<H")
    attributes = {}
    for _ in range(nattrs):
        key = reader.string()
        # Addition: a repeated attribute key is rejected, not last-wins.
        if key in attributes:
            raise ValueError(f"duplicate attribute {key!r}")
        attributes[key] = reader.string()
    pset = ProfileSet(name=name, spec=spec, attributes=attributes)
    (nprofiles,) = reader.unpack("<I")
    for _ in range(nprofiles):
        operation = reader.string()
        layer = reader.string()
        total_ops, total_latency = reader.unpack("<Qd")
        (flags,) = reader.unpack("<B")
        min_latency = reader.unpack("<d")[0] if flags & 1 else None
        max_latency = reader.unpack("<d")[0] if flags & 2 else None
        (nbuckets,) = reader.unpack("<I")
        # Addition: the pair-count bound.
        if bounded and nbuckets > MAX_PAIRS:
            raise ValueError(
                f"bad op {operation!r}: {nbuckets} bucket pairs, more "
                f"than the {MAX_PAIRS} bucket indices")
        counts: Dict[int, int] = {}
        for _ in range(nbuckets):
            bucket, count = reader.unpack("<HQ")
            if bucket in counts:
                raise ValueError(
                    f"duplicate bucket {bucket} in op {operation!r}")
            counts[bucket] = count
        if operation in pset._profiles:
            raise ValueError(f"duplicate op block {operation!r}")
        prof = Profile(operation, layer, spec)
        try:
            prof.histogram = _restore(counts, total_ops, total_latency,
                                      min_latency, max_latency, spec)
        except ValueError as exc:
            raise ValueError(f"bad op {operation!r}: {exc}") from None
        pset._profiles[operation] = prof
    if reader.offset != len(payload):
        raise ValueError(
            f"{len(payload) - reader.offset} trailing bytes after the "
            f"last profile")
    return pset


# -- comparison ------------------------------------------------------------------

def _outcome(decode, data):
    """``("ok", re-encoded bytes)`` or ``("error", type, message)``."""
    try:
        return ("ok", decode(data))
    except ValueError as exc:
        return ("error", type(exc), str(exc))


def _columnar(data) -> bytes:
    return ColumnarSegment.from_bytes(data).to_profile_set().to_bytes()


def _object(data) -> bytes:
    pset = ProfileSet.from_bytes(data)
    for prof in pset:
        counts = prof.histogram._counts
        assert list(counts) == sorted(counts), "counts not ascending"
        assert all(counts.values()), "zero count kept"
    return pset.to_bytes()


def assert_decoders_agree(data) -> bool:
    """Both decoders behave as the reference on *data*; True if accepted."""
    want = _outcome(lambda d: reference_decode(d).to_bytes(), data)
    assert _outcome(_object, data) == want
    assert _outcome(_columnar, data) == want
    unbounded = _outcome(lambda d: reference_decode(d, bounded=False)
                         .to_bytes(), data)
    assert unbounded[0] == want[0]
    return want[0] == "ok"


def with_crc(payload: bytes) -> bytes:
    return MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


def check_every_cut_and_flip(blob: bytes, flip: int) -> None:
    assert_decoders_agree(blob)
    payload = blob[len(MAGIC):-4]
    for cut in range(len(blob)):
        assert_decoders_agree(blob[:cut])
    for cut in range(len(payload)):
        assert_decoders_agree(with_crc(payload[:cut]))
    for i in range(len(blob)):
        mangled = bytearray(blob)
        mangled[i] ^= flip
        assert_decoders_agree(bytes(mangled))
    for i in range(len(payload)):
        mangled = bytearray(payload)
        mangled[i] ^= flip
        assert_decoders_agree(with_crc(bytes(mangled)))


# -- generated inputs ----------------------------------------------------------

texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
op_names = st.text(alphabet="abcdé_", min_size=1, max_size=6)
latencies = st.floats(min_value=0, max_value=1e15)
flips = st.integers(min_value=1, max_value=255)


@st.composite
def profile_sets(draw):
    spec = BucketSpec(draw(st.integers(min_value=1, max_value=8)))
    pset = ProfileSet(name=draw(texts), spec=spec,
                      attributes=draw(st.dictionaries(texts, texts,
                                                      max_size=2)))
    for op in draw(st.lists(op_names, max_size=3, unique=True)):
        prof = pset.profile(op, draw(st.sampled_from(
            [Layer.USER, Layer.FILESYSTEM, Layer.DRIVER, ""])))
        for lat in draw(st.lists(latencies, max_size=6)):
            prof.add(lat)
        hist = prof.histogram
        has_min, has_max = draw(st.sampled_from(
            [(False, False), (True, False), (False, True), (True, True)]))
        hist.min_latency = draw(latencies) if has_min else None
        hist.max_latency = draw(latencies) if has_max else None
    return pset


def _str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


@st.composite
def raw_payloads(draw):
    """Payloads with fields the canonical encoder never writes."""
    out = [struct.pack("<B", draw(st.integers(min_value=0, max_value=9))),
           _str(draw(st.sampled_from(["", "x"]))), struct.pack("<H", 0)]
    ops = draw(st.lists(st.sampled_from(["read", "write", ""]),
                        max_size=3))
    out.append(struct.pack("<I", len(ops)))
    for op in ops:
        pairs = draw(st.lists(st.tuples(
            st.sampled_from([0, 3, 7, MAX_BUCKET, MAX_BUCKET + 1, 0xFFFF]),
            st.integers(min_value=0, max_value=3)), max_size=4))
        total = sum(c for _, c in pairs) + draw(st.sampled_from([0, 0, 1]))
        flags = draw(st.integers(min_value=0, max_value=7))
        out.append(_str(op) + _str("driver")
                   + struct.pack("<QdB", total, 12.5, flags))
        out.extend(struct.pack("<d", 1.0) for bit in (1, 2) if flags & bit)
        out.append(struct.pack("<I", len(pairs)))
        out.extend(struct.pack("<HQ", b, c) for b, c in pairs)
    return with_crc(b"".join(out))


class TestDifferentialOracle:
    @given(profile_sets(), flips)
    @settings(max_examples=40, deadline=None)
    def test_canonical_encodings_every_cut_and_flip(self, pset, flip):
        blob = pset.to_bytes()
        assert assert_decoders_agree(blob)
        check_every_cut_and_flip(blob, flip)

    @given(raw_payloads(), flips)
    @settings(max_examples=80, deadline=None)
    def test_raw_payloads_every_cut_and_flip(self, blob, flip):
        check_every_cut_and_flip(blob, flip)

    @pytest.mark.parametrize("data", [
        b"", b"OSPROFB", MAGIC, MAGIC + b"\x00\x00\x00",
        bytearray(with_crc(b"\x01\x00\x00\x00\x00\x00\x00\x00\x00")),
        memoryview(with_crc(b"\x01\x00\x00\x00\x00\x00\x00\x00\x00")),
        "OSPROFB1", None])
    def test_edge_inputs(self, data):
        assert_decoders_agree(data)


# -- the pair-count bound ----------------------------------------------------------

def _one_op(pairs, total=None) -> bytes:
    body = (struct.pack("<B", 1) + _str("") + struct.pack("<HI", 0, 1)
            + _str("read") + _str("driver")
            + struct.pack("<QdB", sum(c for _, c in pairs)
                          if total is None else total, 1.0, 0)
            + struct.pack("<I", len(pairs))
            + b"".join(struct.pack("<HQ", b, c) for b, c in pairs))
    return with_crc(body)


class TestPairCountBound:
    @pytest.mark.parametrize("decode", [ProfileSet.from_bytes,
                                        ColumnarSegment.from_bytes])
    def test_oversized_op_is_rejected_without_caching_a_reader(self,
                                                               decode):
        # CRC-valid payloads whose one op carries far more pairs than
        # there are buckets: each is rejected, and none may leave a
        # bulk reader for its length behind.
        for seed in range(3):
            n = 50_000 + seed
            blob = _one_op([((i * 7 + seed) % 0xFFFF, 1)
                            for i in range(n)])
            with pytest.raises(ValueError,
                               match=f"{n} bucket pairs, more than the "
                                     f"{MAX_PAIRS} bucket indices"):
                decode(blob)
        assert max(profileset._PAIRS, default=0) <= MAX_PAIRS

    def test_every_bucket_once_is_accepted(self):
        pairs = [(b, 1) for b in range(MAX_BUCKET, -1, -1)]
        assert len(pairs) == MAX_PAIRS
        blob = _one_op(pairs)
        assert assert_decoders_agree(blob)
        counts = ProfileSet.from_bytes(blob)["read"].histogram._counts
        assert list(counts) == list(range(MAX_BUCKET + 1))

    def test_one_more_pair_than_buckets_hits_the_bound(self):
        blob = _one_op([(b, 1) for b in range(MAX_PAIRS + 1)])
        with pytest.raises(ValueError, match="bucket pairs"):
            ColumnarSegment.from_bytes(blob)
        # The unbounded reference rejects it too, only later.
        with pytest.raises(ValueError, match="out of range"):
            reference_decode(blob, bounded=False)


class TestRejectionOrder:
    """Messages follow the reference's field-by-field order."""

    def test_first_repeat_in_stream_order_is_named(self):
        blob = _one_op([(9, 1), (4, 1), (9, 1), (4, 1)])
        with pytest.raises(ValueError, match="duplicate bucket 9 "):
            ColumnarSegment.from_bytes(blob)
        assert_decoders_agree(blob)

    def test_smallest_out_of_range_bucket_is_named(self):
        blob = _one_op([(0xFFFF, 1), (600, 1), (2, 1)])
        with pytest.raises(ValueError, match="bucket index 600 "):
            ProfileSet.from_bytes(blob)
        assert_decoders_agree(blob)

    def test_repeat_before_cut_wins_over_truncation(self):
        payload = _one_op([(5, 1), (5, 1), (6, 1)])[len(MAGIC):-4]
        blob = with_crc(payload[:-3])
        with pytest.raises(ValueError, match="duplicate bucket 5"):
            ColumnarSegment.from_bytes(blob)
        assert_decoders_agree(blob)

    def test_repeated_attribute_key_is_rejected(self):
        body = (struct.pack("<B", 1) + _str("") + struct.pack("<H", 2)
                + _str("k") + _str("a") + _str("k") + _str("b")
                + struct.pack("<I", 0))
        blob = with_crc(body)
        for decode in (ProfileSet.from_bytes, ColumnarSegment.from_bytes):
            with pytest.raises(ValueError,
                               match="^duplicate attribute 'k'$"):
                decode(blob)
        assert not assert_decoders_agree(blob)
        # The key is checked before its value is read.
        with pytest.raises(ValueError, match="duplicate attribute"):
            ProfileSet.from_bytes(with_crc(body[:-len(_str("b")) - 4]))

    def test_zero_counts_are_dropped(self):
        blob = _one_op([(7, 0), (3, 2), (5, 0)])
        assert assert_decoders_agree(blob)
        [row] = ColumnarSegment.from_bytes(blob).rows
        assert (row[6], row[7]) == ((3,), (2,))
        assert ProfileSet.from_bytes(blob)["read"].counts() == {3: 2}
