"""Differential oracle: the ``OSPROFS1`` codec against its cursor original.

:func:`reference_decode` is the decoder :meth:`StateProfile.from_bytes`
replaced when it moved onto the framing helpers ``OSPROFB1`` uses in
:mod:`repro.core.profileset`: a bounds-checked cursor that
``struct.unpack``\\ s one field at a time.  It is kept here verbatim,
with two marked additions the shared helpers brought:

* a repeated attribute key is rejected, checked after the key is read
  and before its value (the original kept the last value, so such a
  payload never re-encoded to its own bytes);
* zero-count cells are dropped, as ``add()`` never keeps one (the
  original kept them, giving a profile no ``add()`` sequence builds).

:func:`reference_encode` is the original encoder, verbatim.

The production codec must accept exactly what the reference accepts,
re-encode accepted input to the same bytes, and reject everything else
with the reference's exception type and message.  The one message the
shared helpers reworded is mapped in :data:`REWORDED`.  The inputs are
canonical encodings of generated profiles (unicode names, attributes
and cells, intervals from 0, counts up to 2**63) and raw payloads the
encoder never writes (zero counts, repeated cells and attributes,
unsorted cells, bad intervals), each cut at every offset and with every
byte flipped, once with the CRC re-sealed, so the structural checks
behind it are reached, and once untouched.
"""

import math
import struct
import zlib
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import StateProfile

MAGIC = b"OSPROFS1"

#: Messages the shared framing words differently: reference -> codec.
REWORDED = {
    "binary state profile must be a bytes-like object":
        "state profile must be a bytes-like object",
}


# -- the reference codec ------------------------------------------------------

class _Reader:
    """Bounds-checked cursor over a binary state-profile payload."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise ValueError(
                f"truncated state profile: wanted {n} bytes at offset "
                f"{self.offset}, only {len(self.data) - self.offset} left")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str) -> Tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (length,) = self.unpack("<H")
        return self.take(length).decode("utf-8")


def _pack_str(out: List[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string too long for state profile: {text[:40]!r}...")
    out.append(struct.pack("<H", len(raw)))
    out.append(raw)


def reference_encode(sprof: StateProfile) -> bytes:
    out: List[bytes] = []
    _pack_str(out, sprof.name)
    out.append(struct.pack("<dQ", sprof.interval, sprof.intervals))
    attrs = sorted(sprof.attributes.items())
    out.append(struct.pack("<H", len(attrs)))
    for key, value in attrs:
        _pack_str(out, key)
        _pack_str(out, value)
    out.append(struct.pack("<I", len(sprof._counts)))
    for (state, layer, op, site) in sorted(sprof._counts):
        _pack_str(out, state)
        _pack_str(out, layer)
        _pack_str(out, op)
        _pack_str(out, site)
        out.append(struct.pack(
            "<Q", sprof._counts[(state, layer, op, site)]))
    payload = b"".join(out)
    return (MAGIC + payload
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def reference_decode(data) -> StateProfile:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValueError("binary state profile must be a bytes-like "
                         "object")
    data = bytes(data)
    if not data.startswith(MAGIC):
        raise ValueError(
            f"not a binary state profile: magic {data[:8]!r}")
    if len(data) < len(MAGIC) + 4:
        raise ValueError("truncated state profile: missing trailer")
    payload = data[len(MAGIC):-4]
    (declared_crc,) = struct.unpack("<I", data[-4:])
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if declared_crc != actual_crc:
        raise ValueError(
            f"state profile CRC mismatch: trailer says "
            f"{declared_crc:#010x}, payload hashes to {actual_crc:#010x}")
    reader = _Reader(payload)
    name = reader.string()
    interval, intervals = reader.unpack("<dQ")
    if not 0 <= interval < math.inf:
        raise ValueError(f"bad state profile: interval {interval} is "
                         f"not non-negative and finite")
    (nattrs,) = reader.unpack("<H")
    attributes = {}
    for _ in range(nattrs):
        key = reader.string()
        # Addition: a repeated attribute key is rejected, not last-wins.
        if key in attributes:
            raise ValueError(f"duplicate attribute {key!r}")
        attributes[key] = reader.string()
    sprof = StateProfile(name=name, interval=interval,
                         attributes=attributes)
    sprof.intervals = intervals
    (ncells,) = reader.unpack("<I")
    for _ in range(ncells):
        state = reader.string()
        layer = reader.string()
        op = reader.string()
        site = reader.string()
        (count,) = reader.unpack("<Q")
        key = (state, layer, op, site)
        if key in sprof._counts:
            raise ValueError(f"duplicate cell {key!r}")
        sprof._counts[key] = count
    if reader.offset != len(payload):
        raise ValueError(
            f"{len(payload) - reader.offset} trailing bytes after the "
            f"last cell")
    # Addition: zero-count cells are dropped.
    sprof._counts = {key: n for key, n in sprof._counts.items() if n}
    return sprof


# -- comparison ---------------------------------------------------------------

def _outcome(decode, data):
    """``("ok", re-encoded bytes)`` or ``("error", type, message)``."""
    try:
        return ("ok", decode(data).to_bytes())
    except ValueError as exc:
        return ("error", type(exc), str(exc))


def assert_decoders_agree(data) -> bool:
    """The codec behaves as the reference on *data*; True if accepted."""
    want = _outcome(reference_decode, data)
    if want[0] == "error":
        want = want[:2] + (REWORDED.get(want[2], want[2]),)
    got = _outcome(StateProfile.from_bytes, data)
    assert got == want
    if got[0] == "ok":
        decoded = StateProfile.from_bytes(data)
        assert reference_encode(decoded) == got[1]
        assert 0 not in decoded.cells().values()
    return got[0] == "ok"


def with_crc(payload: bytes) -> bytes:
    return MAGIC + payload + struct.pack("<I", zlib.crc32(payload))


def check_every_cut_and_flip(blob: bytes) -> None:
    assert_decoders_agree(blob)
    payload = blob[len(MAGIC):-4]
    for cut in range(len(blob)):
        assert_decoders_agree(blob[:cut])
    for cut in range(len(payload)):
        assert_decoders_agree(with_crc(payload[:cut]))
    for flip in (0x01, 0x80):
        for i in range(len(blob)):
            mangled = bytearray(blob)
            mangled[i] ^= flip
            assert_decoders_agree(bytes(mangled))
        for i in range(len(payload)):
            mangled = bytearray(payload)
            mangled[i] ^= flip
            assert_decoders_agree(with_crc(bytes(mangled)))


# -- generated inputs ---------------------------------------------------------

texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=5)
intervals = st.one_of(st.just(0.0),
                      st.floats(min_value=0, max_value=1e12))
counts = st.integers(min_value=1, max_value=2 ** 63)


@st.composite
def state_profiles(draw):
    sprof = StateProfile(name=draw(texts), interval=draw(intervals),
                         attributes=draw(st.dictionaries(texts, texts,
                                                         max_size=2)))
    sprof.intervals = draw(st.integers(min_value=0, max_value=2 ** 63))
    cells = draw(st.dictionaries(st.tuples(texts, texts, texts, texts),
                                 counts, max_size=3))
    for key, count in cells.items():
        sprof.add(*key, count=count)
    return sprof


def _str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


@st.composite
def raw_payloads(draw):
    """Payloads with fields the canonical encoder never writes."""
    out = [_str(draw(st.sampled_from(["", "s"]))),
           struct.pack("<dQ", draw(st.sampled_from(
               [0.0, 2.5, -1.0, math.nan, math.inf])), 3)]
    keys = draw(st.lists(st.sampled_from(["k", "j"]), max_size=3))
    out.append(struct.pack("<H", len(keys)))
    out.extend(_str(key) + _str("v") for key in keys)
    cells = draw(st.lists(st.tuples(
        st.sampled_from(["blocked", "running"]), st.sampled_from(["", "io"]),
        st.integers(min_value=0, max_value=2)), max_size=4))
    out.append(struct.pack("<I", len(cells)))
    for state, site, count in cells:
        out.append(_str(state) + _str("fs") + _str("read") + _str(site)
                   + struct.pack("<Q", count))
    out.append(draw(st.sampled_from([b"", b"", b"\x00"])))
    return with_crc(b"".join(out))


class TestDifferentialOracle:
    @given(state_profiles())
    @settings(max_examples=40, deadline=None)
    def test_canonical_encodings_every_cut_and_flip(self, sprof):
        blob = sprof.to_bytes()
        assert blob == reference_encode(sprof)
        assert assert_decoders_agree(blob)
        assert StateProfile.from_bytes(blob).to_bytes() == blob
        check_every_cut_and_flip(blob)

    @given(raw_payloads())
    @settings(max_examples=60, deadline=None)
    def test_raw_payloads_every_cut_and_flip(self, blob):
        check_every_cut_and_flip(blob)

    @pytest.mark.parametrize("data", [
        b"", b"OSPROFS", MAGIC, MAGIC + b"\x00\x00\x00",
        bytearray(StateProfile(name="b").to_bytes()),
        memoryview(StateProfile(name="m").to_bytes()),
        StateProfile().to_bytes() + b"\x00",
        "OSPROFS1", None])
    def test_edge_inputs(self, data):
        assert_decoders_agree(data)

    def test_encoders_reject_an_overlong_string_alike(self):
        sprof = StateProfile(name="x" * 0x10000)
        with pytest.raises(ValueError) as new:
            sprof.to_bytes()
        with pytest.raises(ValueError) as old:
            reference_encode(sprof)
        assert str(new.value) == str(old.value)
