"""Tests for the StateProfile container and its binary codec.

The codec is canonical (sorted attributes, sorted cells) so equal
profiles always encode to identical bytes — the property behind the
pinned state digests and the byte-identity warehouse round trips.
"""

import math
import struct
import zlib

import pytest

from repro.sampling import StateProfile

MAGIC = b"OSPROFS1"


def sample_profile(name="t", interval=100.0, intervals=3):
    sprof = StateProfile(name=name, interval=interval)
    sprof.intervals = intervals
    sprof.add("blocked", "filesystem", "llseek", "sem:i_sem:3", 40)
    sprof.add("blocked", "filesystem", "read", "io:read", 12)
    sprof.add("running", "user", "-", "-", 7)
    sprof.add("runnable", "filesystem", "read", "-", 3)
    return sprof


def rechecksum(payload: bytes) -> bytes:
    """Rebuild a valid frame around a (possibly mutated) payload."""
    return MAGIC + payload + struct.pack(
        "<I", zlib.crc32(payload) & 0xFFFFFFFF)


def _str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


class TestContainer:
    def test_add_accumulates_per_cell(self):
        sprof = StateProfile()
        sprof.add("blocked", "fs", "read", "io:read")
        sprof.add("blocked", "fs", "read", "io:read", 4)
        assert sprof.count("blocked", "fs", "read", "io:read") == 5
        assert len(sprof) == 1

    def test_total_and_distribution(self):
        sprof = sample_profile()
        assert sprof.total_samples() == 62
        dist = sprof.distribution()
        assert dist[("blocked", "filesystem", "llseek",
                     "sem:i_sem:3")] == pytest.approx(40 / 62)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_by_count_orders_most_sampled_first(self):
        ranked = sample_profile().by_count()
        counts = [count for _cell, count in ranked]
        assert counts == sorted(counts, reverse=True)
        assert ranked[0][0] == ("blocked", "filesystem", "llseek",
                                "sem:i_sem:3")

    def test_top_limits_rows(self):
        assert len(sample_profile().top(2)) == 2

    def test_wait_sites_only_blocked_cells(self):
        sites = sample_profile().wait_sites()
        assert sites == {"sem:i_sem:3": 40, "io:read": 12}

    def test_merge_adds_counts_and_intervals(self):
        a = sample_profile(intervals=3)
        b = sample_profile(intervals=5)
        a.merge(b)
        assert a.intervals == 8
        assert a.count("running", "user", "-", "-") == 14

    def test_merge_mismatched_interval_zeroes_interval(self):
        a = sample_profile(interval=100.0)
        b = sample_profile(interval=250.0)
        a.merge(b)
        assert a.interval == 0.0

    def test_merged_classmethod_equals_pairwise(self):
        parts = [sample_profile(intervals=i) for i in (1, 2, 3)]
        merged = StateProfile.merged(parts, name="m")
        by_hand = StateProfile(name="m", interval=parts[0].interval)
        for part in parts:
            by_hand.merge(part)
        assert merged == by_hand


class TestCodec:
    def test_round_trip_byte_identity(self):
        sprof = sample_profile()
        data = sprof.to_bytes()
        back = StateProfile.from_bytes(data)
        assert back == sprof
        assert back.to_bytes() == data

    def test_canonical_independent_of_insertion_order(self):
        a = StateProfile(name="c", interval=10.0)
        b = StateProfile(name="c", interval=10.0)
        cells = [("blocked", "fs", "read", "io:read", 2),
                 ("running", "user", "-", "-", 5),
                 ("blocked", "fs", "llseek", "sem:i_sem:3", 9)]
        for cell in cells:
            a.add(*cell)
        for cell in reversed(cells):
            b.add(*cell)
        assert a.to_bytes() == b.to_bytes()

    def test_bad_magic_rejected(self):
        data = bytearray(sample_profile().to_bytes())
        data[0] ^= 0xFF
        with pytest.raises(ValueError):
            StateProfile.from_bytes(bytes(data))

    def test_crc_flip_detected(self):
        data = bytearray(sample_profile().to_bytes())
        data[-1] ^= 0x01
        with pytest.raises(ValueError):
            StateProfile.from_bytes(bytes(data))

    def test_payload_flip_detected(self):
        data = bytearray(sample_profile().to_bytes())
        data[len(MAGIC) + 3] ^= 0x10
        with pytest.raises(ValueError):
            StateProfile.from_bytes(bytes(data))

    @pytest.mark.parametrize("cut", (1, 4, 9))
    def test_truncation_detected(self, cut):
        data = sample_profile().to_bytes()
        with pytest.raises(ValueError):
            StateProfile.from_bytes(data[:-cut])

    def test_trailing_bytes_rejected_even_with_valid_crc(self):
        # Appending garbage *after* the CRC trailer must fail too: the
        # decoder consumes the whole buffer or raises.
        data = sample_profile().to_bytes()
        with pytest.raises(ValueError):
            StateProfile.from_bytes(data + b"\x00")

    def test_duplicate_cell_rejected(self):
        # Hand-build a payload whose cell table lists the same key
        # twice; a lenient decoder would silently sum or drop one.
        out = []

        def pack_str(s):
            raw = s.encode("utf-8")
            out.append(struct.pack("<H", len(raw)) + raw)

        pack_str("dup")
        out.append(struct.pack("<dQ", 10.0, 1))
        out.append(struct.pack("<H", 0))          # no attributes
        out.append(struct.pack("<I", 2))          # two identical cells
        for _ in range(2):
            for field in ("blocked", "fs", "read", "io:read"):
                pack_str(field)
            out.append(struct.pack("<Q", 1))
        with pytest.raises(ValueError, match="duplicate"):
            StateProfile.from_bytes(rechecksum(b"".join(out)))

    def test_zero_count_cell_dropped(self):
        # CRC-valid, but no add() sequence writes a zero-count cell: the
        # decoded profile is the empty one, byte for byte.
        empty = StateProfile(name="z", interval=10.0)
        payload = (_str("z") + struct.pack("<dQHI", 10.0, 0, 0, 1)
                   + b"".join(_str(f) for f in ("blocked", "fs", "read",
                                                  "io:read"))
                   + struct.pack("<Q", 0))
        sprof = StateProfile.from_bytes(rechecksum(payload))
        assert len(sprof) == 0
        assert sprof.top(5) == []
        assert sprof == empty
        assert sprof.to_bytes() == empty.to_bytes()

    def test_duplicate_attribute_rejected(self):
        # A repeated key used to be last-wins, so decode -> encode lost
        # bytes; it is now an error, named before its value is read.
        payload = (_str("d") + struct.pack("<dQH", 10.0, 1, 2)
                   + _str("host") + _str("a") + _str("host") + _str("b")
                   + struct.pack("<I", 0))
        with pytest.raises(ValueError, match="^duplicate attribute 'host'$"):
            StateProfile.from_bytes(rechecksum(payload))

    @pytest.mark.parametrize("interval", [math.nan, math.inf, -1.0])
    def test_bad_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="finite"):
            StateProfile(interval=interval)
        # The same interval in a CRC-valid payload: it follows the
        # u16-prefixed name "t".
        payload = bytearray(sample_profile(interval=100.0).to_bytes()
                            [len(MAGIC):-4])
        assert struct.unpack_from("<d", payload, 3) == (100.0,)
        struct.pack_into("<d", payload, 3, interval)
        with pytest.raises(ValueError, match="bad state profile: interval"):
            StateProfile.from_bytes(rechecksum(bytes(payload)))

    def test_non_bytes_rejected(self):
        with pytest.raises(ValueError):
            StateProfile.from_bytes("not bytes")

    def test_is_state_payload_discriminates(self):
        from repro.core.profileset import ProfileSet
        assert StateProfile.is_state_payload(sample_profile().to_bytes())
        assert not StateProfile.is_state_payload(ProfileSet().to_bytes())

    def test_save_load_path(self, tmp_path):
        sprof = sample_profile()
        path = tmp_path / "state.osps"
        sprof.save(str(path))
        assert StateProfile.load_path(str(path)) == sprof
