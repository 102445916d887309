"""Aggregated wait-state samples and their canonical binary codec.

A :class:`StateProfile` is to the sampling family what
:class:`~repro.core.profileset.ProfileSet` is to the latency family: the
unit of storage, transport, and merging.  Each cell counts how many
periodic samples observed a process in a given
``(state, layer, op, wait_site)`` — e.g. two processes contending a
random-read file show up as a dominant
``("blocked", "filesystem", "llseek", "sem:i_sem:<ino>")`` cell.

Binary format (``to_bytes``/``from_bytes``)::

    magic    8s  b"OSPROFS1"
    header   str name, f64 interval (cycles), u64 intervals,
             u16 nattrs, nattrs x (str k, str v), u32 ncells
    cell     str state, str layer, str op, str wait_site, u64 count
    trailer  u32 crc32 of everything after the magic

where ``str`` is ``u16 length + UTF-8 bytes``: the framing of
``OSPROFB1``, read and written by the same helpers.  Cells and attributes
are written in sorted order, so encoding is canonical: equal profiles
encode to identical bytes and decode→encode round-trips are
byte-identical — the property the warehouse's checksummed segments and
the CI digest pins rely on.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.profileset import (START, U32, U64, pack_attributes, pack_str,
                               read_attributes, read_str, seal, truncated,
                               unseal)

__all__ = ["StateProfile"]

#: Magic prefix of the binary state-profile codec (version 1).
_BINARY_MAGIC = b"OSPROFS1"

#: What errors call this format.
_LABEL = "state profile"

_DQ = struct.Struct("<dQ")

#: A sample cell key: (state, layer, op, wait_site).
CellKey = Tuple[str, str, str, str]


class StateProfile:
    """Sample counts keyed by ``(state, layer, op, wait_site)``.

    ``interval`` is the sampling period in cycles (0 when unknown, e.g.
    a merge of differently-spaced sources) and ``intervals`` the number
    of sampling ticks the counts were collected over — together they
    let a consumer turn counts into average-processes-in-state.
    """

    def __init__(self, name: str = "", interval: float = 0.0,
                 attributes: Optional[Dict[str, str]] = None):
        if not 0 <= interval < math.inf:
            raise ValueError("interval must be non-negative and finite, "
                             f"got {interval!r}")
        self.name = name
        self.interval = float(interval)
        self.intervals = 0
        self.attributes: Dict[str, str] = dict(attributes or {})
        self._counts: Dict[CellKey, int] = {}

    # -- container behaviour -------------------------------------------------

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[Tuple[CellKey, int]]:
        return iter(sorted(self._counts.items()))

    def __contains__(self, key: CellKey) -> bool:
        return key in self._counts

    def count(self, state: str, layer: str, op: str, wait_site: str) -> int:
        return self._counts.get((state, layer, op, wait_site), 0)

    def cells(self) -> Dict[CellKey, int]:
        """A copy of the cell map (sorted iteration via ``__iter__``)."""
        return dict(self._counts)

    # -- accumulation --------------------------------------------------------

    def add(self, state: str, layer: str, op: str, wait_site: str,
            count: int = 1) -> None:
        """Record *count* samples of one (state, layer, op, wait_site)."""
        if count < 0:
            raise ValueError("sample count must be non-negative")
        if count == 0:
            return
        key = (state, layer, op, wait_site)
        self._counts[key] = self._counts.get(key, 0) + count

    def merge(self, other: "StateProfile") -> None:
        """Fold every cell of *other* into this profile.

        Intervals add; a mismatched sampling period collapses
        ``interval`` to 0 ("mixed") rather than silently keeping one.
        """
        for key, count in other._counts.items():
            self._counts[key] = self._counts.get(key, 0) + count
        self.intervals += other.intervals
        if self.interval != other.interval:
            self.interval = 0.0

    @classmethod
    def merged(cls, profiles: Iterable["StateProfile"],
               name: str = "") -> "StateProfile":
        """Union of several profiles into a fresh one (order-independent)."""
        out: Optional[StateProfile] = None
        for sprof in profiles:
            if out is None:
                out = cls(name=name, interval=sprof.interval)
            out.merge(sprof)
        if out is None:
            out = cls(name=name)
        return out

    # -- aggregate queries ---------------------------------------------------

    def total_samples(self) -> int:
        return sum(self._counts.values())

    def by_count(self) -> List[Tuple[CellKey, int]]:
        """Cells sorted by descending count (key as tiebreak, stable)."""
        return sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))

    def top(self, n: int) -> List[Tuple[CellKey, int]]:
        """The *n* hottest cells — the rows an ``osprof top`` frame shows."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self.by_count()[:n]

    def wait_sites(self) -> Dict[str, int]:
        """Sample counts per wait site, blocked states only."""
        sites: Dict[str, int] = {}
        for (state, _layer, _op, site), count in self._counts.items():
            if state == "blocked":
                sites[site] = sites.get(site, 0) + count
        return sites

    def distribution(self) -> Dict[CellKey, float]:
        """Cells as fractions of the total sample count."""
        total = self.total_samples()
        if total == 0:
            return {}
        return {key: count / total for key, count in self._counts.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateProfile):
            return NotImplemented
        return (self.interval == other.interval
                and self.intervals == other.intervals
                and self._counts == other._counts)

    def __repr__(self) -> str:
        return (f"<StateProfile {self.name!r} cells={len(self)} "
                f"samples={self.total_samples()} "
                f"intervals={self.intervals}>")

    # -- binary serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        """Encode in the compact checksummed binary format.

        Canonical: cells and attributes are sorted, so equal profiles
        always produce identical bytes — a merged fleet profile can be
        compared byte-for-byte against its serial counterpart, and CI
        can pin a fixed-seed capture by digest.
        """
        out: List[bytes] = []
        pack_str(out, self.name, _LABEL)
        out.append(_DQ.pack(self.interval, self.intervals))
        pack_attributes(out, self.attributes, _LABEL)
        out.append(U32.pack(len(self._counts)))
        for key in sorted(self._counts):
            for text in key:
                pack_str(out, text, _LABEL)
            out.append(U64.pack(self._counts[key]))
        return seal(_BINARY_MAGIC, out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StateProfile":
        """Decode :meth:`to_bytes` output, verifying the CRC-32 trailer.

        Raises :class:`ValueError` on a bad magic, a truncated payload,
        a checksum mismatch, or any structurally invalid field; drops
        zero-count cells, which :meth:`add` never keeps.
        """
        data, _crc, end = unseal(data, _BINARY_MAGIC, _LABEL,
                                 "binary state profile")
        name, pos = read_str(data, START, end, _LABEL)
        if pos + 16 > end:
            raise truncated(_LABEL, 16, pos, end)
        interval, intervals = _DQ.unpack_from(data, pos)
        pos += 16
        if not 0 <= interval < math.inf:
            raise ValueError(f"bad state profile: interval {interval} is "
                             f"not non-negative and finite")
        attributes, pos = read_attributes(data, pos, end, _LABEL)
        sprof = cls(name=name, interval=interval, attributes=attributes)
        sprof.intervals = intervals
        if pos + 4 > end:
            raise truncated(_LABEL, 4, pos, end)
        (ncells,) = U32.unpack_from(data, pos)
        pos += 4
        counts = sprof._counts
        for _ in range(ncells):
            state, pos = read_str(data, pos, end, _LABEL)
            layer, pos = read_str(data, pos, end, _LABEL)
            op, pos = read_str(data, pos, end, _LABEL)
            site, pos = read_str(data, pos, end, _LABEL)
            if pos + 8 > end:
                raise truncated(_LABEL, 8, pos, end)
            key = (state, layer, op, site)
            if key in counts:
                raise ValueError(f"duplicate cell {key!r}")
            (counts[key],) = U64.unpack_from(data, pos)
            pos += 8
        if pos != end:
            raise ValueError(
                f"{end - pos} trailing bytes after the last cell")
        if 0 in counts.values():
            sprof._counts = {key: n for key, n in counts.items() if n}
        return sprof

    # -- file helpers --------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load_path(cls, path: str) -> "StateProfile":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())

    @classmethod
    def is_state_payload(cls, data: bytes) -> bool:
        """True when *data* starts with the state-profile magic."""
        return bytes(data[:len(_BINARY_MAGIC)]) == _BINARY_MAGIC
