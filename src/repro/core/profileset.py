"""Complete profiles: one histogram per OS operation, plus text and binary I/O.

"A complete profile may consist of dozens of profiles of individual
operations" (Section 3.1).  :class:`ProfileSet` is that container; it
also implements the `/proc`-style text format used by the paper's kernel
reporting interface, so profiles can be saved, diffed and re-loaded.

Text format (one profile per block)::

    # osprof 1 resolution=1
    op read layer=filesystem total_ops=123 total_latency=456789
    5 17
    6 100
    ...
    end

Bucket lines are ``<bucket-index> <count>``.

Binary format (``to_bytes``/``from_bytes``): the wire codec used by the
shard engine to stream per-worker profiles back to the collector.  It
mirrors the paper's "≈1 KB per operation" checksummed profiles: a
struct-packed little-endian stream, sparse ``(bucket, count)`` pairs
only, exact totals, and a CRC-32 trailer over the whole payload so a
corrupted shard result is rejected rather than silently merged::

    magic    8s  b"OSPROFB1"
    header   u8 resolution, str name, u16 nattrs, nattrs x (str k, str v),
             u32 nprofiles
    profile  str operation, str layer, u64 total_ops, f64 total_latency,
             u8 flags (bit0 has-min, bit1 has-max), [f64 min], [f64 max],
             u32 nbuckets, nbuckets x (u16 bucket, u64 count)
    trailer  u32 crc32 of everything after the magic

where ``str`` is ``u16 length + UTF-8 bytes``.  Profiles and attributes
are written in sorted order, so encoding is canonical: equal sets encode
to identical bytes, and decode→encode round-trips are byte-identical.

:func:`parse_binary` is the only decoder of this format: precompiled
``struct.Struct`` reads at offsets, one bulk read per operation's bucket
pairs, and every check of docs/FORMATS.md in its order.  The framing
helpers it uses (:func:`seal`, :func:`unseal`, :func:`read_str`, ...)
are shared with the ``OSPROFS1`` wait-state codec, framed the same way.
:meth:`ProfileSet.fold_rows` turns the rows it returns into histograms
(:meth:`ProfileSet.from_bytes` is a new set plus that fold), and the
warehouse's ``ColumnarSegment.from_bytes`` is a thin loop over them.
"""

from __future__ import annotations

import struct
import zlib
from operator import lt
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

from .buckets import MAX_BUCKET, BucketSpec, _grow_expansion
from .profile import Layer, Profile

__all__ = ["ProfileSet"]

_HEADER_PREFIX = "# osprof 1"

#: Magic prefix of the binary profile codec (version 1).
_BINARY_MAGIC = b"OSPROFB1"

#: What errors call this format.
_LABEL = "binary profile"

U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")
F64 = struct.Struct("<d")
_QD = struct.Struct("<Qd")

#: Bytes before the payload (the magic); error offsets count from here.
START = 8

#: No valid op carries more pairs than there are distinct buckets.
MAX_PAIRS = MAX_BUCKET + 1

#: Validated bucket specs by resolution (at most eight entries).
_SPECS: Dict[int, BucketSpec] = {}

#: ``"<HQHQ..."`` bulk pair readers by pair count, built on first use;
#: counts above :data:`MAX_PAIRS` are rejected before they get here.
_PAIRS: Dict[int, struct.Struct] = {}

#: ``(operation, layer, total_ops, total_latency, min, max, buckets,
#: counts)``: buckets strictly ascending, zero counts dropped.
Row = Tuple[str, str, int, float, Optional[float], Optional[float],
            Tuple[int, ...], Tuple[int, ...]]


# -- the framing OSPROFB1 shares with OSPROFS1: magic, payload, CRC-32 of
# the payload.  *label* names the format in errors, on the error path only.

def truncated(label: str, wanted: int, pos: int, end: int) -> ValueError:
    return ValueError(
        f"truncated {label}: wanted {wanted} bytes at offset "
        f"{pos - START}, only {end - pos} left")


def read_str(data: bytes, pos: int, end: int,
             label: str) -> Tuple[str, int]:
    if pos + 2 > end:
        raise truncated(label, 2, pos, end)
    (n,) = U16.unpack_from(data, pos)
    pos += 2
    if pos + n > end:
        raise truncated(label, n, pos, end)
    return data[pos:pos + n].decode("utf-8"), pos + n


def read_attributes(data: bytes, pos: int, end: int,
                    label: str) -> Tuple[Dict[str, str], int]:
    """A u16 count of ``(str key, str value)`` pairs, keys unique."""
    if pos + 2 > end:
        raise truncated(label, 2, pos, end)
    (n,) = U16.unpack_from(data, pos)
    pos += 2
    attributes: Dict[str, str] = {}
    for _ in range(n):
        key, pos = read_str(data, pos, end, label)
        if key in attributes:
            raise ValueError(f"duplicate attribute {key!r}")
        attributes[key], pos = read_str(data, pos, end, label)
    return attributes, pos


def pack_str(out: List[bytes], text: str, label: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"string too long for {label}: {text[:40]!r}...")
    out.append(U16.pack(len(raw)))
    out.append(raw)


def pack_attributes(out: List[bytes], attributes: Dict[str, str],
                    label: str) -> None:
    out.append(U16.pack(len(attributes)))
    for key, value in sorted(attributes.items()):
        pack_str(out, key, label)
        pack_str(out, value, label)


def seal(magic: bytes, parts: List[bytes]) -> bytes:
    payload = b"".join(parts)
    return magic + payload + U32.pack(zlib.crc32(payload))


def unseal(data, magic: bytes, label: str,
           what: str) -> Tuple[bytes, int, int]:
    """Check the frame: ``(data as bytes, crc, end)``, payload at START.

    Rejects non-bytes input, a magic other than *magic* ("not a
    *what*"), a missing trailer, and a CRC mismatch.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValueError(f"{label} must be a bytes-like object")
    data = bytes(data)
    if not data.startswith(magic):
        raise ValueError(f"not a {what}: magic {data[:8]!r}")
    end = len(data) - 4
    if end < START:
        raise ValueError(f"truncated {label}: missing trailer")
    (crc,) = U32.unpack_from(data, end)
    with memoryview(data) as view:
        actual = zlib.crc32(view[START:end])
    if crc != actual:
        raise ValueError(
            f"{label} CRC mismatch: trailer says {crc:#010x}, payload "
            f"hashes to {actual:#010x}")
    return data, crc, end


def _read_pairs(data: bytes, pos: int, end: int, n: int,
                operation: str) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The *n* ``(bucket, count)`` pairs at *pos*, sorted by bucket.

    One bulk ``unpack_from`` reads every whole pair.  A repeated bucket
    or a short run fails as a pair-by-pair reader would: at whichever of
    the first repeat and the first incomplete pair comes first.
    """
    whole = min(n, (end - pos) // 10)
    ids = cnts = ()
    if whole:
        reader = _PAIRS.get(whole)
        if reader is None:
            reader = _PAIRS[whole] = struct.Struct("<" + "HQ" * whole)
        vals = reader.unpack_from(data, pos)
        ids, cnts = vals[0::2], vals[1::2]
    ascending = all(map(lt, ids, ids[1:]))
    if not ascending:
        seen = set()
        for bucket in ids:
            if bucket in seen:
                raise ValueError(
                    f"duplicate bucket {bucket} in op {operation!r}")
            seen.add(bucket)
    if whole < n:
        raise truncated(_LABEL, 10, pos + 10 * whole, end)
    if not ascending:
        ids, cnts = zip(*sorted(zip(ids, cnts)))
    return ids, cnts


def parse_binary(data) -> Tuple[int, BucketSpec, str, Dict[str, str],
                                List[Row]]:
    """Decode and verify one ``OSPROFB1`` payload.

    The one decoder of the binary format: :meth:`ProfileSet.from_bytes`
    and the warehouse's ``ColumnarSegment.from_bytes`` are loops over
    its rows.  Returns ``(crc, spec, name, attributes, rows)``, *crc*
    being the trailer and each row a :data:`Row`.

    Checks run in the order docs/FORMATS.md gives, and any failure
    raises :class:`ValueError`: the magic, the CRC-32 trailer, then per
    field truncation, the resolution, duplicate attributes, the pair
    count, duplicate buckets and operations, bucket ranges, counts
    summing to ``total_ops``, and trailing bytes.  Zero counts are
    accepted and dropped.
    """
    data, crc, end = unseal(data, _BINARY_MAGIC, _LABEL,
                            "binary osprof profile")
    pos = START
    if pos + 1 > end:
        raise truncated(_LABEL, 1, pos, end)
    resolution = data[pos]
    pos += 1
    spec = _SPECS.get(resolution)
    if spec is None:
        try:
            spec = _SPECS[resolution] = BucketSpec(resolution)
        except ValueError as exc:
            raise ValueError(f"bad binary profile header: {exc}") from None
    name, pos = read_str(data, pos, end, _LABEL)
    attributes, pos = read_attributes(data, pos, end, _LABEL)
    if pos + 4 > end:
        raise truncated(_LABEL, 4, pos, end)
    (nprofiles,) = U32.unpack_from(data, pos)
    pos += 4

    rows: List[Row] = []
    seen = set()
    for _ in range(nprofiles):
        operation, pos = read_str(data, pos, end, _LABEL)
        layer, pos = read_str(data, pos, end, _LABEL)
        if pos + 16 > end:
            raise truncated(_LABEL, 16, pos, end)
        total_ops, total_latency = _QD.unpack_from(data, pos)
        pos += 16
        if pos + 1 > end:
            raise truncated(_LABEL, 1, pos, end)
        flags = data[pos]
        pos += 1
        min_latency = max_latency = None
        if flags & 1:
            if pos + 8 > end:
                raise truncated(_LABEL, 8, pos, end)
            (min_latency,) = F64.unpack_from(data, pos)
            pos += 8
        if flags & 2:
            if pos + 8 > end:
                raise truncated(_LABEL, 8, pos, end)
            (max_latency,) = F64.unpack_from(data, pos)
            pos += 8
        if pos + 4 > end:
            raise truncated(_LABEL, 4, pos, end)
        (npairs,) = U32.unpack_from(data, pos)
        pos += 4
        if npairs > MAX_PAIRS:
            raise ValueError(
                f"bad op {operation!r}: {npairs} bucket pairs, more than "
                f"the {MAX_PAIRS} bucket indices")
        ids, cnts = _read_pairs(data, pos, end, npairs, operation)
        pos += 10 * npairs
        if operation in seen:
            raise ValueError(f"duplicate op block {operation!r}")
        if not operation:
            raise ValueError("operation name must be non-empty")
        seen.add(operation)
        if ids and ids[-1] > MAX_BUCKET:
            bad = next(b for b in ids if b > MAX_BUCKET)
            raise ValueError(
                f"bad op {operation!r}: bucket index {bad} out of range")
        total = sum(cnts)
        if total != total_ops:
            raise ValueError(
                f"bad op {operation!r}: checksum mismatch: bucket counts "
                f"sum to {total}, header says {total_ops}")
        if 0 in cnts:
            kept = [(b, c) for b, c in zip(ids, cnts) if c]
            ids, cnts = tuple(zip(*kept)) or ((), ())
        rows.append((operation, layer, total_ops, total_latency,
                     min_latency, max_latency, ids, cnts))
    if pos != end:
        raise ValueError(
            f"{end - pos} trailing bytes after the last profile")
    return crc, spec, name, attributes, rows


class ProfileSet:
    """A mapping of operation name to :class:`Profile` for one experiment."""

    def __init__(self, name: str = "", spec: Optional[BucketSpec] = None,
                 attributes: Optional[Dict[str, str]] = None):
        self.name = name
        self.spec = spec if spec is not None else BucketSpec()
        self.attributes: Dict[str, str] = dict(attributes or {})
        self._profiles: Dict[str, Profile] = {}

    # -- container behaviour -------------------------------------------------

    def __contains__(self, operation: str) -> bool:
        return operation in self._profiles

    def __getitem__(self, operation: str) -> Profile:
        return self._profiles[operation]

    def __iter__(self) -> Iterator[Profile]:
        return iter(self._profiles.values())

    def __len__(self) -> int:
        return len(self._profiles)

    def operations(self) -> List[str]:
        """Operation names, sorted for stable output."""
        return sorted(self._profiles)

    def get(self, operation: str) -> Optional[Profile]:
        return self._profiles.get(operation)

    def profile(self, operation: str, layer: str = Layer.FILESYSTEM) -> Profile:
        """Return the profile for *operation*, creating it if needed."""
        prof = self._profiles.get(operation)
        if prof is None:
            prof = Profile(operation, layer, self.spec)
            self._profiles[operation] = prof
        return prof

    def add(self, operation: str, latency: float, count: int = 1,
            layer: str = Layer.FILESYSTEM) -> int:
        """Record one latency sample under *operation*."""
        return self.profile(operation, layer).add(latency, count)

    def insert(self, prof: Profile) -> None:
        """Insert (or merge into) a profile for ``prof.operation``."""
        if prof.spec != self.spec:
            raise ValueError("profile resolution differs from set resolution")
        existing = self._profiles.get(prof.operation)
        if existing is None:
            self._profiles[prof.operation] = prof
        else:
            existing.merge(prof)

    def merge(self, other: "ProfileSet") -> None:
        """Fold every profile of *other* into this set (per-CPU merge).

        Operations new to this set are copied in; the others are folded
        into the existing histogram without a copy, but with the copy's
        arithmetic: ``Profile.copy`` re-grows the incoming expansion
        from empty, so the fold grows a scratch expansion first, and
        ``_latency_partials`` (and so the warehouse's latency residuals)
        equal those of ``insert(prof.copy())`` element for element.
        Nothing of *other* is shared with this set afterwards.
        """
        spec = self.spec
        profiles = self._profiles
        for prof in other:
            src = prof.histogram
            if src.spec != spec:
                raise ValueError(
                    "profile resolution differs from set resolution")
            existing = profiles.get(prof.operation)
            if existing is None:
                profiles[prof.operation] = prof.copy()
                continue
            scratch: List[float] = []
            for partial in src._latency_partials:
                _grow_expansion(scratch, partial)
            existing.histogram._fold(src, scratch)

    def fold_rows(self, rows: Iterable[Row]) -> None:
        """Fold decoded :func:`parse_binary` rows into this set.

        The one loop that turns rows into histograms: equal, byte for
        byte and partial for partial, to
        ``merge(ProfileSet.from_bytes(payload))`` without building the
        intermediate set.  An operation new to this set is taken as the
        row gives it; an existing one keeps its layer and grows its
        expansion by the row's single total, as :meth:`merge` does.
        The rows must share this set's resolution; the caller checks.
        """
        spec = self.spec
        profiles = self._profiles
        for (operation, layer, total_ops, total_latency, min_latency,
             max_latency, ids, cnts) in rows:
            prof = profiles.get(operation)
            if prof is None:
                prof = profiles[operation] = Profile(operation, layer, spec)
                hist = prof.histogram
                hist._counts = dict(zip(ids, cnts))
                hist.total_ops = total_ops
                hist._latency_partials = [total_latency]
                hist.min_latency = min_latency
                hist.max_latency = max_latency
                continue
            hist = prof.histogram
            counts = hist._counts
            counts_get = counts.get
            for bucket, count in zip(ids, cnts):
                counts[bucket] = counts_get(bucket, 0) + count
            hist.total_ops += total_ops
            _grow_expansion(hist._latency_partials, total_latency)
            if min_latency is not None and (
                    hist.min_latency is None
                    or min_latency < hist.min_latency):
                hist.min_latency = min_latency
            if max_latency is not None and (
                    hist.max_latency is None
                    or max_latency > hist.max_latency):
                hist.max_latency = max_latency

    @classmethod
    def merged(cls, sets: Iterable["ProfileSet"], name: str = "",
               spec: Optional[BucketSpec] = None) -> "ProfileSet":
        """Union of several sets into a fresh one (order-independent).

        The result carries only *name* and no attributes, so equal
        inputs merged in any order — serially, or interleaved across
        concurrent collectors — encode to identical bytes.  The spec
        defaults to the first input's; a mismatched input raises
        :class:`ValueError`.
        """
        out: Optional[ProfileSet] = None
        for pset in sets:
            if out is None:
                out = cls(name=name,
                          spec=spec if spec is not None else pset.spec)
            out.merge(pset)
        if out is None:
            out = cls(name=name, spec=spec)
        return out

    # -- aggregate queries ---------------------------------------------------

    def total_ops(self) -> int:
        return sum(p.total_ops for p in self)

    def total_latency(self) -> float:
        return sum(p.total_latency for p in self)

    def by_total_latency(self) -> List[Profile]:
        """Profiles sorted by descending total latency (Section 3.2 step 1).

        The head of this list is where optimization effort pays off.
        """
        return sorted(self, key=lambda p: p.total_latency, reverse=True)

    def verify_checksums(self) -> List[str]:
        """Names of operations whose histograms fail the checksum test."""
        return [p.operation for p in self if not p.verify_checksum()]

    def __eq__(self, other: object) -> bool:
        """Bucket-for-bucket equality across every operation profile."""
        if not isinstance(other, ProfileSet):
            return NotImplemented
        return (self.spec == other.spec
                and self.operations() == other.operations()
                and all(self._profiles[op] == other._profiles[op]
                        for op in self._profiles))

    def __repr__(self) -> str:
        return (f"<ProfileSet {self.name!r} ops={len(self)} "
                f"requests={self.total_ops()}>")

    # -- text serialization ----------------------------------------------------

    def dump(self, out: TextIO) -> None:
        """Write the set in the /proc-style text format."""
        out.write(f"{_HEADER_PREFIX} resolution={self.spec.resolution}")
        if self.name:
            out.write(f" name={self.name}")
        out.write("\n")
        for op in self.operations():
            prof = self._profiles[op]
            out.write(
                f"op {prof.operation} layer={prof.layer} "
                f"total_ops={prof.total_ops} "
                f"total_latency={prof.total_latency:.0f}\n")
            for b, c in sorted(prof.counts().items()):
                out.write(f"{b} {c}\n")
            out.write("end\n")

    def dumps(self) -> str:
        import io
        buf = io.StringIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def load(cls, inp: TextIO) -> "ProfileSet":
        """Parse the text format written by :meth:`dump`.

        Malformed input — a bad header, a truncated ``op`` block, a
        bucket line that is not ``<bucket> <count>``, or totals that
        disagree with the bucket counts — raises :class:`ValueError`
        naming the offending line, never a silent misparse.
        """
        header = inp.readline().strip()
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError(f"not an osprof profile dump: {header!r}")
        fields = dict(
            kv.split("=", 1) for kv in header[len(_HEADER_PREFIX):].split()
            if "=" in kv)
        try:
            spec = BucketSpec(int(fields.get("resolution", "1")))
        except ValueError as exc:
            raise ValueError(f"bad profile header {header!r}: {exc}") from None
        pset = cls(name=fields.get("name", ""), spec=spec)
        current: Optional[Profile] = None
        declared: Optional[Tuple[Optional[int], Optional[float]]] = None

        def finish_block() -> None:
            # Restore the declared totals so dump(load(dump(x))) is
            # byte-identical, enforcing the Section 4 checksum on the way.
            nonlocal current, declared
            assert current is not None and declared is not None
            total_ops, total_latency = declared
            hist = current.histogram
            if total_ops is not None and hist.total_ops != total_ops:
                raise ValueError(
                    f"checksum mismatch in op {current.operation!r}: bucket "
                    f"counts sum to {hist.total_ops}, header declares "
                    f"total_ops={total_ops}")
            if total_latency is not None:
                hist.total_latency = total_latency
            current = None
            declared = None

        for raw in inp:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("op "):
                if current is not None:
                    raise ValueError(
                        f"op block {current.operation!r} not closed before "
                        f"next op line (missing 'end')")
                parts = line.split()
                opname = parts[1]
                if opname in pset._profiles:
                    raise ValueError(f"duplicate op block {opname!r}")
                opts = dict(kv.split("=", 1) for kv in parts[2:] if "=" in kv)
                try:
                    declared = (
                        int(opts["total_ops"]) if "total_ops" in opts
                        else None,
                        float(opts["total_latency"])
                        if "total_latency" in opts else None)
                except ValueError:
                    raise ValueError(f"bad op line: {line!r}") from None
                current = Profile(opname, opts.get("layer", Layer.FILESYSTEM),
                                  spec)
                pset._profiles[opname] = current
            elif line == "end":
                if current is None:
                    raise ValueError("'end' outside an op block")
                finish_block()
            else:
                if current is None:
                    raise ValueError(f"bucket line outside op block: {line!r}")
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"malformed bucket line: {line!r}")
                try:
                    bucket, count = int(parts[0]), int(parts[1])
                except ValueError:
                    raise ValueError(
                        f"malformed bucket line: {line!r}") from None
                try:
                    current.histogram.add_to_bucket(bucket, count)
                except ValueError as exc:
                    raise ValueError(
                        f"bad bucket line {line!r}: {exc}") from None
        if current is not None:
            raise ValueError(
                f"truncated dump: op block {current.operation!r} has no 'end'")
        return pset

    @classmethod
    def loads(cls, text: str) -> "ProfileSet":
        import io
        return cls.load(io.StringIO(text))

    # -- binary serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Encode the set in the compact checksummed binary format.

        The encoding is canonical (profiles, buckets and attributes are
        sorted), so two equal sets always produce identical bytes and a
        merged-shard profile can be compared byte-for-byte against its
        serial counterpart.
        """
        out: List[bytes] = [struct.pack("<B", self.spec.resolution)]
        pack_str(out, self.name, _LABEL)
        pack_attributes(out, self.attributes, _LABEL)
        out.append(U32.pack(len(self._profiles)))
        for op in self.operations():
            prof = self._profiles[op]
            hist = prof.histogram
            pack_str(out, prof.operation, _LABEL)
            pack_str(out, prof.layer, _LABEL)
            out.append(_QD.pack(hist.total_ops, hist.total_latency))
            flags = ((1 if hist.min_latency is not None else 0)
                     | (2 if hist.max_latency is not None else 0))
            out.append(struct.pack("<B", flags))
            if hist.min_latency is not None:
                out.append(F64.pack(hist.min_latency))
            if hist.max_latency is not None:
                out.append(F64.pack(hist.max_latency))
            counts = hist.counts()
            out.append(U32.pack(len(counts)))
            for bucket in sorted(counts):
                out.append(struct.pack("<HQ", bucket, counts[bucket]))
        return seal(_BINARY_MAGIC, out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProfileSet":
        """Decode :meth:`to_bytes` output, verifying the CRC-32 trailer.

        Raises :class:`ValueError` on a bad magic, a truncated payload,
        a checksum mismatch, or any structurally invalid field (see
        :func:`parse_binary`).
        """
        _crc, spec, name, attributes, rows = parse_binary(data)
        pset = cls(name=name, spec=spec, attributes=attributes)
        pset.fold_rows(rows)
        return pset

    # -- file helpers -------------------------------------------------------------

    def save(self, path: str, format: str = "text") -> None:
        """Write the set to *path* in the given format (``text``/``binary``)."""
        if format == "text":
            with open(path, "w") as f:
                self.dump(f)
        elif format == "binary":
            with open(path, "wb") as f:
                f.write(self.to_bytes())
        else:
            raise ValueError(f"unknown profile format {format!r}")

    @classmethod
    def load_path(cls, path: str, format: str = "auto") -> "ProfileSet":
        """Read a profile set from *path*.

        ``format="auto"`` sniffs the binary magic, so callers (and the
        CLI) accept either representation transparently.
        """
        if format not in ("auto", "text", "binary"):
            raise ValueError(f"unknown profile format {format!r}")
        with open(path, "rb") as f:
            data = f.read()
        is_binary = data.startswith(_BINARY_MAGIC)
        if format == "binary" or (format == "auto" and is_binary):
            return cls.from_bytes(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(
                f"{path}: neither a binary osprof profile nor utf-8 text")
        import io
        return cls.load(io.StringIO(text))

    @classmethod
    def from_operation_latencies(
            cls, samples: Dict[str, Iterable[float]], name: str = "",
            spec: Optional[BucketSpec] = None) -> "ProfileSet":
        """Build a set from ``{operation: [latency, ...]}``."""
        pset = cls(name=name, spec=spec)
        for op, latencies in samples.items():
            for lat in latencies:
                pset.add(op, lat)
        return pset
