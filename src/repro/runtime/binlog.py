"""The binary at-rest event-log format (``MJBL``) and its mmap reader.

The schema-v3 tuple log (:mod:`repro.runtime.events`) is the in-memory
interchange format: compact to build, cheap to pickle, but every entry
is still a Python tuple holding Python ints and strings, and the whole
log must be resident to detect over it.  That caps post-mortem traces
at a few hundred thousand events.  This module is the at-rest
counterpart — the record-then-analyze split of PROBE's binary probe-log
arenas, applied to the paper's "create a log of access events …
perform the final datarace detection phase off-line" mode:

* :class:`BinaryLogSink` streams fixed-width struct-packed records to
  disk with bounded memory — no per-event Python object survives
  recording.  Field names and object labels are interned into a string
  table; records carry u32 string ids.
* :class:`BinaryLogReader` maps the file (``mmap``) and is a *log
  source*: like the tuple log
  (:class:`~repro.runtime.events.RecordingSink`) it replays through
  :meth:`~BinaryLogReader.replay_into` — the whole stream, or one
  shard's — the one spine every detector, predictor, statistics pass
  and shard worker consumes.
  The decode is batched and push-mode: per block it scans same-tag
  record runs and unpacks each run in one precompiled
  ``Struct.iter_unpack`` sweep straight into pre-bound sink methods,
  with the per-event Python call overhead hoisted out of the loop.  A
  shard-filtered replay uses the per-block shard index to map only the
  byte ranges that shard consumes — untouched blocks are never faulted
  in — and decodes the uid column first, unpacking the rest only for
  owned records.
* Format **v2** (``compress=`` on the sink) deflates each block with
  zlib as it is flushed, keeping the deflated bytes only when smaller;
  the index stores compressed spans, so sharded readers still inflate
  only owned + sync-bearing blocks.  v1 files remain fully readable.
* :func:`log_source` is the one place that branches on a log's shape:
  it maps a path to :func:`open_log` and raw tuple entries to a
  validated :class:`~repro.runtime.events.RecordingSink` view.
* The ``tuple → binary → tuple`` round trip is lossless and is pinned
  by property tests; sharded detection over a mapped binary log merges
  to byte-identical reports vs the in-memory tuple path, for both
  format versions.

On-disk layout (all little-endian; full spec in ``docs/event_log.md``)::

    header      80 bytes: magic "MJBL", version, section offsets,
                record/access counts, records CRC-32
    records     back-to-back fixed-width records, one per event;
                per-kind layouts (access 28B, enter/exit/wait/notify
                16B, start/join 12B, end 8B)
    strings     u32 count, then (u32 length, utf-8 bytes) per string
    index       u32 block count, u32 records-per-block, then one
                40-byte entry per block: byte span, record/access/sync
                counts, a uid-partition bitmap (uid % 64) and a
                has-sync flag

The index is what makes sharded reads sub-linear in file size: shard
``k`` of ``s`` must decode a block only if the block contains sync
events (replicated to every shard) or its partition bitmap intersects
the residues ``uid % 64`` that shard ``k`` can own.  For power-of-two
shard counts the bitmap discriminates exactly; for odd counts it
degrades gracefully to a full scan (every partition may own every
shard) without ever dropping an event.

Validation is structural and O(1): the header carries the section
offsets, record/access counts, and a records CRC-32, so a mapped read
needs no O(n) pre-scan.  A log is checked once, when its
:class:`BinaryLogReader` opens, against the file size and magic; the
index is checked against the header counts when it is first decoded,
and corruption inside the record region surfaces as a
:class:`~repro.runtime.events.LogSchemaError` naming the byte offset.
``MJBL`` is the only at-rest format: a file without the magic is
corrupt, not a different kind of log.
"""

from __future__ import annotations

import io
import mmap
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from ..lang.ast import AccessKind
from .events import (
    EventSink,
    LogCorruptError,
    LogNotFoundError,
    LogSchemaMismatchError,
    ObjectKind,
    RecordingSink,
    validate_entries,
)

MAGIC = b"MJBL"
BINLOG_VERSION = 1
#: Format v2: identical header, record, and string-table layouts, but
#: index entries carry a per-block compressed flag plus the raw
#: (inflated) byte length, and a block's on-disk span may hold
#: zlib-deflated record bytes.  v1 files remain fully readable — the
#: v1 index entry's zero pad bytes decode as "uncompressed" under the
#: unified entry layout.
BINLOG_VERSION_COMPRESSED = 2
_READABLE_VERSIONS = (BINLOG_VERSION, BINLOG_VERSION_COMPRESSED)

#: zlib level ``--compress`` uses when given without a value.
DEFAULT_COMPRESS_LEVEL = 6

#: Header: magic, version, header size, flags, record count, access
#: count, records offset/length, strings offset/length, index
#: offset/length, records CRC-32.
_HEADER = struct.Struct("<4sIIIQQQQQQQII")
HEADER_SIZE = _HEADER.size  # 80

_FLAG_FINALIZED = 1

#: Record tags (the first byte of every record).
TAG_ACCESS = 1
TAG_ENTER = 2
TAG_EXIT = 3
TAG_START = 4
TAG_END = 5
TAG_JOIN = 6
TAG_WAIT = 7
TAG_NOTIFY = 8

#: Per-kind fixed-width record layouts.  The schema-v3 tuple shapes
#: (8/4/3/2 columns) map directly: every non-tag column has a slot,
#: enums become u8 codes, strings become u32 string-table ids.
_ACCESS = struct.Struct("<BBBxQIIII")  # tag, kind, objkind, uid, thread, site, field, label
_MONITOR = struct.Struct("<BBxxIQ")    # tag, reentrant, thread, lock (ENTER/EXIT)
_START = struct.Struct("<BxxxII")      # tag, parent, child
_END = struct.Struct("<BxxxI")         # tag, thread
_JOIN = struct.Struct("<BxxxII")       # tag, joiner, joined
_WAIT = struct.Struct("<BxxxIQ")       # tag, thread, cond
_NOTIFY = struct.Struct("<BBxxIQ")     # tag, notify_all, thread, cond

_RECORD_SIZE = {
    TAG_ACCESS: _ACCESS.size,
    TAG_ENTER: _MONITOR.size,
    TAG_EXIT: _MONITOR.size,
    TAG_START: _START.size,
    TAG_END: _END.size,
    TAG_JOIN: _JOIN.size,
    TAG_WAIT: _WAIT.size,
    TAG_NOTIFY: _NOTIFY.size,
}

_KIND_CODE = {AccessKind.READ: 0, AccessKind.WRITE: 1}
_KIND_FROM = (AccessKind.READ, AccessKind.WRITE)
_OBJKIND_CODE = {ObjectKind.INSTANCE: 0, ObjectKind.ARRAY: 1, ObjectKind.CLASS: 2}
_OBJKIND_FROM = (ObjectKind.INSTANCE, ObjectKind.ARRAY, ObjectKind.CLASS)

#: Shard-index entry: byte offset, stored byte length, record count,
#: access count, sync count, uid-partition bitmap (uid % 64), has-sync
#: flag.  The v1 writer layout pads the tail with zeros; v2 reuses the
#: pad for a compressed flag and the raw (inflated) record-bytes length,
#: so one unified reader layout parses both versions (v1 entries decode
#: as compressed=0, raw_length=0 → "stored length").
_INDEX_ENTRY = struct.Struct("<QIIIIQB7x")
_INDEX_ENTRY_V2 = struct.Struct("<QIIIIQBB2xI")
assert _INDEX_ENTRY_V2.size == _INDEX_ENTRY.size
_INDEX_HEADER = struct.Struct("<II")  # block count, records per block

#: Column view of an access record that touches only the uid (bytes
#: 4..12 of the 28-byte layout): sharded batch decode scans this column
#: first and unpacks the other columns only for owned records.
_ACCESS_UID = struct.Struct("<4xQ16x")
assert _ACCESS_UID.size == _ACCESS.size

#: Chunk size for the streaming CRC pass in :meth:`BinaryLogReader.verify`.
_VERIFY_CHUNK = 1 << 20

#: How many uid partitions the block bitmaps track.  64 residues fit a
#: single u64; shard counts whose gcd with 64 exceeds 1 (all even
#: counts, exactly the power-of-two counts used in practice) get
#: selective block mapping.
UID_PARTITIONS = 64

DEFAULT_RECORDS_PER_BLOCK = 4096


class BinaryLogSink(EventSink):
    """Streams the event stream to disk as ``MJBL`` with bounded memory.

    A drop-in :class:`~repro.runtime.events.EventSink`: attach it to any
    engine run (or :func:`write_binary_log` an existing tuple log
    through it) and every event becomes one fixed-width record appended
    to an in-memory block buffer that is flushed to disk at block
    boundaries.  State that grows with the *trace* — the per-event
    tuples of :class:`~repro.runtime.events.RecordingSink` — is never
    held; what is held is bounded by the *program*: the string table
    (distinct field names and object labels) and the 40-bytes-per-4096-
    events block index.

    ``on_run_end`` finalizes the file (string table, index, header
    patch); :meth:`close` does the same for streams that end without a
    run-end event.  Both are idempotent.

    ``compress`` selects the format version: ``None`` (default) writes
    format v1, byte-identical to earlier builds.  Any zlib level 0–9
    writes format v2; levels 1–9 deflate each block as it is flushed
    and keep the deflated bytes only when they are actually smaller
    (the per-block flag in the index records which form is stored), so
    an incompressible block costs nothing.  Level 0 writes v2 without
    ever compressing.  Writer memory stays bounded either way: one
    block buffer, the string table, and 40 index bytes per block.
    """

    def __init__(
        self,
        path: Union[str, Path],
        records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
        compress: Optional[int] = None,
    ) -> None:
        if records_per_block < 1:
            raise ValueError("records_per_block must be positive")
        if compress is not None and not 0 <= compress <= 9:
            raise ValueError("compress must be a zlib level between 0 and 9")
        self.path = Path(path)
        self.records_per_block = records_per_block
        self.compress = compress
        self.version = (
            BINLOG_VERSION if compress is None else BINLOG_VERSION_COMPRESSED
        )
        self._file: Optional[io.BufferedWriter] = open(self.path, "wb")
        # A *provisional* header: real magic and version, finalized
        # flag clear, every section zero.  A recording that crashes
        # before close() leaves a file that is still recognizably MJBL,
        # so readers diagnose "never finalized (header flags at byte
        # offset 12)" instead of a misleading bad-magic error.
        self._file.write(
            _HEADER.pack(
                MAGIC, self.version, HEADER_SIZE, 0,
                0, 0, HEADER_SIZE, 0, 0, 0, 0, 0, 0,
            )
        )
        self._buffer = bytearray()
        self._strings: dict[str, int] = {}
        self._index = bytearray()
        self._crc = 0
        self._records_length = 0
        self.record_count = 0
        self.access_count = 0
        # Per-block accumulators.
        self._block_offset = HEADER_SIZE
        self._block_records = 0
        self._block_accesses = 0
        self._block_syncs = 0
        self._block_partitions = 0
        self._block_has_sync = False

    # -- string interning ------------------------------------------------

    def _intern(self, text: str) -> int:
        table = self._strings
        ident = table.get(text)
        if ident is None:
            table[text] = ident = len(table)
        return ident

    # -- block bookkeeping ----------------------------------------------

    def _end_block(self) -> None:
        raw_length = len(self._buffer)
        payload = self._buffer
        compressed = 0
        if self.compress and raw_length:
            deflated = zlib.compress(bytes(self._buffer), self.compress)
            # Store the deflated form only when it actually wins: an
            # incompressible block stays raw and its flag stays clear.
            if len(deflated) < raw_length:
                payload = deflated
                compressed = 1
        length = len(payload)
        if self.version == BINLOG_VERSION:
            self._index += _INDEX_ENTRY.pack(
                self._block_offset,
                length,
                self._block_records,
                self._block_accesses,
                self._block_syncs,
                self._block_partitions,
                1 if self._block_has_sync else 0,
            )
        else:
            self._index += _INDEX_ENTRY_V2.pack(
                self._block_offset,
                length,
                self._block_records,
                self._block_accesses,
                self._block_syncs,
                self._block_partitions,
                1 if self._block_has_sync else 0,
                compressed,
                raw_length,
            )
        # The CRC covers the *stored* bytes, so verify() is one
        # zlib.crc32 pass over the on-disk record region for both
        # versions — no inflation needed to integrity-check a v2 file.
        self._crc = zlib.crc32(payload, self._crc)
        self._file.write(payload)
        self._records_length += length
        self._block_offset += length
        self._buffer.clear()
        self._block_records = 0
        self._block_accesses = 0
        self._block_syncs = 0
        self._block_partitions = 0
        self._block_has_sync = False

    def _bump(self, access: bool, uid: int = 0) -> None:
        self.record_count += 1
        self._block_records += 1
        if access:
            self.access_count += 1
            self._block_accesses += 1
            self._block_partitions |= 1 << (uid % UID_PARTITIONS)
        else:
            self._block_syncs += 1
            self._block_has_sync = True
        if self._block_records >= self.records_per_block:
            self._end_block()

    # -- EventSink -------------------------------------------------------

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        self._buffer += _ACCESS.pack(
            TAG_ACCESS,
            _KIND_CODE[kind],
            _OBJKIND_CODE[object_kind],
            object_uid,
            thread_id,
            site_id,
            self._intern(field),
            self._intern(object_label),
        )
        self._bump(True, object_uid)

    def on_monitor_enter(self, thread_id, lock_uid, reentrant) -> None:
        self._buffer += _MONITOR.pack(TAG_ENTER, 1 if reentrant else 0, thread_id, lock_uid)
        self._bump(False)

    def on_monitor_exit(self, thread_id, lock_uid, reentrant) -> None:
        self._buffer += _MONITOR.pack(TAG_EXIT, 1 if reentrant else 0, thread_id, lock_uid)
        self._bump(False)

    def on_thread_start(self, parent_id, child_id) -> None:
        self._buffer += _START.pack(TAG_START, parent_id, child_id)
        self._bump(False)

    def on_thread_end(self, thread_id) -> None:
        self._buffer += _END.pack(TAG_END, thread_id)
        self._bump(False)

    def on_thread_join(self, joiner_id, joined_id) -> None:
        self._buffer += _JOIN.pack(TAG_JOIN, joiner_id, joined_id)
        self._bump(False)

    def on_wait(self, thread_id, cond_uid) -> None:
        self._buffer += _WAIT.pack(TAG_WAIT, thread_id, cond_uid)
        self._bump(False)

    def on_notify(self, thread_id, cond_uid, notify_all) -> None:
        self._buffer += _NOTIFY.pack(TAG_NOTIFY, 1 if notify_all else 0, thread_id, cond_uid)
        self._bump(False)

    def on_run_end(self) -> None:
        self.close()

    # -- finalization ----------------------------------------------------

    def close(self) -> None:
        """Flush the tail block, write string table + index, patch the
        header.  Idempotent."""
        if self._file is None:
            return
        if self._block_records or not self._index:
            self._end_block()
        strings_offset = HEADER_SIZE + self._records_length
        strings = bytearray(struct.pack("<I", len(self._strings)))
        for text in self._strings:  # dicts preserve insertion order = id order
            data = text.encode("utf-8")
            strings += struct.pack("<I", len(data))
            strings += data
        self._file.write(strings)
        index_offset = strings_offset + len(strings)
        block_count = len(self._index) // _INDEX_ENTRY.size
        index = _INDEX_HEADER.pack(block_count, self.records_per_block) + bytes(self._index)
        self._file.write(index)
        self._file.seek(0)
        self._file.write(
            _HEADER.pack(
                MAGIC,
                self.version,
                HEADER_SIZE,
                _FLAG_FINALIZED,
                self.record_count,
                self.access_count,
                HEADER_SIZE,
                self._records_length,
                strings_offset,
                len(strings),
                index_offset,
                len(index),
                self._crc,
            )
        )
        self._file.close()
        self._file = None

    def __enter__(self) -> "BinaryLogSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BlockSpan:
    """One index block's byte span, as the shard planner hands it out.

    ``length`` is the *stored* (on-disk) span; ``raw_length`` is the
    inflated record-bytes length — equal for raw blocks, larger for
    v2-compressed blocks.
    """

    __slots__ = ("offset", "length", "records", "accesses", "syncs",
                 "partitions", "has_sync", "compressed", "raw_length")

    def __init__(self, offset, length, records, accesses, syncs, partitions,
                 has_sync, compressed=0, raw_length=0):
        self.offset = offset
        self.length = length
        self.records = records
        self.accesses = accesses
        self.syncs = syncs
        self.partitions = partitions
        self.has_sync = bool(has_sync)
        self.compressed = bool(compressed)
        self.raw_length = raw_length if raw_length else length


def _shard_partition_mask(shard: int, shards: int) -> int:
    """Bitmap of the residues ``uid % UID_PARTITIONS`` that can hold a
    uid routed to ``shard`` (routing is ``uid % shards``).

    A uid in partition ``p`` has the form ``p + UID_PARTITIONS·t``; it
    lands in ``shard`` iff ``p ≡ shard (mod gcd(UID_PARTITIONS,
    shards))``.  Power-of-two shard counts therefore discriminate
    exactly; odd counts collapse to the full mask (no block can be
    ruled out) — conservative, never lossy.
    """
    import math

    g = math.gcd(UID_PARTITIONS, shards)
    mask = 0
    for p in range(UID_PARTITIONS):
        if (p - shard) % g == 0:
            mask |= 1 << p
    return mask


class BinaryLogReader:
    """Zero-copy view over an ``MJBL`` file.

    Opening validates the header *structurally* (magic, version,
    finalized flag, section offsets vs the actual file size) in O(1) —
    no record scan.  Records are decoded only by a replay; a
    shard-filtered :meth:`replay_into` skips whole blocks the shard
    cannot own.
    """

    def __init__(self, path: Union[str, Path], verify: bool = False) -> None:
        self.path = Path(path)
        try:
            size = self.path.stat().st_size
            self._file = open(self.path, "rb")
        except OSError as error:
            # Missing, unreadable, or a directory.
            raise LogNotFoundError(
                f"{self.path}: cannot open binary event log ({error})"
            ) from error
        if size < HEADER_SIZE:
            self.close()
            raise LogCorruptError(
                f"{self.path}: {size}-byte file is smaller than the "
                f"{HEADER_SIZE}-byte MJBL header",
                offset=size,
            )
        try:
            self._map: mmap.mmap = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (ValueError, OSError):
            self._file.close()
            raise
        try:
            (
                magic,
                version,
                header_size,
                flags,
                self.record_count,
                self.access_count,
                self.records_offset,
                self.records_length,
                self.strings_offset,
                self.strings_length,
                self.index_offset,
                self.index_length,
                self.records_crc32,
            ) = _HEADER.unpack_from(self._map, 0)
            if magic != MAGIC:
                raise LogCorruptError(
                    f"{self.path}: bad magic {magic!r} at byte offset 0 "
                    f"(expected {MAGIC!r}; not a binary event log)",
                    offset=0,
                )
            if version not in _READABLE_VERSIONS:
                raise LogSchemaMismatchError(
                    f"{self.path}: binary log version {version}, but this "
                    f"build reads versions {BINLOG_VERSION} and "
                    f"{BINLOG_VERSION_COMPRESSED} — re-record the "
                    f"execution with the current build"
                )
            self.version = version
            if not flags & _FLAG_FINALIZED:
                raise LogCorruptError(
                    f"{self.path}: log was never finalized (recording "
                    f"crashed or the sink was not closed) — header flags "
                    f"at byte offset 12 lack the finalized bit",
                    offset=12,
                )
            end = self.index_offset + self.index_length
            if (
                header_size != HEADER_SIZE
                or self.records_offset != HEADER_SIZE
                or self.strings_offset != HEADER_SIZE + self.records_length
                or self.index_offset != self.strings_offset + self.strings_length
                or end != size
            ):
                raise LogCorruptError(
                    f"{self.path}: truncated or corrupt binary log — "
                    f"header promises sections ending at byte offset "
                    f"{end}, file has {size} bytes",
                    offset=min(end, size),
                )
            if self.access_count > self.record_count:
                raise LogCorruptError(
                    f"{self.path}: header access count "
                    f"{self.access_count} at byte offset 24 exceeds its "
                    f"record count {self.record_count} — log corrupted",
                    offset=24,
                )
        except Exception:
            self.close()
            raise
        self._strings: Optional[list[str]] = None
        self._blocks: Optional[list[BlockSpan]] = None
        if verify:
            self.verify()

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if getattr(self, "_map", None) is not None:
            try:
                self._map.close()
            except BufferError:
                # A propagating decode error's traceback frame still
                # exports memoryview slices of the map.  Drop our
                # reference instead of masking that error; the mapping
                # closes when the last view dies.
                pass
            self._map = None
        if getattr(self, "_file", None) is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "BinaryLogReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def sync_count(self) -> int:
        return self.record_count - self.access_count

    def size_bytes(self) -> int:
        return self.index_offset + self.index_length

    # -- sections --------------------------------------------------------

    @property
    def strings(self) -> list[str]:
        """The interned string table (decoded once, on first use)."""
        if self._strings is None:
            view = self._map
            offset = self.strings_offset
            end = offset + self.strings_length
            if self.strings_length < 4:
                # Without this guard a crafted zero-length (but offset-
                # consistent) string section would let unpack_from read
                # into the index region — or raise a bare struct.error.
                raise LogCorruptError(
                    f"{self.path}: string table at byte offset {offset} "
                    f"is {self.strings_length} bytes — too short for "
                    f"its 4-byte count header",
                    offset=offset,
                )
            (count,) = struct.unpack_from("<I", view, offset)
            offset += 4
            table: list[str] = []
            for _ in range(count):
                if offset + 4 > end:
                    raise LogCorruptError(
                        f"{self.path}: string table truncated at byte "
                        f"offset {offset}",
                        offset=offset,
                    )
                entry = offset
                (length,) = struct.unpack_from("<I", view, offset)
                offset += 4
                if offset + length > end:
                    raise LogCorruptError(
                        f"{self.path}: string table truncated at byte "
                        f"offset {offset}",
                        offset=offset,
                    )
                try:
                    table.append(view[offset : offset + length].decode("utf-8"))
                except UnicodeDecodeError as exc:
                    raise LogCorruptError(
                        f"{self.path}: string table entry at byte offset "
                        f"{entry} is not valid UTF-8 (bad byte at offset "
                        f"{offset + exc.start})",
                        offset=entry,
                    ) from None
                offset += length
            self._strings = table
        return self._strings

    @property
    def blocks(self) -> list[BlockSpan]:
        """The shard index (decoded once, on first use)."""
        if self._blocks is None:
            view = self._map
            offset = self.index_offset
            if self.index_length < _INDEX_HEADER.size:
                # Same hazard as the string table: a consistent-looking
                # header with a short index section would otherwise hit
                # unpack_from past the mapped file — a bare struct.error
                # with no file context.
                raise LogCorruptError(
                    f"{self.path}: shard index at byte offset {offset} "
                    f"is {self.index_length} bytes — too short for its "
                    f"{_INDEX_HEADER.size}-byte header",
                    offset=offset,
                )
            block_count, self.records_per_block = _INDEX_HEADER.unpack_from(view, offset)
            if block_count and not self.records_per_block:
                raise LogCorruptError(
                    f"{self.path}: shard index promises {block_count} "
                    f"blocks of 0 records each (records-per-block field "
                    f"at byte offset {offset + 4}) — log corrupted",
                    offset=offset + 4,
                )
            offset += _INDEX_HEADER.size
            expected = self.index_offset + self.index_length
            if offset + block_count * _INDEX_ENTRY.size != expected:
                raise LogCorruptError(
                    f"{self.path}: shard index truncated at byte offset "
                    f"{offset} ({block_count} blocks promised)",
                    offset=offset,
                )
            v1 = self.version == BINLOG_VERSION
            low = self.records_offset
            high = low + self.records_length
            blocks = []
            for _ in range(block_count):
                span = BlockSpan(*_INDEX_ENTRY_V2.unpack_from(view, offset))
                if not low <= span.offset <= span.offset + span.length <= high:
                    # Decoding would index past the record region (or
                    # the file) and fail as a bare IndexError.
                    raise LogCorruptError(
                        f"{self.path}: index entry at byte offset {offset} "
                        f"spans bytes {span.offset}..."
                        f"{span.offset + span.length}, outside the record "
                        f"region {low}...{high} — log corrupted",
                        offset=offset,
                    )
                if v1 and span.compressed:
                    # A v1 header over v2-style index entries: either a
                    # relabeled file or a corrupted index.  Refusing
                    # beats inflating bytes a v1 reader must treat as
                    # raw records.
                    raise LogCorruptError(
                        f"{self.path}: index entry at byte offset "
                        f"{offset} carries the v2 compressed-block flag "
                        f"but the header says format v1 — log corrupted "
                        f"(or relabeled)",
                        offset=offset,
                    )
                blocks.append(span)
                offset += _INDEX_ENTRY_V2.size
            records = sum(block.records for block in blocks)
            accesses = sum(block.accesses for block in blocks)
            if (records, accesses) != (self.record_count, self.access_count):
                raise LogCorruptError(
                    f"{self.path}: shard index at byte offset "
                    f"{self.index_offset} counts {records} records "
                    f"({accesses} accesses), but the header promises "
                    f"{self.record_count} ({self.access_count}) — log "
                    f"corrupted",
                    offset=self.index_offset,
                )
            self._blocks = blocks
        return self._blocks

    def verify(self) -> None:
        """Full integrity check: CRC-32 over the record region.

        The O(n) scan mapped reads deliberately skip; ``repro
        log-stats`` and the corruption tests call it explicitly.  The
        CRC covers the *stored* bytes, so one pass serves v1 and v2
        files alike without inflating anything.  Streamed in chunks
        over zero-copy memoryview slices of the map — slicing the mmap
        object itself would materialize the whole region as a bytes
        copy, the regression pinned by the peak-RSS test.
        """
        view = memoryview(self._map)
        position = self.records_offset
        stop = self.records_offset + self.records_length
        actual = 0
        while position < stop:
            actual = zlib.crc32(
                view[position : min(position + _VERIFY_CHUNK, stop)], actual
            )
            position += _VERIFY_CHUNK
        if actual != self.records_crc32:
            raise LogCorruptError(
                f"{self.path}: record region CRC mismatch "
                f"(header says {self.records_crc32:#010x}, bytes hash to "
                f"{actual:#010x}) — log corrupted between byte offsets "
                f"{self.records_offset} and "
                f"{self.records_offset + self.records_length}",
                offset=self.records_offset,
            )

    def validate_blocks(self) -> None:
        """Decode the string table and inflate-check every compressed
        block, without decoding records.

        The service's submit trust boundary calls this so damage in the
        string table or inside a deflated block is a request-time 422
        naming its byte offset, not a failed job discovered by polling.
        The table is small and decoded once; raw blocks cost nothing;
        each inflated copy is dropped as soon as its length checks out.
        """
        self.strings
        for block in self.blocks:
            if block.compressed:
                self._block_view(block)

    # -- decoding --------------------------------------------------------

    def _block_view(self, block: BlockSpan):
        """The decodable record bytes of one block, as ``(buffer, start,
        stop, anchor)``.

        Raw blocks hand back the mmap itself with absolute offsets and
        ``anchor=None`` — zero-copy, and decode errors name exact file
        offsets.  Compressed blocks inflate their stored span; decode
        errors inside the inflated bytes are anchored to the block's
        file offset (the finest-grained position that exists on disk).
        """
        if not block.compressed:
            return self._map, block.offset, block.offset + block.length, None
        stored = memoryview(self._map)[
            block.offset : block.offset + block.length
        ]
        try:
            raw = zlib.decompress(stored)
        except zlib.error as error:
            raise LogCorruptError(
                f"{self.path}: compressed block at byte offset "
                f"{block.offset} fails to inflate ({error}) — log "
                f"corrupted",
                offset=block.offset,
            ) from None
        if len(raw) != block.raw_length:
            raise LogCorruptError(
                f"{self.path}: compressed block at byte offset "
                f"{block.offset} inflated to {len(raw)} bytes, but its "
                f"index entry promises {block.raw_length} — log "
                f"corrupted",
                offset=block.offset,
            )
        return raw, 0, len(raw), block.offset

    # Decode-error constructors.  ``anchor`` is None when ``position``
    # is an exact file offset (raw blocks), or the enclosing compressed
    # block's file offset otherwise.

    def _unknown_tag(self, tag: int, position: int, anchor) -> LogCorruptError:
        if anchor is None:
            return LogCorruptError(
                f"{self.path}: unknown record tag {tag} at byte "
                f"offset {position} — log corrupted",
                offset=position,
            )
        return LogCorruptError(
            f"{self.path}: unknown record tag {tag} inside the "
            f"compressed block at byte offset {anchor} — log corrupted",
            offset=anchor,
        )

    def _truncated_record(
        self, tag: int, position: int, end: int, anchor
    ) -> LogCorruptError:
        if anchor is None:
            return LogCorruptError(
                f"{self.path}: record at byte offset {position} "
                f"(tag {tag}) extends past the record region end "
                f"{end} — log truncated",
                offset=position,
            )
        return LogCorruptError(
            f"{self.path}: record (tag {tag}) extends past the end of "
            f"the compressed block at byte offset {anchor} — log "
            f"corrupted",
            offset=anchor,
        )

    def _bad_access(self, position: int, anchor) -> LogCorruptError:
        if anchor is None:
            return LogCorruptError(
                f"{self.path}: access record at byte offset "
                f"{position} references an out-of-range string "
                f"or enum code — log corrupted",
                offset=position,
            )
        return LogCorruptError(
            f"{self.path}: access record inside the compressed block "
            f"at byte offset {anchor} references an out-of-range "
            f"string or enum code — log corrupted",
            offset=anchor,
        )

    def _locate_bad_access(self, view, position: int, end: int, anchor):
        """Re-scan an access run that tripped an IndexError in the
        batched decode and raise pointing at the first bad record."""
        strings = len(self.strings)
        size = _ACCESS.size
        while position + size <= end:
            (_, kind, objkind, _, _, _, field_id, label_id) = (
                _ACCESS.unpack_from(view, position)
            )
            if (
                kind >= len(_KIND_FROM)
                or objkind >= len(_OBJKIND_FROM)
                or field_id >= strings
                or label_id >= strings
            ):
                break
            position += size
        raise self._bad_access(position, anchor)

    def __len__(self) -> int:
        return self.record_count

    def shard_blocks(self, shard: int, shards: int) -> list[BlockSpan]:
        """The blocks shard ``shard`` of ``shards`` must consume: every
        block holding sync events, plus blocks whose uid-partition
        bitmap intersects the shard's residue mask."""
        if not 0 <= shard < shards:
            raise ValueError(f"shard {shard} out of range for {shards} shards")
        mask = _shard_partition_mask(shard, shards)
        return [
            block
            for block in self.blocks
            if block.has_sync or block.partitions & mask
        ]

    # -- batched push decode ---------------------------------------------

    def replay_into(self, sink: EventSink, shard: int = -1, shards: int = 1) -> None:
        """Drive ``sink`` with the decoded stream, block-batched — the
        hot path post-mortem detection rides on.

        Delivers every event in log order (``shard < 0``), or shard
        ``shard`` of ``shards``'s stream — its own accesses
        (``uid % shards == shard``) plus every sync event — closing
        with :meth:`~repro.runtime.events.EventSink.on_run_end`.  The
        decode is *columnar*: each block is scanned once for same-tag
        record runs, and every run is unpacked in one precompiled
        ``Struct.iter_unpack`` sweep and dispatched through pre-bound
        sink methods.  No schema-v3 tuples, no generator protocol, no
        per-record ``unpack_from`` call — the per-event Python overhead
        is hoisted out of the loop.  Sharded replay reads the uid
        *column* of an access run first and unpacks the remaining
        columns only for owned records, so replicated sync-bearing
        blocks cost non-owning shards little more than a uid scan.
        """
        if shard < 0:
            blocks = self.blocks
            filtered = False
        else:
            blocks = self.shard_blocks(shard, shards)
            filtered = shards > 1
        strings = self.strings
        kinds = _KIND_FROM
        objkinds = _OBJKIND_FROM
        sizes = _RECORD_SIZE
        on_access = sink.on_access_parts
        on_enter = sink.on_monitor_enter
        on_exit = sink.on_monitor_exit
        on_start = sink.on_thread_start
        on_end = sink.on_thread_end
        on_join = sink.on_thread_join
        on_wait = sink.on_wait
        on_notify = sink.on_notify
        unpack_access = _ACCESS.iter_unpack
        unpack_uid = _ACCESS_UID.iter_unpack
        unpack_one = _ACCESS.unpack_from
        monitor_one = _MONITOR.unpack_from
        start_one = _START.unpack_from
        end_one = _END.unpack_from
        join_one = _JOIN.unpack_from
        wait_one = _WAIT.unpack_from
        notify_one = _NOTIFY.unpack_from
        access_size = _ACCESS.size
        monitor_size = _MONITOR.size
        for block in blocks:
            buffer, position, stop, anchor = self._block_view(block)
            view = memoryview(buffer)
            # A block whose index entry promises no sync records is one
            # access run end to end: validate its tag column in a single
            # strided C sweep and skip per-record scanning entirely.  A
            # block that fails the check (index/record disagreement)
            # falls through to the scanned loop for exact diagnostics.
            whole = (
                block.syncs == 0
                and (stop - position) % access_size == 0
                and bytes(view[position:stop:access_size]).count(TAG_ACCESS)
                == (stop - position) // access_size
            )
            while position < stop:
                tag = view[position]
                if tag == TAG_ACCESS:
                    if whole:
                        run_end = stop
                    else:
                        run_end = position + access_size
                        while run_end < stop and view[run_end] == TAG_ACCESS:
                            run_end += access_size
                        if run_end > stop:
                            raise self._truncated_record(
                                tag, run_end - access_size, stop, anchor
                            )
                    segment = view[position:run_end]
                    try:
                        if not filtered:
                            for (_, kind, objkind, uid, thread, site,
                                 field_id, label_id) in unpack_access(segment):
                                on_access(
                                    uid, strings[field_id], thread,
                                    kinds[kind], site, objkinds[objkind],
                                    strings[label_id],
                                )
                        elif run_end - position < 64 * access_size:
                            # Short run: one full sweep with the uid test
                            # inline beats a separate uid-column pass.
                            for rec in unpack_access(segment):
                                if rec[3] % shards == shard:
                                    (_, kind, objkind, uid, thread, site,
                                     field_id, label_id) = rec
                                    on_access(
                                        uid, strings[field_id], thread,
                                        kinds[kind], site, objkinds[objkind],
                                        strings[label_id],
                                    )
                        else:
                            # Long run: read the uid column first and
                            # touch the other columns only for owned
                            # records — a non-owning shard skips the run
                            # at uid-scan cost.
                            owned = [
                                i
                                for i, (uid,) in enumerate(unpack_uid(segment))
                                if uid % shards == shard
                            ]
                            if len(owned) * access_size == len(segment):
                                for (_, kind, objkind, uid, thread, site,
                                     field_id, label_id) in unpack_access(
                                         segment):
                                    on_access(
                                        uid, strings[field_id], thread,
                                        kinds[kind], site, objkinds[objkind],
                                        strings[label_id],
                                    )
                            else:
                                for i in owned:
                                    (_, kind, objkind, uid, thread, site,
                                     field_id, label_id) = unpack_one(
                                        segment, i * access_size)
                                    on_access(
                                        uid, strings[field_id], thread,
                                        kinds[kind], site, objkinds[objkind],
                                        strings[label_id],
                                    )
                    except IndexError:
                        self._locate_bad_access(view, position, run_end, anchor)
                    position = run_end
                elif tag == TAG_ENTER:
                    # Sync runs average a record or two; decoding them in
                    # place skips the slice + iter_unpack setup a run
                    # sweep would pay per record anyway.
                    if position + monitor_size > stop:
                        raise self._truncated_record(tag, position, stop, anchor)
                    _, reentrant, thread, lock = monitor_one(view, position)
                    on_enter(thread, lock, reentrant != 0)
                    position += monitor_size
                elif tag == TAG_EXIT:
                    if position + monitor_size > stop:
                        raise self._truncated_record(tag, position, stop, anchor)
                    _, reentrant, thread, lock = monitor_one(view, position)
                    on_exit(thread, lock, reentrant != 0)
                    position += monitor_size
                else:
                    size = sizes.get(tag)
                    if size is None:
                        raise self._unknown_tag(tag, position, anchor)
                    if position + size > stop:
                        raise self._truncated_record(tag, position, stop, anchor)
                    if tag == TAG_START:
                        _, parent, child = start_one(view, position)
                        on_start(parent, child)
                    elif tag == TAG_END:
                        (_, thread) = end_one(view, position)
                        on_end(thread)
                    elif tag == TAG_JOIN:
                        _, joiner, joined = join_one(view, position)
                        on_join(joiner, joined)
                    elif tag == TAG_WAIT:
                        _, thread, cond = wait_one(view, position)
                        on_wait(thread, cond)
                    else:
                        _, notify_all, thread, cond = notify_one(view, position)
                        on_notify(thread, cond, notify_all != 0)
                    position += size
        sink.on_run_end()

    # -- statistics ------------------------------------------------------

    def block_stats(self) -> dict:
        """Per-block occupancy and (v2) compression summary: block
        count, fill relative to ``records_per_block``, and how many
        stored bytes the deflated blocks saved."""
        blocks = self.blocks  # also decodes self.records_per_block
        per_block = self.records_per_block
        stored = sum(block.length for block in blocks)
        raw = sum(block.raw_length for block in blocks)
        fills = [block.records / per_block for block in blocks] or [0.0]
        return {
            "blocks": len(blocks),
            "records_per_block": per_block,
            "mean_fill": round(sum(fills) / len(fills), 4),
            "min_fill": round(min(fills), 4),
            "max_fill": round(max(fills), 4),
            "compressed_blocks": sum(1 for b in blocks if b.compressed),
            "stored_record_bytes": stored,
            "raw_record_bytes": raw,
            "compression_ratio": round(raw / stored, 3) if stored else 1.0,
        }


# ----------------------------------------------------------------------
# Log-source helpers.


#: The two log sources — an ``MJBL`` file and the in-memory tuple log:
#: both replay through ``replay_into(sink, shard=-1, shards=1)``.
LogSource = Union[BinaryLogReader, RecordingSink]
#: Everything :func:`log_source` accepts: a source, raw schema-v3 tuple
#: entries, or a path to an on-disk ``MJBL`` log.
LogLike = Union[LogSource, Sequence[tuple], str, Path]


@contextmanager
def log_source(log: LogLike, validate: bool = True) -> Iterator[LogSource]:
    """Normalize any log shape to a log source, for the duration of a
    ``with`` block — the one place that branches on what a log is.

    A path opens through :func:`open_log` (the single validation point
    for logs at rest) and is closed on exit; a
    :class:`BinaryLogReader` passes through untouched (its owner closes
    it); raw tuple entries become a :class:`RecordingSink` view over
    the same list.  Tuple logs are schema-checked with
    :func:`~repro.runtime.events.validate_entries` unless ``validate``
    is off (streams recorded in-process, or validated upstream);
    binary logs were validated structurally when their reader opened.
    """
    if isinstance(log, (str, Path)):
        with open_log(log) as source:
            yield source
        return
    if isinstance(log, BinaryLogReader):
        yield log
        return
    if not isinstance(log, RecordingSink):
        log = RecordingSink(log)
    if validate:
        validate_entries(log.log)
    yield log


@contextmanager
def temporary_binary_log():
    """A temp-file path that is *always* unlinked, even on error.

    ``NamedTemporaryFile(delete=False)`` + a manual ``unlink`` leaks
    whenever anything raises between close and unlink (and fights
    Windows-style locked-file semantics, since the writer reopens the
    file by name while the handle object still exists).  This context
    manager is the one shared shape: create the name eagerly with the
    handle already closed, yield the :class:`~pathlib.Path`, and
    guarantee removal in ``finally``.  The difflab round-trip axis and
    both ``repro serve`` upload spools (submit-time validation and the
    log job) route through it.
    """
    import os
    import tempfile

    descriptor, name = tempfile.mkstemp(suffix=".mjbl")
    os.close(descriptor)
    path = Path(name)
    try:
        yield path
    finally:
        path.unlink(missing_ok=True)


def write_binary_log(
    log: LogLike,
    path: Union[str, Path],
    records_per_block: int = DEFAULT_RECORDS_PER_BLOCK,
    compress: Optional[int] = None,
) -> Path:
    """Serialize any log shape to an ``MJBL`` file (the ``tuple →
    binary`` half of the round-trip contract).  ``compress`` selects
    the format exactly as on :class:`BinaryLogSink`: ``None`` → v1,
    a zlib level → v2."""
    path = Path(path)
    with log_source(log, validate=False) as source:
        with BinaryLogSink(path, records_per_block, compress=compress) as sink:
            source.replay_into(sink)
    return path


def open_log(path: Union[str, Path]) -> BinaryLogReader:
    """Open an on-disk ``MJBL`` event log — the single validation point
    for logs at rest.

    A missing path raises :class:`~repro.runtime.events.LogNotFoundError`;
    anything else opens as a :class:`BinaryLogReader`, validated
    structurally in O(1), so a file that is not ``MJBL`` fails with the
    reader's bad-magic (or short-file)
    :class:`~repro.runtime.events.LogCorruptError`.  Downstream
    detection must not re-validate.
    """
    path = Path(path)
    if not path.exists():
        raise LogNotFoundError(f"{path}: event log not found")
    return BinaryLogReader(path)


class LogStatsSink(EventSink):
    """``repro log-stats`` as one sink, fed by a log's ``replay_into`` —
    v1 and v2 logs are summarised by the same code in one pass.

    Collects counts by kind, reads/writes, and distinct locations /
    threads / locks / condition objects.
    """

    def __init__(self) -> None:
        self.counts = dict.fromkeys(
            (RecordingSink.ACCESS, RecordingSink.ENTER, RecordingSink.EXIT,
             RecordingSink.START, RecordingSink.END, RecordingSink.JOIN,
             RecordingSink.WAIT, RecordingSink.NOTIFY),
            0,
        )
        self.reads = self.writes = 0
        self.locations: set = set()
        self.threads: set = set()
        self.locks: set = set()
        self.conditions: set = set()

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        self.counts[RecordingSink.ACCESS] += 1
        self.locations.add((object_uid, field))
        self.threads.add(thread_id)
        if kind is AccessKind.WRITE:
            self.writes += 1
        else:
            self.reads += 1

    def on_monitor_enter(self, thread_id, lock_uid, reentrant) -> None:
        self.counts[RecordingSink.ENTER] += 1
        self.threads.add(thread_id)
        self.locks.add(lock_uid)

    def on_monitor_exit(self, thread_id, lock_uid, reentrant) -> None:
        self.counts[RecordingSink.EXIT] += 1
        self.threads.add(thread_id)
        self.locks.add(lock_uid)

    def on_thread_start(self, parent_id, child_id) -> None:
        self.counts[RecordingSink.START] += 1
        self.threads.update((parent_id, child_id))

    def on_thread_end(self, thread_id) -> None:
        self.counts[RecordingSink.END] += 1
        self.threads.add(thread_id)

    def on_thread_join(self, joiner_id, joined_id) -> None:
        self.counts[RecordingSink.JOIN] += 1
        self.threads.update((joiner_id, joined_id))

    def on_wait(self, thread_id, cond_uid) -> None:
        self.counts[RecordingSink.WAIT] += 1
        self.threads.add(thread_id)
        self.conditions.add(cond_uid)

    def on_notify(self, thread_id, cond_uid, notify_all) -> None:
        self.counts[RecordingSink.NOTIFY] += 1
        self.threads.add(thread_id)
        self.conditions.add(cond_uid)

    @property
    def events(self) -> int:
        return sum(self.counts.values())
