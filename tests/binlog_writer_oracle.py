"""The straightforward MJBL writer: the test-side oracle for the
production one.

:class:`~repro.runtime.binlog.BinaryLogSink` packs each record with
identity-tested kind codes, an inline string-id lookup and inline block
bookkeeping.  :class:`ReferenceLogWriter` is the writer as it stood
before that rewrite, kept unchanged apart from its name: member-keyed
code dicts, an ``_intern`` call per string column and a ``_bump`` call
per record.  Property tests feed both the same event stream and require
the same bytes, record count and access count.
"""

from __future__ import annotations

import io
import struct
import zlib
from pathlib import Path
from typing import Optional, Union

from repro.lang.ast import AccessKind
from repro.runtime.binlog import (
    _ACCESS,
    _END,
    _FLAG_FINALIZED,
    _HEADER,
    _INDEX_ENTRY,
    _INDEX_ENTRY_V2,
    _INDEX_HEADER,
    _JOIN,
    _MONITOR,
    _NOTIFY,
    _START,
    _WAIT,
    BINLOG_VERSION,
    BINLOG_VERSION_COMPRESSED,
    DEFAULT_RECORDS_PER_BLOCK,
    HEADER_SIZE,
    MAGIC,
    TAG_ACCESS,
    TAG_END,
    TAG_ENTER,
    TAG_EXIT,
    TAG_JOIN,
    TAG_NOTIFY,
    TAG_START,
    TAG_WAIT,
    UID_PARTITIONS,
)
from repro.runtime.events import EventSink, ObjectKind

_KIND_CODE = {AccessKind.READ: 0, AccessKind.WRITE: 1}
_OBJKIND_CODE = {ObjectKind.INSTANCE: 0, ObjectKind.ARRAY: 1, ObjectKind.CLASS: 2}


class ReferenceLogWriter(EventSink):
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

    def __enter__(self) -> "ReferenceLogWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
