"""The scalar MJBL decoder: the test-side oracle for the columnar one.

Production code decodes ``MJBL`` only through the batched
:meth:`~repro.runtime.binlog.BinaryLogReader.replay_into` spine —
unfiltered, or one shard's stream.  This module keeps the
straightforward one-record-per-step decode, written against the same
on-disk layouts, so property and unit tests can check that the
columnar decoder delivers exactly the stream a naive reader would —
unfiltered and per shard — and raises the same anchored diagnostics on
damaged bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Union

from repro.runtime.binlog import (
    _ACCESS,
    _END,
    _JOIN,
    _KIND_FROM,
    _MONITOR,
    _NOTIFY,
    _OBJKIND_FROM,
    _RECORD_SIZE,
    _START,
    _WAIT,
    BINLOG_VERSION,
    TAG_ACCESS,
    TAG_END,
    TAG_ENTER,
    TAG_EXIT,
    TAG_JOIN,
    TAG_START,
    TAG_WAIT,
    BinaryLogReader,
)
from repro.runtime.events import RecordingSink


def decode_span(
    reader: BinaryLogReader,
    view,
    offset: int,
    end: int,
    shard: int = -1,
    shards: int = 1,
    anchor=None,
) -> Iterator[tuple]:
    """Decode ``view[offset:end]`` into schema-v3 tuples, one record
    per step.  With ``shard >= 0``, access records whose uid is not
    routed to that shard are skipped."""
    strings = reader.strings
    while offset < end:
        tag = view[offset]
        size = _RECORD_SIZE.get(tag)
        if size is None:
            raise reader._unknown_tag(tag, offset, anchor)
        if offset + size > end:
            raise reader._truncated_record(tag, offset, end, anchor)
        if tag == TAG_ACCESS:
            (_, kind, objkind, uid, thread, site, field_id, label_id) = (
                _ACCESS.unpack_from(view, offset)
            )
            if shard < 0 or uid % shards == shard:
                try:
                    yield (
                        RecordingSink.ACCESS,
                        uid,
                        strings[field_id],
                        thread,
                        _KIND_FROM[kind],
                        site,
                        _OBJKIND_FROM[objkind],
                        strings[label_id],
                    )
                except IndexError:
                    raise reader._bad_access(offset, anchor) from None
        elif tag == TAG_ENTER or tag == TAG_EXIT:
            (_, reentrant, thread, lock) = _MONITOR.unpack_from(view, offset)
            yield (
                RecordingSink.ENTER if tag == TAG_ENTER else RecordingSink.EXIT,
                thread,
                lock,
                bool(reentrant),
            )
        elif tag == TAG_START:
            (_, parent, child) = _START.unpack_from(view, offset)
            yield (RecordingSink.START, parent, child)
        elif tag == TAG_END:
            (_, thread) = _END.unpack_from(view, offset)
            yield (RecordingSink.END, thread)
        elif tag == TAG_JOIN:
            (_, joiner, joined) = _JOIN.unpack_from(view, offset)
            yield (RecordingSink.JOIN, joiner, joined)
        elif tag == TAG_WAIT:
            (_, thread, cond) = _WAIT.unpack_from(view, offset)
            yield (RecordingSink.WAIT, thread, cond)
        else:
            (_, notify_all, thread, cond) = _NOTIFY.unpack_from(view, offset)
            yield (RecordingSink.NOTIFY, thread, cond, bool(notify_all))
        offset += size


def entries(reader: BinaryLogReader) -> Iterator[tuple]:
    """The whole log as schema-v3 tuples, in order."""
    if reader.version == BINLOG_VERSION:
        # v1 records are one contiguous raw span: decode it without
        # consulting the block index at all.
        return decode_span(
            reader,
            reader._map,
            reader.records_offset,
            reader.records_offset + reader.records_length,
        )
    return _entries_by_block(reader)


def _entries_by_block(reader: BinaryLogReader) -> Iterator[tuple]:
    for block in reader.blocks:
        view, start, stop, anchor = reader._block_view(block)
        yield from decode_span(reader, view, start, stop, anchor=anchor)


def shard_entries(reader: BinaryLogReader, shard: int, shards: int) -> Iterator[tuple]:
    """Shard ``shard`` of ``shards``'s stream: its own accesses plus
    every sync event, in log order, decoding only the blocks the shard
    index says it consumes."""
    for block in reader.shard_blocks(shard, shards):
        view, start, stop, anchor = reader._block_view(block)
        yield from decode_span(reader, view, start, stop, shard, shards, anchor)


def read_binary_log(path: Union[str, Path]) -> list[tuple]:
    """Materialize an ``MJBL`` file as schema-v3 tuples."""
    with BinaryLogReader(path) as reader:
        return list(entries(reader))


def replayed(source, *replay_args) -> list[tuple]:
    """The tuples a log source's production ``replay_into`` delivers."""
    sink = RecordingSink()
    source.replay_into(sink, *replay_args)
    return sink.log
