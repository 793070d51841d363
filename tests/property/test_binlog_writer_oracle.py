"""Property: the MJBL writer writes what the reference writer writes.

:class:`~repro.runtime.binlog.BinaryLogSink` keeps its per-record path
to one ``pack``, one buffer append and inline bookkeeping.
``tests/binlog_writer_oracle.py`` keeps the straightforward writer it
replaced.  For any event stream, at any block size and in every format
flavor, both must produce the same bytes, and the same record and
access counts after every event.  The checks also cover the edges that
inlining puts at risk: a block that closes on a sync record or on an
access record, the zero-event log, an event with an unknown kind, and a
stream destination in place of a path.
"""

import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.ast import AccessKind
from repro.runtime.binlog import BinaryLogSink
from repro.runtime.events import ObjectKind, RecordingSink

from ..binlog_writer_oracle import ReferenceLogWriter
from .test_binlog_roundtrip import compress_strategy, entries_strategy

#: Block sizes: every record its own block, two and three records per
#: block (boundaries land on every kind), and the default.
BLOCK_SIZES = (1, 2, 3, 4096)

ACCESS_ENTRY = (
    RecordingSink.ACCESS, 70, "f", 1, AccessKind.WRITE, 3,
    ObjectKind.INSTANCE, "Data#70",
)
SYNC_ENTRY = (RecordingSink.ENTER, 1, 9, False)

#: The sink method for each tuple-entry tag; the entry's other columns
#: are its arguments, in order.
METHODS = {
    RecordingSink.ACCESS: "on_access_parts",
    RecordingSink.ENTER: "on_monitor_enter",
    RecordingSink.EXIT: "on_monitor_exit",
    RecordingSink.START: "on_thread_start",
    RecordingSink.END: "on_thread_end",
    RecordingSink.JOIN: "on_thread_join",
    RecordingSink.WAIT: "on_wait",
    RecordingSink.NOTIFY: "on_notify",
}


def _deliver(entries, sink):
    """Deliver ``entries`` to ``sink`` without the run-end event that
    would finalize the log."""
    for tag, *columns in entries:
        getattr(sink, METHODS[tag])(*columns)


def _open_block(writer) -> bytes:
    """The records ``writer`` holds for its open block: a bytearray in
    the reference writer, a list of packed records in the sink."""
    buffer = writer._buffer
    return bytes(buffer) if isinstance(buffer, bytearray) else b"".join(buffer)


def _written(writer_class, entries, records_per_block, compress, counts=None):
    """The bytes ``writer_class`` writes for ``entries``.  With
    ``counts``, appends ``(record_count, access_count)`` after every
    event."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.mjbl"
        writer = writer_class(path, records_per_block, compress=compress)
        for entry in entries:
            _deliver([entry], writer)
            if counts is not None:
                counts.append((writer.record_count, writer.access_count))
        writer.close()
        if counts is not None:
            counts.append((writer.record_count, writer.access_count))
        return path.read_bytes()


def assert_matches_reference(entries, records_per_block, compress):
    expected_counts, counts = [], []
    expected = _written(
        ReferenceLogWriter, entries, records_per_block, compress,
        expected_counts,
    )
    actual = _written(
        BinaryLogSink, entries, records_per_block, compress, counts
    )
    assert actual == expected
    assert counts == expected_counts


@settings(max_examples=200, deadline=None)
@given(
    entries=entries_strategy,
    records_per_block=st.sampled_from(BLOCK_SIZES),
    compress=compress_strategy,
)
def test_writer_matches_reference(entries, records_per_block, compress):
    assert_matches_reference(entries, records_per_block, compress)


@pytest.mark.parametrize("compress", (None, 0, 6))
@pytest.mark.parametrize(
    "entries",
    [
        pytest.param([ACCESS_ENTRY, SYNC_ENTRY] * 3, id="closes-on-sync"),
        pytest.param([SYNC_ENTRY, ACCESS_ENTRY] * 3, id="closes-on-access"),
        pytest.param([SYNC_ENTRY] * 4, id="sync-only-blocks"),
        pytest.param([ACCESS_ENTRY] * 4, id="access-only-blocks"),
    ],
)
def test_block_boundaries_match_reference(entries, compress):
    """At two records per block, every block closes on the stream's
    second kind."""
    assert_matches_reference(entries, 2, compress)


@pytest.mark.parametrize("records_per_block", BLOCK_SIZES)
@pytest.mark.parametrize("compress", (None, 0, 6))
def test_zero_event_log_matches_reference(records_per_block, compress):
    assert_matches_reference([], records_per_block, compress)


BAD_KINDS = [
    pytest.param({"kind": None}, id="kind-None"),
    pytest.param({"kind": "WRITE"}, id="kind-value"),
    pytest.param({"kind": 1}, id="kind-code"),
    pytest.param({"kind": ObjectKind.INSTANCE}, id="kind-other-enum"),
    pytest.param({"object_kind": None}, id="object-kind-None"),
    pytest.param({"object_kind": "instance"}, id="object-kind-value"),
    pytest.param({"object_kind": 0}, id="object-kind-code"),
    pytest.param({"object_kind": AccessKind.READ}, id="object-kind-other-enum"),
]


@pytest.mark.parametrize("bad", BAD_KINDS)
@pytest.mark.parametrize("writer_class", [ReferenceLogWriter, BinaryLogSink])
def test_unknown_kind_raises_and_writes_nothing(writer_class, bad, tmp_path):
    """An access with an unknown kind raises before anything is written:
    the buffer, the counts and the string table are unchanged, so the
    finished log is the log of the stream without it."""
    path = tmp_path / "log.mjbl"
    writer = writer_class(path, 3)
    _deliver([ACCESS_ENTRY, SYNC_ENTRY], writer)
    before = (_open_block(writer), writer.record_count, writer.access_count)
    access = dict(
        object_uid=71, field="never-interned", thread_id=1,
        kind=AccessKind.READ, site_id=4, object_kind=ObjectKind.ARRAY,
        object_label="also-never-interned",
    )
    access.update(bad)
    with pytest.raises(KeyError):
        writer.on_access_parts(**access)
    assert (
        _open_block(writer), writer.record_count, writer.access_count
    ) == before
    _deliver([ACCESS_ENTRY, SYNC_ENTRY], writer)
    writer.close()
    assert path.read_bytes() == _written(
        ReferenceLogWriter, [ACCESS_ENTRY, SYNC_ENTRY] * 2, 3, None
    )


@settings(max_examples=100, deadline=None)
@given(
    entries=entries_strategy,
    records_per_block=st.sampled_from(BLOCK_SIZES),
    compress=compress_strategy,
    prefix=st.binary(max_size=8),
)
def test_stream_destination_matches_path(
    entries, records_per_block, compress, prefix
):
    """A stream gets the bytes a path gets, starting at the stream's
    position; it is left open, positioned after the log."""
    expected = _written(ReferenceLogWriter, entries, records_per_block, compress)
    stream = io.BytesIO()
    stream.write(prefix)
    sink = BinaryLogSink(stream, records_per_block, compress=compress)
    _deliver(entries, sink)
    sink.close()
    sink.close()  # idempotent: the stream is not touched again
    assert not stream.closed
    assert stream.tell() == len(prefix) + len(expected)
    assert stream.getvalue() == prefix + expected
    assert sink.path is None
