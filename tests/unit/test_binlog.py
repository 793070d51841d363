"""The MJBL binary at-rest event-log format.

Pins the on-disk contract of ``repro/runtime/binlog.py``: structural
validation is O(1) and names byte offsets when it rejects a file,
corruption inside the record region surfaces lazily (or via the
explicit CRC ``verify()``), the string table round-trips every field
name and label, and the per-block shard index lets power-of-two shard
counts skip blocks without ever dropping an event.
"""

import struct

import pytest

from repro.runtime import RecordingSink
from repro.runtime.binlog import (
    BINLOG_VERSION,
    BINLOG_VERSION_COMPRESSED,
    DEFAULT_RECORDS_PER_BLOCK,
    HEADER_SIZE,
    MAGIC,
    UID_PARTITIONS,
    BinaryLogReader,
    BinaryLogSink,
    LogCorruptError,
    LogStatsSink,
    _shard_partition_mask,
    log_source,
    open_log,
    write_binary_log,
)
from repro.runtime.events import LogNotFoundError, LogSchemaError
from repro.runtime.synthlog import synthesize_into

from ..binlog_oracle import read_binary_log, replayed
from ..conftest import garble_string_table, run_source

SOURCE = """
class Main {
  static def main() {
    var s = new Shared();
    var c = new C(s);
    var d = new D(s);
    start c; start d;
    sync (s) { while (s.flag != 1) { wait s; } }
    join c; join d;
    print s.x;
  }
}
class Shared { field flag; field x; }
class C {
  field s;
  def init(s) { this.s = s; }
  def run() {
    sync (this.s) { this.s.flag = 1; notifyall this.s; }
  }
}
class D {
  field s;
  def init(s) { this.s = s; }
  def run() { this.s.x = 2; }
}
"""


@pytest.fixture(scope="module")
def recorded():
    """A real run covering all eight schema-v3 event kinds."""
    log = RecordingSink()
    run_source(SOURCE, sink=log)
    tags = {entry[0] for entry in log.log}
    assert tags == {
        RecordingSink.ACCESS, RecordingSink.ENTER, RecordingSink.EXIT,
        RecordingSink.START, RecordingSink.END, RecordingSink.JOIN,
        RecordingSink.WAIT, RecordingSink.NOTIFY,
    }
    return log


@pytest.fixture()
def binary_path(recorded, tmp_path):
    path = tmp_path / "run.mjbl"
    write_binary_log(recorded, path)
    return path


class TestRoundTrip:
    def test_tuple_binary_tuple_is_identity(self, recorded, binary_path):
        assert read_binary_log(binary_path) == list(recorded.log)

    def test_reader_replays_in_order(self, recorded, binary_path):
        with BinaryLogReader(binary_path) as reader:
            assert replayed(reader) == list(recorded.log)
            assert len(reader) == len(recorded.log)

    def test_counts_match_header(self, recorded, binary_path):
        accesses = recorded.access_count
        with BinaryLogReader(binary_path) as reader:
            assert reader.record_count == len(recorded.log)
            assert reader.access_count == accesses
            assert reader.sync_count == len(recorded.log) - accesses

    def test_string_table_interns_fields_and_labels(self, recorded, binary_path):
        expected = set()
        for entry in recorded.log:
            if entry[0] == RecordingSink.ACCESS:
                expected.add(entry[2])
                expected.add(entry[7])
        with BinaryLogReader(binary_path) as reader:
            table = reader.strings
            assert set(table) == expected
            assert len(table) == len(expected)  # interned: no duplicates

    def test_sink_is_idempotent_on_double_close(self, recorded, tmp_path):
        path = tmp_path / "twice.mjbl"
        sink = BinaryLogSink(path)
        from repro.runtime.events import replay_entries

        replay_entries(recorded.log, sink)  # replay ends with on_run_end
        sink.close()
        sink.close()
        assert read_binary_log(path) == list(recorded.log)

    def test_empty_log_round_trips(self, tmp_path):
        path = tmp_path / "empty.mjbl"
        BinaryLogSink(path).close()
        assert read_binary_log(path) == []


class TestValidation:
    def test_rejects_short_file_with_offset(self, tmp_path):
        path = tmp_path / "short.mjbl"
        path.write_bytes(MAGIC)
        with pytest.raises(LogSchemaError, match="smaller than"):
            BinaryLogReader(path)

    def test_rejects_bad_magic_at_offset_zero(self, binary_path):
        data = bytearray(binary_path.read_bytes())
        data[:4] = b"JUNK"
        binary_path.write_bytes(data)
        with pytest.raises(LogSchemaError, match="byte offset 0"):
            BinaryLogReader(binary_path)

    def test_rejects_future_version_with_remediation(self, binary_path):
        data = bytearray(binary_path.read_bytes())
        struct.pack_into("<I", data, 4, BINLOG_VERSION_COMPRESSED + 1)
        binary_path.write_bytes(data)
        with pytest.raises(LogSchemaError, match="re-record"):
            BinaryLogReader(binary_path)

    def test_rejects_unfinalized_log(self, binary_path):
        data = bytearray(binary_path.read_bytes())
        struct.pack_into("<I", data, 12, 0)  # clear the finalized flag
        binary_path.write_bytes(data)
        with pytest.raises(LogSchemaError, match="never finalized"):
            BinaryLogReader(binary_path)

    def test_rejects_truncated_file_naming_expected_end(self, binary_path):
        size = binary_path.stat().st_size
        binary_path.write_bytes(binary_path.read_bytes()[: size - 10])
        with pytest.raises(
            LogSchemaError, match=rf"ending at byte offset {size}"
        ):
            BinaryLogReader(binary_path)

    def test_record_corruption_surfaces_with_byte_offset(self, binary_path):
        # Structural validation is O(1), so a flipped tag byte inside the
        # record region is only seen when decoding reaches it — and the
        # error names where.
        data = bytearray(binary_path.read_bytes())
        data[HEADER_SIZE] = 99  # no such tag
        binary_path.write_bytes(data)
        reader = BinaryLogReader(binary_path)  # opens fine: O(1) checks only
        with pytest.raises(
            LogSchemaError, match=rf"tag 99 at byte offset {HEADER_SIZE}"
        ):
            replayed(reader)
        reader.close()

    @pytest.mark.parametrize(
        "field_offset, value",
        [(0, 10**6), (0, 0), (8, 10**6)],
        ids=["offset-past-eof", "offset-before-records", "length-past-eof"],
    )
    def test_index_span_outside_record_region_is_corrupt(
        self, binary_path, field_offset, value
    ):
        # Block 0's index entry: an 8-byte offset, then a 4-byte length.
        from repro.runtime.binlog import _INDEX_HEADER

        with BinaryLogReader(binary_path) as reader:
            entry_offset = reader.index_offset + _INDEX_HEADER.size
        data = bytearray(binary_path.read_bytes())
        fmt = "<Q" if field_offset == 0 else "<I"
        struct.pack_into(fmt, data, entry_offset + field_offset, value)
        binary_path.write_bytes(data)
        with BinaryLogReader(binary_path) as reader:
            with pytest.raises(
                LogCorruptError, match="outside the record region"
            ) as info:
                reader.replay_into(RecordingSink())
            assert info.value.offset == entry_offset
            assert f"byte offset {entry_offset}" in str(info.value)

    def test_zero_records_per_block_is_corrupt(self, binary_path):
        # Block fill is records / records_per_block: a zeroed field used
        # to escape block_stats() as a ZeroDivisionError.  The index
        # header is the u32 block count, then this u32.
        with BinaryLogReader(binary_path) as reader:
            field = reader.index_offset + 4
        data = bytearray(binary_path.read_bytes())
        struct.pack_into("<I", data, field, 0)
        binary_path.write_bytes(data)
        with BinaryLogReader(binary_path) as reader:
            with pytest.raises(LogCorruptError, match="0 records each") as info:
                reader.block_stats()
        assert info.value.offset == field

    def test_access_count_above_record_count_is_corrupt(self, binary_path):
        # The header's counts feed --stats ("sync events replicated to
        # each shard" is their difference); more accesses than records
        # is rejected at open, in O(1).
        with BinaryLogReader(binary_path) as reader:
            records = reader.record_count
        data = bytearray(binary_path.read_bytes())
        struct.pack_into("<Q", data, 24, records + 1000)
        binary_path.write_bytes(data)
        with pytest.raises(LogCorruptError, match="exceeds its record count") as info:
            BinaryLogReader(binary_path)
        assert info.value.offset == 24

    @pytest.mark.parametrize(
        "field, delta", [(16, 1000), (24, -1)], ids=["records", "accesses"]
    )
    def test_header_counts_disagreeing_with_index_are_corrupt(
        self, binary_path, field, delta
    ):
        with BinaryLogReader(binary_path) as reader:
            index = reader.index_offset
        data = bytearray(binary_path.read_bytes())
        (count,) = struct.unpack_from("<Q", data, field)
        struct.pack_into("<Q", data, field, count + delta)
        binary_path.write_bytes(data)
        with BinaryLogReader(binary_path) as reader:  # O(1) checks pass
            with pytest.raises(LogCorruptError, match="header promises") as info:
                reader.replay_into(RecordingSink())
        assert info.value.offset == index

    def test_crc_verify_catches_silent_corruption(self, binary_path):
        # A payload flip that keeps every tag valid: undetectable
        # structurally, caught by the explicit O(n) CRC pass.
        data = bytearray(binary_path.read_bytes())
        data[HEADER_SIZE + 5] ^= 0xFF
        binary_path.write_bytes(data)
        with pytest.raises(LogSchemaError, match="CRC mismatch"):
            BinaryLogReader(binary_path, verify=True)

    def test_crc_verify_passes_on_intact_log(self, binary_path):
        with BinaryLogReader(binary_path, verify=True) as reader:
            reader.verify()

    def test_out_of_range_string_id_is_corruption(self, recorded, tmp_path):
        path = tmp_path / "badstr.mjbl"
        write_binary_log(recorded, path)
        data = bytearray(path.read_bytes())
        reader = BinaryLogReader(path)
        offset = None
        for block in reader.blocks:
            offset = block.offset
            break
        # Find the first access record and point its field id past the table.
        from repro.runtime.binlog import TAG_ACCESS, _RECORD_SIZE

        while data[offset] != TAG_ACCESS:
            offset += _RECORD_SIZE[data[offset]]
        struct.pack_into("<I", data, offset + 20, 2**31)
        reader.close()
        path.write_bytes(data)
        with BinaryLogReader(path) as reader:
            with pytest.raises(LogSchemaError, match="out-of-range string"):
                replayed(reader)


    @pytest.mark.parametrize("compress", [None, 6])
    def test_invalid_utf8_string_is_corruption_with_offset(
        self, recorded, tmp_path, compress
    ):
        """A flipped string-table byte used to escape as a bare
        UnicodeDecodeError; it is corruption at the entry's offset, for
        v1 and v2 logs alike."""
        path = tmp_path / "badutf8.mjbl"
        write_binary_log(recorded, path, compress=compress)
        entry = garble_string_table(path)
        with open_log(path) as reader:
            assert reader.version == (
                BINLOG_VERSION if compress is None else BINLOG_VERSION_COMPRESSED
            )
            with pytest.raises(LogCorruptError, match="not valid UTF-8") as info:
                reader.replay_into(RecordingSink())
        assert info.value.offset == entry
        assert f"byte offset {entry}" in str(info.value)


class TestShardIndex:
    @pytest.fixture(scope="class")
    def multiblock(self, tmp_path_factory):
        """A synthetic log forced into many small blocks."""
        path = tmp_path_factory.mktemp("binlog") / "multi.mjbl"
        sink = BinaryLogSink(path, records_per_block=128)
        synthesize_into(sink, 20_000)
        return path

    def test_small_blocks_produce_many_index_entries(self, multiblock):
        with BinaryLogReader(multiblock) as reader:
            assert len(reader.blocks) >= 20_000 // 128
            assert reader.records_per_block == 128
            assert sum(b.records for b in reader.blocks) == reader.record_count
            assert sum(b.accesses for b in reader.blocks) == reader.access_count

    def test_shard_replay_partitions_losslessly(self, multiblock):
        with BinaryLogReader(multiblock) as reader:
            full = replayed(reader)
            for shards in (1, 2, 4, 8):
                seen_access = []
                sync_streams = []
                for shard in range(shards):
                    entries = replayed(reader, shard, shards)
                    accesses = [
                        e for e in entries if e[0] == RecordingSink.ACCESS
                    ]
                    for entry in accesses:
                        assert entry[1] % shards == shard
                    seen_access.extend(accesses)
                    sync_streams.append(
                        [e for e in entries if e[0] != RecordingSink.ACCESS]
                    )
                # Every access lands in exactly one shard ...
                all_accesses = [
                    e for e in full if e[0] == RecordingSink.ACCESS
                ]
                assert sorted(map(repr, seen_access)) == sorted(
                    map(repr, all_accesses)
                )
                # ... and every shard replays the full sync stream in order.
                full_sync = [e for e in full if e[0] != RecordingSink.ACCESS]
                for stream in sync_streams:
                    assert stream == full_sync

    def test_power_of_two_sharding_skips_blocks(self, tmp_path):
        # The point of the index: an access-only block whose uid
        # partitions miss a shard's residues is never decoded for that
        # shard.  Build a log with uid-local access runs — each block
        # touches one object — so 8-way sharding maps each access block
        # to exactly one shard.
        from repro.lang.ast import AccessKind
        from repro.runtime.events import ObjectKind

        path = tmp_path / "local.mjbl"
        sink = BinaryLogSink(path, records_per_block=128)
        sink.on_thread_start(0, 1)
        for i in range(128 * 16):
            # Access i is record i+1 (after the start event); pick the
            # uid so every 128-record block holds exactly one object.
            uid = 1000 + ((i + 1) // 128)
            sink.on_access_parts(
                uid, "f", 1, AccessKind.READ, 0, ObjectKind.INSTANCE, f"O#{uid}"
            )
        sink.on_thread_end(1)
        sink.on_thread_join(0, 1)
        sink.close()
        with BinaryLogReader(path) as reader:
            total = len(reader.blocks)
            access_only = [b for b in reader.blocks if not b.has_sync]
            assert len(access_only) >= 15
            mapped = sum(len(reader.shard_blocks(k, 8)) for k in range(8))
            # Sync-bearing blocks replicate to all 8 shards; each
            # access-only block maps to exactly one.
            sync_blocks = total - len(access_only)
            assert mapped == 8 * sync_blocks + len(access_only)
            # And the mapped shard view still reconstructs everything.
            full = replayed(reader)
            recovered = []
            for k in range(8):
                recovered.extend(
                    e for e in replayed(reader, k, 8)
                    if e[0] == RecordingSink.ACCESS
                )
            assert len(recovered) == reader.access_count == 128 * 16
            assert sorted(map(repr, recovered)) == sorted(
                map(repr, [e for e in full if e[0] == RecordingSink.ACCESS])
            )

    def test_shard_mask_covers_all_partitions(self):
        for shards in (1, 2, 3, 4, 5, 8, 16, 64):
            union = 0
            for shard in range(shards):
                union |= _shard_partition_mask(shard, shards)
            assert union == (1 << UID_PARTITIONS) - 1

    def test_power_of_two_masks_are_disjoint(self):
        for shards in (2, 4, 8, 16, 32, 64):
            seen = 0
            for shard in range(shards):
                mask = _shard_partition_mask(shard, shards)
                assert seen & mask == 0
                seen |= mask

    def test_odd_shard_counts_fall_back_to_full_mask(self):
        # gcd(64, 3) == 1: no residue can be ruled out, so the mask is
        # conservative — every block qualifies, nothing is lost.
        full = (1 << UID_PARTITIONS) - 1
        assert _shard_partition_mask(0, 3) == full
        assert _shard_partition_mask(2, 3) == full

    def test_shard_out_of_range_rejected(self, multiblock):
        with BinaryLogReader(multiblock) as reader:
            with pytest.raises(ValueError, match="out of range"):
                reader.shard_blocks(4, 4)


class TestOpenLog:
    def test_opens_a_binary_reader(self, binary_path, recorded):
        with open_log(binary_path) as log:
            assert isinstance(log, BinaryLogReader)
            assert replayed(log) == list(recorded.log)

    def test_rejects_non_mjbl_bytes_at_offset_zero(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x00\x01\x02 definitely not a log" * 4)
        with pytest.raises(LogCorruptError, match="bad magic") as info:
            open_log(path)
        assert info.value.offset == 0

    def test_missing_file_is_not_found(self, tmp_path):
        with pytest.raises(LogNotFoundError, match="not found"):
            open_log(tmp_path / "absent.mjbl")

    def test_directory_is_not_found(self, tmp_path):
        with pytest.raises(LogNotFoundError, match="cannot open"):
            open_log(tmp_path)


class TestLogSource:
    """``log_source`` is the one normaliser every replay goes through."""

    def test_path_opens_and_closes(self, binary_path, recorded):
        with log_source(binary_path) as source:
            assert isinstance(source, BinaryLogReader)
            assert replayed(source) == list(recorded.log)
        assert source._map is None

    def test_open_reader_passes_through_unclosed(self, binary_path):
        with BinaryLogReader(binary_path) as reader:
            with log_source(reader) as source:
                assert source is reader
            assert reader._map is not None

    def test_raw_entries_become_a_recording_view(self, recorded):
        entries = list(recorded.log)
        with log_source(entries) as source:
            assert isinstance(source, RecordingSink)
            assert source.log is entries
        with log_source(recorded) as source:
            assert source is recorded

    def test_tuple_entries_validated_unless_disabled(self):
        stale = [("access", 1, "f", 1)]
        with pytest.raises(LogSchemaError, match="columns"):
            with log_source(stale):
                pass
        with log_source(stale, validate=False) as source:
            assert source.log is stale

    def test_sources_share_the_sharded_interface(self, binary_path, recorded):
        with BinaryLogReader(binary_path) as reader:
            for shards in (1, 2, 3):
                for shard in range(shards):
                    assert replayed(recorded, shard, shards) == replayed(
                        reader, shard, shards
                    )
            for source in (recorded, reader):
                with pytest.raises(ValueError, match="out of range"):
                    replayed(source, 3, 3)
            assert (reader.access_count, reader.sync_count) == (
                recorded.access_count, recorded.sync_count
            )


class TestCompressedV2:
    """The MJBL v2 on-disk contract: per-block zlib spans behind the
    same reader API, v1 files untouched and still readable."""

    @pytest.fixture(scope="class")
    def trio(self, tmp_path_factory):
        """The same 20k-event trace as v1, v2-uncompressed, v2-deflated."""
        base = tmp_path_factory.mktemp("v2")
        paths = {}
        for name, compress in (("v1", None), ("v2raw", 0), ("v2z", 6)):
            path = base / f"{name}.mjbl"
            sink = BinaryLogSink(path, records_per_block=512, compress=compress)
            synthesize_into(sink, 20_000)
            paths[name] = path
        return paths

    def test_writer_version_stamps(self, trio):
        with BinaryLogReader(trio["v1"]) as reader:
            assert reader.version == BINLOG_VERSION
        for name in ("v2raw", "v2z"):
            with BinaryLogReader(trio[name]) as reader:
                assert reader.version == BINLOG_VERSION_COMPRESSED

    def test_all_three_decode_identically(self, trio):
        streams = {}
        for name, path in trio.items():
            with BinaryLogReader(path) as reader:
                streams[name] = replayed(reader)
        assert streams["v1"] == streams["v2raw"] == streams["v2z"]
        assert len(streams["v1"]) == 20_000

    def test_deflated_file_is_smaller(self, trio):
        v1 = trio["v1"].stat().st_size
        v2z = trio["v2z"].stat().st_size
        assert v2z < v1
        # The committed claim: compressed storage at or under 16
        # bytes/event on the synthetic mix (raw records are ~25).
        assert v2z / 20_000 <= 16

    def test_uncompressed_v2_blocks_stay_raw(self, trio):
        with BinaryLogReader(trio["v2raw"]) as reader:
            assert not any(block.compressed for block in reader.blocks)
        with BinaryLogReader(trio["v2z"]) as reader:
            assert any(block.compressed for block in reader.blocks)
            for block in reader.blocks:
                if block.compressed:
                    assert block.raw_length > block.length

    def test_shard_replay_matches_v1(self, trio):
        with BinaryLogReader(trio["v1"]) as v1, BinaryLogReader(
            trio["v2z"]
        ) as v2:
            for shard, shards in ((0, 4), (3, 4), (1, 3)):
                assert replayed(v1, shard, shards) == replayed(
                    v2, shard, shards
                )

    def test_crc_verify_covers_stored_bytes(self, trio):
        with BinaryLogReader(trio["v2z"], verify=True):
            pass
        data = bytearray(trio["v2z"].read_bytes())
        data[HEADER_SIZE + 3] ^= 0xFF
        mangled = trio["v2z"].parent / "mangled.mjbl"
        mangled.write_bytes(data)
        with pytest.raises(LogSchemaError, match="CRC mismatch"):
            BinaryLogReader(mangled, verify=True)

    def test_compress_level_validated(self, tmp_path):
        with pytest.raises(ValueError, match="compress"):
            BinaryLogSink(tmp_path / "x.mjbl", compress=10)
        with pytest.raises(ValueError, match="compress"):
            BinaryLogSink(tmp_path / "x.mjbl", compress=-1)

    def test_block_stats_report_ratio_and_fill(self, trio):
        with BinaryLogReader(trio["v2z"]) as reader:
            stats = reader.block_stats()
            assert reader.record_count == 20_000
        assert stats["blocks"] == 20_000 // 512 + (1 if 20_000 % 512 else 0)
        assert stats["records_per_block"] == 512
        assert 0 < stats["min_fill"] <= stats["mean_fill"] <= stats["max_fill"] <= 1
        assert stats["compressed_blocks"] > 0
        assert stats["compression_ratio"] > 1.4
        with BinaryLogReader(trio["v1"]) as reader:
            v1_stats = reader.block_stats()
        assert v1_stats["compressed_blocks"] == 0
        assert v1_stats["compression_ratio"] == 1.0


class TestV2Corruption:
    """Corruption inside a v2 log names the failing block's byte
    offset, exactly as the v1 scalar path names record offsets."""

    @pytest.fixture()
    def v2_path(self, tmp_path):
        path = tmp_path / "v2.mjbl"
        sink = BinaryLogSink(path, records_per_block=512, compress=6)
        synthesize_into(sink, 10_000)
        return path

    def _first_compressed(self, path):
        with BinaryLogReader(path) as reader:
            for block in reader.blocks:
                if block.compressed:
                    return block.offset, block.length
        raise AssertionError("no compressed block in fixture log")

    def test_garbled_deflate_stream_names_block_offset(self, v2_path):
        offset, _ = self._first_compressed(v2_path)
        data = bytearray(v2_path.read_bytes())
        data[offset] = 0xFF  # break the zlib stream header
        v2_path.write_bytes(data)
        with BinaryLogReader(v2_path) as reader:
            with pytest.raises(LogCorruptError, match="fails to inflate") as info:
                replayed(reader)
            assert info.value.offset == offset
            assert str(offset) in str(info.value)

    def test_truncated_deflate_stream_is_corrupt(self, v2_path):
        offset, length = self._first_compressed(v2_path)
        data = bytearray(v2_path.read_bytes())
        # Zero the tail of the stored span: the stream no longer ends.
        data[offset + length // 2 : offset + length] = bytes(
            length - length // 2
        )
        v2_path.write_bytes(data)
        with BinaryLogReader(v2_path) as reader:
            with pytest.raises(LogCorruptError, match="fails to inflate") as info:
                replayed(reader)
            assert info.value.offset == offset

    def test_raw_length_mismatch_names_block_offset(self, v2_path):
        with BinaryLogReader(v2_path) as reader:
            from repro.runtime.binlog import _INDEX_ENTRY_V2, _INDEX_HEADER

            index_offset = reader.index_offset
            target = None
            for position, block in enumerate(reader.blocks):
                if block.compressed:
                    target = (position, block.offset)
                    break
        assert target is not None
        position, block_offset = target
        entry_offset = (
            index_offset + _INDEX_HEADER.size + position * _INDEX_ENTRY_V2.size
        )
        data = bytearray(v2_path.read_bytes())
        struct.pack_into("<I", data, entry_offset + 36, 7)  # absurd raw_length
        v2_path.write_bytes(data)
        with BinaryLogReader(v2_path) as reader:
            with pytest.raises(
                LogCorruptError, match="index entry promises 7"
            ) as info:
                replayed(reader)
            assert info.value.offset == block_offset

    def test_record_corruption_inside_block_names_anchor(self, v2_path):
        # Decode-level corruption (a bad tag) inside an inflated block
        # can't name an exact file offset — the corrupt bytes never
        # exist on disk raw — so the error anchors to the stored span.
        import zlib as _z

        from repro.runtime.binlog import _INDEX_ENTRY_V2, _INDEX_HEADER

        with BinaryLogReader(v2_path) as reader:
            position, block = next(
                (i, b) for i, b in enumerate(reader.blocks) if b.compressed
            )
            entry_offset = (
                reader.index_offset
                + _INDEX_HEADER.size
                + position * _INDEX_ENTRY_V2.size
            )
        data = bytearray(v2_path.read_bytes())
        raw = bytearray(
            _z.decompress(data[block.offset : block.offset + block.length])
        )
        raw[0] = 99  # no such tag — valid deflate stream, invalid records
        deflated = _z.compress(bytes(raw), 6)
        data[block.offset : block.offset + len(deflated)] = deflated
        # Re-point the index entry at the re-deflated span.  Earlier
        # blocks are untouched and decoding stops at this one, so the
        # few bytes the new stream may spill past the old span never
        # get read.
        struct.pack_into("<I", data, entry_offset + 8, len(deflated))
        v2_path.write_bytes(data)
        with BinaryLogReader(v2_path) as reader:
            with pytest.raises(
                LogCorruptError,
                match=rf"unknown record tag 99 .*compressed block at byte "
                rf"offset {block.offset}",
            ):
                replayed(reader)

    def test_v1_entry_with_compressed_flag_is_corrupt(self, tmp_path):
        path = tmp_path / "v1.mjbl"
        sink = BinaryLogSink(path, records_per_block=512)
        synthesize_into(sink, 2_000)
        with BinaryLogReader(path) as reader:
            from repro.runtime.binlog import _INDEX_ENTRY_V2, _INDEX_HEADER

            entry_offset = reader.index_offset + _INDEX_HEADER.size
        data = bytearray(path.read_bytes())
        data[entry_offset + 33] = 1  # v2 compressed flag inside a v1 index
        path.write_bytes(data)
        with BinaryLogReader(path) as reader:
            with pytest.raises(
                LogCorruptError, match="compressed-block flag"
            ) as info:
                reader.blocks
            assert info.value.offset == entry_offset

    def test_relabeled_v1_header_still_reads(self, tmp_path):
        # A v1 file whose header version is bumped to 2 stays readable:
        # v1 index entries zero-pad exactly where v2 put its new fields.
        path = tmp_path / "relabel.mjbl"
        sink = BinaryLogSink(path, records_per_block=512)
        synthesize_into(sink, 2_000)
        expected = read_binary_log(path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, BINLOG_VERSION_COMPRESSED)
        path.write_bytes(data)
        with BinaryLogReader(path) as reader:
            assert reader.version == BINLOG_VERSION_COMPRESSED
            assert replayed(reader) == expected


def _log_stats(source) -> LogStatsSink:
    stats = LogStatsSink()
    source.replay_into(stats)
    return stats


def _summary(stats: LogStatsSink) -> tuple:
    return (
        stats.counts, stats.reads, stats.writes, stats.locations,
        stats.threads, stats.locks, stats.conditions,
    )


class TestLogStats:
    def test_counts_by_kind_and_entities(self, recorded, binary_path):
        from_tuples = _log_stats(recorded)
        with BinaryLogReader(binary_path) as reader:
            from_binary = _log_stats(reader)
        assert _summary(from_binary) == _summary(from_tuples)
        assert from_tuples.events == len(recorded.log)
        assert from_tuples.counts[RecordingSink.WAIT] >= 1
        assert from_tuples.counts[RecordingSink.NOTIFY] >= 1
        assert from_tuples.reads + from_tuples.writes == recorded.access_count
        assert len(from_tuples.threads) >= 3

    def test_v2_stats_match_v1(self, recorded, tmp_path):
        v1 = write_binary_log(recorded, tmp_path / "v1.mjbl")
        v2 = write_binary_log(
            recorded, tmp_path / "v2.mjbl", records_per_block=16, compress=6
        )
        with BinaryLogReader(v1) as one, BinaryLogReader(v2) as two:
            assert _summary(_log_stats(one)) == _summary(_log_stats(two))

    def test_default_block_size_is_sane(self):
        assert DEFAULT_RECORDS_PER_BLOCK >= 1024

    def test_sink_rejects_nonpositive_block_size(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            BinaryLogSink(tmp_path / "x.mjbl", records_per_block=0)
