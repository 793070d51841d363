"""CLI exit-code taxonomy for damaged, missing, and skewed event logs.

``repro check --from-log`` and ``repro log-stats`` fail in three
distinguishable ways scripts can branch on without parsing messages:

* exit 2 — the log does not exist (or a usage/compile error),
* exit 3 — the bytes are corrupt or truncated, or are not MJBL at all
  (message carries the damage's byte offset),
* exit 4 — intact bytes recorded under an MJBL format version this
  build does not read.

``repro serve`` maps the same classes to HTTP 404 / 422 / 400
(tested in ``test_service.py``).
"""

import json

import pytest

from repro.cli import main
from repro.runtime.binlog import write_binary_log
from repro.runtime.events import RecordingSink

from ..conftest import garble_string_table, unbalanced_exit_log

PROGRAM = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 1;
    print d.x;
  }
}
class Data { field x; }
"""


@pytest.fixture
def binary_log(tmp_path):
    """A small, valid MJBL log recorded from a real run."""
    from repro.lang import compile_source
    from repro.runtime import run_program

    sink = RecordingSink()
    run_program(compile_source(PROGRAM), sink=sink)
    path = tmp_path / "run.mjbl"
    write_binary_log(sink, path)
    return path, sink


@pytest.mark.parametrize("command", ["check", "log-stats"])
class TestLogErrorExitCodes:
    def _invoke(self, command, path):
        if command == "check":
            return main(["check", "--from-log", str(path)])
        return main(["log-stats", str(path)])

    def test_missing_log_exits_2(self, command, tmp_path, capsys):
        code = self._invoke(command, tmp_path / "nope.mjbl")
        captured = capsys.readouterr()
        assert code == 2
        assert "not found" in captured.err

    def test_truncated_binary_log_exits_3_with_offset(
        self, command, binary_log, tmp_path, capsys
    ):
        path, _ = binary_log
        truncated = tmp_path / "truncated.mjbl"
        truncated.write_bytes(path.read_bytes()[:40])
        code = self._invoke(command, truncated)
        captured = capsys.readouterr()
        assert code == 3
        assert "corrupt" in captured.err
        # The message names the byte offset of the damage (the 40-byte
        # file ends before the 80-byte header).
        assert "40" in captured.err

    def test_damaged_record_region_exits_3(
        self, command, binary_log, tmp_path, capsys
    ):
        path, _ = binary_log
        blob = bytearray(path.read_bytes())
        damaged = tmp_path / "damaged.mjbl"
        damaged.write_bytes(blob[: len(blob) - 7])
        code = self._invoke(command, damaged)
        assert code == 3
        assert "corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize("compress", [None, 6])
    def test_invalid_utf8_string_table_exits_3_with_offset(
        self, command, binary_log, tmp_path, capsys, compress
    ):
        _, sink = binary_log
        path = tmp_path / "badutf8.mjbl"
        write_binary_log(sink, path, compress=compress)
        entry = garble_string_table(path)
        code = self._invoke(command, path)
        captured = capsys.readouterr()
        assert code == 3
        assert "corrupt" in captured.err
        assert f"byte offset {entry}" in captured.err
        assert "Traceback" not in captured.err

    def test_garbage_json_exits_3(self, command, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{ this is not json")
        code = self._invoke(command, path)
        assert code == 3
        assert "corrupt" in capsys.readouterr().err

    def test_zero_records_per_block_exits_3(
        self, command, binary_log, capsys
    ):
        # Used to escape log-stats as a ZeroDivisionError (exit 1), and
        # to be accepted silently by check.
        from repro.runtime.binlog import BinaryLogReader

        path, _ = binary_log
        with BinaryLogReader(path) as reader:
            field = reader.index_offset + 4  # after the u32 block count
        data = bytearray(path.read_bytes())
        data[field : field + 4] = bytes(4)
        path.write_bytes(bytes(data))
        code = self._invoke(command, path)
        captured = capsys.readouterr()
        assert code == 3
        assert f"byte offset {field}" in captured.err
        assert "Traceback" not in captured.err

    def test_access_count_above_record_count_exits_3(
        self, command, binary_log, capsys
    ):
        # Used to be accepted: check --stats printed a negative count of
        # replicated sync events.
        path, sink = binary_log
        data = bytearray(path.read_bytes())
        data[24:32] = (len(sink.log) + 1000).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        code = self._invoke(command, path)
        captured = capsys.readouterr()
        assert code == 3
        assert "byte offset 24" in captured.err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "0-byte file is smaller than the 80-byte MJBL header"),
            (b"MJB", "3-byte file is smaller than the 80-byte MJBL header"),
            (b"class Main { static def main() { } }\n" * 4,
             "bad magic b'clas' at byte offset 0"),
            (bytes(200), "bad magic b'\\x00\\x00\\x00\\x00' at byte offset 0"),
            # The retired tuple-JSON log file, as it used to be written.
            (b'{"version": 3, "entries": ['
             b'["access", 1, "x", 0, "WRITE", 1, "instance", "Data#1"], '
             b'["access", 1, "x", 0, "READ", 2, "instance", "Data#1"], '
             b'["end", 0]]}',
             "bad magic b'{\"ve' at byte offset 0"),
        ],
        ids=["empty", "partial-magic", "mj-source", "zeros", "tuple-json"],
    )
    def test_non_mjbl_file_exits_3(
        self, command, content, message, tmp_path, capsys
    ):
        # MJBL is the only log format: any other file is a corrupt log,
        # named by its size or its first four bytes.
        path = tmp_path / "not-a-log"
        path.write_bytes(content)
        code = self._invoke(command, path)
        captured = capsys.readouterr()
        assert code == 3
        assert message in captured.err
        assert "Traceback" not in captured.err


@pytest.fixture
def compressed_log(tmp_path):
    """A v2-compressed synthetic log big enough for deflated blocks."""
    from repro.runtime.synthlog import synthesize_file

    path = tmp_path / "run_v2.mjbl"
    synthesize_file(path, 10_000, compress=6, records_per_block=512)
    return path


@pytest.mark.parametrize("command", ["check", "log-stats"])
class TestV2LogErrorExitCodes:
    """The v2 format plugs into the same exit-code taxonomy: damage
    inside a deflated block is exit 3 and names the block's byte
    offset; a future format version is schema skew, exit 4."""

    def _invoke(self, command, path):
        if command == "check":
            return main(["check", "--from-log", str(path)])
        return main(["log-stats", str(path)])

    def test_garbled_compressed_block_exits_3_with_offset(
        self, command, compressed_log, capsys
    ):
        from repro.runtime.binlog import BinaryLogReader

        with BinaryLogReader(compressed_log) as reader:
            block_offset = next(
                b.offset for b in reader.blocks if b.compressed
            )
        data = bytearray(compressed_log.read_bytes())
        data[block_offset] = 0xFF  # break the zlib stream header
        compressed_log.write_bytes(data)
        code = self._invoke(command, compressed_log)
        captured = capsys.readouterr()
        assert code == 3
        assert "corrupt" in captured.err
        assert str(block_offset) in captured.err

    def test_future_format_version_exits_4(
        self, command, compressed_log, capsys
    ):
        import struct

        from repro.runtime.binlog import BINLOG_VERSION_COMPRESSED

        data = bytearray(compressed_log.read_bytes())
        struct.pack_into("<I", data, 4, BINLOG_VERSION_COMPRESSED + 1)
        compressed_log.write_bytes(data)
        code = self._invoke(command, compressed_log)
        captured = capsys.readouterr()
        assert code == 4
        assert "schema" in captured.err
        assert "re-record" in captured.err


class TestUnbalancedMonitorExit:
    """A log whose monitor exit releases a lock the thread does not
    hold is damaged bytes: exit 3 with the thread, lock and held stack
    named, never a traceback."""

    @pytest.mark.parametrize("post_mortem", [False, True])
    def test_unbalanced_exit_exits_3(self, post_mortem, tmp_path, capsys):
        path = write_binary_log(unbalanced_exit_log(), tmp_path / "unbalanced.mjbl")
        argv = ["check", "--from-log", str(path)]
        code = main(argv + ["--post-mortem"] if post_mortem else argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "corrupt" in err
        assert "unbalanced monitor exit" in err
        assert "while holding [" in err
        assert "Traceback" not in err

    def test_index_entry_past_eof_exits_3(self, binary_log, capsys):
        from repro.runtime.binlog import _INDEX_HEADER, BinaryLogReader

        path, _ = binary_log
        with BinaryLogReader(path) as reader:
            entry = reader.index_offset + _INDEX_HEADER.size
        data = bytearray(path.read_bytes())
        data[entry : entry + 8] = (10**6).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        code = main(["check", "--from-log", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert f"byte offset {entry}" in err
        assert "Traceback" not in err


class TestReportJson:
    def test_report_json_is_canonical_and_machine_readable(
        self, tmp_path, capsys
    ):
        program = tmp_path / "prog.mj"
        program.write_text(PROGRAM)
        code = main(["check", str(program), "--report-json"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "clean"
        assert report["schema"] == 1
        # Canonical encoding: re-serializing reproduces the bytes.
        assert out.strip() == json.dumps(
            report, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )

    def test_report_json_racy_exit_code(self, tmp_path, capsys):
        racy = PROGRAM.replace(
            "print d.x;",
            "var a = new W(d); var b = new W(d); "
            "start a; start b; join a; join b;",
        ) + (
            "class W { field d; def init(d) { this.d = d; } "
            "def run() { this.d.x = this.d.x + 1; } }"
        )
        program = tmp_path / "racy.mj"
        program.write_text(racy)
        code = main(["check", str(program), "--report-json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["verdict"] == "racy"
        assert report["race_count"] == len(report["races"]) >= 1

    def test_report_json_rejects_human_only_flags(self, tmp_path, capsys):
        program = tmp_path / "prog.mj"
        program.write_text(PROGRAM)
        code = main(["check", str(program), "--report-json", "--deadlocks"])
        assert code == 2
        assert "report-json" in capsys.readouterr().err
