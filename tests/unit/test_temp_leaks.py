"""Regression tests: temp event-log files must never outlive failures.

Event logs spooled through throwaway ``.mjbl`` files — difflab's
binlog round-trip axis and the service's upload validation/spooling —
route through :func:`repro.runtime.binlog.temporary_binary_log`; these
tests pin its cleanup contract.
"""

import tempfile

import pytest

from repro.runtime.binlog import temporary_binary_log


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """Route ``tempfile`` into an empty directory we can audit."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


class TestTemporaryBinaryLog:
    def test_removes_file_on_clean_exit(self, private_tmp):
        with temporary_binary_log() as path:
            assert path.exists()
            assert path.suffix == ".mjbl"
        assert not path.exists()
        assert list(private_tmp.iterdir()) == []

    def test_removes_file_when_body_raises(self, private_tmp):
        with pytest.raises(RuntimeError, match="mid-record failure"):
            with temporary_binary_log() as path:
                path.write_bytes(b"partial")
                raise RuntimeError("mid-record failure")
        assert list(private_tmp.iterdir()) == []

    def test_tolerates_body_unlinking_the_file(self, private_tmp):
        with temporary_binary_log() as path:
            path.unlink()
        assert list(private_tmp.iterdir()) == []


class TestDifflabRoundTripCleanup:
    def test_roundtrip_failure_leaves_no_temp_file(
        self, monkeypatch, private_tmp
    ):
        import repro.difflab.verdicts as verdicts_module
        from repro.difflab.verdicts import (
            ScheduleSpec,
            compute_verdicts,
            execute_case,
        )

        source = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 1;
    print d.x;
  }
}
class Data { field x; }
"""
        case = execute_case(source, ScheduleSpec())
        from repro.runtime.binlog import BinaryLogReader

        def exploding_replay(self, sink, shard=-1, shards=1):
            raise RuntimeError("decode blew up mid-roundtrip")

        monkeypatch.setattr(BinaryLogReader, "replay_into", exploding_replay)
        with pytest.raises(RuntimeError, match="mid-roundtrip"):
            compute_verdicts(case, shards=(2,))
        assert list(private_tmp.iterdir()) == []

    def test_roundtrip_success_leaves_no_temp_file(self, private_tmp):
        from repro.difflab.verdicts import (
            ScheduleSpec,
            compute_verdicts,
            execute_case,
        )

        source = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 1;
    print d.x;
  }
}
class Data { field x; }
"""
        case = execute_case(source, ScheduleSpec())
        verdicts = compute_verdicts(case, shards=(2,))
        assert "paper-binlog" in verdicts
        assert list(private_tmp.iterdir()) == []
