"""Regression tests: temp event-log files must never outlive failures.

Three call sites spool event logs through throwaway ``.mjbl`` files —
the harness's binary post-mortem mode, difflab's binlog round-trip
axis, and the service's upload validation/spooling.  All of them now
route through :func:`repro.runtime.binlog.temporary_binary_log`; these
tests pin the cleanup contract, including the historical leak where
``run_workload_post_mortem`` dropped the temp file *and* left the
``BinaryLogSink`` open when the recording run raised mid-execution.
"""

import tempfile

import pytest

from repro.runtime.binlog import BinaryLogSink, temporary_binary_log


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

    def test_custom_suffix_and_dir(self, tmp_path):
        with temporary_binary_log(suffix=".json", dir=tmp_path) as path:
            assert path.parent == tmp_path
            assert path.suffix == ".json"
        assert list(tmp_path.iterdir()) == []


class TestHarnessPostMortemCleanup:
    def _run_with_step_budget_failure(self, monkeypatch, tmp_path):
        """Force ``recorder.run()`` to raise mid-record in binary mode,
        spying on sink closes; returns the list of closed sinks."""
        import repro.runtime.binlog as binlog
        from repro.harness.runner import CONFIG_FULL, run_workload_post_mortem
        from repro.runtime.scheduler import StepLimitExceeded
        from repro.workloads import ALL_WORKLOADS

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        closed = []
        real_sink = BinaryLogSink

        class SpySink(real_sink):
            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(binlog, "BinaryLogSink", SpySink)
        with pytest.raises(StepLimitExceeded):
            run_workload_post_mortem(
                ALL_WORKLOADS["tsp2"],
                CONFIG_FULL,
                shards=2,
                scale=1,
                log_format="binary",
                max_steps=3,
            )
        return closed

    def test_mid_record_failure_leaves_no_temp_file(
        self, monkeypatch, tmp_path
    ):
        self._run_with_step_budget_failure(monkeypatch, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_mid_record_failure_closes_the_sink(
        self, monkeypatch, tmp_path
    ):
        closed = self._run_with_step_budget_failure(monkeypatch, tmp_path)
        assert closed, "BinaryLogSink.close() never ran after the failure"


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
