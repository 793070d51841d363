"""Binary-vs-tuple detection parity, end to end.

The at-rest format's hard constraint: race reports produced over a
mapped MJBL file must be byte-identical to those produced over the
in-memory tuple log — for every workload, every committed corpus
reproducer, serial and sharded, and through every user-facing entry
point (``repro run --record-binary``, ``repro check --from-log``,
and ``repro log-stats``).
"""


import pytest

from repro.cli import main
from repro.detector import detect_sharded
from repro.difflab import load_corpus
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang.resolver import compile_source
from repro.runtime import RecordingSink, RoundRobinPolicy, run_program
from repro.runtime.binlog import BinaryLogReader, write_binary_log
from repro.workloads import ALL_WORKLOADS

from ..binlog_oracle import replayed

SHARD_COUNTS = (1, 2, 4)


def _record(source, policy=None):
    resolved = compile_source(source)
    plan = plan_instrumentation(resolved, PlannerConfig())
    log = RecordingSink()
    run_program(
        resolved,
        sink=log,
        trace_sites=plan.trace_sites,
        policy=policy if policy is not None else RoundRobinPolicy(),
        max_steps=50_000_000,
    )
    return resolved, log


def _report_lines(reports):
    return [
        (str(r.key), r.object_label, r.field, r.current.thread_id)
        for r in reports
    ]


def _assert_binary_parity(resolved, log, tmp_path):
    serial = detect_sharded(log, 1, resolved=resolved)
    serial_lines = _report_lines(serial.reports.reports)
    path = tmp_path / "trace.mjbl"
    write_binary_log(log, path)
    v2_path = tmp_path / "trace_v2.mjbl"
    write_binary_log(log, v2_path, compress=6)
    for mapped in (path, v2_path):
        with BinaryLogReader(mapped) as reader:
            assert replayed(reader) == list(log.log)
            for shards in SHARD_COUNTS:
                sharded = detect_sharded(
                    reader, shards, resolved=resolved, validate=False
                )
                assert _report_lines(sharded.reports.reports) == serial_lines
                assert (
                    sharded.reports.racy_locations
                    == serial.reports.racy_locations
                )
                assert sharded.stats.accesses == serial.stats.accesses
                assert (
                    sharded.stats.detector_processed
                    == serial.stats.detector_processed
                )
    # The path-based entry point (what --from-log uses) agrees too.
    sharded = detect_sharded(path, 2, resolved=resolved)
    assert _report_lines(sharded.reports.reports) == serial_lines


class TestWorkloadParity:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_binary_reports_identical(self, name, tmp_path):
        spec = ALL_WORKLOADS[name]
        scale = min(spec.default_scale, 2)
        resolved, log = _record(spec.build(scale))
        _assert_binary_parity(resolved, log, tmp_path)


class TestCorpusParity:
    @pytest.mark.parametrize(
        "entry", load_corpus(), ids=lambda entry: entry.name
    )
    def test_reproducer_binary_reports_identical(self, entry, tmp_path):
        resolved, log = _record(entry.source, policy=entry.schedule.policy())
        _assert_binary_parity(resolved, log, tmp_path)


RACY = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 0;
    var a = new Worker(d); var b = new Worker(d);
    start a; start b; join a; join b;
    print d.x;
  }
}
class Data { field x; }
class Worker {
  field d;
  def init(d) { this.d = d; }
  def run() { this.d.x = this.d.x + 1; }
}
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.mj"
    path.write_text(RACY)
    return path


class TestCliRecordAndReplay:
    def _race_lines(self, text):
        return [line for line in text.splitlines() if "DATARACE" in line]

    def test_record_binary_then_from_log(self, racy_file, tmp_path, capsys):
        log = tmp_path / "run.mjbl"
        assert main(["run", str(racy_file), "--record-binary", str(log)]) == 0
        err = capsys.readouterr().err
        assert "binary" in err
        assert log.exists()

        direct = main(["check", str(racy_file)])
        direct_out = capsys.readouterr().out
        replayed = main(["check", str(racy_file), "--from-log", str(log)])
        replayed_out = capsys.readouterr().out
        assert direct == replayed == 1
        assert self._race_lines(direct_out) == self._race_lines(replayed_out)

    def test_from_log_without_program(self, racy_file, tmp_path, capsys):
        log = tmp_path / "run.mjbl"
        main(["run", str(racy_file), "--record-binary", str(log)])
        capsys.readouterr()
        code = main(["check", "--from-log", str(log)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DATARACE" in out

    def test_from_log_sharded(self, racy_file, tmp_path, capsys):
        log = tmp_path / "run.mjbl"
        main(["run", str(racy_file), "--record-binary", str(log)])
        capsys.readouterr()
        serial = main(["check", str(racy_file), "--from-log", str(log)])
        serial_out = capsys.readouterr().out
        sharded = main([
            "check", str(racy_file), "--from-log", str(log), "--shards", "4"
        ])
        sharded_out = capsys.readouterr().out
        assert serial == sharded == 1
        assert self._race_lines(serial_out) == self._race_lines(sharded_out)

    def test_check_without_file_or_log_errors(self, capsys):
        assert main(["check"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cut", range(len("--r"), len("--record-binary"))
    )
    def test_run_refuses_abbreviated_record_binary(
        self, racy_file, tmp_path, capsys, cut
    ):
        # No prefix of --record-binary resolves to it, so the retired
        # tuple-JSON flag (``--record``, one of these prefixes) is a
        # usage error rather than a silent MJBL recording.
        log = tmp_path / "run.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(racy_file), "--record-binary"[:cut], str(log)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not log.exists()

    def test_from_log_rejects_corrupt_file(self, tmp_path, capsys):
        noise = tmp_path / "noise.mjbl"
        noise.write_bytes(b"MJBL" + b"\x00" * 8)  # magic but truncated
        code = main(["check", "--from-log", str(noise)])
        err = capsys.readouterr().err
        assert code == 3  # corrupt bytes, distinct from generic errors
        assert "error" in err


class TestCliCompressedRecord:
    def _race_lines(self, text):
        return [line for line in text.splitlines() if "DATARACE" in line]

    def test_record_compressed_then_from_log(self, racy_file, tmp_path, capsys):
        v1 = tmp_path / "run.mjbl"
        v2 = tmp_path / "run_v2.mjbl"
        assert main(["run", str(racy_file), "--record-binary", str(v1)]) == 0
        capsys.readouterr()
        assert main([
            "run", str(racy_file), "--record-binary", str(v2), "--compress",
        ]) == 0
        err = capsys.readouterr().err
        assert "binary v2, deflate level 6" in err
        # Same schedule, same events: both logs replay to the same races.
        from_v1 = main(["check", str(racy_file), "--from-log", str(v1)])
        v1_out = capsys.readouterr().out
        from_v2 = main(["check", str(racy_file), "--from-log", str(v2)])
        v2_out = capsys.readouterr().out
        assert from_v1 == from_v2 == 1
        assert self._race_lines(v1_out) == self._race_lines(v2_out)

    def test_compress_without_record_binary_is_usage_error(
        self, racy_file, capsys
    ):
        assert main(["run", str(racy_file), "--compress", "6"]) == 2
        assert "--record-binary" in capsys.readouterr().err

    def test_compress_level_out_of_range_is_usage_error(
        self, racy_file, tmp_path, capsys
    ):
        log = tmp_path / "run.mjbl"
        code = main([
            "run", str(racy_file), "--record-binary", str(log),
            "--compress", "12",
        ])
        assert code == 2
        assert "0-9" in capsys.readouterr().err


class TestCliSynthlog:
    def test_synthlog_writes_a_detectable_log(self, tmp_path, capsys):
        out = tmp_path / "synth.mjbl"
        assert main([
            "synthlog", str(out), "--events", "20000", "--compress", "6",
        ]) == 0
        err = capsys.readouterr().err
        assert "MJBL v2" in err
        assert main(["log-stats", str(out), "--verify"]) == 0
        stats_out = capsys.readouterr().out
        assert "format: binary (MJBL v2" in stats_out
        assert "crc: ok" in stats_out
        with BinaryLogReader(out) as reader:
            assert len(reader) == 20_000
        outcome = detect_sharded(out, 2)
        assert outcome.stats.accesses > 0

    def test_synthlog_compressed_matches_uncompressed(self, tmp_path, capsys):
        a = tmp_path / "a.mjbl"
        b = tmp_path / "b.mjbl"
        assert main(["synthlog", str(a), "--events", "20000"]) == 0
        assert main([
            "synthlog", str(b), "--events", "20000", "--compress", "9",
        ]) == 0
        capsys.readouterr()
        with BinaryLogReader(a) as ra, BinaryLogReader(b) as rb:
            assert replayed(ra) == replayed(rb)
        assert b.stat().st_size < a.stat().st_size

    def test_synthlog_rejects_bad_arguments(self, tmp_path, capsys):
        assert main([
            "synthlog", str(tmp_path / "x.mjbl"), "--events", "0",
        ]) == 2
        capsys.readouterr()
        assert main([
            "synthlog", str(tmp_path / "x.mjbl"), "--compress", "10",
        ]) == 2


class TestCliLogStats:
    def test_binary_log_stats(self, racy_file, tmp_path, capsys):
        log = tmp_path / "run.mjbl"
        main(["run", str(racy_file), "--record-binary", str(log)])
        capsys.readouterr()
        assert main(["log-stats", str(log), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "format: binary (MJBL v1" in out
        assert "crc: ok" in out
        assert "block fill:" in out
        assert "bytes/event:" in out

    def test_compressed_log_stats_report_ratio(self, racy_file, tmp_path, capsys):
        log = tmp_path / "run.mjbl"
        main([
            "run", str(racy_file), "--record-binary", str(log), "--compress",
        ])
        capsys.readouterr()
        assert main(["log-stats", str(log), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "format: binary (MJBL v2" in out
        assert "crc: ok" in out
        assert "compression:" in out

    def test_log_stats_rejects_noise(self, tmp_path, capsys):
        noise = tmp_path / "noise.log"
        noise.write_text("not a log")
        # Unparseable bytes are the corrupt-log exit, not a generic error.
        assert main(["log-stats", str(noise)]) == 3
