"""Integration tests for the sharded post-mortem engine: real
workloads, both executors, and the CLI flags."""

import os
from concurrent.futures import Future

import pytest

from repro.detector import RaceDetector, detect_sharded, sharded
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang import compile_source
from repro.runtime import MulticastSink, RandomPolicy, RecordingSink, run_program
from repro.runtime.binlog import BinaryLogReader, write_binary_log
from repro.workloads import ALL_WORKLOADS

from ..binlog_oracle import replayed
from ..property.test_sharded_parity import assert_matches_live


def _record(resolved, policy=None):
    """Run once into a log and a live detector; return the log and its
    one-shard detection, checked against the live detector."""
    plan = plan_instrumentation(resolved, PlannerConfig())
    live = RaceDetector(resolved=resolved)
    log = RecordingSink()
    run_program(
        resolved,
        sink=MulticastSink([log, live]),
        trace_sites=plan.trace_sites,
        policy=policy,
    )
    one = detect_sharded(log, 1, resolved=resolved)
    assert_matches_live(one, live)
    return log, one, live


@pytest.fixture(scope="module")
def tsp_recording():
    spec = ALL_WORKLOADS["tsp2"]
    resolved = compile_source(spec.build(4), filename="tsp2")
    log, one, _ = _record(resolved)
    return resolved, log, one


@pytest.fixture(scope="module")
def tsp_binaries(tsp_recording, tmp_path_factory):
    """The tsp recording as MJBL v1 and v2 files."""
    _, log, _ = tsp_recording
    base = tmp_path_factory.mktemp("tsp-mjbl")
    return {
        "v1": write_binary_log(log, base / "v1.mjbl"),
        "v2": write_binary_log(log, base / "v2.mjbl", compress=6),
    }


def _split(log, shards):
    return [replayed(log, shard, shards) for shard in range(shards)]


class TestPartitioning:
    def test_accesses_partition_and_syncs_replicate(self, tsp_recording):
        _, log, _ = tsp_recording
        shards = 4
        streams = _split(log, shards)
        accesses, syncs = log.access_count, log.sync_count
        assert len(streams) == shards
        assert syncs == len(log.log) - accesses
        # Each shard holds every sync event plus its slice of accesses.
        assert sum(len(s) for s in streams) == accesses + shards * syncs
        for stream in streams:
            sync_count = sum(
                1 for entry in stream if entry[0] != RecordingSink.ACCESS
            )
            assert sync_count == syncs

    def test_routing_is_by_object_uid(self, tsp_recording):
        _, log, _ = tsp_recording
        for index, stream in enumerate(_split(log, 3)):
            for entry in stream:
                if entry[0] == RecordingSink.ACCESS:
                    assert entry[1] % 3 == index

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("log_format", ["tuple", "v1", "v2"])
    def test_zero_shards_rejected(
        self, tsp_recording, tsp_binaries, log_format, executor
    ):
        _, log, _ = tsp_recording
        if log_format == "tuple":
            with pytest.raises(ValueError, match="shard count must be positive"):
                detect_sharded(log, 0, executor=executor)
            return
        with BinaryLogReader(tsp_binaries[log_format]) as reader:
            with pytest.raises(ValueError, match="shard count must be positive"):
                detect_sharded(reader, 0, executor=executor)

    @pytest.mark.parametrize("executor", ["gpu", "thread"])
    def test_unknown_executor_rejected(self, tsp_recording, executor):
        _, log, _ = tsp_recording
        with pytest.raises(ValueError, match="unknown executor"):
            detect_sharded(log, 2, executor=executor)


def _outcome_fields(result):
    """Everything a sharded run reports, merged and per shard."""
    return (
        result.reports.reports,
        result.stats,
        result.cache_stats,
        result.trie_stats,
        result.monitored_locations,
        result.trie_nodes,
        result.interned_locksets,
        [outcome.access_events for outcome in result.outcomes],
    )


class TestExecutorEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("log_format", ["tuple", "v1", "v2"])
    def test_every_executor_matches_serial_detection(
        self, tsp_recording, tsp_binaries, log_format, shards
    ):
        resolved, log, one = tsp_recording
        source = log if log_format == "tuple" else tsp_binaries[log_format]
        results = {
            executor: detect_sharded(
                source, shards, resolved=resolved, executor=executor
            )
            for executor in ("serial", "process")
        }
        assert _outcome_fields(results["process"]) == _outcome_fields(
            results["serial"]
        )
        result = results["serial"]
        assert result.reports.reports == one.reports.reports
        assert result.monitored_locations == one.monitored_locations
        assert result.trie_nodes == one.trie_nodes
        assert result.stats.accesses == one.stats.accesses
        assert result.races == one.stats.races_reported

    def test_one_shard_records_the_serial_executor(self, tsp_recording):
        # One shard runs in-process whatever executor is asked for, and
        # the result must say so.
        resolved, log, _ = tsp_recording
        result = detect_sharded(log, 1, resolved=resolved, executor="process")
        assert result.executor == "serial"
        assert "1 shards (serial)" in result.shard_summary()
        assert detect_sharded(log, 2, executor="process").executor == "process"

    def test_reports_carry_site_descriptors(self, tsp_recording):
        resolved, log, one = tsp_recording
        result = detect_sharded(
            log, 4, resolved=resolved, executor="process"
        )
        assert result.races > 0
        for report, expected in zip(result.reports.reports, one.reports.reports):
            assert report.site_descriptor == expected.site_descriptor
            assert report.site_descriptor  # Post-filled, not empty.

    def test_process_pool_is_capped_at_the_usable_cpus(
        self, tsp_recording, monkeypatch
    ):
        # A fork pool starts every worker up front, so the pool must not
        # be sized by the shard count.  The fake pool runs each task
        # inline: no process is started.
        sizes = []

        class InlinePool:
            def __init__(self, workers):
                sizes.append(workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, function, *args):
                future = Future()
                future.set_result(function(*args))
                return future

        resolved, log, _ = tsp_recording
        monkeypatch.setattr(sharded, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pooled = detect_sharded(log, 64, resolved=resolved, executor="process")
        assert sizes == [3]
        detect_sharded(log, 2, resolved=resolved, executor="process")
        assert sizes == [3, 2]
        serial = detect_sharded(log, 64, resolved=resolved)
        assert _outcome_fields(pooled) == _outcome_fields(serial)

    def test_shard_summary_mentions_every_shard(self, tsp_recording):
        resolved, log, _ = tsp_recording
        result = detect_sharded(log, 3, resolved=resolved)
        summary = result.shard_summary()
        for index in range(3):
            assert f"shard {index}" in summary


class TestWholeWorkflow:
    def test_record_then_detect_sharded_runs_end_to_end(self):
        spec = ALL_WORKLOADS["mtrt2"]
        resolved = compile_source(spec.build(3), filename="mtrt2")
        log, one, _ = _record(resolved)
        result = detect_sharded(log, 4, resolved=resolved)
        assert result.partitioned_accesses == log.access_count
        assert result.reports.reports == one.reports.reports


#: Two workers race on d.x; after both join, main keeps accessing d
#: (now shared) and a fresh object f through the same site.
MAIN_AFTER_JOIN = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 0;
    var a = new Worker(d); var b = new Worker(d);
    start a; start b; join a; join b;
    var f = new Data();
    f.x = 0;
    var i = 0;
    while (i < 8) { f.bump(); d.bump(); i = i + 1; }
    print d.x; print f.x;
  }
}
class Data { field x; def bump() { this.x = this.x + 1; } }
class Worker {
  field d;
  def init(d) { this.d = d; }
  def run() { this.d.bump(); }
}
"""


class TestOwnershipTransitionParity:
    """Ownership transitions across shard boundaries: a recorded run in
    which locations move from owned to shared mid-log must detect
    identically whether the log is replayed serially or sharded (the
    shard holding a location sees its full transition history —
    partitioning is by object uid)."""

    @pytest.fixture(scope="class")
    def transition_recording(self):
        resolved = compile_source(MAIN_AFTER_JOIN, filename="transition.mj")
        log, one, live = _record(resolved, policy=RandomPolicy(7))
        return resolved, log, one, live

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_sharded_matches_serial(self, transition_recording, shards):
        resolved, log, one, _ = transition_recording
        result = detect_sharded(log, shards, resolved=resolved)
        assert result.reports.reports == one.reports.reports
        assert result.stats.accesses == one.stats.accesses
        assert result.stats.owned_filtered == one.stats.owned_filtered
        assert result.monitored_locations == one.monitored_locations

    def test_log_contains_a_mid_run_transition(self, transition_recording):
        # The scenario is only meaningful if ownership actually
        # transitions inside the recorded window.
        _, _, _, live = transition_recording
        assert live.ownership_stats.transitions > 0


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


class TestCliFlags:
    @pytest.fixture
    def racy_file(self, tmp_path):
        path = tmp_path / "racy.mj"
        path.write_text(RACY)
        return str(path)

    def test_shards_flag_implies_post_mortem(self, racy_file, capsys):
        from repro.cli import main

        code = main(["check", racy_file, "--shards", "2", "--stats"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DATARACE" in out
        assert "post-mortem: 2 shards" in out

    def test_post_mortem_matches_on_the_fly_output(self, racy_file, capsys):
        from repro.cli import main

        main(["check", racy_file])
        live = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("DATARACE")
        ]
        main(["check", racy_file, "--post-mortem"])
        offline = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("DATARACE")
        ]
        assert sorted(live) == sorted(offline)
        assert live

    def test_one_shard_process_executor_prints_serial(self, racy_file, capsys):
        from repro.cli import main

        code = main(
            ["check", racy_file, "--post-mortem", "--executor", "process",
             "--stats"]
        )
        assert code == 1
        assert "post-mortem: 1 shards (serial)" in capsys.readouterr().out

    def test_invalid_shard_count(self, racy_file, capsys):
        from repro.cli import main

        assert main(["check", racy_file, "--shards", "0"]) == 2

    def test_thread_executor_is_gone(self, racy_file, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["check", racy_file, "--shards", "2", "--executor", "thread"])
        assert info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err
