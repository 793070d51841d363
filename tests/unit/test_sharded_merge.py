"""Merge-edge unit tests for the sharded post-mortem engine.

The difflab's sharded-parity axis sweeps these same invariants over
fuzzed cases; here each edge gets a focused, deterministic check:
an empty log, a single shard, more shards than objects, and the
counter bookkeeping under sync-event replication.
"""

import pytest

from repro.detector import detect_sharded
from repro.runtime import RecordingSink

from ..binlog_oracle import replayed
from ..conftest import run_source

TINY = """\
class Main {
  static def main() {
    var shared = new Shared();
    var w0 = new Worker0(shared);
    start w0;
    join w0;
    print shared.f0;
  }
}
class Shared { field f0; }
class Worker0 {
  field s;
  def init(shared) { this.s = shared; }
  def run() {
    var s = this.s;
    s.f0 = 1;
  }
}
"""

SYNC_HEAVY = """\
class Main {
  static def main() {
    var shared = new Shared();
    shared.f0 = 0;
    shared.f1 = 0;
    var lock0 = new LockObj();
    var w0 = new Worker0(shared, lock0);
    var w1 = new Worker1(shared, lock0);
    start w0;
    start w1;
    join w0;
    join w1;
    print shared.f0;
  }
}
class Shared { field f0; field f1; }
class LockObj { }
class Worker0 {
  field s;
  field lock0;
  def init(shared, l0) { this.s = shared; this.lock0 = l0; }
  def run() {
    var s = this.s;
    var i0 = 0;
    while (i0 < 6) {
      sync (this.lock0) { s.f0 = s.f0 + 1; }
      s.f1 = s.f1 + 1;
      i0 = i0 + 1;
    }
  }
}
class Worker1 {
  field s;
  field lock0;
  def init(shared, l0) { this.s = shared; this.lock0 = l0; }
  def run() {
    var s = this.s;
    var i1 = 0;
    while (i1 < 6) {
      sync (this.lock0) { s.f0 = s.f0 + 1; }
      s.f1 = s.f1 + 1;
      i1 = i1 + 1;
    }
  }
}
"""


def record(source):
    log = RecordingSink()
    run_source(source, sink=log)
    return log


def counter_tuple(result):
    """The counters the parity theorem says are shard-count invariant."""
    return (
        result.stats.accesses,
        result.stats.owned_filtered,
        result.stats.detector_processed,
        result.stats.cache_hits + result.stats.detector_weaker_filtered,
        result.monitored_locations,
        result.trie_nodes,
        tuple(str(r.key) for r in result.reports.reports),
    )


class TestEmptyLog:
    def test_empty_log_any_shard_count(self):
        for shards in (1, 2, 8):
            result = detect_sharded([], shards)
            assert result.races == 0
            assert result.monitored_locations == 0
            assert result.trie_nodes == 0
            assert result.partitioned_accesses == 0
            assert result.replicated_sync_events == 0
            assert len(result.outcomes) == shards

    def test_partition_empty(self):
        empty = RecordingSink()
        assert [replayed(empty, shard, 3) for shard in range(3)] == [[], [], []]
        assert empty.access_count == 0 and empty.sync_count == 0

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shard count must be positive"):
            detect_sharded([], 0)


class TestSingleShard:
    def test_single_shard_equals_serial(self):
        log = record(SYNC_HEAVY)
        serial = detect_sharded(log, 1)
        sharded = detect_sharded(log, 1)
        assert sharded.races == len(serial.reports.reports)
        assert sharded.monitored_locations == serial.monitored_locations
        assert sharded.trie_nodes == serial.trie_nodes
        assert [str(r.key) for r in sharded.reports.reports] == [
            str(r.key) for r in serial.reports.reports
        ]
        # One shard holds the whole log: nothing is replicated extra.
        only = sharded.outcomes[0]
        assert only.access_events == log.access_count


class TestShardsExceedObjects:
    def test_more_shards_than_objects(self):
        log = record(TINY)
        uids = {entry[1] for entry in log.log
                if entry[0] == RecordingSink.ACCESS}
        shards = len(uids) + 13
        serial = detect_sharded(log, 1)
        sharded = detect_sharded(log, shards)
        # Most shards are empty of accesses, yet the merge is exact.
        populated = [o for o in sharded.outcomes if o.access_events]
        assert len(populated) <= len(uids)
        assert counter_tuple(sharded)[:-1] == (
            serial.stats.accesses,
            serial.stats.owned_filtered,
            serial.stats.detector_processed,
            serial.stats.cache_hits + serial.stats.detector_weaker_filtered,
            serial.monitored_locations,
            serial.trie_nodes,
        )
        assert [str(r.key) for r in sharded.reports.reports] == [
            str(r.key) for r in serial.reports.reports
        ]


class TestSyncReplication:
    def test_counters_invariant_across_shard_counts(self):
        log = record(SYNC_HEAVY)
        serial = detect_sharded(log, 1)
        expected = (
            serial.stats.accesses,
            serial.stats.owned_filtered,
            serial.stats.detector_processed,
            serial.stats.cache_hits + serial.stats.detector_weaker_filtered,
            serial.monitored_locations,
            serial.trie_nodes,
            tuple(str(r.key) for r in serial.reports.reports),
        )
        for shards in (1, 2, 3, 8):
            result = detect_sharded(log, shards)
            assert counter_tuple(result) == expected, shards

    def test_every_shard_sees_every_sync_event(self):
        log = record(SYNC_HEAVY)
        syncs = len(log.log) - log.access_count
        assert syncs > 0
        streams = [RecordingSink(replayed(log, shard, 4)) for shard in range(4)]
        assert sum(stream.access_count for stream in streams) == log.access_count
        result = detect_sharded(log, 4)
        assert result.replicated_sync_events == syncs
        assert result.partitioned_accesses == log.access_count
        for stream in streams:
            assert stream.sync_count == syncs

    def test_replicated_syncs_do_not_inflate_access_counters(self):
        log = record(SYNC_HEAVY)
        for shards in (2, 8):
            result = detect_sharded(log, shards)
            # Per-shard access counts partition the recorded accesses
            # exactly; sync replication never leaks into them.
            assert sum(o.access_events for o in result.outcomes) == (
                log.access_count
            )
            assert result.partitioned_accesses == log.access_count
