"""The tuple-encoded in-memory event-log schema.

RecordingSink logs cross process boundaries (sharded detection), and
raw entries reach post-mortem detection from other code.  These tests
pin the schema contract: validation catches unknown tags, wrong arity,
and mistyped columns, and the post-mortem loaders refuse corrupt logs
instead of misdecoding them.
"""

import pytest

from repro.detector import detect_sharded
from repro.lang.ast import AccessKind
from repro.runtime import RecordingSink
from repro.runtime.events import (
    LogSchemaError,
    LogSchemaMismatchError,
    ObjectKind,
    validate_entries,
)

from ..conftest import run_source

SMALL = """\
class Main {
  static def main() {
    var shared = new Shared();
    var lock0 = new LockObj();
    var w0 = new Worker0(shared, lock0);
    start w0;
    join w0;
    print shared.f0;
  }
}
class Shared { field f0; }
class LockObj { }
class Worker0 {
  field s;
  field lock0;
  def init(shared, l0) { this.s = shared; this.lock0 = l0; }
  def run() {
    var s = this.s;
    sync (this.lock0) { s.f0 = 1; }
  }
}
"""


@pytest.fixture(scope="module")
def recorded():
    log = RecordingSink()
    run_source(SMALL, sink=log)
    return log


class TestValidateEntries:
    def test_fresh_recording_validates(self, recorded):
        validate_entries(recorded.log)

    def test_unknown_tag_rejected(self):
        with pytest.raises(LogSchemaError, match="unknown tag"):
            validate_entries([("teleport", 1, 2)])

    def test_wrong_arity_rejected(self, recorded):
        truncated = recorded.log[0][:-1]
        with pytest.raises(LogSchemaError, match="columns"):
            validate_entries([truncated])

    def test_non_tuple_entry_rejected(self):
        with pytest.raises(LogSchemaError, match="tagged tuple"):
            validate_entries([["access", 1]])
        with pytest.raises(LogSchemaError, match="tagged tuple"):
            validate_entries([()])

    def test_mistyped_access_columns_rejected(self):
        bad = (RecordingSink.ACCESS, "one", "f0", 0,
               AccessKind.WRITE, 1, ObjectKind.INSTANCE, "Shared#1")
        with pytest.raises(LogSchemaError, match="mistyped"):
            validate_entries([bad])
        bad_kind = (RecordingSink.ACCESS, 1, "f0", 0,
                    "write", 1, ObjectKind.INSTANCE, "Shared#1")
        with pytest.raises(LogSchemaError, match="mistyped"):
            validate_entries([bad_kind])

    @pytest.mark.parametrize(
        "entry",
        [
            (RecordingSink.START, 0, [1]),
            (RecordingSink.JOIN, 0, {"a": 1}),
            (RecordingSink.END, [1]),
            (RecordingSink.ENTER, 0, 1.5, False),
            (RecordingSink.EXIT, 0, None, False),
            (RecordingSink.ENTER, 0, 7, "no"),
            (RecordingSink.WAIT, "0", 7),
            (RecordingSink.NOTIFY, 0, 7, 1),
        ],
    )
    def test_mistyped_sync_columns_rejected(self, entry):
        # Ids are ints and reentrant / notify_all are bools, so a
        # damaged sync column cannot reach the lock tracker or a
        # pseudo-lock computation as a list, dict or float.
        with pytest.raises(LogSchemaError, match="mistyped"):
            validate_entries([entry])

    def test_unhashable_tag_rejected(self):
        with pytest.raises(LogSchemaError, match="unknown tag"):
            validate_entries([([1], 2)])

    def test_error_names_offending_index(self, recorded):
        entries = list(recorded.log) + [("bogus",)]
        with pytest.raises(LogSchemaError, match=str(len(recorded.log))):
            validate_entries(entries)

    def test_wait_notify_entries_validate(self):
        # The condition-synchronization tags validate.
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            var c = new C(s);
            start c;
            sync (s) { while (s.flag != 1) { wait s; } }
            join c;
          }
        }
        class Shared { field flag; }
        class C {
          field s;
          def init(s) { this.s = s; }
          def run() {
            sync (this.s) { this.s.flag = 1; notifyall this.s; }
          }
        }
        """
        log = RecordingSink()
        run_source(source, sink=log)
        tags = {entry[0] for entry in log.log}
        assert RecordingSink.WAIT in tags
        assert RecordingSink.NOTIFY in tags
        validate_entries(log.log)


class TestLoadersValidate:
    def test_detect_sharded_refuses_corrupt_log(self, recorded):
        entries = list(recorded.log) + [("bogus", 1)]
        with pytest.raises(LogSchemaError):
            detect_sharded(entries, 2)

    @pytest.mark.parametrize(
        "entries",
        [
            [5],
            [None],
            [["start", 0, 1]],
            [(RecordingSink.START, 0, [1])],
            [(RecordingSink.JOIN, 0, {"a": 1})],
            [(RecordingSink.END, [1])],
            [({"tag": "end"},)],
            [(RecordingSink.ACCESS, 1, "f0", 0, "teleport", 1,
              ObjectKind.INSTANCE, "Obj#1")],
        ],
        ids=[
            "scalar-entry", "none-entry", "list-entry", "list-column",
            "dict-column", "list-thread", "dict-tag", "unknown-access-kind",
        ],
    )
    def test_detect_sharded_refuses_malformed_raw_entries(self, entries):
        # Raw entries built by other code or unpickled are the one
        # tuple-log trust boundary left: every shape that is not a
        # tagged tuple with typed columns is a schema mismatch, never a
        # TypeError from inside a shard.
        for shards in (1, 3):
            with pytest.raises(LogSchemaMismatchError):
                detect_sharded(entries, shards)

    def test_validation_can_be_disabled(self, recorded):
        # Trusted in-process logs may skip the scan (the difflab replays
        # the same recording many times).
        serial = detect_sharded(recorded, 1, validate=False)
        assert serial.stats.accesses == recorded.access_count
