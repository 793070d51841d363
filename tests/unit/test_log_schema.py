"""The versioned tuple-encoded event-log schema.

RecordingSink logs cross process boundaries (sharded detection) and —
via dump_log/load_log — build boundaries.  These tests pin the schema
contract: validation catches version skew, unknown tags, wrong arity,
and mistyped columns; serialization round-trips losslessly; and the
post-mortem loaders refuse corrupt logs instead of misdecoding them.
"""

import pytest

from repro.detector import detect_sharded
from repro.lang.ast import AccessKind
from repro.runtime import RecordingSink
from repro.runtime.events import (
    LogSchemaError,
    LogSchemaMismatchError,
    ObjectKind,
    dump_log,
    load_log,
    validate_entries,
)

from ..conftest import MALFORMED_ENTRIES, run_source

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

    def test_version_mismatch_rejected(self, recorded):
        with pytest.raises(LogSchemaError, match="schema version"):
            validate_entries(recorded.log, version=1)

    def test_v2_log_rejected_with_remediation(self, recorded):
        # v2 predates the wait/notify tags; a v2 reader must be told to
        # re-record rather than silently dropping condition edges.
        with pytest.raises(LogSchemaError, match="re-record"):
            validate_entries(recorded.log, version=2)

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


class TestDumpLoadRoundtrip:
    def test_roundtrip_is_lossless(self, recorded):
        payload = dump_log(recorded)
        assert payload["version"] == RecordingSink.SCHEMA_VERSION
        restored = load_log(payload)
        assert restored == recorded.log

    def test_roundtrip_survives_json(self, recorded):
        import json

        payload = json.loads(json.dumps(dump_log(recorded)))
        assert load_log(payload) == recorded.log

    def test_roundtrip_detects_same_races(self, recorded):
        serial = detect_sharded(recorded, 1)
        restored = detect_sharded(load_log(dump_log(recorded)), 1)
        assert [str(r.key) for r in restored.reports.reports] == [
            str(r.key) for r in serial.reports.reports
        ]

    def test_load_rejects_wrong_version(self, recorded):
        payload = dump_log(recorded)
        payload["version"] = 1
        with pytest.raises(LogSchemaError, match="schema version"):
            load_log(payload)

    def test_load_rejects_v2_payload_with_remediation(self, recorded):
        payload = dump_log(recorded)
        payload["version"] = 2
        with pytest.raises(LogSchemaError, match="re-record the execution"):
            load_log(payload)

    def test_wait_notify_entries_roundtrip(self):
        # The v3 additions themselves: condition-sync tags validate and
        # survive serialization.
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
        assert load_log(dump_log(log)) == log.log

    def test_load_rejects_non_log_payload(self):
        with pytest.raises(LogSchemaError, match="entries"):
            load_log({"version": RecordingSink.SCHEMA_VERSION})
        with pytest.raises(LogSchemaError):
            load_log("not a payload")

    @pytest.mark.parametrize(
        "entries", MALFORMED_ENTRIES + [[{"tag": "end"}], 5, None, [[[1], 2]]]
    )
    def test_load_rejects_malformed_json_structure(self, entries):
        # Every JSON shape that is not a list of tagged lists with typed
        # columns is a schema mismatch, never a TypeError.
        with pytest.raises(LogSchemaMismatchError):
            load_log({"version": RecordingSink.SCHEMA_VERSION, "entries": entries})

    def test_load_rejects_unknown_enum_value(self, recorded):
        payload = dump_log(recorded)
        for raw in payload["entries"]:
            if raw[0] == RecordingSink.ACCESS:
                raw[4] = "teleport"
                break
        with pytest.raises(LogSchemaError, match="enum"):
            load_log(payload)


class TestLoadersValidate:
    def test_detect_sharded_refuses_corrupt_log(self, recorded):
        entries = list(recorded.log) + [("bogus", 1)]
        with pytest.raises(LogSchemaError):
            detect_sharded(entries, 2)

    def test_validation_can_be_disabled(self, recorded):
        # Trusted in-process logs may skip the scan (the difflab replays
        # the same recording many times).
        serial = detect_sharded(recorded, 1, validate=False)
        assert serial.stats.accesses == recorded.access_count
