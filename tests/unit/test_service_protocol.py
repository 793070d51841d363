"""Unit tests for the service wire protocol and the compile cache."""

import json

import pytest

from repro.detector.pipeline import PipelineStats
from repro.lang import MJError
from repro.runtime.binlog import MAGIC
from repro.runtime.events import (
    LogCorruptError,
    LogNotFoundError,
    LogSchemaError,
    LogSchemaMismatchError,
)
from repro.service.cache import (
    HIT,
    MAX_ENTRIES,
    MISS,
    CompileCache,
    plan_fingerprint,
    source_fingerprint,
)
from repro.service.protocol import (
    EXIT_CORRUPT,
    EXIT_ERROR,
    EXIT_SCHEMA_MISMATCH,
    KIND_BINARY_LOG,
    KIND_PROGRAM,
    canonical_json,
    classify_payload,
    detection_report,
    error_payload,
    error_taxonomy,
    exit_code_for,
    http_status_for,
    verdict_payload,
)

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


class TestClassifyPayload:
    def test_binary_log_magic(self):
        assert classify_payload(MAGIC + b"\x00" * 76) == KIND_BINARY_LOG

    def test_json_body_is_program(self):
        # MJBL is the only log format: a JSON body is (bad) MJ source.
        assert classify_payload(b'{"version": 3}') == KIND_PROGRAM
        assert classify_payload(b'  \n\t{"entries": []}') == KIND_PROGRAM

    def test_program_source(self):
        assert classify_payload(b"class Main { }") == KIND_PROGRAM

    def test_empty_body_is_program(self):
        assert classify_payload(b"") == KIND_PROGRAM

    def test_magic_must_lead(self):
        assert classify_payload(b" MJBL") == KIND_PROGRAM


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_non_ascii_passthrough(self):
        assert canonical_json({"k": "é"}) == '{"k":"é"}'


class TestErrorTaxonomy:
    CASES = [
        (LogNotFoundError("gone"), EXIT_ERROR, 404, "not-found"),
        (LogCorruptError("bad", offset=40), EXIT_CORRUPT, 422, "corrupt"),
        (
            LogSchemaMismatchError("skew"),
            EXIT_SCHEMA_MISMATCH,
            400,
            "schema-mismatch",
        ),
        (MJError("parse"), EXIT_ERROR, 422, "compile-error"),
        (LogSchemaError("other"), EXIT_ERROR, 422, "log-error"),
        (RuntimeError("boom"), EXIT_ERROR, 500, "internal"),
    ]

    @pytest.mark.parametrize(
        "error,exit_code,status,taxonomy",
        CASES,
        ids=[case[3] for case in CASES],
    )
    def test_mapping(self, error, exit_code, status, taxonomy):
        assert exit_code_for(error) == exit_code
        assert http_status_for(error) == status
        assert error_taxonomy(error) == taxonomy

    def test_error_payload_carries_offset(self):
        payload = error_payload(LogCorruptError("damaged", offset=123))
        assert payload == {
            "error": "damaged",
            "taxonomy": "corrupt",
            "offset": 123,
        }

    def test_error_payload_without_offset(self):
        assert "offset" not in error_payload(LogNotFoundError("gone"))

    def test_subclasses_stay_catchable_as_base(self):
        # The CLI's pre-existing `except LogSchemaError` fallbacks (and
        # any third-party caller) must keep catching the whole family.
        for error in (
            LogNotFoundError("a"),
            LogCorruptError("b"),
            LogSchemaMismatchError("c"),
        ):
            assert isinstance(error, LogSchemaError)


class TestDetectionReport:
    def test_clean_report_shape(self):
        report = detection_report([], PipelineStats(), None, output=["7"])
        assert report["verdict"] == "clean"
        assert report["race_count"] == 0
        assert report["races"] == []
        assert report["cache"] is None
        assert report["output"] == ["7"]
        assert set(report["funnel"]) == {
            "accesses",
            "owned_filtered",
            "cache_hits",
            "weaker_filtered",
            "detector_processed",
            "races_reported",
        }
        json.dumps(report)  # must be JSON-safe as-is

    def test_verdict_payload_sorts_and_stringifies(self):
        payload = verdict_payload("hb", ["b.y", "a.x"], [2, 1], 3)
        assert payload == {
            "axis": "hb",
            "racy_locations": ["a.x", "b.y"],
            "racy_objects": ["1", "2"],
            "races": 3,
        }


class TestCompileCache:
    def test_miss_then_hit(self):
        cache = CompileCache()
        first = cache.lookup(PROGRAM, "a.mj")
        second = cache.lookup(PROGRAM, "a.mj")
        assert first.status == MISS
        assert second.status == HIT
        assert second.resolved is first.resolved
        assert second.plan is first.plan
        assert cache.counters() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "plan_fingerprint": cache.plan_fingerprint,
        }

    def test_filename_is_part_of_the_address(self):
        # Site descriptors embed the filename, so the same source under
        # two names is two distinct report streams — and two entries.
        cache = CompileCache()
        assert cache.lookup(PROGRAM, "a.mj").status == MISS
        assert cache.lookup(PROGRAM, "b.mj").status == MISS
        assert source_fingerprint(PROGRAM, "a.mj") != source_fingerprint(
            PROGRAM, "b.mj"
        )

    def test_planner_config_is_part_of_the_address(self):
        # The same submission under two planner configurations compiles
        # to different artifacts, so the addresses must differ too.
        from repro.instrument.planner import PlannerConfig

        full = plan_fingerprint(PlannerConfig())
        nostatic = plan_fingerprint(PlannerConfig(static_analysis=False))
        assert full != nostatic
        assert source_fingerprint(PROGRAM, "a.mj", plan=full) != (
            source_fingerprint(PROGRAM, "a.mj", plan=nostatic)
        )
        # And the cache mixes its own planner's fingerprint into every
        # key it creates.
        cache = CompileCache()
        assert cache.lookup(PROGRAM, "a.mj").fingerprint == (
            source_fingerprint(PROGRAM, "a.mj", plan=cache.plan_fingerprint)
        )

    def test_fifo_eviction(self):
        cache = CompileCache(max_entries=1)
        cache.lookup(PROGRAM, "a.mj")
        cache.lookup(PROGRAM, "b.mj")
        assert len(cache) == 1
        assert cache.lookup(PROGRAM, "a.mj").status == MISS

    def test_bounded_by_default(self):
        assert CompileCache().max_entries == MAX_ENTRIES

    def test_unique_misses_stay_bounded_and_keep_the_recurring_program(self):
        cache = CompileCache(max_entries=3)
        cache.lookup(PROGRAM, "hot.mj")
        for index in range(8):
            assert cache.lookup(PROGRAM, f"cold{index}.mj").status == MISS
            assert len(cache) <= cache.max_entries
            # Least recently used goes first, so the program every
            # other request repeats is never the one evicted.
            assert cache.lookup(PROGRAM, "hot.mj").status == HIT
        assert len(cache) == cache.max_entries
        assert cache.lookup(PROGRAM, "cold0.mj").status == MISS

    def test_compile_error_propagates_uncached(self):
        cache = CompileCache()
        with pytest.raises(MJError):
            cache.lookup("class Main { oops }", "bad.mj")
        assert len(cache) == 0
