"""Tests for the post-mortem workflow: record one run into a
RecordingSink, then detect offline with detect_sharded (and, when the
pair enumeration is wanted, the FullRace oracle over the same log)."""

from repro.detector import DetectorConfig, ReferenceDetector, detect_sharded
from repro.lang import compile_source
from repro.runtime import RandomPolicy, RecordingSink, run_program


def _record(source, **kwargs):
    log = RecordingSink()
    run = run_program(compile_source(source), sink=log, **kwargs)
    return run, log


def _full_race(log):
    oracle = ReferenceDetector()
    log.replay_into(oracle)
    return oracle.full_race


class TestDetectPostMortem:
    def test_full_workflow(self, racy_two_writer_source):
        run, log = _record(racy_two_writer_source)
        reports = detect_sharded(log, 1).reports.reports
        full_race = _full_race(log)
        assert run.output == ["2"]
        assert reports
        assert full_race
        # FullRace is a superset view: every reported location appears
        # among the enumerated pairs' locations.
        pair_locations = {pair.key for pair in full_race}
        for report in reports:
            assert report.key in pair_locations

    def test_without_enumeration(self, racy_two_writer_source):
        # Detection alone needs no oracle, and it only reads the log:
        # a second pass over the same recording gives the same reports.
        _, log = _record(racy_two_writer_source)
        first = detect_sharded(log, 1).reports.reports
        assert first
        assert detect_sharded(log, 1).reports.reports == first

    def test_clean_program(self, safe_two_writer_source):
        _, log = _record(safe_two_writer_source)
        assert not detect_sharded(log, 1).reports.reports
        assert _full_race(log) == []

    def test_log_reusable_for_other_configs(self, racy_two_writer_source):
        _, log = _record(racy_two_writer_source, policy=RandomPolicy(3))
        plain = detect_sharded(log, 1)
        merged = detect_sharded(log, 1, config=DetectorConfig(fields_merged=True))
        no_own = detect_sharded(log, 1, config=DetectorConfig(ownership=False))
        # One execution, three analyses — the log decouples them.
        assert plain.reports.racy_objects
        assert merged.reports.object_count >= plain.reports.object_count
        assert no_own.reports.object_count >= plain.reports.object_count

    def test_respects_trace_sites(self, racy_two_writer_source):
        _, log = _record(racy_two_writer_source, trace_sites=set())
        assert not detect_sharded(log, 1).reports.reports
        assert not any(entry[0] == "access" for entry in log.log)
