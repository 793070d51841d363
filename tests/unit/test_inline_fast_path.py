"""The compiled engine's inline fast path
(:class:`repro.detector.pipeline.InlineFastPath`): when it engages, how
its deferred counters fold back, and that every observable still equals
the AST engine's — including runs that end in an error."""

import pytest

from repro.cli import main
from repro.detector import DetectorConfig, OwnershipFilter, RaceDetector
from repro.difflab.inject import ReadBlindDetector
from repro.lang import compile_source
from repro.runtime import (
    DeadlockError,
    MulticastSink,
    RandomPolicy,
    RecordingSink,
    StepLimitExceeded,
    engine_class,
)

#: Two workers race on d.x in a loop: virgin claims, owner re-accesses,
#: one ownership transition, then shared accesses the cache absorbs.
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
  def run() {
    var i = 0;
    while (i < 6) { this.d.x = this.d.x + 1; i = i + 1; }
  }
}
"""

#: The worker waits forever while main joins it: a DeadlockError after
#: both owned and shared accesses have run.
DEADLOCKING = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 1;
    var w = new Worker(d);
    start w;
    d.x = 2;
    join w;
  }
}
class Data { field x; }
class Worker {
  field d;
  def init(d) { this.d = d; }
  def run() {
    var i = 0;
    while (i < 4) { this.d.x = this.d.x + i; i = i + 1; }
    sync (this.d) { wait this.d; }
  }
}
"""


def _engine(sink, source=RACY, engine="compiled", **kwargs):
    return engine_class(engine)(
        compile_source(source), sink=sink, policy=RandomPolicy(3), **kwargs
    )


def _counters(detector, result=None):
    """Every counter the fast path defers, plus the reports."""
    return (
        result.accesses_emitted if result is not None else None,
        detector.stats,
        detector.cache.stats if detector.cache else None,
        detector.ownership_stats,
        tuple(report.describe() for report in detector.reports.reports),
    )


class TestEngagement:
    def test_detector_sinks_engage(self):
        assert _engine(RaceDetector())._fast_path is not None

    @pytest.mark.parametrize(
        "make_sink",
        [
            RecordingSink,
            lambda: MulticastSink([RecordingSink(), RaceDetector()]),
            lambda: None,
            lambda: RaceDetector(DetectorConfig(ownership=False)),
            lambda: RaceDetector(DetectorConfig(cache=False)),
        ],
        ids=["recording", "multicast", "no-sink", "ownership-off", "cache-off"],
    )
    def test_other_sinks_do_not_engage(self, make_sink):
        assert _engine(make_sink())._fast_path is None

    @pytest.mark.parametrize(
        "config",
        [
            DetectorConfig(fields_merged=True),
            DetectorConfig(join_pseudolocks=False),
            DetectorConfig(cache_size=7),
            DetectorConfig(fields_merged=True, cache_size=7),
        ],
        ids=[
            "fields-merged", "no-join-pseudolocks", "small-cache",
            "fields-merged-small-cache",
        ],
    )
    def test_every_config_with_ownership_and_cache_engages(self, config):
        # Only ownership and the cache gate the fast path; no other
        # detector setting keeps the stubs on the spine.
        detector = RaceDetector(config)
        engine = _engine(detector)
        assert engine._fast_path is not None
        engine.run()
        assert detector.inline_cache_hits > 0

    def test_the_fast_path_fires(self):
        detector = RaceDetector()
        _engine(detector).run()
        assert detector.inline_owned > 0
        assert detector.inline_cache_hits > 0


class TestFold:
    def test_fold_is_idempotent(self):
        detector = RaceDetector()
        engine = _engine(detector)
        result = engine.run()
        before = _counters(detector, result)
        assert engine._fast_path.fold() == 0
        assert _counters(detector, result) == before

    def test_counters_match_the_ast_engine(self):
        sides = []
        for engine in ("ast", "compiled"):
            detector = RaceDetector()
            result = _engine(detector, engine=engine).run()
            sides.append(_counters(detector, result))
        assert sides[0] == sides[1]

    @pytest.mark.parametrize(
        "source, max_steps, error",
        [(DEADLOCKING, 10_000_000, DeadlockError), (RACY, 60, StepLimitExceeded)],
        ids=["deadlock", "step-limit"],
    )
    def test_fold_runs_when_the_run_fails(self, source, max_steps, error):
        sides = []
        for engine in ("ast", "compiled"):
            detector = RaceDetector()
            runner = _engine(
                detector, source=source, engine=engine, max_steps=max_steps
            )
            with pytest.raises(error):
                runner.run()
            sides.append((runner.accesses_emitted, _counters(detector)))
        assert sides[0] == sides[1]
        assert sides[1][1][1].owned_filtered > 0


class TestOwnershipInvariant:
    def test_shared_is_terminal(self):
        # The stub's shared branch finishes a cache hit without asking
        # the ownership filter again, which is sound only because no
        # edge leaves SHARED.
        own = OwnershipFilter()
        own.admit("k", 1)
        own.admit("k", 2)  # transition to SHARED
        assert own.is_shared("k")
        for thread in range(4):
            admit, transitioned = own.admit("k", thread)
            assert admit and not transitioned
        assert own.is_shared("k")


class TestInjectedDetector:
    def test_read_blind_detector_gives_the_ast_verdict(self):
        sides = []
        for engine in ("ast", "compiled"):
            detector = ReadBlindDetector()
            result = _engine(detector, engine=engine).run()
            sides.append(
                (
                    _counters(detector, result),
                    frozenset(str(key) for key in detector.reports.racy_locations),
                )
            )
        assert sides[0] == sides[1]
        assert detector.inline_cache_hits > 0


class TestCli:
    @pytest.fixture
    def program(self, tmp_path):
        path = tmp_path / "racy.mj"
        path.write_text(RACY)
        return str(path)

    def test_report_json_identical_across_engines(self, program, capsys):
        reports = []
        for engine in ("ast", "compiled"):
            main(["check", program, "--engine", engine, "--seed", "4",
                  "--report-json"])
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_stats_print_the_inline_counts(self, program, capsys):
        main(["check", program, "--engine", "compiled", "--seed", "4",
              "--stats"])
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("inline fast path: owned=")
        ]
        assert len(lines) == 1
        assert "cache-hits=" in lines[0]

    def test_ast_engine_prints_no_inline_line(self, program, capsys):
        main(["check", program, "--engine", "ast", "--seed", "4", "--stats"])
        assert "inline fast path" not in capsys.readouterr().out
