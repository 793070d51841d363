"""The inline fast path end to end: with a detector as its only sink,
the compiled engine finishes owned accesses and shared cache hits inside
its trace stubs, and the race reports, report-JSON bytes and every
counter still equal the AST engine's, which has no stubs — and a fold
that loses the deferred counts is *caught* by that comparison."""

import pytest

from repro.detector import DetectorConfig, RaceDetector
from repro.detector.pipeline import InlineFastPath
from repro.harness import CONFIG_FULL, run_workload
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang import compile_source
from repro.runtime import RandomPolicy, engine_runner
from repro.service.protocol import canonical_json, detection_report
from repro.workloads import ALL_WORKLOADS

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

#: Two workers race on d.x; after both join, main hammers a fresh
#: object through the *same* traced site, so one run mixes virgin
#: claims, owner re-accesses, a transition and shared accesses.
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

#: No thread but main: every traced access is a virgin claim or an
#: owner re-access.
SINGLE_THREADED = """
class Main {
  static def main() {
    var d = new Data();
    var i = 0;
    while (i < 10) { d.x = i; d.y = d.x + 1; i = i + 1; }
    print d.y;
  }
}
class Data { field x; field y; }
"""


def _run(source, engine, seed=3, config=None, trace_sites="plan"):
    resolved = compile_source(source, filename="parity.mj")
    plan = plan_instrumentation(resolved, PlannerConfig())
    detector = RaceDetector(
        config=config, resolved=resolved, static_races=plan.static_races
    )
    result = engine_runner(engine)(
        resolved,
        sink=detector,
        trace_sites=plan.trace_sites if trace_sites == "plan" else trace_sites,
        policy=RandomPolicy(seed),
    )
    return detector, result


def _report_bytes(source, engine, seed):
    """Canonical report-JSON of one run, CLI-equivalent."""
    detector, result = _run(source, engine, seed)
    return canonical_json(
        detection_report(
            detector.reports.reports,
            detector.stats,
            detector.cache.stats if detector.cache else None,
            output=result.output,
        )
    )


def _counters(detector, result):
    return (
        result.accesses_emitted,
        detector.stats,
        detector.cache.stats,
        detector.ownership_stats,
        tuple(report.describe() for report in detector.reports.reports),
    )


class TestReportParity:
    @pytest.mark.parametrize(
        "source", [RACY, MAIN_AFTER_JOIN], ids=["racy", "main-after-join"]
    )
    @pytest.mark.parametrize("seed", [1, 3, 9])
    def test_report_json_byte_identical_across_engines(self, source, seed):
        assert _report_bytes(source, "compiled", seed) == _report_bytes(
            source, "ast", seed
        )

    @pytest.mark.parametrize("name", ["tsp2", "sor2", "mtrt2"])
    def test_workload_outcomes_identical_across_engines(self, name):
        spec = ALL_WORKLOADS[name]
        scale = 4 if name != "sor2" else 6
        ast, compiled = (
            run_workload(
                spec,
                CONFIG_FULL,
                scale=scale,
                policy=RandomPolicy(5),
                engine=engine,
            )
            for engine in ("ast", "compiled")
        )
        assert compiled.output == ast.output
        assert compiled.steps == ast.steps
        assert compiled.races_reported == ast.races_reported
        assert compiled.racy_objects == ast.racy_objects
        assert compiled.events == ast.events
        assert compiled.owned_filtered == ast.owned_filtered
        assert compiled.cache_hits == ast.cache_hits
        assert compiled.weaker_filtered == ast.weaker_filtered
        assert compiled.trie_nodes == ast.trie_nodes
        assert compiled.detector.stats == ast.detector.stats
        assert compiled.detector.cache.stats == ast.detector.cache.stats
        assert ast.detector.inline_cache_hits == 0
        assert compiled.detector.inline_owned > 0
        assert compiled.detector.inline_cache_hits > 0


class TestCounters:
    def test_single_threaded_run_finishes_every_access_inline(self):
        # The planner traces no site of a single-threaded program, so
        # trace all of them.
        detector, result = _run(SINGLE_THREADED, "compiled", trace_sites=None)
        assert detector.stats.accesses > 0
        assert detector.inline_owned == detector.stats.accesses
        assert detector.stats.owned_filtered == detector.stats.accesses
        assert detector.inline_cache_hits == 0
        assert _counters(detector, result) == _counters(
            *_run(SINGLE_THREADED, "ast", trace_sites=None)
        )

    def test_emitted_count_includes_the_folded_accesses(self):
        detector, result = _run(MAIN_AFTER_JOIN, "compiled")
        assert detector.inline_owned + detector.inline_cache_hits > 0
        assert result.accesses_emitted == detector.stats.accesses

    def test_untraced_sites_produce_no_inline_work(self):
        detector, result = _run(MAIN_AFTER_JOIN, "compiled", trace_sites=set())
        assert result.accesses_emitted == 0
        assert detector.stats.accesses == 0
        assert (detector.inline_owned, detector.inline_cache_hits) == (0, 0)

    @pytest.mark.parametrize(
        "config",
        [
            DetectorConfig(fields_merged=True),
            DetectorConfig(join_pseudolocks=False),
            DetectorConfig(cache_size=7),
        ],
        ids=["fields-merged", "no-join-pseudolocks", "small-cache"],
    )
    def test_engaging_configs_match_the_ast_engine(self, config):
        compiled = _run(MAIN_AFTER_JOIN, "compiled", config=config)
        ast = _run(MAIN_AFTER_JOIN, "ast", config=config)
        assert compiled[0].inline_owned > 0
        assert _counters(*compiled) == _counters(*ast)


class TestGuard:
    """The cross-engine comparison must catch a fast path that breaks
    counter parity — here simulated by a fold() that drops every
    deferred count."""

    def test_lossy_fold_is_caught(self, monkeypatch):
        def lossy_fold(self):
            self.owned_cell[0] = self.hit_cell[0] = 0
            return 0

        monkeypatch.setattr(InlineFastPath, "fold", lossy_fold)
        compiled = _run(MAIN_AFTER_JOIN, "compiled")
        ast = _run(MAIN_AFTER_JOIN, "ast")
        assert _counters(*compiled) != _counters(*ast)
        assert compiled[0].stats.owned_filtered < ast[0].stats.owned_filtered
