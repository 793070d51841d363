"""Cross-engine parity: the compiled backend against the AST interpreter.

The closure-compiled engine is a drop-in replacement: for any program,
schedule, and instrumentation plan it must make the same scheduler
decisions, allocate the same object uids, emit a byte-identical
schema-v3 event stream, print the same output, and raise the same
errors as the AST interpreter.  These tests enforce that contract on

* every workload in the benchmark suite (Full plan, all-sites, Base);
* seeded random schedules (including one that deadlocks);
* the detector funnel under every harness detector configuration —
  identical :class:`PipelineStats`, cache and ownership statistics,
  reports, monitored locations, and trie shapes;
* a fuzzer battery, including the wait/notify/barrier vocabulary
  (``sync_vocab``), condition-handoff-biased programs
  (``handoff_bias``) and helper calls with early returns
  (``calls_vocab``);
* every committed reproducer in ``tests/corpus/``, replayed under its
  recorded schedule.
"""

import pytest

from repro.detector import DetectorConfig, RaceDetector
from repro.difflab import load_corpus
from repro.harness import (
    CONFIG_FIELDS_MERGED,
    CONFIG_FULL,
    CONFIG_NO_CACHE,
    CONFIG_NO_OWNERSHIP,
)
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang.resolver import compile_source
from repro.runtime import (
    ENGINES,
    RandomPolicy,
    RecordingSink,
    engine_runner,
)
from repro.workloads import ALL_WORKLOADS
from repro.workloads.fuzz import ProgramFuzzer

SCALE = 3

run_ast = engine_runner("ast")
run_compiled = engine_runner("compiled")


def observe(runner, resolved, trace_sites, policy, with_sink=True):
    """Everything parity compares, as one comparable tuple.

    Errors are part of the contract too: a failing program must fail
    identically (same exception type, same message) on both engines.
    """
    sink = RecordingSink() if with_sink else None
    try:
        result = runner(
            resolved, sink=sink, trace_sites=trace_sites, policy=policy
        )
    except Exception as error:  # noqa: BLE001 — error parity is the point.
        return ("error", type(error).__name__, str(error))
    log = sink.log if with_sink else None
    return (
        result.steps,
        result.threads_created,
        result.accesses_executed,
        result.accesses_emitted,
        tuple(result.output),
        log,
    )


def assert_parity(resolved, trace_sites, make_policy, with_sink=True):
    ast_side = observe(
        run_ast, resolved, trace_sites, make_policy(), with_sink
    )
    compiled_side = observe(
        run_compiled, resolved, trace_sites, make_policy(), with_sink
    )
    assert ast_side == compiled_side


def compiled_workload(name, scale=SCALE):
    spec = ALL_WORKLOADS[name]
    resolved = compile_source(spec.build(scale), filename=name)
    plan = plan_instrumentation(resolved, PlannerConfig())
    return resolved, plan


class TestEngineRegistry:
    def test_both_engines_registered(self):
        assert set(ENGINES) >= {"ast", "compiled"}

    def test_unknown_engine_rejected(self):
        from repro.runtime import engine_class

        with pytest.raises(ValueError):
            engine_runner("jit")
        with pytest.raises(ValueError):
            engine_class("jit")


class TestWorkloadParity:
    """Byte-identical logs on every benchmark workload."""

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_full_plan_log_identical(self, name):
        resolved, plan = compiled_workload(name)
        assert_parity(resolved, plan.trace_sites, lambda: None)

    @pytest.mark.parametrize("name", ["tsp2", "figure2", "join_stats"])
    def test_all_sites_log_identical(self, name):
        resolved, _ = compiled_workload(name)
        assert_parity(resolved, None, lambda: None)

    @pytest.mark.parametrize("name", ["tsp2", "sor2"])
    def test_base_uninstrumented_identical(self, name):
        resolved, _ = compiled_workload(name)
        assert_parity(resolved, None, lambda: None, with_sink=False)


class TestScheduleParity:
    """Same decisions under seeded random policies — including one
    seed whose schedule deadlocks, so error parity is exercised."""

    @pytest.mark.parametrize("name", ["tsp2", "figure2", "philosophers"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_policy_identical(self, name, seed):
        resolved, plan = compiled_workload(name)
        assert_parity(
            resolved, plan.trace_sites, lambda: RandomPolicy(seed=seed)
        )

    def test_a_deadlocking_seed_exists(self):
        # Guard the guard: at least one (name, seed) cell above must
        # actually fail, or the error-parity branch is dead code.
        resolved, plan = compiled_workload("philosophers")
        outcomes = {
            observe(
                run_ast, resolved, plan.trace_sites, RandomPolicy(seed=seed)
            )[0]
            for seed in (0, 1, 7)
        }
        assert "error" in outcomes


#: Every detector configuration the harness tables run, plus three
#: non-default settings behind an engaged fast path: a different trie
#: query (read-read races), no join pseudo-locks (a different lockset
#: on every post-join access), and a small cache (the stub's inline
#: slot computation over a non-default size, with frequent conflicts).
FUNNEL_CONFIGS = {
    "Full": CONFIG_FULL.detector,
    "NoCache": CONFIG_NO_CACHE.detector,
    "NoOwnership": CONFIG_NO_OWNERSHIP.detector,
    "FieldsMerged": CONFIG_FIELDS_MERGED.detector,
    "ReadReadRaces": DetectorConfig(read_read_races=True),
    "NoJoinPseudolocks": DetectorConfig(join_pseudolocks=False),
    "SmallCache": DetectorConfig(cache_size=7),
}


class TestDetectorFunnelParity:
    """Identical funnel, ownership and cache counters, reports, and
    trie shape — the counters the inline fast path defers and folds."""

    @pytest.mark.parametrize("config", sorted(FUNNEL_CONFIGS))
    @pytest.mark.parametrize("name", ["tsp2", "mtrt2", "sor2", "hedc2"])
    def test_funnel_identical(self, name, config):
        resolved, plan = compiled_workload(name)
        funnels = []
        for runner in (run_ast, run_compiled):
            detector = RaceDetector(
                config=FUNNEL_CONFIGS[config],
                resolved=resolved,
                static_races=plan.static_races,
            )
            result = runner(
                resolved, sink=detector, trace_sites=plan.trace_sites
            )
            funnels.append(
                (
                    result.steps,
                    result.accesses_emitted,
                    detector.stats,
                    detector.cache.stats if detector.cache else None,
                    detector.ownership.stats if detector.ownership else None,
                    detector.monitored_locations,
                    detector.total_trie_nodes(),
                    tuple(sorted(detector.reports.racy_objects)),
                    tuple(report.describe() for report in detector.reports.reports),
                )
            )
        assert funnels[0] == funnels[1]


class TestFuzzerParity:
    """The fuzz generator's whole vocabulary, both engines."""

    @pytest.mark.parametrize("seed", range(6))
    def test_plain_vocabulary(self, seed):
        self._check(ProgramFuzzer(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_sync_vocabulary(self, seed):
        self._check(ProgramFuzzer(seed, sync_vocab=True))

    @pytest.mark.parametrize("seed", range(4))
    def test_handoff_bias(self, seed):
        self._check(ProgramFuzzer(seed, handoff_bias=True))

    @pytest.mark.parametrize("seed", range(6))
    def test_calls_vocabulary(self, seed):
        # Helper methods with early returns inside loops, branches and
        # sync blocks, their results feeding assignments, call-folds and
        # returns — plain, then loop-peeled under the Full plan.
        def fuzzer():
            return ProgramFuzzer(seed, calls_vocab=True, sync_vocab=seed % 2 == 1)

        self._check(fuzzer())
        resolved = compile_source(fuzzer().generate(), filename="fuzz")
        plan = plan_instrumentation(resolved, PlannerConfig())
        assert_parity(resolved, plan.trace_sites, lambda: RandomPolicy(seed=seed))

    @staticmethod
    def _check(fuzzer):
        source = fuzzer.generate()
        resolved = compile_source(source, filename="fuzz")
        assert_parity(resolved, None, lambda: None)
        assert_parity(resolved, None, lambda: RandomPolicy(seed=2))


class TestCorpusParity:
    """Every committed reproducer, under its recorded schedule."""

    @pytest.mark.parametrize(
        "entry", load_corpus(), ids=lambda entry: entry.name
    )
    def test_reproducer_log_identical(self, entry):
        resolved = compile_source(entry.source, filename=entry.name)
        plan = plan_instrumentation(resolved, PlannerConfig())
        assert_parity(
            resolved, plan.trace_sites, lambda: entry.schedule.policy()
        )
