"""Integration tests for the experiment harness runners."""

import pytest

from repro.harness import (
    CONFIG_BASE,
    CONFIG_FULL,
    CONFIG_NO_CACHE,
    CONFIG_NO_STATIC,
    overhead_percent,
    run_table2_row,
    run_table3_row,
    run_workload,
)
from repro.workloads import ALL_WORKLOADS, BENCHMARKS


class TestRunWorkload:
    def test_base_has_no_events_or_detector(self):
        outcome = run_workload(ALL_WORKLOADS["figure3"], CONFIG_BASE, scale=20)
        assert outcome.events == 0
        assert outcome.detector is None
        assert outcome.sites_instrumented == 0

    def test_full_collects_counters(self):
        outcome = run_workload(ALL_WORKLOADS["figure3"], CONFIG_FULL, scale=20)
        assert outcome.events > 0
        assert outcome.sites_instrumented > 0
        assert outcome.wall_seconds > 0

    def test_no_static_instruments_more_sites(self):
        full = run_workload(BENCHMARKS["mtrt2"], CONFIG_FULL, scale=4)
        nostatic = run_workload(BENCHMARKS["mtrt2"], CONFIG_NO_STATIC, scale=4)
        assert nostatic.sites_instrumented > full.sites_instrumented
        assert nostatic.events > full.events

    def test_no_cache_shifts_work_to_trie(self):
        full = run_workload(BENCHMARKS["tsp2"], CONFIG_FULL, scale=6)
        nocache = run_workload(BENCHMARKS["tsp2"], CONFIG_NO_CACHE, scale=6)
        full_trie_work = (
            full.detector.trie_stats.weaker_hits
            + full.detector.trie_stats.weaker_misses
        )
        nocache_trie_work = (
            nocache.detector.trie_stats.weaker_hits
            + nocache.detector.trie_stats.weaker_misses
        )
        assert nocache_trie_work > 5 * full_trie_work
        assert nocache.cache_hits == 0

    def test_scheduling_is_deterministic_across_runs(self):
        first = run_workload(BENCHMARKS["tsp2"], CONFIG_FULL, scale=5)
        second = run_workload(BENCHMARKS["tsp2"], CONFIG_FULL, scale=5)
        assert first.events == second.events
        assert first.racy_objects == second.racy_objects
        assert first.output == second.output


class TestTableRows:
    def test_table2_row_has_all_configs(self):
        outcomes = run_table2_row(
            ALL_WORKLOADS["figure3"], scale=30, repeats=1
        )
        assert set(outcomes) == {
            "Base",
            "Full",
            "NoStatic",
            "NoDominators",
            "NoPeeling",
            "NoCache",
        }

    def test_figure3_event_ordering(self):
        """The Figure 3 effect: Full traces O(1) per thread; NoPeeling
        and NoDominators trace O(iterations)."""
        outcomes = run_table2_row(ALL_WORKLOADS["figure3"], scale=50, repeats=1)
        assert outcomes["Full"].events < outcomes["NoPeeling"].events
        assert outcomes["Full"].events < outcomes["NoDominators"].events
        assert outcomes["Full"].events <= 12

    def test_overhead_percent(self):
        outcomes = run_table2_row(ALL_WORKLOADS["figure3"], scale=30, repeats=1)
        pct = overhead_percent(outcomes["Base"], outcomes["Full"])
        assert isinstance(pct, float)

    def test_table3_row(self):
        outcomes = run_table3_row(BENCHMARKS["elevator2"])
        assert outcomes["Full"].racy_object_count == 0
        assert outcomes["NoOwnership"].racy_object_count > 0
