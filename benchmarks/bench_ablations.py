"""Ablation benchmarks for design choices DESIGN.md calls out.

* **Join pseudo-locks** (Section 2.3): with the ``S_j`` modeling the
  post-join statistics idiom reports nothing; without it the detector
  behaves like past work and reports spurious races.  Measures the
  bookkeeping cost and asserts the precision difference.
* **FieldsMerged keying**: object-granularity merging trades precision
  for fewer tries; measures the cost/space effect on mtrt2.
"""

import pytest

from repro.detector import DetectorConfig, RaceDetector
from repro.harness import CONFIG_FULL, Configuration
from repro.instrument import PlannerConfig
from repro.workloads import ALL_WORKLOADS, BENCHMARKS

from conftest import prepare


def config_with(**detector_overrides):
    return Configuration(
        name="ablation",
        planner=PlannerConfig(),
        detector=DetectorConfig(**detector_overrides),
    )


class TestJoinPseudoLocks:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_join_stats_precision(self, benchmark, enabled):
        spec = ALL_WORKLOADS["join_stats"]
        runner = prepare(spec, config_with(join_pseudolocks=enabled))
        benchmark.group = "ablation:join-pseudolocks"
        _, detector = benchmark(runner)
        count = detector.reports.object_count
        benchmark.extra_info["racy_objects"] = count
        if enabled:
            assert count == 0  # Mutually intersecting locksets.
        else:
            assert count >= 1  # The spurious post-join report.

    @pytest.mark.parametrize("enabled", [True, False])
    def test_mtrt2_cost(self, benchmark, enabled):
        spec = BENCHMARKS["mtrt2"]
        runner = prepare(spec, config_with(join_pseudolocks=enabled))
        benchmark.group = "ablation:join-pseudolocks-cost"
        _, detector = benchmark(runner)
        benchmark.extra_info["racy_objects"] = detector.reports.object_count


class TestFieldsMergedCost:
    @pytest.mark.parametrize("merged", [False, True])
    def test_mtrt2_keying(self, benchmark, merged):
        spec = BENCHMARKS["mtrt2"]
        runner = prepare(spec, config_with(fields_merged=merged))
        benchmark.group = "ablation:fields-merged"
        _, detector = benchmark(runner)
        benchmark.extra_info["monitored_locations"] = (
            detector.monitored_locations
        )
        benchmark.extra_info["trie_nodes"] = detector.total_trie_nodes()
        if merged:
            # Coarser keys → no more locations than the precise keying.
            precise_runner = prepare(spec, CONFIG_FULL)
            _, precise = precise_runner()
            assert detector.monitored_locations <= precise.monitored_locations
