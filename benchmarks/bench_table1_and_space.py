"""Table 1 (benchmark characteristics) and Section 8.2 (space accounting).

Table 1's static characteristics (LoC, dynamic thread counts) are
recorded as ``extra_info`` on a compile-time benchmark per workload;
the space benchmark runs tsp2 under Full and records live trie nodes
and monitored memory locations — the analog of the paper's "7967 trie
nodes holding history for 6562 memory locations".
"""

import pytest

from repro.harness import CONFIG_FULL
from repro.lang import compile_source
from repro.workloads import BENCHMARKS

from conftest import BENCH_SCALES, prepare


@pytest.mark.parametrize("workload", sorted(BENCHMARKS))
def test_table1_compile(benchmark, workload):
    """Front-end cost per benchmark + its Table 1 characteristics."""
    spec = BENCHMARKS[workload]
    scale = BENCH_SCALES.get(workload)
    source = spec.build(scale)
    benchmark.group = "table1:compile"
    resolved = benchmark(compile_source, source, spec.name)
    benchmark.extra_info["lines_of_mj"] = spec.loc(scale)
    benchmark.extra_info["access_sites"] = len(resolved.sites)
    runner = prepare(spec, CONFIG_FULL, scale=scale)
    result, _ = runner()
    benchmark.extra_info["dynamic_threads"] = result.threads_created
    assert result.threads_created == spec.threads


def test_space_accounting_tsp2(benchmark):
    runner = prepare(BENCHMARKS["tsp2"], CONFIG_FULL)
    benchmark.group = "space"
    _, detector = benchmark(runner)
    benchmark.extra_info["trie_nodes"] = detector.total_trie_nodes()
    benchmark.extra_info["monitored_locations"] = detector.monitored_locations
    assert detector.total_trie_nodes() >= detector.monitored_locations
