"""Per-location lockset tries on the real benchmark workloads (not just
synthetic streams): each location's stored history equals the
brute-force model of the accesses its trie observed, the O(1) live-node
counter equals a full walk, and every reported location has a trie."""

import pytest

from repro.detector import DetectorConfig, LockTrie, RaceDetector
from repro.instrument import plan_instrumentation
from repro.lang import compile_source
from repro.runtime import run_program
from repro.workloads import BENCHMARKS

from ..property.test_trie_oracle import build_trie_like_detector, normalized

SCALES = {"mtrt2": 4, "tsp2": 5, "sor2": 4, "elevator2": 6, "hedc2": 3}

#: The default detector, and one with ownership and the cache off so
#: every traced access reaches the tries (weaker-filtered ones included).
CONFIGS = {
    "default": DetectorConfig(),
    "trie-only": DetectorConfig(ownership=False, cache=False),
}


class RecordingLockTrie(LockTrie):
    """A `LockTrie` that remembers every access the detector offers it."""

    def __init__(self, stats=None):
        super().__init__(stats)
        self.history = []

    def observe(self, lockset, path, thread, kind):
        self.history.append((lockset, thread, kind))
        return super().observe(lockset, path, thread, kind)


class RecordingDetector(RaceDetector):
    trie_class = RecordingLockTrie


def run_detector(source, config):
    resolved = compile_source(source)
    plan = plan_instrumentation(resolved)
    detector = RecordingDetector(config=config, resolved=resolved)
    run_program(resolved, sink=detector, trace_sites=plan.trace_sites)
    return detector


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_tries_match_model_on_benchmark(name, config):
    detector = run_detector(BENCHMARKS[name].build(SCALES[name]), CONFIGS[config])
    tries = detector.tries
    assert detector.monitored_locations == len(tries) > 0

    for key, trie in tries.items():
        _, model = build_trie_like_detector(trie.history)
        assert normalized(trie.stored_accesses()) == normalized(model), key

    assert detector.total_trie_nodes() == sum(
        trie.node_count() for trie in tries.values()
    )
    assert set(detector.reports.racy_locations) <= set(tries)
