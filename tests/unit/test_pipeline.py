"""Unit tests for the assembled detection pipeline and the reference
detector, driven by synthetic event streams."""

from repro.detector import DetectorConfig, RaceDetector, ReferenceDetector
from repro.lang.ast import AccessKind
from repro.runtime.events import MemoryLocation

from ..conftest import access

READ = AccessKind.READ
WRITE = AccessKind.WRITE


def make(config=None):
    return RaceDetector(config=config if config else DetectorConfig())


def make_no_own(**overrides):
    # Detector without the ownership filter: these tests feed synthetic
    # two-access streams whose first access would otherwise be swallowed
    # by the first-accessor-owns rule.
    return RaceDetector(config=DetectorConfig(ownership=False, **overrides))


class TestBasicDetection:
    def test_unlocked_write_write_race(self):
        det = make_no_own()
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, WRITE))
        assert det.stats.races_reported == 1

    def test_common_lock_no_race(self):
        det = make_no_own()
        for thread in (1, 2):
            det.on_monitor_enter(thread, 99, reentrant=False)
            det.on_access_parts(*access(1, "f", thread, WRITE))
            det.on_monitor_exit(thread, 99, reentrant=False)
        assert det.stats.races_reported == 0

    def test_disjoint_locks_race(self):
        det = make_no_own()
        det.on_monitor_enter(1, 10, reentrant=False)
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_monitor_exit(1, 10, reentrant=False)
        det.on_monitor_enter(2, 20, reentrant=False)
        det.on_access_parts(*access(1, "f", 2, WRITE))
        det.on_monitor_exit(2, 20, reentrant=False)
        assert det.stats.races_reported == 1

    def test_read_read_no_race(self):
        det = make_no_own()
        det.on_access_parts(*access(1, "f", 1, READ))
        det.on_access_parts(*access(1, "f", 2, READ))
        assert det.stats.races_reported == 0

    def test_different_fields_no_race(self):
        det = make_no_own()
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "g", 2, WRITE))
        assert det.stats.races_reported == 0

    def test_fields_merged_races_across_fields(self):
        det = make_no_own(fields_merged=True)
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "g", 2, WRITE))
        assert det.stats.races_reported == 1

    def test_reentrant_monitor_events_ignored(self):
        det = make_no_own()
        det.on_monitor_enter(1, 10, reentrant=False)
        det.on_monitor_enter(1, 10, reentrant=True)
        det.on_monitor_exit(1, 10, reentrant=True)
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_monitor_exit(1, 10, reentrant=False)
        det.on_monitor_enter(2, 10, reentrant=False)
        det.on_access_parts(*access(1, "f", 2, WRITE))
        det.on_monitor_exit(2, 10, reentrant=False)
        assert det.stats.races_reported == 0


class TestOwnershipInPipeline:
    def test_init_then_share_suppressed(self):
        det = make()
        det.on_access_parts(*access(1, "f", 0, WRITE))  # main initializes.
        det.on_access_parts(*access(1, "f", 1, READ))  # Child reads: shared now.
        assert det.stats.races_reported == 0
        assert det.stats.owned_filtered == 1

    def test_two_writers_after_sharing_race(self):
        det = make()
        det.on_access_parts(*access(1, "f", 0, WRITE))
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, WRITE))
        assert det.stats.races_reported >= 1

    def test_no_ownership_reports_init_race(self):
        det = make(DetectorConfig(ownership=False))
        det.on_access_parts(*access(1, "f", 0, WRITE))
        det.on_access_parts(*access(1, "f", 1, READ))
        assert det.stats.races_reported == 1

    def test_transition_evicts_cache(self):
        det = make()
        # Thread 1 owns m and caches nothing (owned accesses are
        # filtered before the cache); after sharing, thread 1's access
        # must reach the trie.
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, WRITE))  # Transition + race check.
        det.on_access_parts(*access(1, "f", 1, WRITE))  # Must be processed now.
        assert det.stats.races_reported >= 1


class TestJoinPseudoLocks:
    def test_post_join_access_not_racy(self):
        det = make_no_own()
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, WRITE))
        races_before_join = det.stats.races_reported  # 1: the real race.
        det.on_thread_end(1)
        det.on_thread_end(2)
        det.on_thread_join(0, 1)
        det.on_thread_join(0, 2)
        det.on_access_parts(*access(1, "f", 0, READ))
        assert det.stats.races_reported == races_before_join

    def test_without_join_model_post_join_access_races(self):
        # Children write under a common lock (no race among them); the
        # parent's post-join lock-free read is then a false positive
        # unless the S_j pseudo-locks model the join ordering.
        det = make_no_own(join_pseudolocks=False)
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        for child in (1, 2):
            det.on_monitor_enter(child, 50, reentrant=False)
            det.on_access_parts(*access(1, "f", child, WRITE))
            det.on_monitor_exit(child, 50, reentrant=False)
            det.on_thread_end(child)
        det.on_thread_join(0, 1)
        det.on_thread_join(0, 2)
        assert det.stats.races_reported == 0
        det.on_access_parts(*access(1, "f", 0, READ))
        assert det.stats.races_reported == 1

    def test_mutually_intersecting_locksets_no_race(self):
        """The Section 8.3 mtrt idiom on raw events."""
        det = make_no_own()
        det.on_thread_start(0, 1)
        det.on_thread_start(0, 2)
        for child in (1, 2):
            det.on_monitor_enter(child, 50, reentrant=False)
            det.on_access_parts(*access(1, "f", child, WRITE))
            det.on_monitor_exit(child, 50, reentrant=False)
            det.on_thread_end(child)
        det.on_thread_join(0, 1)
        det.on_thread_join(0, 2)
        det.on_access_parts(*access(1, "f", 0, READ))
        assert det.stats.races_reported == 0


class TestFunnelAndReports:
    def test_cache_absorbs_repeats(self):
        det = make()
        det.on_access_parts(*access(1, "f", 1, READ))
        det.on_access_parts(*access(1, "f", 2, READ))  # Transition.
        for _ in range(10):
            det.on_access_parts(*access(1, "f", 2, READ))
        assert det.stats.cache_hits == 10

    def test_weaker_filter_in_trie(self):
        det = make_no_own(cache=False)
        det.on_access_parts(*access(1, "f", 1, READ))
        det.on_access_parts(*access(1, "f", 2, READ))
        det.on_access_parts(*access(1, "f", 2, READ))
        assert det.stats.detector_weaker_filtered == 1

    def test_report_carries_locksets(self):
        det = make_no_own()
        det.on_monitor_enter(1, 10, reentrant=False)
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_monitor_exit(1, 10, reentrant=False)
        det.on_access_parts(*access(1, "f", 2, WRITE))
        (report,) = det.reports.reports
        assert report.prior.lockset == frozenset({10})
        assert report.current_lockset == frozenset()
        assert "DATARACE" in report.describe()

    def test_object_count_aggregation(self):
        det = make_no_own()
        for uid in (1, 2):
            det.on_access_parts(*access(uid, "f", 1, WRITE))
            det.on_access_parts(*access(uid, "f", 2, WRITE))
            det.on_access_parts(*access(uid, "f", 2, WRITE, site=7))
        assert det.reports.object_count == 2

    def test_monitored_locations_and_trie_nodes(self):
        det = make_no_own()
        det.on_access_parts(*access(1, "f", 1, WRITE))
        det.on_access_parts(*access(1, "f", 2, WRITE))
        assert det.monitored_locations == 1
        assert det.total_trie_nodes() >= 1


class TestReferenceDetector:
    def test_full_race_enumeration(self):
        ref = ReferenceDetector(DetectorConfig(ownership=False))
        ref.on_access_parts(*access(1, "f", 1, WRITE))
        ref.on_access_parts(*access(1, "f", 2, WRITE))
        ref.on_access_parts(*access(1, "f", 3, READ))
        # Pairs: (w1,w2), (w1,r3), (w2,r3) — all racing.
        assert len(ref.full_race) == 3
        assert len(ref.mem_race(MemoryLocation(1, "f"))) == 3

    def test_reference_respects_locks(self):
        ref = ReferenceDetector(DetectorConfig(ownership=False))
        for thread in (1, 2):
            ref.on_monitor_enter(thread, 5, reentrant=False)
            ref.on_access_parts(*access(1, "f", thread, WRITE))
            ref.on_monitor_exit(thread, 5, reentrant=False)
        assert not ref.full_race

    def test_reference_ownership_matches_pipeline(self):
        ref = ReferenceDetector()
        ref.on_access_parts(*access(1, "f", 0, WRITE))
        ref.on_access_parts(*access(1, "f", 1, READ))
        assert not ref.full_race
