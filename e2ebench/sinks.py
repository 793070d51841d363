"""Benchmark-side event sinks for the bottom rungs of the layer ladder,
and the report digest every oracle compares.

Import after :func:`common.require_source_tree` has put the checkout's
``src/`` on the path.
"""

from __future__ import annotations

from common import canonical_hash

from repro.detector import PipelineStats
from repro.detector.locksets import LockTracker, join_pseudo_lock
from repro.runtime.events import EventSink
from repro.service.protocol import detection_report


class NullSink(EventSink):
    """Receives every event and does nothing.

    Overrides *every* :class:`EventSink` method: the base class's
    ``on_access_parts`` builds an ``AccessEvent`` per access to bridge
    to ``on_access``, which would charge an allocation per event to the
    decode and emit rungs.
    """

    def on_access(self, event):
        pass

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind,
        object_label,
    ):
        pass

    def on_monitor_enter(self, thread_id, lock_uid, reentrant):
        pass

    def on_monitor_exit(self, thread_id, lock_uid, reentrant):
        pass

    def on_thread_start(self, parent_id, child_id):
        pass

    def on_thread_end(self, thread_id):
        pass

    def on_thread_join(self, joiner_id, joined_id):
        pass

    def on_wait(self, thread_id, cond_uid):
        pass

    def on_notify(self, thread_id, cond_uid, notify_all):
        pass

    def on_run_end(self):
        pass


class LocksetSink(NullSink):
    """The lockset rung: a :class:`LockTracker` driven exactly as the
    detection pipeline drives it (outermost monitor events, join
    pseudo-locks) plus one lockset lookup per access, and nothing
    downstream of lockset attachment."""

    def __init__(self):
        self.locks = LockTracker()
        self.locks.acquire_pseudo(0, join_pseudo_lock(0))
        self._lockset = self.locks.lockset

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind,
        object_label,
    ):
        self._lockset(thread_id)

    def on_monitor_enter(self, thread_id, lock_uid, reentrant):
        if not reentrant:
            self.locks.enter(thread_id, lock_uid)

    def on_monitor_exit(self, thread_id, lock_uid, reentrant):
        if not reentrant:
            self.locks.exit(thread_id, lock_uid)

    def on_thread_start(self, parent_id, child_id):
        self.locks.acquire_pseudo(child_id, join_pseudo_lock(child_id))

    def on_thread_end(self, thread_id):
        self.locks.release_pseudo(thread_id, join_pseudo_lock(thread_id))

    def on_thread_join(self, joiner_id, joined_id):
        self.locks.acquire_pseudo(joiner_id, join_pseudo_lock(joined_id))


def report_hash(reports, stats, cache_stats, output=()) -> str:
    """Digest of the ``--report-json`` report: races, funnel counters,
    cache counters, and program output."""
    return canonical_hash(
        detection_report(reports, stats, cache_stats, output=output)
    )


def races_hash(reports) -> str:
    """Digest of the race list alone: what a different shard count must
    leave unchanged (sharding moves counts between cache hits and
    weaker-filtered accesses)."""
    return canonical_hash(detection_report(reports, PipelineStats())["races"])


def detector_counts(detector) -> dict:
    """The Full detector's funnel, read from its public stats objects."""
    stats = detector.stats
    cache = detector.cache.stats
    return {
        "events": stats.accesses,
        "owned": stats.owned_filtered,
        "cache_hits": cache.hits,
        "cache_lookups": cache.lookups,
        "processed": stats.detector_processed,
        "weaker": stats.detector_weaker_filtered,
        "races": stats.races_reported,
        "nodes": detector.total_trie_nodes(),
        "locations": detector.monitored_locations,
        "locksets": detector.locks.interned_locksets,
    }
