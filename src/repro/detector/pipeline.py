"""The assembled dynamic detection pipeline (Figure 1, runtime half).

Event flow for each access::

    runtime access event
      → lockset attachment        (LockTracker, Section 2.4's e.L)
      → ownership filter          (Section 7; optional)
      → per-thread R/W caches     (Section 4;  optional)
      → trie detector             (Section 3: weaker-check, race-check,
                                   insert, prune — one LockTrie.observe)

Monitor and thread lifecycle events maintain the locksets, drive cache
eviction (outermost monitorexit), and implement the ``S_j`` join
pseudo-locks (Section 2.3).

The pipeline is an :class:`~repro.runtime.events.EventSink`, so it can
be attached directly to the interpreter (on-the-fly detection) or fed
from a :class:`~repro.runtime.events.RecordingSink` log (post-mortem
detection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..lang.ast import AccessKind
from ..lang.resolver import ResolvedProgram
from ..runtime.events import AccessEvent, EventSink, LocationInterner, ObjectKind
from .cache import (
    _COMPACT_MIN_LISTED,
    _HASH_MULTIPLIER,
    _MASK32,
    FIELD_CODES,
    UNLISTED,
    AccessCache,
    field_code,
)
from .config import DetectorConfig
from .locksets import LockTracker, join_pseudo_lock
from .ownership import SHARED, OwnershipFilter
from .report import RaceReport, ReportCollector
from .trie import FILTERED, LockTrie, TrieStats

_WRITE = AccessKind.WRITE


@dataclass
class PipelineStats:
    """End-to-end counters; the per-stage funnel of the event stream."""

    accesses: int = 0
    owned_filtered: int = 0
    cache_hits: int = 0
    detector_weaker_filtered: int = 0
    detector_processed: int = 0
    races_reported: int = 0

    def funnel(self) -> str:
        return (
            f"{self.accesses} accesses → "
            f"{self.accesses - self.owned_filtered} shared → "
            f"{self.accesses - self.owned_filtered - self.cache_hits} cache misses → "
            f"{self.detector_processed} trie-processed → "
            f"{self.races_reported} race reports"
        )

    def merge(self, other: "PipelineStats") -> None:
        """Accumulate another pipeline's counters (shard merging)."""
        self.accesses += other.accesses
        self.owned_filtered += other.owned_filtered
        self.cache_hits += other.cache_hits
        self.detector_weaker_filtered += other.detector_weaker_filtered
        self.detector_processed += other.detector_processed
        self.races_reported += other.races_reported


def static_partner_descriptors(resolved, static_races, site_id: int) -> tuple:
    """Descriptors of the static may-race partners of a site (mapped
    through loop-peeling origins), capped for readability.

    Module-level so the sharded engine can post-fill descriptors for
    reports produced by process-pool workers that ran without the
    resolved program.
    """
    if static_races is None or resolved is None:
        return ()
    origin = (
        resolved.origin_of(site_id) if site_id in resolved.sites else site_id
    )
    partners = sorted(static_races.partners_of(origin))
    descriptors = [
        resolved.sites[partner].descriptor
        for partner in partners[:4]
        if partner in resolved.sites
    ]
    if len(partners) > 4:
        descriptors.append(f"... and {len(partners) - 4} more")
    return tuple(descriptors)


class RaceDetector(EventSink):
    """On-the-fly datarace detector: ownership + caches + lockset tries."""

    #: The per-location trie implementation.  Overridable so the difflab
    #: can inject deliberately broken variants and prove the differential
    #: harness catches them (:mod:`repro.difflab.inject`).
    trie_class = LockTrie

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        resolved: Optional[ResolvedProgram] = None,
        static_races=None,
    ):
        self.config = config if config is not None else DetectorConfig()
        self._resolved = resolved
        #: Optional StaticRaceSet: lets reports name the statically
        #: identified partner sites (Section 2.6's debugging support).
        self._static_races = static_races
        self.locks = LockTracker()
        self.ownership = OwnershipFilter() if self.config.ownership else None
        self.cache = (
            AccessCache(size=self.config.cache_size)
            if self.config.cache
            else None
        )
        self.trie_stats = TrieStats()
        self._tries: dict = {}
        self.reports = ReportCollector()
        self.stats = PipelineStats()
        #: Accesses the compiled engine's inline fast path completed
        #: without calling :meth:`on_access_parts` (see
        #: :class:`InlineFastPath`), already included in every counter
        #: above; observability only.
        self.inline_owned = 0
        self.inline_cache_hits = 0
        #: Canonical location keys: one MemoryLocation per (object,
        #: field) pair, reused by every event touching that location.
        self.interner = LocationInterner()
        self._fields_merged = self.config.fields_merged
        # Pre-bound hot-path state: `on_access_parts` runs once per
        # emitted access, so attribute chains are resolved here once.
        # The ownership table/stats are reached into directly — the
        # admission logic is inlined in `on_access_parts` (it must stay
        # counter-identical to `OwnershipFilter.admit`).
        # The interner's tables, the cache's per-thread table and the
        # tracker's lock stacks and per-thread (lockset, path) entries
        # are probed directly too: each is a dict read on the spine,
        # with the owning method called only on a first sighting.
        self._intern = self.interner.intern
        self._location_tables = self.interner._tables
        self._owners = self.ownership._owners if self.ownership else None
        self._own_stats = self.ownership.stats if self.ownership else None
        cache = self.cache
        self._cache_threads = cache._threads if cache is not None else None
        self._cache_stats = cache.stats if cache is not None else None
        self._cache_size = self.config.cache_size
        # The sync-event handlers run in the batched binary-log replay's
        # tight per-block loops, so the tracker methods are pre-bound
        # alongside the access-path state above.
        self._locks_enter = self.locks.enter
        self._locks_exit = self.locks.exit
        self._cache_release = cache.on_lock_release if cache is not None else None
        self._lock_stacks = self.locks._stacks
        self._lockset_entries = self.locks._cached
        self._lockset_path = self.locks.lockset_path
        self._read_read_races = self.config.read_read_races
        # Main thread's own pseudo-lock, for uniformity with children.
        if self.config.join_pseudolocks:
            self.locks.acquire_pseudo(0, join_pseudo_lock(0))

    # ------------------------------------------------------------------
    # Synchronization events.

    def on_monitor_enter(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if reentrant:
            return  # Nested enter: lockset unchanged (Section 4.2).
        self._locks_enter(thread_id, lock_uid)

    def on_monitor_exit(self, thread_id: int, lock_uid: int, reentrant: bool) -> None:
        if reentrant:
            return
        self._locks_exit(thread_id, lock_uid)
        release = self._cache_release
        if release is not None:
            release(thread_id, lock_uid)

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        if self.config.join_pseudolocks:
            # mon-enter(S_j) at the start of T_j's execution.
            self.locks.acquire_pseudo(child_id, join_pseudo_lock(child_id))

    def on_thread_end(self, thread_id: int) -> None:
        if self.config.join_pseudolocks:
            # mon-exit(S_j) at the end of T_j's execution.
            self.locks.release_pseudo(thread_id, join_pseudo_lock(thread_id))

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        if self.config.join_pseudolocks:
            # The joiner performs mon-enter(S_j) after the join completes
            # and holds it from then on: operations after the join cannot
            # run concurrently with T_j's operations.
            self.locks.acquire_pseudo(joiner_id, join_pseudo_lock(joined_id))

    # ------------------------------------------------------------------
    # Access events.

    def on_access_parts(
        self,
        object_uid: int,
        field: str,
        thread_id: int,
        kind: AccessKind,
        site_id: int,
        object_kind: ObjectKind,
        object_label: str,
    ) -> None:
        """The hot path: one access, no event object, interned key.

        An :class:`AccessEvent` is materialized only if the access ends
        up in a race report — the overwhelmingly common filtered cases
        (owned, cache hit, weaker-than) allocate nothing.  Every stage
        up to the trie runs inline, so an access that reaches the trie
        costs one call, :meth:`LockTrie.observe`.
        """
        stats = self.stats
        stats.accesses += 1
        # FieldsMerged (Table 3) keys an object's fields by its uid alone;
        # class objects keep per-field static locations.
        if self._fields_merged and object_kind is not ObjectKind.CLASS:
            key = object_uid
            code = 0
        else:
            # LocationInterner.intern's probe; it runs on a first sighting.
            table = self._location_tables.get(object_uid)
            key = table.get(field) if table is not None else None
            if key is None:
                key = self._intern(object_uid, field)
            code = None

        owners = self._owners
        if owners is not None:
            # Inlined OwnershipFilter.admit — the per-event method call
            # and result tuple are measurable at this rate.  Counters
            # must track the method exactly (see tests/unit/test_ownership).
            owner = owners.get(key)
            if owner is SHARED:
                self._own_stats.shared_passed += 1
            elif owner is None:
                owners[key] = thread_id
                self._own_stats.owned_filtered += 1
                stats.owned_filtered += 1
                return
            elif owner == thread_id:
                self._own_stats.owned_filtered += 1
                stats.owned_filtered += 1
                return
            else:
                # No cache can hold ``key`` yet: the owner's accesses
                # returned above, before the cache was consulted, and
                # SHARED is terminal — so there is nothing to evict.
                owners[key] = SHARED
                self._own_stats.transitions += 1

        cache_threads = self._cache_threads
        if cache_threads is not None:
            # Inlined AccessCache.access_tracked: counter- and
            # state-identical to it (see tests/property/test_pipeline_spine).
            caches = cache_threads.get(thread_id)
            if caches is None:
                caches = self.cache.thread_caches(thread_id)
            cache = caches.write if kind is _WRITE else caches.read
            slots = cache._slots
            size = self._cache_size
            # The slot function (cache.slot_of), from the uid and the
            # field's memoised code.
            if code is None:
                code = FIELD_CODES.get(field)
                if code is None:
                    code = field_code(field)
            index = (
                (((object_uid ^ code) * _HASH_MULTIPLIER) & _MASK32) >> 16
            ) % size
            cache_stats = self._cache_stats
            if slots[index] == key:
                cache_stats.hits += 1
                stats.cache_hits += 1
                return
            # Miss: record the access in the slot, conflict-evicting
            # its entry, anchored to the thread's innermost real lock.
            cache_stats.misses += 1
            codes = cache._codes
            if slots[index] is not None:
                cache_stats.conflict_evictions += 1
                if codes[index] != UNLISTED:
                    cache._dead_listed += 1
            slots[index] = key
            held = self._lock_stacks.get(thread_id)
            if held:
                code = cache._next_code + index
                cache._next_code += size
                codes[index] = code
                anchor = held[-1]
                listed = cache._lock_lists.get(anchor)
                if listed is None:
                    cache._lock_lists[anchor] = [code]
                else:
                    listed.append(code)
                cache._listed += 1
                if (
                    cache._dead_listed * 2 > cache._listed
                    and cache._listed >= _COMPACT_MIN_LISTED
                ):
                    cache._compact_lock_lists()
            else:
                codes[index] = UNLISTED

        entry = self._lockset_entries.get(thread_id)
        if entry is None:
            entry = self._lockset_path(thread_id)
        lockset, path = entry
        trie = self._tries.get(key)
        if trie is None:
            self._tries[key] = trie = self.trie_class(self.trie_stats)
        prior = trie.observe(
            lockset, path, thread_id, kind, self._read_read_races
        )
        # The weakness check drops the vast majority of accesses here.
        if prior is FILTERED:
            stats.detector_weaker_filtered += 1
            return
        stats.detector_processed += 1
        if prior is not None:
            event = AccessEvent(
                location=self.interner.intern(object_uid, field),
                thread_id=thread_id,
                kind=kind,
                site_id=site_id,
                object_kind=object_kind,
                object_label=object_label,
            )
            self._report(key, event, lockset, prior)

    def inline_fast_path(self) -> Optional["InlineFastPath"]:
        """The handles the compiled engine's trace stubs close over to
        finish the dominant outcomes of :meth:`on_access_parts` inline,
        or ``None`` unless both ownership and the cache are on.

        Without the cache the stub could finish only owned accesses,
        which are rare on every benchmarked workload, while each shared
        access would pay the stub's owner check and then the spine's.
        """
        if self._owners is None or self.cache is None:
            return None
        return InlineFastPath(self)

    def _report(self, key, event, lockset, prior) -> None:
        descriptor = ""
        if self._resolved is not None and event.site_id in self._resolved.sites:
            descriptor = self._resolved.sites[event.site_id].descriptor
        report = RaceReport(
            key=key,
            field=event.location.field,
            object_label=event.object_label,
            current=event,
            current_lockset=lockset,
            prior=prior,
            site_descriptor=descriptor,
            static_partners=self._static_partners_of(event.site_id),
        )
        self.reports.add(report)
        self.stats.races_reported += 1

    def _static_partners_of(self, site_id: int) -> tuple:
        return static_partner_descriptors(
            self._resolved, self._static_races, site_id
        )

    # ------------------------------------------------------------------
    # Introspection.

    @property
    def monitored_locations(self) -> int:
        """Locations with trie history (the paper reports 6562 for tsp)."""
        return len(self._tries)

    def total_trie_nodes(self) -> int:
        """Live trie nodes (the paper reports 7967 for tsp), read off
        the shared allocation counters rather than walked."""
        return self.trie_stats.live_nodes


class InlineFastPath:
    """One run's inline fast path into a :class:`RaceDetector`.

    The compiled engine's trace stub (``ProgramCompiler._record_stub``)
    mirrors :meth:`RaceDetector.on_access_parts` — the keying, the
    inlined owner check, and the single-probe cache hit of
    :meth:`AccessCache.access_tracked` — and completes three outcomes
    without the call:

    * virgin claim: ``owners[key] = thread`` inline;
    * owner re-access;
    * shared access whose cache probe hits (probing mutates nothing).

    Their counter effects are deferred to ``owned_cell``/``hit_cell``
    and applied by :meth:`fold` when the run ends; nothing reads the
    counters mid-run.  Everything else — the owned→shared transition,
    a cache miss — reaches ``on_access_parts`` with no state touched, so
    the spine recounts it itself.
    """

    __slots__ = (
        "detector", "owners", "intern", "fields_merged", "shared",
        "cache_threads", "cache_size", "hash_multiplier", "hash_mask",
        "field_code",
        "owned_cell", "hit_cell",
    )

    def __init__(self, detector: RaceDetector):
        self.detector = detector
        self.owners = detector._owners
        self.intern = detector._intern
        self.fields_merged = detector._fields_merged
        self.shared = SHARED
        self.cache_threads = detector.cache._threads
        self.cache_size = detector.cache._size
        # The slot function's constants and field codes
        # (cache.slot_of), so the inlined probe cannot drift from it.
        self.hash_multiplier = _HASH_MULTIPLIER
        self.hash_mask = _MASK32
        self.field_code = field_code
        self.owned_cell = [0]
        self.hit_cell = [0]

    def fold(self) -> int:
        """Apply the deferred counter effects; returns the number of
        accesses folded (the engine adds it to its emitted count).
        Idempotent: the cells are drained, so a second fold adds 0."""
        owned = self.owned_cell[0]
        hits = self.hit_cell[0]
        self.owned_cell[0] = self.hit_cell[0] = 0
        detector = self.detector
        stats = detector.stats
        stats.accesses += owned + hits
        stats.owned_filtered += owned
        stats.cache_hits += hits
        own_stats = detector._own_stats
        own_stats.owned_filtered += owned
        own_stats.shared_passed += hits
        detector.cache.stats.hits += hits
        detector.inline_owned += owned
        detector.inline_cache_hits += hits
        return owned + hits
