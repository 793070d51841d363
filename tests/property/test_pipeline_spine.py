"""The detector's inlined access path against its stages' own methods.

:meth:`RaceDetector.on_access_parts` runs the location interner's
probe, the ownership admission, the per-thread cache's lookup and
insert, and the lockset tracker's entry inline, so an access that
reaches the trie costs one call.  :class:`StageCallDetector` takes the
same path as one call per stage — ``LocationInterner.intern``,
``OwnershipFilter.admit``, ``AccessCache.access_tracked``,
``LockTracker.lockset_path`` and the four public trie steps — and
every counter, report, trie and cache slot must come out identical.
"""

from hypothesis import given, settings, strategies as st

from repro.detector import DetectorConfig, RaceDetector
from repro.lang.ast import AccessKind
from repro.runtime.events import AccessEvent, ObjectKind


class StageCallDetector(RaceDetector):
    """The access path with one method call per stage."""

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind,
        object_label,
    ) -> None:
        self.stats.accesses += 1
        if self._fields_merged and object_kind is not ObjectKind.CLASS:
            key = object_uid
        else:
            key = self.interner.intern(object_uid, field)
        if self.ownership is not None:
            admit, _ = self.ownership.admit(key, thread_id)
            if not admit:
                self.stats.owned_filtered += 1
                return
        if self.cache is not None and self.cache.access_tracked(
            thread_id, key, kind, self.locks
        ):
            self.stats.cache_hits += 1
            return
        lockset, _ = self.locks.lockset_path(thread_id)
        trie = self._tries.get(key)
        if trie is None:
            self._tries[key] = trie = self.trie_class(self.trie_stats)
        if trie.find_weaker(lockset, thread_id, kind):
            self.stats.detector_weaker_filtered += 1
            return
        prior = trie.find_race(lockset, thread_id, kind, self._read_read_races)
        node = trie.insert(lockset, thread_id, kind)
        trie.prune_stronger(lockset, node.thread, node.kind, keep=node)
        self.stats.detector_processed += 1
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


N_THREADS = 4

access_step = st.tuples(
    st.just("access"),
    st.integers(1, 3),
    st.sampled_from(["f", "g"]),
    st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
    st.sampled_from([ObjectKind.INSTANCE, ObjectKind.CLASS]),
)
enter_step = st.tuples(st.just("enter"), st.integers(100, 103))
# Accesses and nested enters dominate; a join ends a worker for good.
step = st.one_of(
    access_step,
    access_step,
    enter_step,
    enter_step,
    st.tuples(st.just("exit")),
    st.tuples(st.just("join"), st.integers(1, N_THREADS - 1)),
)
streams = st.lists(
    st.tuples(st.integers(0, N_THREADS - 1), step), min_size=20, max_size=120
)


def feed(detector, raw) -> None:
    """Drive ``detector`` with a well-formed stream: every worker
    starts first, locking is LIFO per thread, joins only by thread 0
    of threads that have ended."""
    stacks = {thread: [] for thread in range(N_THREADS)}
    ended = set()
    for child in range(1, N_THREADS):
        detector.on_thread_start(0, child)
    for thread, action in raw:
        if thread in ended:
            continue
        if action[0] == "access":
            _, uid, field, kind, object_kind = action
            detector.on_access_parts(
                uid, field, thread, kind, 0, object_kind, f"Obj#{uid}"
            )
        elif action[0] == "enter":
            if action[1] not in stacks[thread]:
                stacks[thread].append(action[1])
                detector.on_monitor_enter(thread, action[1], False)
        elif action[0] == "exit":
            if stacks[thread]:
                detector.on_monitor_exit(thread, stacks[thread].pop(), False)
        elif thread == 0 and action[1] not in ended:
            joined = action[1]
            while stacks[joined]:
                detector.on_monitor_exit(joined, stacks[joined].pop(), False)
            detector.on_thread_end(joined)
            ended.add(joined)
            detector.on_thread_join(0, joined)


def state(detector) -> tuple:
    cache = None
    if detector.cache is not None:
        cache = (
            detector.cache.stats,
            {
                thread: [
                    (
                        part._slots,
                        part._codes,
                        part._lock_lists,
                        part.listed_entries,
                    )
                    for part in (caches.read, caches.write)
                ]
                for thread, caches in detector.cache._threads.items()
            },
        )
    return (
        detector.stats,
        detector.trie_stats,
        detector.ownership.stats if detector.ownership else None,
        cache,
        [
            (report.describe(), report.prior, report.current_lockset)
            for report in detector.reports.reports
        ],
        {
            key: sorted(
                (tuple(sorted(locks)), repr(thread), kind.value)
                for locks, thread, kind in trie.stored_accesses()
            )
            for key, trie in detector._tries.items()
        },
    )


configs = st.builds(
    DetectorConfig,
    ownership=st.booleans(),
    cache=st.sampled_from([True, True, True, False]),
    cache_size=st.sampled_from([1, 2, 3, 256]),
    fields_merged=st.booleans(),
    join_pseudolocks=st.booleans(),
    read_read_races=st.booleans(),
)


class TestInlinedSpineMatchesStageCalls:
    @settings(max_examples=400, deadline=None)
    @given(streams, configs)
    def test_every_counter_report_trie_and_slot(self, raw, config):
        inlined, staged = RaceDetector(config), StageCallDetector(config)
        feed(inlined, raw)
        feed(staged, raw)
        assert state(inlined) == state(staged)

    def test_eviction_list_compaction(self):
        # A size-1 cache under a never-released lock: every miss
        # conflict-evicts a listed entry until the lists compact.
        config = DetectorConfig(ownership=False, cache_size=1)
        raw = [(1, ("enter", 100))] + [
            (1, ("access", uid, "f", AccessKind.WRITE, ObjectKind.INSTANCE))
            for uid in range(1, 70)
        ]
        inlined, staged = RaceDetector(config), StageCallDetector(config)
        feed(inlined, raw)
        feed(staged, raw)
        assert inlined.cache.stats.list_compactions > 0
        assert state(inlined) == state(staged)

