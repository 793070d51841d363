"""The detector's inlined access path against its stages' own methods.

:meth:`RaceDetector.on_access_parts` finds the location's record and
runs the ownership admission, the per-thread cache's lookup and insert,
and the lockset tracker's entry inline, so an access that reaches the
trie costs one call.  :class:`StageCallDetector` takes the same path as
one call per stage over its own state — ``LocationInterner.intern``,
``OwnershipFilter.admit``, ``AccessCache.access_tracked`` (which hashes
the key itself), ``LockTracker.lockset_path`` and the four public trie
steps — and every counter, report, trie, location record and cache slot
must come out identical.  So must a run whose accesses the compiled
engine's trace stubs and the spine complete by turns.
"""

from types import MappingProxyType

from hypothesis import given, settings, strategies as st

from repro.detector import DetectorConfig, OwnershipFilter, RaceDetector
from repro.detector.cache import key_slot
from repro.lang import compile_source
from repro.lang.ast import AccessKind
from repro.lang.resolver import ARRAY_FIELD
from repro.runtime import CompiledInterpreter, MJArray, MJObject
from repro.runtime.compile import ProgramCompiler
from repro.runtime.events import (
    AccessEvent,
    LocationInterner,
    MulticastSink,
    ObjectKind,
)
from repro.runtime.scheduler import ThreadState


class StageCallDetector(RaceDetector):
    """The access path with one method call per stage.  It keeps its own
    keys, owners and tries and never reads the location records, so it
    is an independent oracle for them."""

    def __init__(self, config=None, **kwargs):
        super().__init__(config, **kwargs)
        self.interner = LocationInterner()
        self.ownership = OwnershipFilter() if self.config.ownership else None
        self.ownership_stats = self.ownership.stats if self.ownership else None
        #: Every key seen, and each key's trie once it has one.
        self.keys = {}
        self.stage_tries = {}

    @property
    def tries(self):
        return MappingProxyType(self.stage_tries)

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind,
        object_label,
    ) -> None:
        self.stats.accesses += 1
        if self._fields_merged and object_kind is not ObjectKind.CLASS:
            key = object_uid
        else:
            key = self.interner.intern(object_uid, field)
        self.keys[key] = None
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
        trie = self.stage_tries.get(key)
        if trie is None:
            self.stage_tries[key] = trie = self.trie_class(self.trie_stats)
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

    def location_state(self) -> dict:
        """``{key: (owner, cache slot)}``, the records' content."""
        return {
            key: (
                self.ownership.owner_of(key) if self.ownership else None,
                key_slot(key, self.cache._size) if self.cache else None,
            )
            for key in self.keys
        }


def location_state(detector) -> dict:
    if isinstance(detector, StageCallDetector):
        return detector.location_state()
    return {
        record.key: (record.owner, record.slot if detector.cache else None)
        for record in detector.records()
    }


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


def feed(detector, raw, access=None) -> None:
    """Drive ``detector`` with a well-formed stream: every worker
    starts first, locking is LIFO per thread, joins only by thread 0
    of threads that have ended.  ``access(thread, action)``, if given,
    delivers the access steps instead."""
    stacks = {thread: [] for thread in range(N_THREADS)}
    ended = set()
    for child in range(1, N_THREADS):
        detector.on_thread_start(0, child)
    for thread, action in raw:
        if thread in ended:
            continue
        if action[0] == "access" and access is not None:
            access(thread, action)
        elif action[0] == "access":
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
        detector.ownership_stats,
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
            for key, trie in detector.tries.items()
        },
        location_state(detector),
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



RIG_PROGRAM = """
class Main { static def main() { } }
class Data { field f; field g; static field s; static field t; }
"""


class StubRig:
    """The compiled engine's trace stubs into ``detector``, and objects
    of every kind to access through them."""

    def __init__(self, detector):
        resolved = compile_source(RIG_PROGRAM)
        self.engine = CompiledInterpreter(resolved, sink=detector)
        self.compiler = ProgramCompiler(self.engine)
        info = resolved.class_info("Data")
        uids = self.engine._uids
        self.refs = [
            MJObject(uids, info, 0),
            MJObject(uids, info, 1),
            MJArray(uids, 2, 2),
            self.engine._class_object("Data"),
        ]
        self.threads = [
            ThreadState(thread, f"T{thread}", iter(()))
            for thread in range(N_THREADS)
        ]
        self.stubs = {}

    def stub(self, kind, field):
        stub = self.stubs.get((kind, field))
        if stub is None:
            stub = self.stubs[kind, field] = self.compiler._record_stub(
                0, kind, field
            )
        return stub


def field_of(ref, choice) -> str:
    if isinstance(ref, MJArray):
        return ARRAY_FIELD
    return (("f", "g") if isinstance(ref, MJObject) else ("s", "t"))[choice]


def feed_interleaved(detector, oracle, raw) -> StubRig:
    """Drive ``detector`` with each access completed by a trace stub or
    by the spine as the step says, and ``oracle`` with every access
    through the spine; then fold the stubs' deferred counts."""
    rig = StubRig(detector)

    def access(thread, action):
        _, index, choice, kind, via_stub = action
        ref = rig.refs[index]
        field = field_of(ref, choice)
        object_kind, label = rig.engine._label_of(ref)
        if via_stub:
            rig.stub(kind, field)(ref, rig.threads[thread])
        else:
            detector.on_access_parts(
                ref.uid, field, thread, kind, 0, object_kind, label
            )
        oracle.on_access_parts(
            ref.uid, field, thread, kind, 0, object_kind, label
        )

    feed(MulticastSink([detector, oracle]), raw, access)
    rig.engine._fast_path.fold()
    return rig


rig_access = st.tuples(
    st.just("access"),
    st.integers(0, 3),
    st.integers(0, 1),
    st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
    st.booleans(),
)
rig_streams = st.lists(
    st.tuples(
        st.integers(0, N_THREADS - 1),
        st.one_of(
            rig_access,
            rig_access,
            rig_access,
            enter_step,
            st.tuples(st.just("exit")),
            st.tuples(st.just("join"), st.integers(1, N_THREADS - 1)),
        ),
    ),
    min_size=20,
    max_size=120,
)

#: The configurations the stubs run under: ownership and the cache on.
stub_configs = st.builds(
    DetectorConfig,
    cache_size=st.sampled_from([1, 2, 3, 256]),
    fields_merged=st.booleans(),
    join_pseudolocks=st.booleans(),
    read_read_races=st.booleans(),
)


class TestStubAndSpineShareTheRecords:
    """The stub and the spine finish accesses to the same locations by
    turns — the stub's virgin claim, the spine's transition, a stub hit
    on the slot the spine's miss filled — over instance, array and
    class objects."""

    @settings(max_examples=300, deadline=None)
    @given(rig_streams, stub_configs)
    def test_records_counters_slots_and_reports(self, raw, config):
        detector, oracle = RaceDetector(config), StageCallDetector(config)
        feed_interleaved(detector, oracle, raw)
        assert state(detector) == state(oracle)

    def test_each_outcome_changes_hands(self):
        write, read = AccessKind.WRITE, AccessKind.READ
        for merged in (False, True):
            config = DetectorConfig(fields_merged=merged)
            raw = []
            for index in range(4):
                raw += [
                    # Stub claim and re-access, spine transition, spine
                    # miss, then stub hits.
                    (1, ("access", index, 0, write, True)),
                    (1, ("access", index, 0, write, True)),
                    (2, ("access", index, 0, write, False)),
                    (1, ("access", index, 0, read, False)),
                    (1, ("access", index, 0, read, True)),
                    (2, ("access", index, 0, write, True)),
                ]
            detector, oracle = RaceDetector(config), StageCallDetector(config)
            feed_interleaved(detector, oracle, raw)
            assert (detector.inline_owned, detector.inline_cache_hits) == (8, 8)
            assert detector.stats.races_reported > 0
            assert state(detector) == state(oracle)
