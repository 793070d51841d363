"""Property tests pitting the lockset trie against brute-force scans.

The trie is an indexed representation of a set of stored accesses; its
three traversals must agree with the obvious linear-scan definitions:

* ``find_weaker(e)``  ⇔  ∃ stored s . s ⊑ e;
* ``find_race(e)``    ⇔  ∃ stored s . locks disjoint ∧ threads "differ"
  (concrete-or-t⊥ meet) ∧ a write involved — and Case I pruning never
  hides such an s;
* after ``insert`` + ``prune_stronger`` the stored set equals the
  brute-force minimal frontier.

The detector's fused transaction, ``observe``, must equal those four
steps run one after another — for the real trie and for both of the
difflab's deliberately broken ones — and the O(1) live-node counter
must equal a full walk.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.detector import LockTrie, THREAD_BOTTOM, TrieStats
from repro.detector.trie import FILTERED
from repro.difflab.inject import NoMeetLockTrie, ReadBlindLockTrie
from repro.detector.weaker import (
    access_leq,
    access_meet,
    thread_leq,
    thread_meet,
)
from repro.lang.ast import AccessKind

locksets = st.frozensets(st.integers(1, 5), max_size=3)
threads = st.integers(0, 3)
kinds = st.sampled_from([AccessKind.READ, AccessKind.WRITE])
events = st.tuples(locksets, threads, kinds)
event_lists = st.lists(events, max_size=12)
long_event_lists = st.lists(events, max_size=30)
keyed_event_lists = st.lists(
    st.tuples(st.sampled_from("abc"), locksets, threads, kinds), max_size=30
)


def build_trie_like_detector(history):
    """Feed events through the detector's trie protocol, mirroring the
    _detect flow, and maintain a brute-force model alongside."""
    trie = LockTrie()
    model = []  # List of (lockset, thread_value, kind) — the stored set.
    for lockset, thread, kind in history:
        if trie.find_weaker(lockset, thread, kind):
            continue
        node = trie.insert(lockset, thread, kind)
        _model_insert(model, lockset, thread, kind)
        trie.prune_stronger(lockset, node.thread, node.kind, keep=node)
        _model_prune(model, lockset)
    return trie, model


def _model_insert(model, lockset, thread, kind):
    for index, (locks, t, a) in enumerate(model):
        if locks == lockset:
            model[index] = (locks, thread_meet(t, thread), access_meet(a, kind))
            return
    model.append((lockset, thread, kind))


def _model_prune(model, lockset):
    # Remove entries strictly stronger than the (post-meet) entry at
    # `lockset`.
    new_entry = next(e for e in model if e[0] == lockset)
    locks_n, t_n, a_n = new_entry
    model[:] = [
        entry
        for entry in model
        if entry == new_entry
        or not (
            locks_n <= entry[0]
            and thread_leq(t_n, entry[1])
            and access_leq(a_n, entry[2])
        )
    ]


class TestTrieMatchesModel:
    @settings(max_examples=300, deadline=None)
    @given(event_lists)
    def test_stored_set_equals_model(self, history):
        trie, model = build_trie_like_detector(history)
        assert sorted(
            (tuple(sorted(l)), repr(t), k.value)
            for l, t, k in trie.stored_accesses()
        ) == sorted(
            (tuple(sorted(l)), repr(t), k.value) for l, t, k in model
        )

    @settings(max_examples=300, deadline=None)
    @given(event_lists, events)
    def test_find_weaker_equals_linear_scan(self, history, probe):
        trie, model = build_trie_like_detector(history)
        lockset, thread, kind = probe
        expected = any(
            locks <= lockset and thread_leq(t, thread) and access_leq(a, kind)
            for locks, t, a in model
        )
        assert trie.find_weaker(lockset, thread, kind) == expected

    @settings(max_examples=300, deadline=None)
    @given(event_lists, events)
    def test_find_race_equals_linear_scan(self, history, probe):
        trie, model = build_trie_like_detector(history)
        lockset, thread, kind = probe
        expected = any(
            not (locks & lockset)
            and thread_meet(t, thread) is THREAD_BOTTOM
            and access_meet(a, kind) is AccessKind.WRITE
            for locks, t, a in model
        )
        assert (trie.find_race(lockset, thread, kind) is not None) == expected

    @settings(max_examples=200, deadline=None)
    @given(event_lists, events)
    def test_find_race_read_read_mode(self, history, probe):
        trie, model = build_trie_like_detector(history)
        lockset, thread, kind = probe
        expected = any(
            not (locks & lockset)
            and thread_meet(t, thread) is THREAD_BOTTOM
            for locks, t, _ in model
        )
        found = trie.find_race(lockset, thread, kind, read_read_races=True)
        assert (found is not None) == expected

    @settings(max_examples=200, deadline=None)
    @given(event_lists)
    def test_race_report_lockset_is_genuinely_disjoint(self, history):
        trie, model = build_trie_like_detector(history)
        probe_lockset = frozenset({9})  # Never used by the generator.
        prior = trie.find_race(probe_lockset, 7, AccessKind.WRITE)
        if prior is not None:
            assert not (prior.lockset & probe_lockset)


def four_steps(trie, lockset, thread, kind, read_read_races):
    """The detector's per-access protocol as four separate traversals."""
    if trie.find_weaker(lockset, thread, kind):
        return FILTERED
    prior = trie.find_race(lockset, thread, kind, read_read_races)
    node = trie.insert(lockset, thread, kind)
    trie.prune_stronger(lockset, node.thread, node.kind, keep=node)
    return prior


def normalized(stored):
    return sorted((tuple(sorted(l)), repr(t), k.value) for l, t, k in stored)


class TestObserveMatchesFourSteps:
    @pytest.mark.parametrize(
        "trie_class", [LockTrie, NoMeetLockTrie, ReadBlindLockTrie]
    )
    @settings(max_examples=200, deadline=None)
    @given(history=long_event_lists, read_read_races=st.booleans())
    def test_same_answers_stored_sets_and_stats(
        self, trie_class, history, read_read_races
    ):
        fused, split = trie_class(), trie_class()
        for lockset, thread, kind in history:
            expected = four_steps(split, lockset, thread, kind, read_read_races)
            answer = fused.observe(
                lockset, tuple(sorted(lockset)), thread, kind, read_read_races
            )
            assert answer == expected
            assert normalized(fused.stored_accesses()) == normalized(
                split.stored_accesses()
            )
            assert fused.stats == split.stats


class TestLiveNodeCounter:
    @settings(max_examples=200, deadline=None)
    @given(keyed_event_lists)
    def test_live_nodes_equals_node_count_walk(self, history):
        # Per-location tries share one counter, as in the detector.
        stats = TrieStats()
        tries = {}
        for key, lockset, thread, kind in history:
            path = tuple(sorted(lockset))
            if key not in tries:
                tries[key] = LockTrie(stats)
            tries[key].observe(lockset, path, thread, kind)
            assert stats.live_nodes == sum(
                trie.node_count() for trie in tries.values()
            )
