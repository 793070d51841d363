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
must equal a full walk.  The real trie's race check and prune settle
children and grandchildren inside the parent's frame; they must equal
the textbook walks with one frame per node (:class:`FramePerNodeTrie`)
down to the reported prior, on histories shaped like the detector's:
a negative join pseudo-lock ``S_j`` per thread plus nested real locks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.detector import LockTrie, RaceDetector, THREAD_BOTTOM, TrieStats
from repro.detector.trie import FILTERED, PriorAccess, TrieNode
from repro.difflab.inject import NoMeetLockTrie, ReadBlindLockTrie
from repro.detector.weaker import (
    THREAD_TOP,
    access_leq,
    access_meet,
    thread_leq,
    thread_meet,
)
from repro.lang.ast import AccessKind
from repro.runtime.synthlog import synthesize_into

locksets = st.frozensets(st.integers(1, 5), max_size=3)
threads = st.integers(0, 3)
kinds = st.sampled_from([AccessKind.READ, AccessKind.WRITE])
events = st.tuples(locksets, threads, kinds)
event_lists = st.lists(events, max_size=12)
long_event_lists = st.lists(events, max_size=30)
keyed_event_lists = st.lists(
    st.tuples(st.sampled_from("abc"), locksets, threads, kinds), max_size=30
)


@st.composite
def pseudo_lock_events(draw):
    """One access as the detector sees it: the thread's own ``S_j``
    (negative), the ``S_k`` of threads it joined, and a chain of up to
    three nested real locks — paths up to six deep."""
    thread = draw(threads)
    joined = draw(st.frozensets(threads, max_size=2))
    real = draw(st.lists(st.integers(1, 5), unique=True, max_size=3))
    lockset = frozenset(
        {-(thread + 1)} | {-(other + 1) for other in joined} | set(real)
    )
    return lockset, thread, draw(kinds)


pseudo_lock_histories = st.lists(pseudo_lock_events(), max_size=40)


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
    def test_race_prior_is_never_a_read_against_a_read(self, history, probe):
        # IsRace needs a write on one side: a read probe only ever
        # reports a stored write.
        trie, _ = build_trie_like_detector(history)
        lockset, thread, kind = probe
        prior = trie.find_race(lockset, thread, kind)
        if prior is not None:
            assert AccessKind.WRITE in (prior.kind, kind)

    @settings(max_examples=200, deadline=None)
    @given(event_lists)
    def test_race_report_lockset_is_genuinely_disjoint(self, history):
        trie, model = build_trie_like_detector(history)
        probe_lockset = frozenset({9})  # Never used by the generator.
        prior = trie.find_race(probe_lockset, 7, AccessKind.WRITE)
        if prior is not None:
            assert not (prior.lockset & probe_lockset)


def four_steps(trie, lockset, thread, kind):
    """The detector's per-access protocol as four separate traversals."""
    if trie.find_weaker(lockset, thread, kind):
        return FILTERED
    prior = trie.find_race(lockset, thread, kind)
    node = trie.insert(lockset, thread, kind)
    trie.prune_stronger(lockset, node.thread, node.kind, keep=node)
    return prior


def normalized(stored):
    return sorted((tuple(sorted(l)), repr(t), k.value) for l, t, k in stored)


class FramePerNodeTrie(LockTrie):
    """The race check and prune as textbook walks: one frame per node
    visited, no child or grandchild settled in its parent's frame."""

    def _find_race(self, node, path, lockset, thread, kind):
        if node.holds_accesses and thread_meet(node.thread, thread) is THREAD_BOTTOM:
            if AccessKind.WRITE in (node.kind, kind):
                self.stats.races_found += 1
                return PriorAccess(
                    thread=node.thread, lockset=frozenset(path), kind=node.kind
                )
        for lock, child in node.children.items():
            if lock in lockset:
                continue
            race = self._find_race(child, path + [lock], lockset, thread, kind)
            if race is not None:
                return race
        return None

    def _prune(self, node, path, index, thread, kind, keep):
        removed = 0
        if index == len(path):
            if (
                node is not keep
                and node.holds_accesses
                and thread_leq(thread, node.thread)
                and access_leq(kind, node.kind)
            ):
                node.clear_accesses()
                removed = 1
            first = None
        else:
            first = path[index]
        dead = []
        for lock, child in list(node.children.items()):
            if first is not None and lock > first:
                continue
            removed += self._prune(
                child, path, index + 1 if lock == first else index,
                thread, kind, keep,
            )
            if (
                child.thread is THREAD_TOP
                and not child.children
                and child is not keep
            ):
                dead.append(lock)
        for lock in dead:
            node.remove_child(lock)
            self.stats.nodes_freed += 1
        return removed


def children_order(node):
    """Every node's child labels in dict order: the race check's visit
    order, which picks the reported prior."""
    return [
        (lock, children_order(child)) for lock, child in node.children.items()
    ]


def assert_layout(trie):
    """Every node holds its children in the layout for their number:
    no storage, the only child inline, or a dict of two or more; and
    every child carries the label of its edge."""
    stack = [trie.root]
    while stack:
        node = stack.pop()
        children = node.children
        if not children:
            assert not node.edges
        elif len(children) == 1:
            assert type(node.edges) is TrieNode
        else:
            assert type(node.edges) is dict
        for lock, child in children.items():
            assert child.label == lock
            stack.append(child)


def assert_observe_matches_four_steps(fused, split, history):
    """``fused.observe`` and the four steps on ``split`` agree in every
    answer, stored set and counter along ``history``; the race check
    also picks the same prior, so both tries' child orders agree.  The
    live-node counter equals a walk, and every node's layout fits its
    number of children, after every step.  Both tries hold the same
    guard, and every stored lockset contains it."""
    for lockset, thread, kind in history:
        expected = four_steps(split, lockset, thread, kind)
        answer = fused.observe(lockset, tuple(sorted(lockset)), thread, kind)
        assert answer == expected
        assert fused.guard is not None and fused.guard == split.guard
        assert all(
            locks >= fused.guard for locks, _, _ in fused.stored_accesses()
        )
        assert children_order(fused.root) == children_order(split.root)
        assert normalized(fused.stored_accesses()) == normalized(
            split.stored_accesses()
        )
        assert fused.stats == split.stats
        assert fused.stats.live_nodes == fused.node_count()
        assert_layout(fused)


class TestObserveMatchesFourSteps:
    @pytest.mark.parametrize(
        "trie_class", [LockTrie, NoMeetLockTrie, ReadBlindLockTrie]
    )
    @settings(max_examples=200, deadline=None)
    @given(history=long_event_lists)
    def test_same_answers_stored_sets_and_stats(self, trie_class, history):
        assert_observe_matches_four_steps(trie_class(), trie_class(), history)

    @pytest.mark.parametrize(
        "trie_class", [LockTrie, NoMeetLockTrie, ReadBlindLockTrie]
    )
    @settings(max_examples=200, deadline=None)
    @given(history=pseudo_lock_histories)
    def test_same_on_pseudo_lock_histories(self, trie_class, history):
        assert_observe_matches_four_steps(trie_class(), trie_class(), history)


class TestFrameLightWalksMatchFramePerNode:
    @pytest.mark.parametrize(
        "histories",
        [long_event_lists, pseudo_lock_histories],
        ids=["flat-locks", "pseudo-locks"],
    )
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_observe_equals_frame_per_node_steps(self, histories, data):
        assert_observe_matches_four_steps(
            LockTrie(), FramePerNodeTrie(), data.draw(histories)
        )


def _tracked(trie, path):
    node = trie.root
    for lock in path:
        node = node.child(lock)
    return node


W = AccessKind.WRITE
R = AccessKind.READ

#: Histories that take one node (the node at ``path``) through 0, 1
#: and 2 children, back to 1 and to 0 by prunes, and regrow it to 2;
#: ``children`` is its child labels, in visit order, after each access.
LAYOUT_SCRIPTS = {
    "flat-locks": dict(
        path=(1,),
        history=[
            (frozenset({1}), 0, W),
            (frozenset({1, 3}), 1, W),
            (frozenset({1, 2}), 2, W),
            # Races with {1}/0 and prunes {1, 3}/1: a dict of one left.
            (frozenset({3}), 1, W),
            # Races with {1}/0 and prunes the inline {1, 2}/2.
            (frozenset({2}), 2, W),
            (frozenset({1, 5}), 3, W),
            (frozenset({1, 4}), 3, W),
        ],
        children=[[], [3], [3, 2], [2], [], [5], [5, 4]],
    ),
    # Thread j holds its join pseudo-lock S_j = -(j + 1).
    "pseudo-locks": dict(
        path=(-1, 1),
        history=[
            (frozenset({-1, 1}), 0, R),
            (frozenset({-1, 1, 3}), 0, W),
            (frozenset({-2, 2}), 1, W),
            (frozenset({-1, 1, 2}), 0, W),
            # Prunes {S_0, 1, 3}: the dict collapses to the inline child.
            (frozenset({-1, 3}), 0, W),
            (frozenset({-2, 3}), 1, W),
            # Prunes {S_0, 1, 2}, the only child.
            (frozenset({-1, 2}), 0, W),
            (frozenset({-1, 1, 5}), 0, W),
            (frozenset({-1, 1, 4}), 0, W),
        ],
        children=[[], [3], [3], [3, 2], [2], [2], [], [5], [5, 4]],
    ),
}


class TestChildLayoutTransitions:
    """A node's children move between none, one inline child and a
    dict, with the same answers, visit order and counters as the
    frame-per-node walks (which see the edges only through the node's
    view and :meth:`TrieNode.remove_child`).  Random histories of both
    shapes check the layout in ``TestFrameLightWalksMatchFramePerNode``."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_SCRIPTS))
    def test_scripted_node_goes_through_every_layout(self, name):
        script = LAYOUT_SCRIPTS[name]
        fused, split = LockTrie(), FramePerNodeTrie()
        children = []
        for event in script["history"]:
            assert_observe_matches_four_steps(fused, split, [event])
            children.append(list(_tracked(fused, script["path"]).children))
        assert children == script["children"]

    def test_remove_child_collapses_in_insertion_order(self):
        node = TrieNode()
        for lock in (3, 1, 2):
            node.add_child(lock)
        assert list(node.children) == [3, 1, 2]
        node.remove_child(1)
        assert list(node.children) == [3, 2]
        node.remove_child(3)
        assert node.edges is node.child(2)
        assert node.child(3) is None
        node.remove_child(2)
        assert not node.edges and node.child(2) is None
        with pytest.raises(KeyError):
            node.remove_child(2)


class FrameCountingTrie(LockTrie):
    """Counts the frames the race check and the prune open."""

    def __init__(self):
        super().__init__()
        self.race_frames = 0
        self.prune_frames = 0

    def _find_race(self, *args):
        self.race_frames += 1
        return super()._find_race(*args)

    def _prune(self, *args):
        self.prune_frames += 1
        return super()._prune(*args)


def _observe(trie, lockset, thread, kind=AccessKind.WRITE):
    return trie.observe(lockset, tuple(sorted(lockset)), thread, kind)


class TestWalkShape:
    """Where the frame-light walks open frames, on the pseudo-lock
    shape: thread ``j`` always holds ``S_j = -(j + 1)``."""

    def test_guard_settles_a_covered_history_without_a_frame(self):
        trie = FrameCountingTrie()
        _observe(trie, frozenset({-2, 7}), 1)
        trie.race_frames = trie.prune_frames = 0
        # Thread 0 holds lock 7 too, which every stored access held
        # (the guard is {S_1, 7}): Case I for the whole trie, no walk.
        assert _observe(trie, frozenset({-1, 7}), 0) is None
        assert trie.race_frames == 0
        assert trie.stats.race_walks_skipped == 2
        # No stored lockset is larger than {S_0, 7}, so no stored
        # access can be stronger than the new one: no prune frame.
        assert trie.prune_frames == 0

    def test_covered_grandchild_is_settled_in_the_root_frame(self):
        trie = FrameCountingTrie()
        _observe(trie, frozenset({-2, 7}), 1)
        # Thread 2 holds no lock in common with thread 1: the guard
        # narrows to the empty set, so every later race check walks.
        _observe(trie, frozenset({-3}), 2, AccessKind.READ)
        assert trie.guard == frozenset()
        trie.race_frames = 0
        # The S_1 subtree's only edge carries lock 7, which thread 0
        # holds (Case I), and the S_2 node holds a read: the root frame
        # settles both.
        assert _observe(trie, frozenset({-1, 7}), 0, AccessKind.READ) is None
        assert trie.race_frames == 1

    def test_prune_settles_subtrees_in_the_root_frame(self):
        trie = FrameCountingTrie()
        _observe(trie, frozenset({-2, 7}), 1)
        # A larger stored lockset, so the next access's prune walks.
        _observe(trie, frozenset({-3, 7, 8}), 2)
        trie.prune_frames = 0
        assert _observe(trie, frozenset({-1, 7}), 0) is None
        # The S_1 and S_2 subtrees (whose edges never reach S_0) and
        # the new node's parent (whose only edge leads to the new leaf)
        # are settled in the root frame.
        assert trie.prune_frames == 1

    def test_prune_opens_a_frame_to_demote_below_a_grandchild(self):
        trie = FrameCountingTrie()
        _observe(trie, frozenset({-1, 3, 5}), 0, AccessKind.READ)
        trie.prune_frames = 0
        # The stored access under {S_0, 3, 5} is stronger than a write
        # under {S_0, 3}: the prune reaches it through a frame for S_0
        # and demotes it from the frame for lock 3.
        _observe(trie, frozenset({-1, 3}), 0)
        assert trie.prune_frames == 3
        assert trie.stored_accesses() == [
            (frozenset({-1, 3}), 0, AccessKind.WRITE)
        ]

    def test_child_race_is_reported_from_the_root_frame(self):
        trie = FrameCountingTrie()
        _observe(trie, frozenset({-2}), 1)
        trie.race_frames = 0
        prior = _observe(trie, frozenset({-1}), 0)
        assert prior == PriorAccess(1, frozenset({-2}), AccessKind.WRITE)
        assert trie.race_frames == 1

    def test_uncovered_subtree_opens_a_frame_per_level(self):
        trie = FrameCountingTrie()
        _observe(trie, frozenset({-2, 3, 5}), 1)
        trie.race_frames = 0
        prior = _observe(trie, frozenset({-1, 4}), 0)
        assert prior == PriorAccess(1, frozenset({-2, 3, 5}), AccessKind.WRITE)
        # Root, S_1 and lock 3 each need a frame; lock 5's node is
        # tested in its parent's.
        assert trie.race_frames == 3


class TestGuard:
    """The guard is the intersection of every stored lockset, on every
    insertion path, and tries handed one table share its values."""

    @pytest.mark.parametrize("probe", ["find_race", "observe"])
    def test_public_insert_narrows_the_guard(self, probe):
        trie = LockTrie()
        trie.insert(frozenset({1}), 0, W)
        assert trie.guard == frozenset({1})
        # Lock-disjoint from the first access: the guard empties, so a
        # later event holding lock 1 is still checked against {2}.
        trie.insert(frozenset({2}), 1, W)
        assert trie.guard == frozenset()
        expected = PriorAccess(1, frozenset({2}), W)
        if probe == "find_race":
            assert trie.find_race(frozenset({1}), 2, W) == expected
        else:
            assert _observe(trie, frozenset({1}), 2) == expected
        assert trie.stats.race_walks_skipped == 0

    def test_find_race_skips_empty_and_guarded_tries(self):
        trie = LockTrie()
        assert trie.find_race(frozenset(), 0, W) is None
        trie.insert(frozenset({1, 2}), 0, W)
        trie.insert(frozenset({2, 3}), 1, W)
        assert trie.guard == frozenset({2})
        assert trie.find_race(frozenset({2}), 2, W) is None
        assert trie.stats.race_walks_skipped == 2
        assert trie.find_race(frozenset({4}), 2, W) is not None
        assert trie.stats.race_walks_skipped == 2

    def test_tries_share_one_object_per_guard_value(self):
        detector = RaceDetector()
        synthesize_into(detector, 20_000, seed=2002)
        guards = [trie.guard for trie in detector.tries.values()]
        assert len(guards) > 1_000
        values = set(guards)
        assert len({id(guard) for guard in guards}) == len(values)
        assert all(detector.trie_guards[guard] is guard for guard in values)


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
