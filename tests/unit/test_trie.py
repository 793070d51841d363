"""Unit tests for the lockset trie (Section 3.2)."""

from repro.detector import THREAD_BOTTOM, THREAD_TOP, LockTrie
from repro.lang.ast import AccessKind

READ = AccessKind.READ
WRITE = AccessKind.WRITE


def fs(*locks):
    return frozenset(locks)


class TestFindWeaker:
    def test_empty_trie_has_nothing_weaker(self):
        trie = LockTrie()
        assert not trie.find_weaker(fs(), 1, READ)

    def test_exact_duplicate_is_weaker(self):
        trie = LockTrie()
        trie.insert(fs(1), 1, READ)
        assert trie.find_weaker(fs(1), 1, READ)

    def test_subset_lockset_is_weaker(self):
        trie = LockTrie()
        trie.insert(fs(1), 1, READ)
        assert trie.find_weaker(fs(1, 2), 1, READ)

    def test_superset_lockset_not_weaker(self):
        trie = LockTrie()
        trie.insert(fs(1, 2), 1, READ)
        assert not trie.find_weaker(fs(1), 1, READ)

    def test_write_covers_later_read(self):
        trie = LockTrie()
        trie.insert(fs(), 1, WRITE)
        assert trie.find_weaker(fs(), 1, READ)

    def test_read_does_not_cover_write(self):
        trie = LockTrie()
        trie.insert(fs(), 1, READ)
        assert not trie.find_weaker(fs(), 1, WRITE)

    def test_other_thread_not_weaker(self):
        trie = LockTrie()
        trie.insert(fs(), 1, WRITE)
        assert not trie.find_weaker(fs(), 2, WRITE)

    def test_bottom_node_weaker_than_any_thread(self):
        trie = LockTrie()
        trie.insert(fs(), 1, WRITE)
        trie.insert(fs(), 2, WRITE)  # Meets to t⊥.
        assert trie.find_weaker(fs(), 3, WRITE)

    def test_internal_node_not_weaker(self):
        trie = LockTrie()
        trie.insert(fs(1, 2), 1, READ)
        # The node for {1} alone is internal (t⊤) and holds no access.
        assert not trie.find_weaker(fs(1), 1, READ)

    def test_stats_track_hits_and_misses(self):
        trie = LockTrie()
        trie.insert(fs(), 1, READ)
        trie.find_weaker(fs(), 1, READ)
        trie.find_weaker(fs(), 2, WRITE)
        assert trie.stats.weaker_hits == 1
        assert trie.stats.weaker_misses == 1


class TestFindRace:
    def test_no_history_no_race(self):
        trie = LockTrie()
        assert trie.find_race(fs(), 1, WRITE) is None

    def test_write_write_race(self):
        trie = LockTrie()
        trie.insert(fs(1), 1, WRITE)
        prior = trie.find_race(fs(2), 2, WRITE)
        assert prior is not None
        assert prior.thread == 1
        assert prior.lockset == fs(1)
        assert prior.kind is WRITE

    def test_case_one_common_lock_prunes_subtree(self):
        trie = LockTrie()
        trie.insert(fs(1, 2), 1, WRITE)
        # Lock 1 is shared: the whole subtree under edge 1 is safe.
        assert trie.find_race(fs(1), 2, WRITE) is None

    def test_read_read_no_race(self):
        trie = LockTrie()
        trie.insert(fs(), 1, READ)
        assert trie.find_race(fs(), 2, READ) is None

    def test_write_races_with_merged_shared_reads(self):
        # Unlocked reads from two threads merge into one (t⊥, READ)
        # node without a report; a later write by any thread races it.
        trie = LockTrie()
        trie.insert(fs(), 1, READ)
        assert trie.find_race(fs(), 2, READ) is None
        trie.insert(fs(), 2, READ)
        prior = trie.find_race(fs(), 1, WRITE)
        assert prior is not None
        assert (prior.thread, prior.kind) == (THREAD_BOTTOM, READ)

    def test_same_thread_no_race(self):
        trie = LockTrie()
        trie.insert(fs(), 1, WRITE)
        assert trie.find_race(fs(9), 1, WRITE) is None

    def test_race_against_merged_bottom_node(self):
        trie = LockTrie()
        trie.insert(fs(5), 1, WRITE)
        trie.insert(fs(5), 2, WRITE)  # Node becomes (t⊥, WRITE).
        # Even the *same* threads race against the merged node.
        prior = trie.find_race(fs(), 1, READ)
        assert prior is not None
        assert prior.thread is THREAD_BOTTOM

    def test_internal_nodes_never_race(self):
        trie = LockTrie()
        trie.insert(fs(3, 4), 1, WRITE)
        # Traversal passes the internal {3} node; it must not report.
        prior = trie.find_race(fs(4), 2, WRITE)
        assert prior is None  # Case I kills it at edge 4... via edge 3 the
        # leaf is {3,4}, and 4 ∈ e.L — pruned at the 4-edge below 3.

    def test_disjoint_deep_locksets_race(self):
        trie = LockTrie()
        trie.insert(fs(1, 2, 3), 1, WRITE)
        prior = trie.find_race(fs(4, 5), 2, READ)
        assert prior is not None
        assert prior.lockset == fs(1, 2, 3)

    def test_race_found_counts(self):
        trie = LockTrie()
        trie.insert(fs(), 1, WRITE)
        trie.find_race(fs(), 2, WRITE)
        assert trie.stats.races_found == 1


class TestInsertAndMeet:
    def test_insert_creates_sorted_path(self):
        trie = LockTrie()
        trie.insert(fs(3, 1, 2), 1, READ)
        stored = trie.stored_accesses()
        assert stored == [(fs(1, 2, 3), 1, READ)]

    def test_same_lockset_merges_threads_to_bottom(self):
        trie = LockTrie()
        trie.insert(fs(1), 1, READ)
        trie.insert(fs(1), 2, READ)
        ((_, thread, _),) = trie.stored_accesses()
        assert thread is THREAD_BOTTOM

    def test_same_lockset_merges_kinds_to_write(self):
        trie = LockTrie()
        trie.insert(fs(1), 1, READ)
        trie.insert(fs(1), 1, WRITE)
        ((_, _, kind),) = trie.stored_accesses()
        assert kind is WRITE

    def test_node_count_grows_by_path_length(self):
        trie = LockTrie()
        assert trie.node_count() == 1
        trie.insert(fs(1, 2), 1, READ)
        assert trie.node_count() == 3


class TestPruneStronger:
    def test_weaker_insert_removes_stronger_entry(self):
        trie = LockTrie()
        trie.insert(fs(1, 2), 1, READ)
        node = trie.insert(fs(1), 1, READ)
        removed = trie.prune_stronger(fs(1), 1, READ, keep=node)
        assert removed == 1
        assert trie.stored_accesses() == [(fs(1), 1, READ)]

    def test_prune_frees_dead_nodes(self):
        trie = LockTrie()
        trie.insert(fs(1, 2, 3), 1, READ)
        node = trie.insert(fs(), 1, WRITE)
        trie.prune_stronger(fs(), 1, WRITE, keep=node)
        assert trie.node_count() == 1  # Only the root remains.

    def test_prune_keeps_incomparable_entries(self):
        trie = LockTrie()
        trie.insert(fs(1), 2, WRITE)  # Different thread: incomparable.
        node = trie.insert(fs(), 1, READ)
        trie.prune_stronger(fs(), 1, READ, keep=node)
        assert (fs(1), 2, WRITE) in trie.stored_accesses()

    def test_prune_does_not_remove_new_node(self):
        trie = LockTrie()
        node = trie.insert(fs(1), 1, READ)
        trie.prune_stronger(fs(1), 1, READ, keep=node)
        assert trie.stored_accesses() == [(fs(1), 1, READ)]

    def test_write_prunes_read_with_superset_locks(self):
        trie = LockTrie()
        trie.insert(fs(1), 1, READ)
        node = trie.insert(fs(), 1, WRITE)
        trie.prune_stronger(fs(), 1, WRITE, keep=node)
        assert trie.stored_accesses() == [(fs(), 1, WRITE)]

    def test_bottom_prunes_concrete_thread(self):
        trie = LockTrie()
        trie.insert(fs(1), 1, READ)
        trie.insert(fs(), 1, READ)
        trie.insert(fs(), 2, READ)  # Root node becomes t⊥.
        node = trie.insert(fs(), 3, READ)  # Still t⊥.
        trie.prune_stronger(fs(), THREAD_BOTTOM, READ, keep=node)
        # The {1}-node (thread 1, READ) is stronger than (t⊥, READ) at {}.
        assert trie.stored_accesses() == [(fs(), THREAD_BOTTOM, READ)]
