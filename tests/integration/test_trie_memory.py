"""The lockset tries' memory per live node (Section 8.2's space cost).

Most trie nodes have at most one child — on the pseudo-lock shape every
thread's ``S_t`` node has exactly one — so a node holds an only child
inline and a dict exists only at a node with two or more.  This pins
the bytes the tries hold per live node on the seeded 20k-event
``synthlog`` trace: about 83 B with the inline child, against about
205 B when every node with a child owned a dict.  Sizes are CPython
3.11's, the version CI runs.
"""

import tracemalloc

from repro.detector import RaceDetector, trie
from repro.runtime.synthlog import synthesize_into

#: The bound on trie bytes per live node, with room above ~83 B.
MAX_BYTES_PER_NODE = 110


def test_trie_bytes_per_live_node_stay_bounded():
    detector = RaceDetector()
    tracemalloc.start()
    try:
        synthesize_into(detector, 20_000, seed=2002)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, trie.__file__)])
    trie_bytes = sum(stat.size for stat in held.statistics("filename"))
    nodes = detector.total_trie_nodes()
    assert nodes > 5_000
    assert trie_bytes / nodes <= MAX_BYTES_PER_NODE, (trie_bytes, nodes)
