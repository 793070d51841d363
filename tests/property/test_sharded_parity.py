"""Property: sharded post-mortem detection is exactly equivalent to
serial detection — on-the-fly, one shard, and every shard count
produce the same races and the same funnel invariants.

Each recording also feeds a live :class:`RaceDetector` attached
beside the log, so the one-shard reference is itself checked against
a detector that shares no code with the replay.

The invariants (see ``repro/detector/sharded.py`` for the argument):

* race reports are identical (modulo the canonical cross-shard
  ordering), as are racy-location/object summaries;
* ``monitored_locations`` and trie node totals are identical — the
  caches only ever suppress events the weaker-than check would also
  suppress, so the tries see the same effective stream;
* ``accesses``, ``owned_filtered`` and ``detector_processed`` are
  invariant, and ``cache_hits + detector_weaker_filtered`` is
  invariant as a sum (individual values may redistribute between the
  two counters when a cache is split across shards).
"""

from hypothesis import given, settings, strategies as st

from repro.detector import (
    DetectorConfig,
    RaceDetector,
    canonical_report_order,
    detect_sharded,
)
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang import compile_source
from repro.runtime import MulticastSink, RandomPolicy, RecordingSink, run_program
from repro.workloads.fuzz import generate_program

program_seeds = st.integers(min_value=0, max_value=10_000)
schedule_seeds = st.integers(min_value=0, max_value=10_000)

SHARD_COUNTS = (1, 2, 8)


def assert_matches_live(one, live):
    """The one-shard result of a log equals the live detector that
    watched the same run: reports, counters, and trie state."""
    assert one.reports.reports == canonical_report_order(live.reports.reports)
    assert one.stats == live.stats
    assert one.monitored_locations == live.monitored_locations
    assert one.trie_nodes == live.total_trie_nodes()


def _record(source, schedule_seed, config=None):
    """Run ``source`` once into a log and a live detector; return the
    log and its one-shard detection, checked against the live one."""
    resolved = compile_source(source)
    plan = plan_instrumentation(resolved, PlannerConfig())
    live = RaceDetector(config=config, resolved=resolved)
    log = RecordingSink()
    run_program(
        resolved,
        sink=MulticastSink([log, live]),
        trace_sites=plan.trace_sites,
        policy=RandomPolicy(schedule_seed),
        max_steps=3_000_000,
    )
    one = detect_sharded(log, 1, config=config, resolved=resolved)
    assert_matches_live(one, live)
    return resolved, log, one


def _assert_parity(one, sharded):
    assert sharded.reports.reports == one.reports.reports
    assert sharded.reports.racy_locations == one.reports.racy_locations
    assert sharded.reports.racy_objects == one.reports.racy_objects
    assert sharded.monitored_locations == one.monitored_locations
    assert sharded.trie_nodes == one.trie_nodes
    assert sharded.stats.accesses == one.stats.accesses
    assert sharded.stats.owned_filtered == one.stats.owned_filtered
    assert sharded.stats.detector_processed == one.stats.detector_processed
    assert sharded.stats.races_reported == one.stats.races_reported
    assert (
        sharded.stats.cache_hits + sharded.stats.detector_weaker_filtered
        == one.stats.cache_hits + one.stats.detector_weaker_filtered
    )


@settings(max_examples=25, deadline=None)
@given(program_seeds, schedule_seeds)
def test_sharded_equals_serial_post_mortem(program_seed, schedule_seed):
    # One execution observed twice: a live detector attached to the
    # run, and a recording replayed with every shard count.
    resolved, log, one = _record(generate_program(program_seed), schedule_seed)
    for shards in SHARD_COUNTS:
        sharded = detect_sharded(log, shards, resolved=resolved)
        _assert_parity(one, sharded)


@settings(max_examples=15, deadline=None)
@given(program_seeds, schedule_seeds)
def test_sharded_equals_on_the_fly(program_seed, schedule_seed):
    # The trie-side setting the other properties leave at its default:
    # without join pseudo-locks every post-join access carries a
    # different lockset.  The recording's one-shard result is checked
    # against its live detector in _record; every shard count must
    # agree.
    config = DetectorConfig(join_pseudolocks=False)
    resolved, log, one = _record(generate_program(program_seed), schedule_seed, config)
    for shards in SHARD_COUNTS:
        sharded = detect_sharded(log, shards, config=config, resolved=resolved)
        _assert_parity(one, sharded)


@settings(max_examples=15, deadline=None)
@given(program_seeds, schedule_seeds)
def test_sharded_parity_under_fields_merged(program_seed, schedule_seed):
    # Coarsened keying routes by the same object uid, so sharding must
    # stay exact under the FieldsMerged configuration too.
    config = DetectorConfig(fields_merged=True)
    resolved, log, one = _record(
        generate_program(program_seed), schedule_seed, config
    )
    for shards in SHARD_COUNTS:
        sharded = detect_sharded(log, shards, config=config, resolved=resolved)
        _assert_parity(one, sharded)


@settings(max_examples=10, deadline=None)
@given(program_seeds, schedule_seeds)
def test_sharded_parity_without_cache_is_counter_exact(
    program_seed, schedule_seed
):
    # With the caches disabled the redistribution degree of freedom
    # disappears: every counter must match exactly, shard by shard sum.
    config = DetectorConfig(cache=False)
    resolved, log, one = _record(
        generate_program(program_seed), schedule_seed, config
    )
    for shards in SHARD_COUNTS:
        sharded = detect_sharded(log, shards, config=config, resolved=resolved)
        _assert_parity(one, sharded)
        assert sharded.stats == one.stats


@settings(max_examples=15, deadline=None)
@given(program_seeds, schedule_seeds)
def test_sharded_parity_with_condition_sync(program_seed, schedule_seed):
    # Wait/notify/barrier events are broadcast to every shard (like
    # monitor events), so the paper detector's pass-through of them
    # must not perturb the funnel invariants.
    source = generate_program(
        program_seed, n_workers=3, n_fields=3, n_locks=2, handoff_bias=True
    )
    resolved, log, one = _record(source, schedule_seed)
    for shards in SHARD_COUNTS:
        sharded = detect_sharded(log, shards, resolved=resolved)
        _assert_parity(one, sharded)
