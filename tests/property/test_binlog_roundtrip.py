"""Property: the ``tuple → binary → tuple`` round trip is the identity.

The MJBL at-rest format (``repro/runtime/binlog.py``) claims lossless
encoding of every schema-v3 entry shape.  Hypothesis drives that claim
two ways:

* synthetic entry streams covering all eight event kinds with
  adversarial column values (huge uids, empty and unicode strings,
  duplicate and colliding labels);
* recorded logs of fuzzer-generated programs, executed on **both**
  engines — and since the engines are stream-identical, the binary
  files they produce must be byte-identical too.

The v2 format and the columnar decoder widen the claim: the round trip
must hold for every ``compress`` setting (v1, v2-raw, v2-deflated) at
every block size, and the batched :meth:`BinaryLogReader.replay_into`
path must deliver the same stream as the scalar per-record decode kept
in ``tests/binlog_oracle.py`` — unfiltered and for every shard of a
partition.  The replay spine's sharded half is pinned across sources:
the tuple log's and both MJBL versions' per-shard filtered
``replay_into`` and the oracle's shard filter all hand each shard the
same stream.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang.ast import AccessKind
from repro.lang.resolver import compile_source
from repro.runtime import RandomPolicy, RecordingSink, engine_runner
from repro.runtime.binlog import BinaryLogReader, write_binary_log
from repro.runtime.events import ObjectKind
from repro.runtime.synthlog import synthesize_into
from repro.workloads.fuzz import generate_program

from ..binlog_oracle import entries as oracle_entries
from ..binlog_oracle import read_binary_log, replayed, shard_entries

ACCESS = RecordingSink.ACCESS
ENTER = RecordingSink.ENTER
EXIT = RecordingSink.EXIT
START = RecordingSink.START
END = RecordingSink.END
JOIN = RecordingSink.JOIN
WAIT = RecordingSink.WAIT
NOTIFY = RecordingSink.NOTIFY

u64 = st.integers(min_value=0, max_value=2**64 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
names = st.text(max_size=24)  # empty strings and full unicode included

access_entries = st.tuples(
    st.just(ACCESS),
    u64,
    names,
    u32,
    st.sampled_from((AccessKind.READ, AccessKind.WRITE)),
    u32,
    st.sampled_from((ObjectKind.INSTANCE, ObjectKind.ARRAY, ObjectKind.CLASS)),
    names,
)
monitor_entries = st.tuples(
    st.sampled_from((ENTER, EXIT)), u32, u64, st.booleans()
)
start_entries = st.tuples(st.just(START), u32, u32)
end_entries = st.tuples(st.just(END), u32)
join_entries = st.tuples(st.just(JOIN), u32, u32)
wait_entries = st.tuples(st.just(WAIT), u32, u64)
notify_entries = st.tuples(st.just(NOTIFY), u32, u64, st.booleans())

entries_strategy = st.lists(
    st.one_of(
        access_entries,
        monitor_entries,
        start_entries,
        end_entries,
        join_entries,
        wait_entries,
        notify_entries,
    ),
    max_size=60,
)


#: The three at-rest flavors: v1, v2 with deflate disabled, v2 deflated.
compress_strategy = st.sampled_from((None, 0, 6))


def _write(entries, path, records_per_block=None, compress=None):
    if records_per_block is None and compress is None:
        write_binary_log(entries, path)
        return
    from repro.runtime.binlog import DEFAULT_RECORDS_PER_BLOCK, BinaryLogSink
    from repro.runtime.events import replay_entries

    if records_per_block is None:
        records_per_block = DEFAULT_RECORDS_PER_BLOCK
    with BinaryLogSink(
        path, records_per_block=records_per_block, compress=compress
    ) as sink:
        replay_entries(entries, sink)


def _roundtrip(entries, records_per_block=None, compress=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.mjbl"
        _write(entries, path, records_per_block, compress)
        return read_binary_log(path)


@settings(max_examples=60, deadline=None)
@given(entries_strategy, compress_strategy)
def test_arbitrary_entry_streams_roundtrip(entries, compress):
    assert _roundtrip(entries, compress=compress) == entries


@settings(max_examples=25, deadline=None)
@given(entries_strategy, st.integers(min_value=1, max_value=7), compress_strategy)
def test_roundtrip_is_block_size_invariant(entries, records_per_block, compress):
    # Tiny blocks force record runs to straddle many index entries;
    # the decoded stream must not notice — raw or deflated.
    assert _roundtrip(entries, records_per_block, compress) == entries


@settings(max_examples=30, deadline=None)
@given(
    entries_strategy,
    st.integers(min_value=1, max_value=7),
    compress_strategy,
    st.integers(min_value=1, max_value=4),
)
def test_columnar_replay_matches_scalar_decode(
    entries, records_per_block, compress, shards
):
    # The batched replay_into path (whole-block sweeps, run detection,
    # uid-column masking) must be observationally identical to the
    # scalar per-record decode, unfiltered and per shard.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.mjbl"
        _write(entries, path, records_per_block, compress)
        with BinaryLogReader(path) as reader:
            assert replayed(reader) == list(oracle_entries(reader)) == entries
            for shard in range(shards):
                assert replayed(reader, shard, shards) == list(
                    shard_entries(reader, shard, shards)
                )


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=600, max_value=3_000),
    st.integers(min_value=1, max_value=5),
    st.sampled_from((64, 257, 4096)),
)
def test_every_source_shards_identically(seed, events, shards, records_per_block):
    # One synthlog trace, every route to a shard's stream: the tuple
    # log's and each MJBL version's filtered replay_into(sink, k, n),
    # and the scalar oracle's shard filter.
    log = RecordingSink()
    synthesize_into(log, events, threads=4, objects=96, seed=seed)
    expected = [replayed(log, shard, shards) for shard in range(shards)]
    assert sum(len(stream) for stream in expected) == (
        log.access_count + shards * log.sync_count
    )
    with tempfile.TemporaryDirectory() as tmp:
        for compress in (None, 6):
            path = Path(tmp) / f"log-{compress}.mjbl"
            write_binary_log(log, path, records_per_block, compress=compress)
            with BinaryLogReader(path) as reader:
                for shard in range(shards):
                    assert replayed(reader, shard, shards) == expected[shard]
                    assert list(
                        shard_entries(reader, shard, shards)
                    ) == expected[shard]


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_recorded_program_logs_roundtrip_on_both_engines(
    program_seed, schedule_seed
):
    source = generate_program(program_seed)
    resolved = compile_source(source)
    plan = plan_instrumentation(resolved, PlannerConfig())
    binaries = []
    with tempfile.TemporaryDirectory() as tmp:
        for engine in ("ast", "compiled"):
            log = RecordingSink()
            engine_runner(engine)(
                resolved,
                sink=log,
                trace_sites=plan.trace_sites,
                policy=RandomPolicy(schedule_seed),
                max_steps=3_000_000,
            )
            path = Path(tmp) / f"{engine}.mjbl"
            write_binary_log(log, path)
            assert read_binary_log(path) == list(log.log), engine
            binaries.append(path.read_bytes())
    # Stream-identical engines ⇒ byte-identical at-rest logs.
    assert binaries[0] == binaries[1]
