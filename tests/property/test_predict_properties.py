"""Property tests for the predictive detectors.

Two layers, mirroring the battery's soundness story:

* **Stream-level theorems** (hypothesis event streams, no interpreter):
  ``hb ⊆ shb`` (dropping the lock edge only removes order, so
  prediction only adds reports), ``hybrid ⊆ shb`` (the conjunct only
  filters), and ``hybrid ⊆ reference-raw`` (every hybrid report is a
  disjoint-lockset pair the FullRace enumeration also admits).

* **Whole-program checks** (fuzzed MJ programs through both engines,
  including the ``sync_vocab``/``handoff_bias`` vocabularies): the same
  inclusions on real recorded traces, plus the MJBL round-trip — the
  predictors must report identically whether the log arrives as
  in-memory tuples, a mapped binary log, or per-shard streams decoded
  lazily by the sharded binary reader.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import HappensBeforeDetector
from repro.detector import (
    DetectorConfig,
    ReferenceDetector,
    predict_races,
)
from repro.lang import compile_source
from repro.lang.ast import AccessKind
from repro.runtime import (
    RandomPolicy,
    RecordingSink,
    engine_runner,
    replay_entries,
)
from repro.runtime.binlog import BinaryLogReader, write_binary_log
from repro.workloads.fuzz import generate_program

from ..binlog_oracle import replayed, shard_entries
from ..conftest import access

N_THREADS = 3
N_LOCATIONS = 3
N_LOCKS = 3

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


def materialize_exclusive(raw):
    """Well-formed, mutually-exclusive event sequence (block-structured
    locking, an enter is dropped while another thread holds the lock) —
    the streams a real monitor-based execution can produce, which is
    the domain of every happens-before theorem."""
    stacks = {t: [] for t in range(N_THREADS)}
    holder: dict = {}
    events = []
    for thread, action in raw:
        if action[0] == "access":
            _, loc, kind = action
            events.append(("access", thread, loc, kind))
        elif action[0] == "enter":
            _, lock = action
            if lock in stacks[thread] or holder.get(lock) is not None:
                continue
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
    """Deliver a materialized stream; worker threads are properly
    started from thread 0 first so join pseudo-locks and start edges
    exist (matching what the runtime always emits)."""
    for child in range(1, N_THREADS):
        sink.on_thread_start(0, child)
    for event in events:
        if event[0] == "access":
            _, thread, loc, kind = event
            sink.on_access_parts(*access(loc, "f", thread, kind))
        elif event[0] == "enter":
            sink.on_monitor_enter(event[1], event[2], reentrant=False)
        else:
            sink.on_monitor_exit(event[1], event[2], reentrant=False)


def locations(detector) -> set:
    return {str(location) for location in detector.racy_locations}


class TestStreamTheorems:
    @settings(max_examples=250, deadline=None)
    @given(streams)
    def test_hb_subset_of_shb(self, raw):
        """Prediction only adds reports: every HB-observed race is
        SHB-predicted (the predictive-superset-break violation class
        guards exactly this at the battery level)."""
        from repro.detector import SHBPredictor

        events = materialize_exclusive(raw)
        hb, shb = HappensBeforeDetector(), SHBPredictor()
        feed(hb, events)
        feed(shb, events)
        assert locations(hb) <= locations(shb)

    @settings(max_examples=250, deadline=None)
    @given(streams)
    def test_hybrid_subset_of_shb(self, raw):
        from repro.detector import HybridPredictor, SHBPredictor

        events = materialize_exclusive(raw)
        shb, hybrid = SHBPredictor(), HybridPredictor()
        feed(shb, events)
        feed(hybrid, events)
        assert locations(hybrid) <= locations(shb)

    @settings(max_examples=250, deadline=None)
    @given(streams)
    def test_hybrid_subset_of_reference_raw(self, raw):
        """Every hybrid report is a lockset race: the conjunct uses the
        reference-raw admission rule (real locks + S_j pseudo-locks, no
        ownership), so FullRace without ownership enumerates it too."""
        from repro.detector import HybridPredictor

        events = materialize_exclusive(raw)
        hybrid = HybridPredictor()
        raw_ref = ReferenceDetector(DetectorConfig(ownership=False))
        feed(hybrid, events)
        feed(raw_ref, events)
        assert locations(hybrid) <= locations(raw_ref)

    @settings(max_examples=150, deadline=None)
    @given(streams)
    def test_shb_reports_only_multi_thread_locations(self, raw):
        """Precision sanity for the predictor: a predicted location was
        touched by ≥2 threads with a write involved — prediction never
        invents accesses."""
        from repro.detector import SHBPredictor

        events = materialize_exclusive(raw)
        shb = SHBPredictor()
        feed(shb, events)
        for key in shb.racy_locations:
            touches = [
                (e[1], e[3])
                for e in events
                if e[0] == "access" and e[2] == key.object_uid
            ]
            assert len({t for t, _ in touches}) >= 2
            assert any(kind is AccessKind.WRITE for _, kind in touches)


class TestBinlogRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(raw=streams, mode=st.sampled_from(["shb", "hybrid"]))
    def test_tuple_binary_and_sharded_paths_agree(
        self, raw, mode, tmp_path_factory
    ):
        """The MJBL round-trip contract extended to prediction: the
        same reports through every log shape, and the lazy sharded
        binary reader decodes exactly the per-shard stream the tuple
        log's filtered replay_into delivers."""
        events = materialize_exclusive(raw)
        sink = RecordingSink()
        feed(sink, events)

        tmp = tmp_path_factory.mktemp("predictlog")
        bin_path = write_binary_log(sink, tmp / "log.mjbl")

        def key(predictor):
            return [
                (str(r.location), r.kind, r.prior_thread, r.current_thread)
                for r in predictor.reports
            ]

        baseline = key(predict_races(sink, mode))
        assert key(predict_races(list(sink.log), mode)) == baseline
        assert key(predict_races(bin_path, mode)) == baseline

        with BinaryLogReader(bin_path) as reader:
            assert key(predict_races(reader, mode)) == baseline
            for shards in (1, 2, 3):
                tuple_shards = [
                    replayed(sink, shard, shards) for shard in range(shards)
                ]
                for shard in range(shards):
                    lazy = replayed(reader, shard, shards)
                    assert lazy == tuple_shards[shard]
                    assert lazy == list(shard_entries(reader, shard, shards))
                    assert key(predict_races(lazy, mode)) == key(
                        predict_races(tuple_shards[shard], mode)
                    )


#: (program kwargs, label) pairs covering the plain, condition-sync,
#: and handoff vocabularies.
VOCABULARIES = [
    ({}, "plain"),
    ({"sync_vocab": True}, "sync-vocab"),
    ({"handoff_bias": True}, "handoff"),
]


class TestFuzzedPrograms:
    def record(self, source, engine, schedule_seed):
        sink = RecordingSink()
        engine_runner(engine)(
            compile_source(source),
            sink=sink,
            policy=RandomPolicy(schedule_seed),
            max_steps=3_000_000,
        )
        return sink

    @pytest.mark.parametrize("engine", ["ast", "compiled"])
    @pytest.mark.parametrize("kwargs,label", VOCABULARIES)
    def test_inclusions_hold_on_recorded_traces(self, engine, kwargs, label):
        for program_seed in range(6):
            source = generate_program(
                program_seed, n_workers=3, n_fields=3, n_locks=2, **kwargs
            )
            for schedule_seed in (0, 3):
                sink = self.record(source, engine, schedule_seed)
                hb = HappensBeforeDetector()
                replay_entries(sink.log, hb)
                raw_ref = ReferenceDetector(DetectorConfig(ownership=False))
                replay_entries(sink.log, raw_ref)
                shb = predict_races(sink, "shb")
                hybrid = predict_races(sink, "hybrid")
                context = (label, engine, program_seed, schedule_seed)
                assert locations(hb) <= locations(shb), context
                assert locations(hybrid) <= locations(shb), context
                assert locations(hybrid) <= locations(raw_ref), context

    @pytest.mark.parametrize("kwargs,label", VOCABULARIES)
    def test_engines_predict_identically(self, kwargs, label):
        """Same (program, schedule) on both engines → the recorded
        traces yield identical predicted reports."""
        for program_seed in range(4):
            source = generate_program(
                program_seed, n_workers=3, n_fields=3, n_locks=2, **kwargs
            )
            per_engine = []
            for engine in ("ast", "compiled"):
                sink = self.record(source, engine, schedule_seed=1)
                per_engine.append(
                    [
                        (str(r.location), r.kind)
                        for r in predict_races(sink, "hybrid").reports
                    ]
                )
            assert per_engine[0] == per_engine[1], (label, program_seed)
