"""Pinned output of the hb and eraser baselines on the serve-mix inputs.

``repro serve`` replays every job's event stream through the two
baseline axes (``HappensBeforeDetector`` and ``EraserDetector``).  The
difflab corpus pins their verdicts on small programs only; this module
pins every report field, the racy location and object sets, and the
race counts on the inputs the service benchmark sends:

* tsp2 at scale 8, mtrt2 at scale 6 and sor2 at scale 16, recorded on
  the compiled engine under ``RandomPolicy(2002)`` and replayed from
  tuples, as the service replays program jobs;
* an 8k-event ``synthlog`` trace at seed 2002, replayed from MJBL v1
  and v2, as the service replays uploads.

A hypothesis property then checks that the ``AccessEvent`` API and the
scalar ``on_access_parts`` path give the same answer on any stream.
"""

import hashlib
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import EraserDetector, HappensBeforeDetector
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang import compile_source
from repro.lang.ast import AccessKind
from repro.runtime import (
    RandomPolicy,
    RecordingSink,
    engine_runner,
    replay_entries,
)
from repro.runtime.binlog import open_log
from repro.runtime.events import AccessEvent, MemoryLocation, ObjectKind
from repro.runtime.synthlog import synthesize_file
from repro.workloads import ALL_WORKLOADS

SEED = 2002
UPLOAD_EVENTS = 8_000
AXES = (("hb", HappensBeforeDetector), ("eraser", EraserDetector))

#: input -> axis -> (races, digest), computed before the baselines took
#: their scalar access path; any drift in a report field, a racy set or
#: a count changes the digest.
PINNED = {
    "tsp2-8": {
        "hb": (148, "e818524e6a50459e"),
        "eraser": (7, "aff96ffa9b5002c2"),
    },
    "mtrt2-6": {
        "hb": (3, "536fdfb5b1baa3a6"),
        "eraser": (4, "eaffec01955ab2d5"),
    },
    "sor2-16": {
        "hb": (21, "d9a8d5a5ac1ead20"),
        "eraser": (35, "9b3917ac24b9cd3a"),
    },
    "upload": {
        "hb": (70, "a1ae332203680655"),
        "eraser": (26, "b62f69365e285c1a"),
    },
}


def axis_digest(detector) -> str:
    """A hash of every report field (types included, through ``repr``),
    the sorted racy locations and objects, and the counts."""
    lines = [
        repr([(item.name, getattr(report, item.name)) for item in fields(report)])
        for report in detector.reports
    ]
    lines.append(repr(sorted(str(location) for location in detector.racy_locations)))
    lines.append(repr(sorted(str(label) for label in detector.racy_objects)))
    lines.append(
        f"{len(detector.reports)} {len(detector.racy_locations)} "
        f"{len(detector.racy_objects)}"
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def axis_results(replay) -> dict:
    results = {}
    for name, detector_class in AXES:
        detector = detector_class()
        replay(detector)
        assert all(
            type(location) is MemoryLocation
            for location in detector.racy_locations
        )
        results[name] = (len(detector.reports), axis_digest(detector))
    return results


def program_log(program: str, scale: int) -> list:
    source = ALL_WORKLOADS[program].build(scale)
    resolved = compile_source(source, filename=f"{program}.mj")
    plan = plan_instrumentation(resolved, PlannerConfig())
    log = RecordingSink()
    engine_runner("compiled")(
        resolved,
        sink=log,
        trace_sites=plan.trace_sites,
        policy=RandomPolicy(SEED),
    )
    return log.log


class TestPinnedAxes:
    @pytest.mark.parametrize(
        "program,scale", [("tsp2", 8), ("mtrt2", 6), ("sor2", 16)]
    )
    def test_program_axes(self, program, scale):
        entries = program_log(program, scale)
        results = axis_results(lambda sink: replay_entries(entries, sink))
        assert results == PINNED[f"{program}-{scale}"]

    @pytest.mark.parametrize("compress", [None, 6], ids=["v1", "v2"])
    def test_upload_axes(self, tmp_path, compress):
        path = tmp_path / "upload.mjbl"
        synthesize_file(path, UPLOAD_EVENTS, compress=compress, seed=SEED)
        with open_log(path) as reader:
            results = axis_results(reader.replay_into)
        assert results == PINNED["upload"]


# ----------------------------------------------------------------------
# Event API and scalar path agree.

N_THREADS = 3

access = st.tuples(
    st.just(RecordingSink.ACCESS),
    st.integers(0, 3),
    st.sampled_from(["f", "g"]),
    st.integers(0, N_THREADS - 1),
    st.sampled_from([AccessKind.READ, AccessKind.WRITE]),
    st.integers(0, 5),
    st.sampled_from([ObjectKind.INSTANCE, ObjectKind.ARRAY]),
    st.sampled_from(["Obj#1", "Obj#2"]),
)
thread = st.integers(0, N_THREADS - 1)
#: Objects used both as monitors and as condition variables.
monitor = st.integers(100, 102)
step = st.one_of(
    access,
    access,
    st.tuples(st.just("lock"), thread, monitor),
    st.tuples(st.just("unlock"), thread),
    st.tuples(st.just(RecordingSink.JOIN), thread, thread),
    st.tuples(st.just(RecordingSink.END), thread),
    st.tuples(st.just(RecordingSink.WAIT), thread, monitor),
    st.tuples(st.just(RecordingSink.NOTIFY), thread, monitor, st.booleans()),
)
streams = st.lists(step, max_size=80)


def materialize(steps) -> list:
    """Log entries from raw steps, with block-structured monitors a
    real execution can produce: an enter of a lock another thread
    holds is dropped, a re-entry is marked reentrant, and every held
    monitor is exited at the end.  Workers are started first."""
    entries = [(RecordingSink.START, 0, child) for child in range(1, N_THREADS)]
    stacks = {t: [] for t in range(N_THREADS)}
    holder = {}
    for item in steps:
        if item[0] == "lock":
            _, thread_id, lock_uid = item
            reentrant = lock_uid in stacks[thread_id]
            if not reentrant and lock_uid in holder:
                continue
            holder[lock_uid] = thread_id
            stacks[thread_id].append(lock_uid)
            entries.append((RecordingSink.ENTER, thread_id, lock_uid, reentrant))
        elif item[0] == "unlock":
            if stacks[item[1]]:
                entries.append(_exit(stacks, holder, item[1]))
        else:
            entries.append(item)
    for thread_id, stack in stacks.items():
        while stack:
            entries.append(_exit(stacks, holder, thread_id))
    return entries


def _exit(stacks, holder, thread_id) -> tuple:
    stack = stacks[thread_id]
    lock_uid = stack.pop()
    reentrant = lock_uid in stack
    if not reentrant:
        del holder[lock_uid]
    return (RecordingSink.EXIT, thread_id, lock_uid, reentrant)


def deliver_events(entries, sink) -> None:
    """The same stream as :func:`replay_entries`, with every access
    delivered as an :class:`AccessEvent` through ``on_access``."""
    for entry in entries:
        if entry[0] == RecordingSink.ACCESS:
            sink.on_access(
                AccessEvent(
                    location=MemoryLocation(entry[1], entry[2]),
                    thread_id=entry[3],
                    kind=entry[4],
                    site_id=entry[5],
                    object_kind=entry[6],
                    object_label=entry[7],
                )
            )
        else:
            # One-entry replay: the sync event plus an on_run_end, which
            # neither baseline observes.
            replay_entries([entry], sink)


def observed(detector):
    return (
        detector.reports,
        detector.racy_locations,
        detector.racy_objects,
    )


class TestEventApiMatchesScalarPath:
    @settings(max_examples=200, deadline=None)
    @given(streams)
    def test_same_reports_and_racy_sets(self, steps):
        entries = materialize(steps)
        for _, detector_class in AXES:
            by_event, by_parts = detector_class(), detector_class()
            deliver_events(entries, by_event)
            replay_entries(entries, by_parts)
            assert observed(by_event) == observed(by_parts)
