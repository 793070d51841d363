"""Fuzz-driven differential properties over whole programs.

Hundreds of random-but-well-formed MJ programs (terminating,
deadlock-free by construction) are pushed through the entire stack:

* the interpreter completes them under multiple schedules, printing
  identical output for identical (program, schedule) pairs;
* loop peeling — an actual program transformation — preserves output
  exactly, per schedule;
* the full static pipeline (race set + weaker-than + peeling) never
  crashes and yields a trace set within bounds;
* the Definition 1 guarantee holds on the live event stream: the
  FullRace oracle's racy locations are covered by the unoptimized
  detector's reports;
* schedule record/replay reproduces the event stream bit-for-bit.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.detector import RaceDetector, ReferenceDetector
from repro.instrument import PlannerConfig, peel_loops, plan_instrumentation
from repro.lang import compile_source
from repro.runtime import (
    RandomPolicy,
    RecordingSink,
    record_run,
    replay_run,
    run_program,
)
from repro.workloads.fuzz import generate_program

program_seeds = st.integers(min_value=0, max_value=10_000)
schedule_seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=60, deadline=None)
@given(program_seeds, schedule_seeds)
def test_programs_terminate_deterministically(program_seed, schedule_seed):
    source = generate_program(program_seed)
    outputs = []
    for _ in range(2):
        resolved = compile_source(source)
        result = run_program(
            resolved, policy=RandomPolicy(schedule_seed), max_steps=3_000_000
        )
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


@settings(max_examples=50, deadline=None)
@given(program_seeds, schedule_seeds)
def test_loop_peeling_preserves_semantics(program_seed, schedule_seed):
    # Single-worker programs: main blocks on the join, so execution is
    # sequential and the output is interleaving-independent.  (On racy
    # multi-worker programs peeling legitimately perturbs the schedule
    # — it changes the preemption-point structure — so outputs can
    # differ the same way two seeds' outputs differ.)
    source = generate_program(program_seed, n_workers=1)
    resolved_plain = compile_source(source)
    plain = run_program(
        resolved_plain, policy=RandomPolicy(schedule_seed), max_steps=3_000_000
    )
    resolved_peeled = compile_source(source)
    peel_loops(resolved_peeled)
    peeled = run_program(
        resolved_peeled, policy=RandomPolicy(schedule_seed), max_steps=3_000_000
    )
    assert peeled.output == plain.output


@settings(max_examples=30, deadline=None)
@given(program_seeds, schedule_seeds)
def test_loop_peeling_preserves_synchronized_totals(program_seed, schedule_seed):
    # Multi-worker version of the same property, on the schedule-
    # independent part of the state: every generated program's printed
    # values depend only on data, not schedule, once all accesses are
    # forced through one lock.  We approximate by checking the peeled
    # program still terminates and prints the same *number* of lines.
    source = generate_program(program_seed)
    resolved_plain = compile_source(source)
    plain = run_program(
        resolved_plain, policy=RandomPolicy(schedule_seed), max_steps=3_000_000
    )
    resolved_peeled = compile_source(source)
    peel_loops(resolved_peeled)
    peeled = run_program(
        resolved_peeled, policy=RandomPolicy(schedule_seed), max_steps=3_000_000
    )
    assert len(peeled.output) == len(plain.output)


@settings(max_examples=40, deadline=None)
@given(program_seeds)
def test_full_static_pipeline_is_robust(program_seed):
    source = generate_program(program_seed)
    resolved = compile_source(source)
    plan = plan_instrumentation(resolved, PlannerConfig())
    assert plan.stats.sites_instrumented <= len(resolved.sites)
    for site_id in plan.trace_sites:
        assert site_id in resolved.sites


@settings(max_examples=40, deadline=None)
@given(program_seeds, schedule_seeds)
def test_definition1_on_live_streams(program_seed, schedule_seed):
    source = generate_program(program_seed)
    resolved = compile_source(source)
    recording = RecordingSink()
    run_program(
        resolved,
        sink=recording,
        policy=RandomPolicy(schedule_seed),
        max_steps=3_000_000,
    )
    oracle = ReferenceDetector()
    detector = RaceDetector()
    recording.replay_into(oracle)
    recording.replay_into(detector)
    assert oracle.racy_locations <= detector.reports.racy_locations


@settings(max_examples=30, deadline=None)
@given(program_seeds, schedule_seeds)
def test_record_replay_reproduces_event_stream(program_seed, schedule_seed):
    source = generate_program(program_seed)
    resolved = compile_source(source)
    original = RecordingSink()
    _, trace = record_run(
        resolved,
        sink=original,
        inner_policy=RandomPolicy(schedule_seed),
        max_steps=3_000_000,
    )
    resolved2 = compile_source(source)
    replayed = RecordingSink()
    replay_run(resolved2, trace, sink=replayed, max_steps=3_000_000)
    assert replayed.log == original.log


# -- condition-synchronization vocabulary (sync_vocab / handoff_bias) -----


def test_default_vocabulary_emits_no_condition_sync():
    # Byte-stability contract: without the opt-in flags the generator
    # draws nothing from the sync vocabulary, so existing (seed →
    # program) mappings — and the committed corpus built on them —
    # cannot shift.
    for seed in range(40):
        source = generate_program(seed)
        assert "wait " not in source
        assert "notify" not in source
        assert "barrier " not in source
        assert "class Token" not in source


def test_opt_in_vocabularies_leave_older_programs_unchanged():
    # Digests of seeds 0..39 as generated before calls_vocab existed:
    # its draws are gated, so no existing (seed -> program) mapping
    # moves.
    expected = {
        (): "848af492407e7f2b6b8775e32081b863a5a602c97b6826865395ea9df1ba7a0a",
        ("sync_vocab",): (
            "19e76f836d587fc188346965a47c5ceeb3bb4f2cc8bb1af7f38a4ba782af36c9"
        ),
        ("handoff_bias",): (
            "f364f07ac2ca2d099566857e402c6effff19ce65c8d098a6cad4444881829c03"
        ),
    }
    for flags, digest in expected.items():
        kwargs = {flag: True for flag in flags}
        if flags:
            kwargs["n_workers"] = 3
        sha = hashlib.sha256()
        for seed in range(40):
            sha.update(generate_program(seed, **kwargs).encode())
        assert sha.hexdigest() == digest, flags


def test_calls_vocab_reaches_every_call_and_return_shape():
    sources = [generate_program(seed, calls_vocab=True) for seed in range(30)]
    text = "\n".join(sources)
    for shape in (" = this.h", "acc = acc + this.h", "return this.h", "    this.h"):
        assert shape in text, shape
    # Early returns sit inside loops, branches and sync blocks.
    for opener in ("while (", "} else {", "sync ("):
        assert any(
            _early_return_inside(source, opener) for source in sources
        ), opener


def _early_return_inside(source: str, opener: str) -> bool:
    """Whether some guarded ``return`` is nested in a block that
    ``opener`` starts (judged by indentation)."""
    lines = source.splitlines()
    for index, line in enumerate(lines):
        if opener not in line:
            continue
        depth = len(line) - len(line.lstrip())
        for inner in lines[index + 1 :]:
            inner_depth = len(inner) - len(inner.lstrip())
            if inner_depth <= depth:
                break
            if inner.strip().startswith("return "):
                return True
    return False


@settings(max_examples=30, deadline=None)
@given(program_seeds, schedule_seeds)
def test_calls_vocab_programs_terminate_deterministically(
    program_seed, schedule_seed
):
    # Helpers call only lower-numbered helpers (no recursion) and never
    # under a held monitor (the global lock order still holds).
    source = generate_program(
        program_seed, n_workers=3, sync_vocab=True, calls_vocab=True
    )
    outputs = []
    for _ in range(2):
        result = run_program(
            compile_source(source),
            policy=RandomPolicy(schedule_seed),
            max_steps=3_000_000,
        )
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


def test_sync_vocab_reaches_condition_statements():
    waits = barriers = 0
    for seed in range(30):
        source = generate_program(
            seed, n_workers=3, n_fields=3, n_locks=2, sync_vocab=True
        )
        if "wait " in source:
            # Every emitted wait sits under a guard released by a
            # published flag + notifyall.
            assert "notifyall" in source
            waits += 1
        if "barrier " in source:
            barriers += 1
    assert waits > 0 and barriers > 0


def test_handoff_bias_threads_tokens_through_handshakes():
    tokens = 0
    for seed in range(30):
        source = generate_program(
            seed, n_workers=3, n_fields=3, n_locks=2, handoff_bias=True
        )
        if "class Token" in source:
            assert ".v =" in source or ".v;" in source
            tokens += 1
    assert tokens > 0


@settings(max_examples=40, deadline=None)
@given(program_seeds, schedule_seeds)
def test_sync_vocab_programs_terminate_deterministically(
    program_seed, schedule_seed
):
    # Deadlock freedom by construction: flags are published (set +
    # notifyall) before any blocking statement, barriers use a global
    # party count between top-level phases, and guard re-checks absorb
    # spurious or early wakeups.  Plus the usual determinism contract.
    source = generate_program(
        program_seed, n_workers=3, n_fields=3, n_locks=2, sync_vocab=True
    )
    outputs = []
    for _ in range(2):
        resolved = compile_source(source)
        result = run_program(
            resolved, policy=RandomPolicy(schedule_seed), max_steps=3_000_000
        )
        outputs.append(result.output)
    assert outputs[0] == outputs[1]


@settings(max_examples=25, deadline=None)
@given(program_seeds, schedule_seeds)
def test_handoff_bias_record_replay_reproduces_event_stream(
    program_seed, schedule_seed
):
    # Notify wakeup choices (pick_waiter) are scheduling decisions:
    # the recorded trace must reproduce the log bit-for-bit, waits,
    # notifies and all.
    source = generate_program(
        program_seed, n_workers=3, n_fields=3, n_locks=2, handoff_bias=True
    )
    resolved = compile_source(source)
    original = RecordingSink()
    _, trace = record_run(
        resolved,
        sink=original,
        inner_policy=RandomPolicy(schedule_seed),
        max_steps=3_000_000,
    )
    replayed = RecordingSink()
    replay_run(compile_source(source), trace, sink=replayed, max_steps=3_000_000)
    assert replayed.log == original.log
