"""The incremental scheduler loop against the rebuild-every-step oracle.

``Scheduler.run`` keeps its runnable list between steps and rebuilds it
only when it may be stale (registration, the stepped thread leaving
RUNNABLE, a wakeup, or any thread still BLOCKED).  A missed staleness
rule would show up as a different pick somewhere later in the run, so
these properties run each program twice per engine and policy — once
under the production scheduler, once under
:class:`tests.scheduler_oracle.OracleScheduler` — and require the same
output, per-thread and total step counts, ``RecordingSink`` event log,
error type and text, and final random-generator state.

The programs cover every way a thread changes status: fuzzed programs
with the wait/notifyall/barrier vocabulary, monitor contention and
joins; single-``notify`` token pools (``pick_waiter`` draws); unguarded
waits that end in a lost-wakeup deadlock; opposite lock orders that end
in a monitor deadlock; and small step budgets that end in
``StepLimitExceeded``.

The scheduler also emits each thread's end event when the thread's body
returns.  The thread-end tests check that contract on both engines
under both loops: exactly one end event per finished thread, none for a
thread whose body raised or that never finished, and no event of a
thread after its end event.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import compile_source
from repro.runtime import (
    RandomPolicy,
    RecordingSink,
    RoundRobinPolicy,
    ThreadStatus,
    engine_class,
)
from repro.workloads.fuzz import ProgramFuzzer

from ..scheduler_oracle import use_oracle

ENGINES = ("ast", "compiled")


def token_pool(waiters: int, tokens: int, notify: str) -> str:
    """``waiters`` consumers take tokens under a guarded wait; one
    producer adds ``tokens`` tokens, each with a ``notify``/``notifyall``.
    With fewer tokens than consumers the run deadlocks."""
    consumers = "\n".join(
        f"    var c{i} = new Consumer(s); start c{i};" for i in range(waiters)
    )
    joins = "\n".join(f"    join c{i};" for i in range(waiters))
    return f"""
class Main {{
  static def main() {{
    var s = new Pool();
    s.tokens = 0;
    s.taken = 0;
{consumers}
    var p = new Producer(s); start p;
{joins}
    join p;
    print s.taken;
  }}
}}
class Pool {{ field tokens; field taken; }}
class Consumer {{
  field s;
  def init(s) {{ this.s = s; }}
  def run() {{
    var s = this.s;
    sync (s) {{
      while (s.tokens == 0) {{ wait s; }}
      s.tokens = s.tokens - 1;
      s.taken = s.taken + 1;
    }}
  }}
}}
class Producer {{
  field s;
  def init(s) {{ this.s = s; }}
  def run() {{
    var s = this.s;
    var i = 0;
    while (i < {tokens}) {{
      sync (s) {{ s.tokens = s.tokens + 1; {notify} s; }}
      i = i + 1;
    }}
  }}
}}
"""


def unguarded_wait(spin: int) -> str:
    """The waiter waits without a guard: if the notifier's single
    ``notify`` runs first, the wakeup is lost and the run deadlocks."""
    return f"""
class Main {{
  static def main() {{
    var s = new Cell();
    var w = new Waiter(s); var n = new Notifier(s);
    start w; start n; join w; join n;
    print 1;
  }}
}}
class Cell {{ field x; }}
class Waiter {{
  field s;
  def init(s) {{ this.s = s; }}
  def run() {{
    var s = this.s;
    var i = 0;
    while (i < {spin}) {{ i = i + 1; }}
    sync (s) {{ wait s; }}
  }}
}}
class Notifier {{
  field s;
  def init(s) {{ this.s = s; }}
  def run() {{
    var s = this.s;
    sync (s) {{ s.x = 1; notify s; }}
  }}
}}
"""


def lock_order(rounds: int) -> str:
    """Two workers take the same two monitors in opposite orders:
    contention on every round, a monitor deadlock on some schedules."""
    return f"""
class Main {{
  static def main() {{
    var a = new Cell(); var b = new Cell();
    var u = new Worker(a, b); var v = new Worker(b, a);
    start u; start v; join u; join v;
    print a.x + b.x;
  }}
}}
class Cell {{ field x; }}
class Worker {{
  field p; field q;
  def init(p, q) {{ this.p = p; this.q = q; }}
  def run() {{
    var i = 0;
    while (i < {rounds}) {{
      sync (this.p) {{ sync (this.q) {{ this.p.x = i; this.q.x = i; }} }}
      i = i + 1;
    }}
  }}
}}
"""


programs = st.one_of(
    st.builds(
        lambda seed, workers: ProgramFuzzer(
            seed, n_workers=workers, sync_vocab=True, max_stmts=4
        ).generate(),
        st.integers(0, 10_000),
        st.integers(2, 3),
    ),
    st.builds(
        token_pool,
        st.integers(1, 3),
        st.integers(0, 4),
        st.sampled_from(["notify", "notifyall"]),
    ),
    st.builds(unguarded_wait, st.integers(0, 3)),
    st.builds(lock_order, st.integers(1, 3)),
)

policies = st.one_of(
    st.builds(lambda seed: ("random", seed), st.integers(0, 2**32)),
    st.builds(lambda quantum: ("round-robin", quantum), st.integers(1, 6)),
)


def _policy(spec):
    kind, arg = spec
    return RandomPolicy(arg) if kind == "random" else RoundRobinPolicy(arg)


def observe(resolved, engine, policy_spec, max_steps, oracle):
    """Everything the two loops must agree on, as one comparable value."""
    sink = RecordingSink()
    policy = _policy(policy_spec)
    runner = engine_class(engine)(
        resolved, sink=sink, policy=policy, max_steps=max_steps
    )
    if oracle:
        use_oracle(runner)
    try:
        runner.run()
        error = None
    except Exception as exc:  # noqa: BLE001 — error parity is the point.
        error = (type(exc).__name__, str(exc))
    return {
        "error": error,
        "output": list(runner.output),
        "steps": runner._scheduler.total_steps,
        "thread_steps": [t.steps for t in runner._threads],
        "finished": [
            t.status is ThreadStatus.FINISHED for t in runner._threads
        ],
        # A snapshot: after a deadlock, dropping the runner closes its
        # suspended generators, whose sync exits still reach the sink.
        "log": list(sink.log),
        "rng": policy._rng.getstate() if policy_spec[0] == "random" else None,
    }


@settings(max_examples=80, deadline=None)
@given(
    source=programs,
    policy_spec=policies,
    max_steps=st.one_of(st.just(200_000), st.integers(1, 400)),
)
def test_incremental_loop_matches_oracle(source, policy_spec, max_steps):
    resolved = compile_source(source)
    for engine in ENGINES:
        assert observe(
            resolved, engine, policy_spec, max_steps, oracle=False
        ) == observe(resolved, engine, policy_spec, max_steps, oracle=True)


def test_every_ending_is_reached():
    """The program families above really do reach each ending the
    property is meant to cover, on both loops."""
    endings = set()
    cases = [
        (token_pool(3, 3, "notify"), ("random", 7), 200_000),
        (token_pool(3, 1, "notify"), ("random", 7), 200_000),
        (token_pool(2, 2, "notifyall"), ("round-robin", 2), 200_000),
        (unguarded_wait(3), ("round-robin", 1), 200_000),
        (lock_order(3), ("round-robin", 2), 200_000),
        (token_pool(3, 3, "notify"), ("random", 7), 40),
    ]
    for source, policy_spec, max_steps in cases:
        resolved = compile_source(source)
        for engine in ENGINES:
            new = observe(resolved, engine, policy_spec, max_steps, False)
            assert new == observe(
                resolved, engine, policy_spec, max_steps, True
            )
            error = new["error"]
            if error is None:
                endings.add("finished")
            elif "lost wakeup" in error[1]:
                endings.add("lost-wakeup")
            else:
                endings.add(error[0])
    assert endings == {
        "finished",
        "lost-wakeup",
        "DeadlockError",
        "StepLimitExceeded",
    }


def child_raises(workers: int) -> str:
    """``workers`` threads run and are joined; then one more thread
    dereferences null after its first access, ending the run with its
    error while the main thread waits to join it."""
    starts = "\n".join(
        f"    var w{i} = new Worker(c); start w{i};" for i in range(workers)
    )
    joins = "\n".join(f"    join w{i};" for i in range(workers))
    return f"""
class Main {{
  static def main() {{
    var c = new Cell();
    c.x = 0;
{starts}
{joins}
    var f = new Faulty(c); start f;
    join f;
  }}
}}
class Cell {{ field x; field next; }}
class Worker {{
  field c;
  def init(c) {{ this.c = c; }}
  def run() {{ sync (this.c) {{ this.c.x = this.c.x + 1; }} }}
}}
class Faulty {{
  field c;
  def init(c) {{ this.c = c; }}
  def run() {{ this.c.x = 1; print this.c.next.x; }}
}}
"""


_END = RecordingSink.END
_ACCESS = RecordingSink.ACCESS


def _actor(entry):
    """The thread a ``RecordingSink`` entry belongs to: an access names
    it at index 3, every other entry at index 1 (the parent of a start,
    the joiner of a join)."""
    return entry[3] if entry[0] == _ACCESS else entry[1]


def thread_end_violations(log, finished) -> list:
    """How ``log`` breaks the thread-end contract: exactly one end event
    per finished thread, none for any other (a thread whose body raised,
    or one still live when the run stopped), and each end event the last
    entry its thread acts in.  ``finished[tid]`` says whether thread
    ``tid`` finished."""
    problems = []
    for tid, done in enumerate(finished):
        ends = [i for i, entry in enumerate(log) if entry == (_END, tid)]
        if len(ends) != (1 if done else 0):
            problems.append((tid, done, len(ends)))
            continue
        later = [
            entry for entry in log[ends[0] + 1:] if _actor(entry) == tid
        ] if ends else []
        if later:
            problems.append((tid, "acts after its end", later[0]))
    return problems


@pytest.mark.parametrize("oracle", [False, True], ids=["scheduler", "oracle"])
@pytest.mark.parametrize("engine", ENGINES)
def test_thread_end_events(engine, oracle):
    """One end event per finished thread, none for the thread whose body
    raised or for threads cut off by a deadlock or the step budget, on
    both engines under both loops."""
    cases = [
        (token_pool(3, 3, "notify"), ("random", 7), 200_000, None),
        (token_pool(2, 2, "notifyall"), ("round-robin", 2), 200_000, None),
        (child_raises(2), ("round-robin", 10), 200_000, "MJRuntimeError"),
        (child_raises(3), ("random", 2002), 200_000, "MJRuntimeError"),
        (unguarded_wait(3), ("round-robin", 1), 200_000, "DeadlockError"),
        (token_pool(3, 3, "notify"), ("random", 7), 40, "StepLimitExceeded"),
    ]
    for source, policy_spec, max_steps, expected in cases:
        run = observe(
            compile_source(source), engine, policy_spec, max_steps, oracle
        )
        log, finished = run["log"], run["finished"]
        assert (run["error"] or (None,))[0] == expected
        assert thread_end_violations(log, finished) == []
        assert sum(entry[0] == _END for entry in log) == sum(finished)
        assert ((_END, 0) in log) == (expected is None)
        if expected == "MJRuntimeError":
            # The joined workers ended; the faulty thread acted, then
            # raised, and got no end event.
            faulty = len(finished) - 1
            assert sum(finished) == len(finished) - 2
            assert any(_actor(entry) == faulty for entry in log)
            assert (_END, faulty) not in log


@settings(max_examples=30, deadline=None)
@given(
    source=programs,
    policy_spec=policies,
    max_steps=st.one_of(st.just(200_000), st.integers(1, 400)),
)
def test_thread_end_contract_on_fuzzed_programs(source, policy_spec, max_steps):
    resolved = compile_source(source)
    for engine in ENGINES:
        for oracle in (False, True):
            run = observe(resolved, engine, policy_spec, max_steps, oracle)
            assert thread_end_violations(run["log"], run["finished"]) == []
