"""Pin the scheduler's pick streams to the policies they stand in for.

``Scheduler.run`` does not call ``RandomPolicy.choose`` or (inside a
quantum) ``RoundRobinPolicy.choose``: it draws the index with the
policy generator's ``getrandbits(k)`` rejection loop, ``k`` cached per
runnable-list rebuild (the same stream as ``Random.choice``), and looks
the round-robin thread up directly.  Recorded schedules, witness traces
and the difflab corpus all depend on those shortcuts making exactly the
policies' choices, so these tests drive the real loop and a naive loop
that calls the policy (or ``random.Random(seed).choice``) side by side
and compare every pick — with ``pick_waiter`` draws interleaved into
the same random stream.
"""

import random

import pytest

from repro.runtime.scheduler import (
    RandomPolicy,
    RoundRobinPolicy,
    Scheduler,
    ThreadState,
    ThreadStatus,
)


def _bodies(lengths, log, pick):
    """One generator per thread: thread ``i`` logs a step ``lengths[i]``
    times, and on every third step draws a wakeup pick over a small
    waiter list, so waiter draws interleave with scheduling draws."""

    def body(thread_id, length):
        for step in range(length):
            entry = thread_id
            if step % 3 == 1:
                entry = (thread_id, pick([7, 8, 9][: 1 + step % 3]))
            log.append(entry)
            yield

    return [body(i, length) for i, length in enumerate(lengths)]


def _scheduled(policy, lengths):
    """Picks made by :meth:`Scheduler.run` under ``policy``."""
    log = []
    scheduler = Scheduler(policy)
    for i, body in enumerate(_bodies(lengths, log, policy.pick_waiter)):
        scheduler.register(ThreadState(i, f"T{i}", body))
    steps = scheduler.run()
    return log, steps


def _lengths(seed, n):
    rng = random.Random(seed * 31 + n)
    return [rng.randint(1, 12) for _ in range(n)]


@pytest.mark.parametrize(
    "n", [*range(1, 9), 15, 16, 17, 31, 32, 33, 63, 64, 65]
)
@pytest.mark.parametrize("seed", range(25))
def test_random_draw_matches_random_choice(seed, n):
    """The inline draw picks what ``Random(seed).choice`` picks on the
    same runnable list, for every list size the run passes through
    (threads finish at different times, so sizes shrink from ``n`` to
    1), and leaves the generator in the same state.  The sizes past 8
    straddle the powers of two where the draw's bit count steps."""
    lengths = _lengths(seed, n)
    policy = RandomPolicy(seed)
    log, steps = _scheduled(policy, lengths)

    rng = random.Random(seed)
    expected = []
    bodies = _bodies(lengths, expected, rng.choice)
    runnable = list(range(n))
    expected_steps = 0
    while runnable:
        chosen = rng.choice(runnable)
        expected_steps += 1
        try:
            next(bodies[chosen])
        except StopIteration:
            runnable.remove(chosen)

    assert log == expected
    assert steps == expected_steps == sum(lengths) + n
    assert policy._rng.getstate() == rng.getstate()


@pytest.mark.parametrize("quantum", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("n", range(1, 9))
def test_round_robin_shortcut_matches_choose(quantum, n):
    """The in-quantum direct lookup picks what
    ``RoundRobinPolicy.choose`` picks on the live runnable list."""
    lengths = _lengths(quantum, n)
    log, steps = _scheduled(RoundRobinPolicy(quantum), lengths)

    policy = RoundRobinPolicy(quantum)
    expected = []
    bodies = _bodies(lengths, expected, policy.pick_waiter)
    threads = [ThreadState(i, f"T{i}", body) for i, body in enumerate(bodies)]
    runnable = list(threads)
    while runnable:
        chosen = policy.choose(runnable)
        try:
            next(chosen.body)
        except StopIteration:
            runnable.remove(chosen)

    assert log == expected
    assert steps == sum(lengths) + n


def test_woken_thread_rejoins_the_runnable_set():
    """A thread made runnable through :meth:`Scheduler.wake` is picked
    again even though no step of its own changed the list."""
    scheduler = Scheduler(RandomPolicy(3))
    log = []

    def sleeper(state):
        log.append("sleep")
        state.status = ThreadStatus.WAITING
        yield
        log.append("woke")

    def waker(target):
        while target.status is not ThreadStatus.WAITING:
            yield
        log.append("wake")
        scheduler.wake(target)
        for _ in range(4):
            yield

    a = ThreadState(0, "a", None)
    a.body = sleeper(a)
    b = ThreadState(1, "b", waker(a))
    scheduler.register(a)
    scheduler.register(b)
    scheduler.run()
    assert log == ["sleep", "wake", "woke"]
    assert a.status is ThreadStatus.FINISHED
