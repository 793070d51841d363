"""Dining philosophers: a nested-lock workload with no dataraces.

Every fork is only ever used as a monitor and each eating counter
belongs to one philosopher, so neither fork order yields a race.  The
naive order can deadlock under some schedules (the scheduler then
raises ``DeadlockError``); the seeds below all complete.
"""

from repro.detector import RaceDetector
from repro.lang import compile_source
from repro.runtime import RandomPolicy, run_program
from repro.workloads import ALL_WORKLOADS, philosophers


def run_with_detector(source, policy=None):
    resolved = compile_source(source)
    races = RaceDetector(resolved=resolved)
    result = run_program(resolved, sink=races, policy=policy)
    return result, races


class TestNaiveVariant:
    def test_completes(self):
        result, _ = run_with_detector(philosophers.source(3))
        assert result.output == ["meals=6"]

    def test_no_dataraces(self):
        _, races = run_with_detector(philosophers.source(3))
        assert races.reports.object_count == 0

    def test_no_dataraces_across_sizes(self):
        for n in (2, 3, 4):
            _, races = run_with_detector(philosophers.source(n))
            assert races.reports.object_count == 0, f"n={n}"


class TestOrderedVariant:
    def test_no_dataraces_across_seeds(self):
        for seed in range(5):
            result, races = run_with_detector(
                philosophers.source(3, ordered=True),
                policy=RandomPolicy(seed),
            )
            assert result.output == ["meals=6"], f"seed {seed}"
            assert races.reports.object_count == 0, f"seed {seed}"


class TestSpecs:
    def test_registered(self):
        assert "philosophers" in ALL_WORKLOADS
        assert "philosophers-ordered" in ALL_WORKLOADS

    def test_thread_counts(self):
        for ordered in (False, True):
            result, _ = run_with_detector(
                philosophers.source(3, ordered=ordered)
            )
            assert result.threads_created == 4, f"ordered={ordered}"
