"""Unit tests for the generic dataflow solver and the program fuzzer."""

import pytest

from repro.analysis.dataflow import (
    TOP,
    DataflowProblem,
    meet_intersection,
    solve_forward,
)
from repro.lang import compile_source
from repro.runtime import run_program
from repro.workloads.fuzz import ProgramFuzzer, generate_program


class TestMeetIntersection:
    def test_empty_iterable_is_top(self):
        assert meet_intersection([]) is TOP

    def test_top_is_identity(self):
        assert meet_intersection([TOP, {1, 2}]) == {1, 2}

    def test_intersects(self):
        assert meet_intersection([{1, 2}, {2, 3}]) == {2}

    def test_all_top(self):
        assert meet_intersection([TOP, TOP]) is TOP


class TestSolveForward:
    def diamond(self, gens):
        """entry → {left, right} → exit, gen sets per node."""
        preds = {"entry": [], "left": ["entry"], "right": ["entry"],
                 "exit": ["left", "right"]}

        def transfer(node, in_value):
            if in_value is TOP:
                return TOP
            return set(in_value) | gens.get(node, set())

        problem = DataflowProblem(
            nodes=list(preds),
            preds=lambda n: preds[n],
            boundary_nodes={"entry"},
            boundary_value=set(),
            transfer=transfer,
            meet=meet_intersection,
        )
        return solve_forward(problem)

    def test_must_facts_meet_at_join(self):
        solution = self.diamond({"left": {"a", "c"}, "right": {"b", "c"}})
        _, exit_out = solution["exit"]
        assert exit_out == {"c"}

    def test_common_gen_survives(self):
        solution = self.diamond({"entry": {"g"}})
        _, exit_out = solution["exit"]
        assert exit_out == {"g"}

    def test_boundary_value_fixed(self):
        solution = self.diamond({})
        entry_in, _ = solution["entry"]
        assert entry_in == set()

    def test_loop_reaches_fixpoint(self):
        preds = {"entry": [], "head": ["entry", "body"], "body": ["head"]}

        def transfer(node, in_value):
            if in_value is TOP:
                return TOP
            result = set(in_value)
            if node == "body":
                result |= {"inloop"}
            return result

        problem = DataflowProblem(
            nodes=list(preds),
            preds=lambda n: preds[n],
            boundary_nodes={"entry"},
            boundary_value={"init"},
            transfer=transfer,
            meet=meet_intersection,
        )
        solution = solve_forward(problem)
        head_in, _ = solution["head"]
        # Must-analysis: only facts holding on BOTH entry and back edge.
        assert head_in == {"init"}

    def test_unreachable_node_stays_top(self):
        preds = {"entry": [], "island": []}

        def transfer(node, in_value):
            return in_value

        problem = DataflowProblem(
            nodes=list(preds),
            preds=lambda n: preds[n],
            boundary_nodes={"entry"},
            boundary_value=set(),
            transfer=transfer,
            meet=meet_intersection,
        )
        solution = solve_forward(problem)
        island_in, island_out = solution["island"]
        assert island_out is TOP


class TestFuzzer:
    def test_deterministic_per_seed(self):
        assert generate_program(5) == generate_program(5)

    def test_different_seeds_differ(self):
        sources = {generate_program(seed) for seed in range(10)}
        assert len(sources) > 5

    def test_generated_programs_compile(self):
        for seed in range(25):
            compile_source(generate_program(seed))

    def test_generated_programs_run(self):
        for seed in range(10):
            resolved = compile_source(generate_program(seed))
            result = run_program(resolved, max_steps=3_000_000)
            # main prints every shared field at the end.
            assert len(result.output) == 3

    def test_worker_count_respected(self):
        source = generate_program(3, n_workers=3)
        resolved = compile_source(source)
        result = run_program(resolved, max_steps=3_000_000)
        assert result.threads_created == 4  # main + 3 workers.

    def test_deadlock_freedom_at_runtime(self):
        """Deadlock freedom by construction (ascending lock order):
        verified dynamically — the generated programs always complete
        (a deadlocked schedule would raise DeadlockError)."""
        for seed in range(20):
            source = generate_program(seed, n_locks=3, n_workers=3)
            resolved = compile_source(source)
            result = run_program(resolved, max_steps=3_000_000)
            assert result.threads_created == 4, source

    def test_parameter_clamping(self):
        fuzzer = ProgramFuzzer(0, n_workers=99, n_fields=99, n_locks=99)
        assert fuzzer.n_workers == 4
        assert fuzzer.n_fields == 5
        assert fuzzer.n_locks == 4
        compile_source(fuzzer.generate())
