"""Cross-engine parity: the compiled backend against the AST interpreter.

The compiled engine (generated code) is a drop-in replacement: for any program,
schedule, and instrumentation plan it must make the same scheduler
decisions, allocate the same object uids, emit a byte-identical
schema-v3 event stream, print the same output, and raise the same
errors as the AST interpreter.  These tests enforce that contract on

* every workload in the benchmark suite (Full plan, all-sites, Base);
* seeded random schedules (including one that deadlocks);
* the detector funnel under every harness detector configuration —
  identical :class:`PipelineStats`, cache and ownership statistics,
  reports, monitored locations, and trie shapes;
* a fuzzer battery, including the wait/notify/barrier vocabulary
  (``sync_vocab``), condition-handoff-biased programs
  (``handoff_bias``) and helper calls with early returns
  (``calls_vocab``);
* every committed reproducer in ``tests/corpus/``, replayed under its
  recorded schedule;
* a thread whose ``run`` declares a parameter, which fails with the
  same arity error on the child's first step.
"""

import pytest

from repro.detector import DetectorConfig, RaceDetector
from repro.difflab import load_corpus
from repro.harness import (
    CONFIG_FIELDS_MERGED,
    CONFIG_FULL,
    CONFIG_NO_CACHE,
    CONFIG_NO_OWNERSHIP,
)
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang.resolver import compile_source
from repro.runtime import (
    ENGINES,
    RandomPolicy,
    RecordingSink,
    engine_runner,
)
from repro.workloads import ALL_WORKLOADS
from repro.workloads.fuzz import ProgramFuzzer

SCALE = 3

run_ast = engine_runner("ast")
run_compiled = engine_runner("compiled")


def observe(runner, resolved, trace_sites, policy, with_sink=True):
    """Everything parity compares, as one comparable tuple.

    Errors are part of the contract too: a failing program must fail
    identically (same exception type, same message) on both engines.
    """
    sink = RecordingSink() if with_sink else None
    try:
        result = runner(
            resolved, sink=sink, trace_sites=trace_sites, policy=policy
        )
    except Exception as error:  # noqa: BLE001 — error parity is the point.
        return ("error", type(error).__name__, str(error))
    log = sink.log if with_sink else None
    return (
        result.steps,
        result.threads_created,
        result.accesses_executed,
        result.accesses_emitted,
        tuple(result.output),
        log,
    )


def assert_parity(resolved, trace_sites, make_policy, with_sink=True):
    ast_side = observe(
        run_ast, resolved, trace_sites, make_policy(), with_sink
    )
    compiled_side = observe(
        run_compiled, resolved, trace_sites, make_policy(), with_sink
    )
    assert ast_side == compiled_side


def compiled_workload(name, scale=SCALE):
    spec = ALL_WORKLOADS[name]
    resolved = compile_source(spec.build(scale), filename=name)
    plan = plan_instrumentation(resolved, PlannerConfig())
    return resolved, plan


class TestEngineRegistry:
    def test_both_engines_registered(self):
        assert set(ENGINES) >= {"ast", "compiled"}

    def test_unknown_engine_rejected(self):
        from repro.runtime import engine_class

        with pytest.raises(ValueError):
            engine_runner("jit")
        with pytest.raises(ValueError):
            engine_class("jit")


class TestWorkloadParity:
    """Byte-identical logs on every benchmark workload."""

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_full_plan_log_identical(self, name):
        resolved, plan = compiled_workload(name)
        assert_parity(resolved, plan.trace_sites, lambda: None)

    @pytest.mark.parametrize("name", ["tsp2", "figure2", "join_stats"])
    def test_all_sites_log_identical(self, name):
        resolved, _ = compiled_workload(name)
        assert_parity(resolved, None, lambda: None)

    @pytest.mark.parametrize("name", ["tsp2", "sor2"])
    def test_base_uninstrumented_identical(self, name):
        resolved, _ = compiled_workload(name)
        assert_parity(resolved, None, lambda: None, with_sink=False)


class TestScheduleParity:
    """Same decisions under seeded random policies — including one
    seed whose schedule deadlocks, so error parity is exercised."""

    @pytest.mark.parametrize("name", ["tsp2", "figure2", "philosophers"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_policy_identical(self, name, seed):
        resolved, plan = compiled_workload(name)
        assert_parity(
            resolved, plan.trace_sites, lambda: RandomPolicy(seed=seed)
        )

    def test_a_deadlocking_seed_exists(self):
        # Guard the guard: at least one (name, seed) cell above must
        # actually fail, or the error-parity branch is dead code.
        resolved, plan = compiled_workload("philosophers")
        outcomes = {
            observe(
                run_ast, resolved, plan.trace_sites, RandomPolicy(seed=seed)
            )[0]
            for seed in (0, 1, 7)
        }
        assert "error" in outcomes


#: Every detector configuration the harness tables run, plus three
#: non-default settings behind an engaged fast path: a different trie
#: query (read-read races), no join pseudo-locks (a different lockset
#: on every post-join access), and a small cache (the stub's inline
#: slot computation over a non-default size, with frequent conflicts).
FUNNEL_CONFIGS = {
    "Full": CONFIG_FULL.detector,
    "NoCache": CONFIG_NO_CACHE.detector,
    "NoOwnership": CONFIG_NO_OWNERSHIP.detector,
    "FieldsMerged": CONFIG_FIELDS_MERGED.detector,
    "ReadReadRaces": DetectorConfig(read_read_races=True),
    "NoJoinPseudolocks": DetectorConfig(join_pseudolocks=False),
    "SmallCache": DetectorConfig(cache_size=7),
}


class TestDetectorFunnelParity:
    """Identical funnel, ownership and cache counters, reports, and
    trie shape — the counters the inline fast path defers and folds."""

    @pytest.mark.parametrize("config", sorted(FUNNEL_CONFIGS))
    @pytest.mark.parametrize("name", ["tsp2", "mtrt2", "sor2", "hedc2"])
    def test_funnel_identical(self, name, config):
        resolved, plan = compiled_workload(name)
        funnels = []
        for runner in (run_ast, run_compiled):
            detector = RaceDetector(
                config=FUNNEL_CONFIGS[config],
                resolved=resolved,
                static_races=plan.static_races,
            )
            result = runner(
                resolved, sink=detector, trace_sites=plan.trace_sites
            )
            funnels.append(
                (
                    result.steps,
                    result.accesses_emitted,
                    detector.stats,
                    detector.cache.stats if detector.cache else None,
                    detector.ownership_stats,
                    detector.monitored_locations,
                    detector.total_trie_nodes(),
                    tuple(sorted(detector.reports.racy_objects)),
                    tuple(report.describe() for report in detector.reports.reports),
                )
            )
        assert funnels[0] == funnels[1]


class TestFuzzerParity:
    """The fuzz generator's whole vocabulary, both engines."""

    @pytest.mark.parametrize("seed", range(6))
    def test_plain_vocabulary(self, seed):
        self._check(ProgramFuzzer(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_sync_vocabulary(self, seed):
        self._check(ProgramFuzzer(seed, sync_vocab=True))

    @pytest.mark.parametrize("seed", range(4))
    def test_handoff_bias(self, seed):
        self._check(ProgramFuzzer(seed, handoff_bias=True))

    @pytest.mark.parametrize("seed", range(6))
    def test_calls_vocabulary(self, seed):
        # Helper methods with early returns inside loops, branches and
        # sync blocks, their results feeding assignments, call-folds and
        # returns — plain, then loop-peeled under the Full plan.
        def fuzzer():
            return ProgramFuzzer(seed, calls_vocab=True, sync_vocab=seed % 2 == 1)

        self._check(fuzzer())
        resolved = compile_source(fuzzer().generate(), filename="fuzz")
        plan = plan_instrumentation(resolved, PlannerConfig())
        assert_parity(resolved, plan.trace_sites, lambda: RandomPolicy(seed=seed))

    @staticmethod
    def _check(fuzzer):
        source = fuzzer.generate()
        resolved = compile_source(source, filename="fuzz")
        assert_parity(resolved, None, lambda: None)
        assert_parity(resolved, None, lambda: RandomPolicy(seed=2))


class TestCorpusParity:
    """Every committed reproducer, under its recorded schedule."""

    @pytest.mark.parametrize(
        "entry", load_corpus(), ids=lambda entry: entry.name
    )
    def test_reproducer_log_identical(self, entry):
        resolved = compile_source(entry.source, filename=entry.name)
        plan = plan_instrumentation(resolved, PlannerConfig())
        assert_parity(
            resolved, plan.trace_sites, lambda: entry.schedule.policy()
        )


def _nested(depth, open_, close, inner):
    """``inner`` wrapped in ``depth`` nested constructs; ``open_(i)``
    and ``close(i)`` are the text before and after level ``i``."""
    for level in reversed(range(depth)):
        inner = open_(level) + inner + close(level)
    return inner


#: Programs that nest deeper than CPython allows a function to nest
#: (20 static blocks, 100 indentation levels): the code generator must
#: move the inner levels into helper functions.
DEEP_PROGRAMS = {
    "while-30": "class Main { static def main() { "
    + _nested(
        30,
        lambda i: f"var i{i} = 0; while (i{i} < 1) {{ i{i} = i{i} + 1; ",
        lambda i: " }",
        'print "deep";',
    )
    + " } }",
    "sync-25": """
class Main {
  static def main() {
    var d = new Data();
    d.x = 0;
    var a = new Worker(d); var b = new Worker(d);
    start a; start b; join a; join b;
    print "deep " + d.x;
  }
}
class Data { field x; }
class Worker {
  field d;
  def init(d) { this.d = d; }
  def run() { var l = this.d; """
    + _nested(
        25,
        lambda i: f"sync ({'l' if i % 2 else 'this'}) {{ ",
        lambda i: " }",
        "l.x = l.x + 1; if (l.x > 100) { return; }",
    )
    + " } }",
    "if-150": "class Main { static def main() { var n = 0; var o = new Main(); "
    + _nested(
        150,
        lambda i: f"if (n == {i} && o != null) {{ n = n + 1; ",
        lambda i: " } else { print n; }",
        'print "deep";',
    )
    + " } }",
    # Right-nested short-circuits nest inside one statement, here 30
    # levels under 30 ifs (a parenthesis costs the recursive-descent
    # parser some 16 frames, so parentheses alone cannot nest as deep).
    "and-30-in-if-30": "class Main { static def main() { var t = true; "
    + _nested(
        30,
        lambda i: "if (t) { ",
        lambda i: " }",
        "var x = "
        + _nested(30, lambda i: "(t && ", lambda i: ")", "t")
        + '; if (x) { print "deep"; }',
    )
    + " } }",
    # Just inside the parser's nesting bound: 250 terms, 250 reads.
    "sum-250": "class Main { static def main() { var d = new D(); d.go(); } } "
    "class D { field f; def go() { this.f = 1; var x = "
    + " - ".join(["this.f"] * 250)
    + '; print "deep " + x; } }',
}

#: String literals and identifiers that would break generated source if
#: any program text reached it.
HOSTILE_PROGRAMS = {
    "strings": r"""
class Main {
  static def main() {
    var a = "\"\"\"";
    var b = "\\";
    var c = "line1\nline2";
    var d = "__import__('os').system('exit 3')";
    var e = "'''\\n\")\n    raise SystemExit(3)\n#";
    print a; print b; print c; print d; print e;
    var s = new S(a + b + c + d + e);
    print s.t;
  }
}
class S { field t; def init(t) { this.t = t + "\\\""; } }
""",
    "python-names": """
class Main {
  static def main() {
    var lambda = new yield(3);
    var None = lambda.pass(4);
    var th = 1; var v0 = 2; var x1 = 3; var c0 = 4; var U = 5; var NR = 6;
    var make = 7; var m0 = 8; var h1 = 9; var CN = 10; var OUT = 11;
    print None + th + v0 + x1 + c0 + U + NR + make + m0 + h1 + CN + OUT;
    var len = newarray(2);
    len[0] = "type";
    print len[0] + len.length;
    yield.nonlocal = lambda;
    var exec = new __import__(yield.nonlocal);
    var eval = new __import__(lambda);
    start exec; start eval; join exec; join eval;
    print lambda.import + " " + lambda.True;
    print Main.isinstance(True(), 2);
  }
  static def isinstance(object, int) { return object + int; }
  static def True() { return 40; }
}
class yield {
  field import; field True;
  static field nonlocal;
  def init(def_) { this.import = def_; this.True = false; }
  def pass(is) { return is + this.import; }
}
class __import__ {
  field os;
  def init(os) { this.os = os; }
  def run() {
    var global = 0;
    while (global < 3) {
      sync (this.os) { this.os.import = this.os.import + 1; }
      global = global + 1;
    }
  }
}
""",
}

EXPECTED_OUTPUT = {
    "strings": (
        '"""',
        "\\",
        "line1\nline2",
        "__import__('os').system('exit 3')",
        "'''\\n\")\n    raise SystemExit(3)\n#",
        '"""\\line1\nline2__import__(\'os\').system(\'exit 3\')'
        "'''\\n\")\n    raise SystemExit(3)\n#\\\"",
    ),
    "python-names": ("73", "type2", "9 false", "42"),
}


class TestGeneratorLimits:
    """Deep nesting and hostile source: both engines agree on output,
    steps, event log and errors, and no Python compile or recursion
    error escapes from the code generator."""

    @staticmethod
    def _both(source, policy):
        resolved = compile_source(source, filename="limits")
        plan = plan_instrumentation(resolved, PlannerConfig())
        sides = [
            observe(runner, resolved, trace_sites, make(), True)
            for runner in (run_ast, run_compiled)
            for trace_sites, make in ((plan.trace_sites, policy), (None, policy))
        ]
        assert sides[:2] == sides[2:]
        for side in sides:
            assert side[0] != "error", side
        return sides[0]

    @pytest.mark.parametrize("name", sorted(DEEP_PROGRAMS))
    @pytest.mark.parametrize("seed", [None, 3])
    def test_deep_nesting_identical(self, name, seed):
        steps, _, _, _, output, _ = self._both(
            DEEP_PROGRAMS[name],
            lambda: None if seed is None else RandomPolicy(seed=seed),
        )
        assert output[-1].startswith("deep")
        if name == "while-30":
            assert steps == 31

    @pytest.mark.parametrize("name", sorted(HOSTILE_PROGRAMS))
    @pytest.mark.parametrize("seed", [None, 3])
    def test_hostile_source_identical(self, name, seed):
        _, _, _, _, output, _ = self._both(
            HOSTILE_PROGRAMS[name],
            lambda: None if seed is None else RandomPolicy(seed=seed),
        )
        assert output == EXPECTED_OUTPUT[name]

    def test_expression_past_the_nesting_bound_is_a_parse_error(self):
        from repro.lang import ParseError
        from repro.lang.parser import MAX_NESTING

        terms = " + ".join(["1"] * 2000)
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING}"):
            compile_source(f"class Main {{ static def main() {{ print {terms}; }} }}")

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_cli_exits_stay_in_the_taxonomy(self, engine, tmp_path, capsys):
        from repro.cli import main

        programs = dict(DEEP_PROGRAMS, **HOSTILE_PROGRAMS)
        programs["sum-2000"] = "class Main { static def main() { print %s; } }" % (
            " + ".join(["1"] * 2000)
        )
        programs["parens-300"] = "class Main { static def main() { print %s1%s; } }" % (
            "(" * 300,
            ")" * 300,
        )
        codes = {}
        for name, source in sorted(programs.items()):
            path = tmp_path / f"{name}.mj"
            path.write_text(source)
            codes[name] = main(["check", str(path), "--engine", engine, "--seed", "3"])
        capsys.readouterr()
        assert codes["sum-2000"] == 2 and codes["parens-300"] == 2
        assert set(codes.values()) <= {0, 1, 2, 3, 4}


def _recursion(depth):
    """``Main.main`` plus ``depth - 1`` nested ``Main.down`` calls:
    ``depth`` activations open at the innermost call."""
    return f"""
class Main {{
  static def main() {{
    print Main.down({depth - 1});
  }}
  static def down(n) {{
    if (n <= 1) {{ return 1; }}
    return 1 + Main.down(n - 1);
  }}
}}
"""


def _nested(opener, levels):
    """``Main.down`` with its recursive call under ``levels`` nested
    ``opener { ... }`` statements, so that the AST engine nests more
    Python frames per MJ call than in :func:`_recursion`."""
    call = "return 1 + Main.down(n - 1);"
    for _ in range(levels):
        call = f"{opener} {{ {call} }}"
    return f"""
class Main {{
  static field lock;
  static def main() {{ Main.lock = new Main(); print Main.down({{n}}); }}
  static def down(n) {{ if (n <= 1) {{ return 1; }} {call} return 0; }}
}}
"""


#: Recursion through each kind of call and around nested statements,
#: as templates whose ``{n}`` makes the innermost call open ``n + 1``
#: activations on one thread; each prints ``n`` when it completes.
CALL_SHAPES = {
    "if-2": _nested("if (n > 0)", 2),
    "if-8": _nested("if (n > 0)", 8),
    "while-4": _nested("while (n > 0)", 4),
    "sync-4": _nested("sync (Main.lock)", 4),
    "sync-50": _nested("sync (Main.lock)", 50),
    "instance": """
class Main { static def main() { var c = new C(); print c.down({n}); } }
class C {
  def down(n) { if (n <= 1) { return 1; } return 1 + this.down(n - 1); }
}
""",
    "constructor": """
class Main { static def main() { var node = new Node({n}); print node.size; } }
class Node {
  field size; field next;
  def init(n) { this.size = n; if (n > 1) { this.next = new Node(n - 1); } }
}
""",
    "mutual": """
class Main {
  static def main() { print Main.ping({n}); }
  static def ping(n) { if (n <= 1) { return 1; } return 1 + Main.pong(n - 1); }
  static def pong(n) { if (n <= 1) { return 1; } return 1 + Main.ping(n - 1); }
}
""",
    "thread": """
class Main {
  static def main() { var w = new W(); start w; join w; }
  static def down(n) { if (n <= 1) { return 1; } return 1 + Main.down(n - 1); }
}
class W { def run() { print Main.down({n}); } }
""",
}


#: A thread class whose ``run`` declares a parameter: ``start`` succeeds,
#: and the child's first step raises the arity error.
RUN_WITH_PARAMETERS = """
class Main {
  static def main() {
    var w = new W();
    start w;
    print "started";
    join w;
  }
}
class W {
  def run(x) { print x; }
}
"""


class TestThreadEntryParity:
    """A thread's entry method that declares parameters fails the same
    way on both engines: same message and location, on the child's
    first step."""

    def test_run_with_parameters_same_error(self):
        resolved = compile_source(RUN_WITH_PARAMETERS, filename="entry")
        for seed in (None, 1, 2002):
            assert_parity(
                resolved,
                None,
                lambda: None if seed is None else RandomPolicy(seed=seed),
            )
        assert observe(run_ast, resolved, None, None) == (
            "error",
            "MJRuntimeError",
            "entry:11:3: W.run expects 1 argument(s), got 0",
        )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_run_with_parameters_fails_on_the_first_step(self, engine):
        from repro.lang.errors import MJRuntimeError
        from repro.runtime import engine_class

        resolved = compile_source(RUN_WITH_PARAMETERS, filename="entry")
        sink = RecordingSink()
        runner = engine_class(engine)(resolved, sink=sink)
        with pytest.raises(MJRuntimeError) as caught:
            runner.run()
        assert caught.value.message == "W.run expects 1 argument(s), got 0"
        assert (caught.value.location.line, caught.value.location.column) == (
            11,
            3,
        )
        main, child = runner._threads
        # The start went through; the main thread ran on to its join,
        # and the child's first step raised before counting as a step.
        assert runner.output == ["started"]
        assert main.steps > 0 and child.steps == 0
        assert sink.log == [(RecordingSink.START, 0, 1)]


class TestCallDepthParity:
    """One MJ call-depth bound on both engines: a call at the bound runs,
    the first call past it fails with the same runtime error on both,
    and the CLI reports it as a runtime error (exit 2)."""

    def test_at_the_bound_identical(self):
        from repro.runtime.interpreter import MAX_CALL_DEPTH

        resolved = compile_source(_recursion(MAX_CALL_DEPTH), filename="deep")
        assert_parity(resolved, None, lambda: None)
        assert observe(run_compiled, resolved, None, None)[4] == (
            str(MAX_CALL_DEPTH - 1),
        )

    def test_past_the_bound_same_error(self):
        from repro.runtime.interpreter import MAX_CALL_DEPTH

        resolved = compile_source(
            _recursion(MAX_CALL_DEPTH + 1), filename="deep"
        )
        assert_parity(resolved, None, lambda: None)
        outcome = observe(run_ast, resolved, None, None)
        assert outcome == (
            "error",
            "MJRuntimeError",
            f"deep:6:3: call depth exceeds {MAX_CALL_DEPTH} entering "
            "Main.down",
        )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_cli_exit_past_the_bound(self, engine, tmp_path, capsys):
        from repro.cli import main
        from repro.runtime.interpreter import MAX_CALL_DEPTH

        path = tmp_path / "deep.mj"
        path.write_text(_recursion(MAX_CALL_DEPTH + 1))
        for command in ("run", "check"):
            assert main([command, str(path), "--engine", engine]) == 2
            assert "call depth exceeds" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", sorted(CALL_SHAPES))
    def test_every_call_shape_runs_at_the_bound(self, shape):
        from repro.runtime.interpreter import MAX_CALL_DEPTH

        source = CALL_SHAPES[shape].replace("{n}", str(MAX_CALL_DEPTH - 1))
        resolved = compile_source(source, filename=shape)
        assert_parity(resolved, None, lambda: None)
        assert observe(run_ast, resolved, None, None)[4] == (
            str(MAX_CALL_DEPTH - 1),
        )

    @pytest.mark.parametrize("shape", sorted(CALL_SHAPES))
    def test_every_call_shape_fails_past_the_bound(self, shape):
        from repro.runtime.interpreter import MAX_CALL_DEPTH

        source = CALL_SHAPES[shape].replace("{n}", str(MAX_CALL_DEPTH))
        resolved = compile_source(source, filename=shape)
        assert_parity(resolved, None, lambda: None)
        kind, name, message = observe(run_ast, resolved, None, None)
        assert (kind, name) == ("error", "MJRuntimeError")
        assert f"call depth exceeds {MAX_CALL_DEPTH}" in message

    def test_ast_run_restores_the_recursion_limit(self):
        import sys

        from repro.runtime.interpreter import MAX_CALL_DEPTH

        limit = sys.getrecursionlimit()
        template = CALL_SHAPES["if-8"]
        for n in (MAX_CALL_DEPTH - 1, MAX_CALL_DEPTH):
            resolved = compile_source(template.replace("{n}", str(n)))
            observe(run_ast, resolved, None, None)
            assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_past_the_frame_ceiling_is_a_runtime_error(
        self, command, tmp_path, capsys
    ):
        """A call under so many ``sync`` blocks that the AST engine
        would need more Python frames than it may take fails as an MJ
        runtime error (exit 2), not a Python traceback; the compiled
        engine runs it to the bound."""
        from repro.cli import main
        from repro.runtime.interpreter import MAX_CALL_DEPTH

        path = tmp_path / "deep.mj"
        path.write_text(
            _nested("sync (Main.lock)", 100).replace(
                "{n}", str(MAX_CALL_DEPTH - 1)
            )
        )
        assert main([command, str(path), "--engine", "ast"]) == 2
        assert "too deep for the ast engine" in capsys.readouterr().err
        assert main([command, str(path), "--engine", "compiled"]) == 0
        assert str(MAX_CALL_DEPTH - 1) in capsys.readouterr().out
