"""The compiled engine's flat per-activation code
(:func:`repro.runtime.compile.run_code`): ``if``/``while``/peeled loops
as jumps in one runner frame per method call, ``return`` as a plain
generator return, and ``_Return`` kept only for a ``return`` inside a
``sync`` body.  Every observable is compared against the AST engine,
including the monitor exits a torn-down run performs after an error."""

import gc

import pytest

from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang import compile_source
from repro.runtime import RandomPolicy, RecordingSink, engine_class
from repro.runtime import interpreter as interpreter_module

#: Early returns out of loops, branches, nested syncs and peeled loops;
#: call results feed assignments, a call-fold and a returned call.
RETURNS = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 0;
    var w = new Worker(d);
    print w.find(3);
    print w.locked(2);
    print w.nested(5);
    print w.twice(4);
    print Main.fact(5);
    var acc = 1;
    acc = acc + w.find(7);
    print acc;
    w.bare();
    print d.x;
  }
  static def fact(n) {
    if (n < 2) { return 1; }
    return n * Main.fact(n - 1);
  }
}
class Data { field x; }
class Worker {
  field d;
  def init(d) { this.d = d; }
  def find(k) {
    var i = 0;
    while (i < 10) {
      this.d.x = this.d.x + 1;
      if (i == k) { return i * 10; }
      i = i + 1;
    }
    return 0 - 1;
  }
  def locked(k) {
    var i = 0;
    while (this.d.x > 0 - 100) {
      sync (this.d) {
        if (i == k) { return this.d.x; }
        this.d.x = this.d.x - 1;
      }
      i = i + 1;
    }
    return 0;
  }
  def nested(k) {
    sync (this.d) {
      sync (this) {
        var i = 0;
        while (true) {
          if (i == k) { return this.find(i); }
          i = i + 1;
        }
      }
    }
  }
  def twice(k) {
    if (this.d.x > 1000) { return 0; } else { return this.find(k) + this.find(k); }
  }
  def bare() {
    sync (this.d) { this.d.x = 99; return; }
  }
}
"""

#: One thread spins inside two nested monitors (one taken in a callee)
#: while another dereferences null: the run raises with the spinner
#: suspended inside both ``sync`` bodies.
TEARDOWN = """
class Main {
  static def main() {
    var d = new Data(); var l = new Data();
    var a = new Spinner(d, l); var b = new Crasher();
    start a; start b; join a; join b;
  }
}
class Data { field x; }
class Spinner {
  field d; field l;
  def init(d, l) { this.d = d; this.l = l; }
  def run() { sync (this.l) { this.spin(); } }
  def spin() {
    sync (this.d) {
      var i = 0;
      while (i < 1000) { this.d.x = i; i = i + 1; }
    }
  }
}
class Crasher {
  def run() { var n = null; n.x = 1; }
}
"""


def _observe(engine, source, seed, plan=False):
    resolved = compile_source(source)
    if plan:
        plan_instrumentation(resolved, PlannerConfig())  # Peels loops.
    sink = RecordingSink()
    runner = engine_class(engine)(resolved, sink=sink, policy=RandomPolicy(seed))
    result = runner.run()
    return result.steps, tuple(result.output), sink.log


class TestFlatCode:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("plan", [False, True], ids=["plain", "peeled"])
    def test_returns_match_the_ast_engine(self, seed, plan):
        compiled = _observe("compiled", RETURNS, seed, plan)
        assert compiled == _observe("ast", RETURNS, seed, plan)
        assert compiled[1] == ("30", "2", "50", "80", "120", "71", "99")

    def test_return_raises_only_out_of_sync_bodies(self, monkeypatch):
        # One raise per sync body a return leaves: locked (1), nested
        # (2), bare (1).  Every other return is a plain generator return.
        raised = []
        original = interpreter_module._Return.__init__

        def counting_init(self, value):
            raised.append(value)
            original(self, value)

        monkeypatch.setattr(interpreter_module._Return, "__init__", counting_init)
        _observe("compiled", RETURNS, 0, plan=True)
        assert len(raised) == 4

    @pytest.mark.parametrize(
        "body, message",
        [
            ("if (this.d) { print 1; }", "condition must be a boolean, got <Data#1>"),
            ("while (this.d.x) { print 1; }", "condition must be a boolean, got 26"),
            ("var i = 0; while (i) { i = 1; }", "condition must be a boolean, got 0"),
            ("if (1) { this.d.x = 1; }", "condition must be a boolean, got 1"),
        ],
        ids=["if-gen", "while-gen", "while-pure", "if-pure"],
    )
    def test_branch_errors_match(self, body, message):
        source = RETURNS.replace("def bare() {", "def bare() {\n" + body, 1)
        errors = []
        for engine in ("ast", "compiled"):
            with pytest.raises(Exception) as caught:
                _observe(engine, source, 0)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0] == errors[1]
        assert message in errors[0][1]


class TestTeardownParity:
    def test_logs_match_after_the_error_and_after_teardown(self):
        resolved = compile_source(TEARDOWN)
        logs = {}
        for engine in ("ast", "compiled"):
            sink = RecordingSink()
            runner = engine_class(engine)(
                resolved, sink=sink, policy=RandomPolicy(1)
            )
            with pytest.raises(Exception, match="null dereference") as caught:
                runner.run()
            after_error = list(sink.log)
            # Dropping the engine closes the suspended generators: both
            # sync finally blocks release, innermost first.
            del runner, caught
            gc.collect()
            logs[engine] = (after_error, sink.log)
        assert logs["ast"] == logs["compiled"]
        after_error, after_teardown = logs["compiled"]
        added = after_teardown[len(after_error):]
        assert [entry[0] for entry in added] == ["exit", "exit"]
        assert added[0][2] != added[1][2]  # d's monitor, then l's.
