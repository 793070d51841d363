"""Unit tests for the MJ interpreter."""

import pytest

from repro.lang import MJAssertionError, MJRuntimeError
from repro.runtime import LogStatsSink, RecordingSink

from ..conftest import run_source


def run_main(body: str, extra: str = "", **kwargs):
    source = "class Main { static def main() { " + body + " } }\n" + extra
    return run_source(source, **kwargs)


def output_of(body: str, extra: str = "", **kwargs):
    return run_main(body, extra, **kwargs).output


class TestArithmetic:
    def test_print_integer(self):
        assert output_of("print 42;") == ["42"]

    def test_addition(self):
        assert output_of("print 1 + 2;") == ["3"]

    def test_precedence(self):
        assert output_of("print 2 + 3 * 4;") == ["14"]

    def test_truncating_division_like_java(self):
        assert output_of("print 7 / 2;") == ["3"]
        assert output_of("print (0 - 7) / 2;") == ["-3"]

    def test_modulo_sign_like_java(self):
        assert output_of("print (0 - 7) % 3;") == ["-1"]
        assert output_of("print 7 % (0 - 3);") == ["1"]

    def test_division_by_zero_raises(self):
        with pytest.raises(MJRuntimeError):
            run_main("print 1 / 0;")

    def test_modulo_by_zero_raises(self):
        with pytest.raises(MJRuntimeError):
            run_main("print 1 % 0;")

    def test_unary_minus(self):
        assert output_of("print -5 + 3;") == ["-2"]

    def test_comparisons(self):
        assert output_of("print 1 < 2; print 2 <= 2; print 3 > 4; print 4 >= 4;") == [
            "true",
            "true",
            "false",
            "true",
        ]

    def test_arithmetic_on_bool_rejected(self):
        with pytest.raises(MJRuntimeError):
            run_main("print true + 1;")


class TestBooleansAndStrings:
    def test_short_circuit_and(self):
        # The right operand would crash; short-circuiting must skip it.
        assert output_of("var x = null; print false && x.f;",
                         "class D { field f; }") == ["false"]

    def test_short_circuit_or(self):
        assert output_of("var x = null; print true || x.f;",
                         "class D { field f; }") == ["true"]

    def test_not(self):
        assert output_of("print !true;") == ["false"]

    def test_string_concat(self):
        assert output_of('print "a=" + 5;') == ["a=5"]
        assert output_of('print 5 + "=a";') == ["5=a"]

    def test_string_concat_of_null_and_bool(self):
        assert output_of('print "v=" + null; print "b=" + true;') == [
            "v=null",
            "b=true",
        ]

    def test_string_equality_by_value(self):
        assert output_of('print "ab" == "a" + "b";') == ["true"]

    def test_condition_must_be_boolean(self):
        with pytest.raises(MJRuntimeError):
            run_main("if (1) { }")


class TestObjects:
    def test_field_roundtrip(self):
        assert output_of(
            "var p = new P(); p.x = 7; print p.x;", "class P { field x; }"
        ) == ["7"]

    def test_fields_default_to_null(self):
        assert output_of(
            "var p = new P(); print p.x;", "class P { field x; }"
        ) == ["null"]

    def test_constructor_runs(self):
        assert output_of(
            "var p = new P(3); print p.x;",
            "class P { field x; def init(v) { this.x = v; } }",
        ) == ["3"]

    def test_constructor_arity_checked(self):
        with pytest.raises(MJRuntimeError):
            run_main("var p = new P(1, 2);",
                     "class P { field x; def init(v) { this.x = v; } }")

    def test_new_without_init_rejects_args(self):
        with pytest.raises(MJRuntimeError):
            run_main("var p = new P(1);", "class P { }")

    def test_reference_equality(self):
        assert output_of(
            "var a = new P(); var b = new P(); var c = a; "
            "print a == b; print a == c; print a != b;",
            "class P { }",
        ) == ["false", "true", "true"]

    def test_null_comparison(self):
        assert output_of(
            "var a = new P(); print a == null; print null == null;", "class P { }"
        ) == ["false", "true"]

    def test_null_field_read_raises(self):
        with pytest.raises(MJRuntimeError):
            run_main("var x = null; print x.f;", "class D { field f; }")

    def test_null_field_write_raises(self):
        with pytest.raises(MJRuntimeError):
            run_main("var x = null; x.f = 1;", "class D { field f; }")

    def test_unknown_field_raises(self):
        with pytest.raises(MJRuntimeError):
            run_main("var p = new P(); print p.ghost;", "class P { field x; }")

    def test_dynamic_dispatch(self):
        assert output_of(
            "var b = new B(); print b.m();",
            "class A { def m() { return 1; } } "
            "class B extends A { def m() { return 2; } }",
        ) == ["2"]

    def test_inherited_method_call(self):
        assert output_of(
            "var b = new B(); print b.m();",
            "class A { def m() { return 7; } } class B extends A { }",
        ) == ["7"]

    def test_method_arity_checked(self):
        with pytest.raises(MJRuntimeError):
            run_main("var p = new P(); p.m(1);", "class P { def m() { } }")

    def test_recursion(self):
        assert output_of(
            "print Fact.f(6);",
            "class Fact { static def f(n) { if (n <= 1) { return 1; } "
            "return n * Fact.f(n - 1); } }",
        ) == ["720"]

    def test_return_without_value_yields_null(self):
        assert output_of(
            "var p = new P(); print p.m();", "class P { def m() { return; } }"
        ) == ["null"]

    def test_falling_off_method_end_yields_null(self):
        assert output_of(
            "var p = new P(); print p.m();", "class P { def m() { } }"
        ) == ["null"]


class TestStatics:
    def test_static_field_roundtrip(self):
        assert output_of(
            "C.total = 5; print C.total;", "class C { static field total; }"
        ) == ["5"]

    def test_static_inherited_field_shares_storage(self):
        assert output_of(
            "B.c = 3; print A.c;",
            "class A { static field c; } class B extends A { }",
        ) == ["3"]

    def test_static_method_call(self):
        assert output_of(
            "print Util.twice(21);",
            "class Util { static def twice(x) { return x * 2; } }",
        ) == ["42"]


class TestArrays:
    def test_array_roundtrip(self):
        assert output_of(
            "var a = newarray(3); a[0] = 9; print a[0]; print a[1];"
        ) == ["9", "null"]

    def test_array_length(self):
        assert output_of("var a = newarray(5); print a.length;") == ["5"]

    def test_out_of_bounds_read(self):
        with pytest.raises(MJRuntimeError):
            run_main("var a = newarray(2); print a[2];")

    def test_negative_index(self):
        with pytest.raises(MJRuntimeError):
            run_main("var a = newarray(2); print a[0 - 1];")

    def test_negative_size_rejected(self):
        with pytest.raises(MJRuntimeError):
            run_main("var a = newarray(0 - 1);")

    def test_non_integer_index_rejected(self):
        with pytest.raises(MJRuntimeError):
            run_main("var a = newarray(2); print a[true];")

    def test_nested_arrays(self):
        assert output_of(
            "var g = newarray(2); g[0] = newarray(2); g[0][1] = 8; print g[0][1];"
        ) == ["8"]


class TestControlFlow:
    def test_while_loop(self):
        assert output_of(
            "var i = 0; var s = 0; while (i < 5) { s = s + i; i = i + 1; } print s;"
        ) == ["10"]

    def test_if_else(self):
        assert output_of("if (1 < 2) { print 1; } else { print 2; }") == ["1"]

    def test_assert_passes(self):
        assert output_of("assert 1 < 2; print 1;") == ["1"]

    def test_assert_fails(self):
        with pytest.raises(MJAssertionError):
            run_main("assert 1 > 2;")


class TestThreads:
    THREADED = """
    class Main {
      static def main() {
        var w = new W();
        w.v = 10;
        start w;
        join w;
        print w.v;
      }
    }
    class W {
      field v;
      def run() { this.v = this.v + 1; }
    }
    """

    def test_start_join_and_shared_state(self):
        assert run_source(self.THREADED).output == ["11"]

    def test_thread_count(self):
        assert run_source(self.THREADED).threads_created == 2

    def test_start_requires_run_method(self):
        with pytest.raises(MJRuntimeError):
            run_main("var p = new P(); start p;", "class P { }")

    def test_double_start_rejected(self):
        with pytest.raises(MJRuntimeError):
            run_main(
                "var w = new W(); start w; start w;",
                "class W { def run() { } }",
            )

    def test_join_before_start_rejected(self):
        with pytest.raises(MJRuntimeError):
            run_main("var w = new W(); join w;", "class W { def run() { } }")

    def test_many_threads_sum(self):
        source = """
        class Main {
          static def main() {
            var acc = new Acc();
            var i = 0;
            var ws = newarray(4);
            while (i < 4) {
              var w = new W(); w.acc = acc; w.amount = i + 1;
              ws[i] = w;
              start w;
              i = i + 1;
            }
            var j = 0;
            while (j < 4) { join ws[j]; j = j + 1; }
            print acc.total;
          }
        }
        class Acc { field total; def init() { this.total = 0; } }
        class W {
          field acc; field amount;
          def run() {
            sync (this.acc) { this.acc.total = this.acc.total + this.amount; }
          }
        }
        """
        assert run_source(source).output == ["10"]

    def test_monitor_mutual_exclusion_preserves_counter(self):
        # Under every seed, the locked counter must total exactly 2*N.
        source = """
        class Main {
          static def main() {
            var s = new S();
            var a = new W(s); var b = new W(s);
            start a; start b; join a; join b;
            print s.n;
          }
        }
        class S { field n; def init() { this.n = 0; } }
        class W {
          field s;
          def init(s) { this.s = s; }
          def run() {
            var i = 0;
            while (i < 25) {
              sync (this.s) { this.s.n = this.s.n + 1; }
              i = i + 1;
            }
          }
        }
        """
        for seed in range(5):
            assert run_source(source, seed=seed).output == ["50"]

    def test_reentrant_monitor(self):
        assert output_of(
            "var p = new P(); sync (p) { sync (p) { print 1; } }",
            "class P { }",
        ) == ["1"]

    def test_sync_method_is_reentrant_with_block(self):
        assert output_of(
            "var p = new P(); print p.outer();",
            "class P { sync def outer() { return inner(); } "
            "sync def inner() { return 5; } }",
        ) == ["5"]


class TestEventEmission:
    def test_stats_sink_counts_accesses(self):
        sink = LogStatsSink()
        run_main(
            "var p = new P(); p.x = 1; var v = p.x;",
            "class P { field x; }",
            sink=sink,
        )
        assert sink.writes == 1
        assert sink.reads == 1

    def test_trace_filtering_by_site(self):
        source = (
            "class Main { static def main() { "
            "var p = new P(); p.x = 1; var v = p.x; } }\n"
            "class P { field x; }"
        )
        sink = LogStatsSink()
        run_source(source, sink=sink, trace_sites=set())
        assert sink.counts[RecordingSink.ACCESS] == 0

    def test_monitor_events_flagged_reentrant(self):
        sink = RecordingSink()
        run_main(
            "var p = new P(); sync (p) { sync (p) { } }",
            "class P { }",
            sink=sink,
        )
        enters = [e for e in sink.log if e[0] == RecordingSink.ENTER]
        assert [e[3] for e in enters] == [False, True]
        exits = [e for e in sink.log if e[0] == RecordingSink.EXIT]
        assert [e[3] for e in exits] == [True, False]

    def test_thread_lifecycle_events_ordered(self):
        sink = RecordingSink()
        run_source(
            """
            class Main {
              static def main() {
                var w = new W(); start w; join w;
              }
            }
            class W { def run() { } }
            """,
            sink=sink,
        )
        tags = [e[0] for e in sink.log]
        start = tags.index(RecordingSink.START)
        end = tags.index(RecordingSink.END)
        join = tags.index(RecordingSink.JOIN)
        assert start < end < join

    def test_array_length_read_emits_no_event(self):
        sink = LogStatsSink()
        run_main("var a = newarray(2); print a.length;", sink=sink)
        assert sink.counts[RecordingSink.ACCESS] == 0
