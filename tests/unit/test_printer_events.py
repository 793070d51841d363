"""Unit tests for the unparser and the event-sink utilities."""

import pytest

from repro.lang import ast, compile_source, parse, render_expr, render_program, render_stmt
from repro.lang.ast import AccessKind
from repro.runtime.binlog import LogStatsSink
from repro.runtime.events import (
    AccessEvent,
    MemoryLocation,
    MulticastSink,
    RecordingSink,
)

from ..conftest import access


def roundtrip(source: str) -> str:
    return render_program(parse(source))


class TestPrinterRoundTrip:
    def test_simple_class(self):
        text = roundtrip("class A { field x; def m(p) { return p; } }")
        assert "class A {" in text
        assert "field x;" in text
        # Fixpoint.
        assert roundtrip(text) == text

    def test_static_members(self):
        text = roundtrip(
            "class A { static field c; static def m() { A.c = 1; } }"
        )
        assert "static field c;" in text
        assert roundtrip(text) == text

    def test_control_flow(self):
        source = (
            "class A { def m(n) { "
            "if (n > 0) { return 1; } else { return 2; } } }"
        )
        text = roundtrip(source)
        assert "if (" in text and "else" in text
        assert roundtrip(text) == text

    def test_loops_and_sync(self):
        source = (
            "class A { def m(n) { var i = 0; "
            "while (i < n) { sync (this) { i = i + 1; } } } }"
        )
        text = roundtrip(source)
        assert "while (" in text and "sync (" in text
        assert roundtrip(text) == text

    def test_condition_sync_statements(self):
        source = (
            "class A { def m(c, n) { sync (c) { "
            "while (n < 1) { wait c; } notify c; notifyall c; } "
            "barrier c, n; } }"
        )
        text = roundtrip(source)
        assert "wait c;" in text
        assert "notify c;" in text
        assert "notifyall c;" in text
        assert "barrier c, n;" in text
        assert roundtrip(text) == text

    def test_notifyall_not_rendered_as_notify(self):
        # The two spellings must not collapse: re-parsing the rendering
        # preserves the notify_all flag.
        program = parse("class A { def m(c) { sync (c) { notifyall c; } } }")
        stmt = program.classes[0].methods[0].body.body[0].body.body[0]
        assert render_stmt(stmt) == "notifyall c;"

    def test_threads(self):
        text = roundtrip(
            "class A { def m(t) { start t; join t; } }"
        )
        assert "start t;" in text and "join t;" in text

    def test_string_escaping(self):
        source = 'class A { def m() { print "a\\nb\\"c\\\\d"; } }'
        text = roundtrip(source)
        assert roundtrip(text) == text

    def test_arrays(self):
        text = roundtrip(
            "class A { def m() { var a = newarray(3); a[0] = a[1]; } }"
        )
        assert "newarray(3)" in text
        assert roundtrip(text) == text

    def test_expression_rendering(self):
        source = "class A { def m(x) { return (x + 1) * 2 - x % 3; } }"
        text = roundtrip(source)
        assert roundtrip(text) == text

    def test_resolved_program_renders(self):
        # After resolution (sync-method normalization, static rewrites),
        # the program must still render to parseable MJ.
        resolved = compile_source(
            "class Main { static def main() { A.go(); } }\n"
            "class A { static field c; static sync def go() { A.c = 1; } }"
        )
        text = render_program(resolved.program)
        reparsed = parse(text)
        assert reparsed is not None

    def test_render_stmt_unknown_type_raises(self):
        class Bogus(ast.Stmt):
            pass

        with pytest.raises(TypeError):
            render_stmt(Bogus())

    def test_render_expr_unknown_type_raises(self):
        class Bogus(ast.Expr):
            pass

        with pytest.raises(TypeError):
            render_expr(Bogus())


class TestSinks:
    def test_stats_sink_full_protocol(self):
        sink = LogStatsSink()
        sink.on_access_parts(*access(1, "f", 1, AccessKind.WRITE))
        sink.on_access_parts(*access(1, "f", 1, AccessKind.READ))
        sink.on_monitor_enter(1, 5, False)
        sink.on_monitor_exit(1, 5, False)
        sink.on_thread_start(0, 1)
        sink.on_thread_join(0, 1)
        assert sink.writes == 1
        assert sink.reads == 1
        assert sink.counts == {
            RecordingSink.ACCESS: 2,
            RecordingSink.ENTER: 1,
            RecordingSink.EXIT: 1,
            RecordingSink.START: 1,
            RecordingSink.END: 0,
            RecordingSink.JOIN: 1,
            RecordingSink.WAIT: 0,
            RecordingSink.NOTIFY: 0,
        }

    def test_multicast_delivers_to_all(self):
        a, b = LogStatsSink(), LogStatsSink()
        multi = MulticastSink([a, b])
        multi.on_access_parts(*access(1, "f", 1, AccessKind.READ))
        multi.on_monitor_enter(1, 5, False)
        multi.on_thread_start(0, 1)
        multi.on_thread_end(1)
        multi.on_thread_join(0, 1)
        multi.on_monitor_exit(1, 5, False)
        multi.on_run_end()
        assert a.counts == b.counts
        assert a.counts[RecordingSink.ACCESS] == 1
        assert a.counts[RecordingSink.ENTER] == 1

    def test_recording_sink_replay_order(self):
        recorder = RecordingSink()
        recorder.on_thread_start(0, 1)
        recorder.on_monitor_enter(1, 5, False)
        recorder.on_access_parts(*access(1, "f", 1, AccessKind.READ))
        recorder.on_monitor_exit(1, 5, False)
        recorder.on_thread_end(1)
        recorder.on_thread_join(0, 1)

        replayed = RecordingSink()
        recorder.replay_into(replayed)
        assert replayed.log == recorder.log

    def test_event_is_write_property(self):
        def event(kind):
            return AccessEvent(MemoryLocation(1, "f"), 1, kind, 9)

        assert event(AccessKind.WRITE).is_write
        assert not event(AccessKind.READ).is_write

    def test_memory_location_str(self):
        assert str(MemoryLocation(3, "field")) == "#3.field"

    def test_base_sink_methods_are_noops(self):
        from repro.runtime.events import EventSink

        sink = EventSink()
        sink.on_access_parts(*access(1, "f", 1, AccessKind.READ))
        sink.on_monitor_enter(1, 2, False)
        sink.on_monitor_exit(1, 2, False)
        sink.on_thread_start(0, 1)
        sink.on_thread_end(1)
        sink.on_thread_join(0, 1)
        sink.on_run_end()
