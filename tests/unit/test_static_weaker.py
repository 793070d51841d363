"""Unit tests for the static weaker-than elimination (Section 6.1)."""

from repro.analysis import lower_program
from repro.instrument import eliminate_redundant_traces
from repro.lang import compile_source


def eliminate(body: str, extra: str = "", method: str = "Main.main"):
    source = "class Main { static def main() { " + body + " } }\n" + extra
    resolved = compile_source(source)
    function = lower_program(resolved)[method]
    result = eliminate_redundant_traces(function, traced_sites=None)
    sites = {
        info.site_id: info for info in resolved.sites.values()
    }
    return result, sites, resolved


def surviving_fields(body: str, extra: str = "") -> list:
    result, sites, resolved = eliminate(body, extra)
    survivors = [
        sites[sid].field_name
        for sid in sorted(sites)
        if sid not in result.eliminated
    ]
    return survivors


class TestStraightLine:
    def test_repeated_read_eliminated(self):
        result, sites, _ = eliminate(
            "var p = new P(); var a = p.f; var b = p.f;",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1

    def test_write_covers_subsequent_read(self):
        result, _, _ = eliminate(
            "var p = new P(); p.f = 1; var a = p.f;",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1

    def test_read_does_not_cover_write(self):
        result, _, _ = eliminate(
            "var p = new P(); var a = p.f; p.f = 1;",
            "class P { field f; }",
        )
        # The read survives AND the write survives (read not weaker
        # than write), but the *second* read-after-write would go.
        assert len(result.eliminated) == 0

    def test_repeated_write_eliminated(self):
        result, _, _ = eliminate(
            "var p = new P(); p.f = 1; p.f = 2;",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1

    def test_different_fields_not_eliminated(self):
        result, _, _ = eliminate(
            "var p = new P(); var a = p.f; var b = p.g;",
            "class P { field f; field g; }",
        )
        assert not result.eliminated

    def test_different_bases_not_eliminated(self):
        result, _, _ = eliminate(
            "var p = new P(); var q = new P(); var a = p.f; var b = q.f;",
            "class P { field f; }",
        )
        assert not result.eliminated

    def test_copy_of_base_still_matches(self):
        result, _, _ = eliminate(
            "var p = new P(); var q = p; var a = p.f; var b = q.f;",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1

    def test_static_field_repeat_eliminated(self):
        result, _, _ = eliminate(
            "var a = G.x; var b = G.x;", "class G { static field x; }"
        )
        assert len(result.eliminated) == 1

    def test_array_repeat_base_only_matching(self):
        # Footnote 1: one location per array — different indices still
        # hit the same location, so the second access is redundant.
        result, _, _ = eliminate(
            "var a = newarray(4); var x = a[0]; var y = a[1];"
        )
        assert len(result.eliminated) == 1

    def test_array_write_covers_read_at_another_index(self):
        # The array key ignores the index, so a write to a[0] is weaker
        # than a later read of a[1]; the read is not weaker than a later
        # write, so that write stays.
        covered, _, _ = eliminate(
            "var a = newarray(4); a[0] = 1; var y = a[1];"
        )
        assert len(covered.eliminated) == 1
        kept, _, _ = eliminate(
            "var a = newarray(4); var x = a[0]; a[1] = 1;"
        )
        assert not kept.eliminated


class TestBarriers:
    def test_call_is_a_barrier(self):
        source = """
        class Main {
          static def nop() { }
          static def main() {
            var p = new P(); var a = p.f; nop(); var b = p.f;
          }
        }
        class P { field f; }
        """
        resolved = compile_source(source)
        function = lower_program(resolved)["Main.main"]
        result = eliminate_redundant_traces(function, traced_sites=None)
        assert not result.eliminated

    def test_constructor_call_is_a_barrier(self):
        result, _, _ = eliminate(
            "var p = new P(); var a = p.f; var q = new Q(1); var b = p.f;",
            "class P { field f; } class Q { field v; def init(v) { this.v = v; } }",
        )
        assert not result.eliminated

    def test_start_is_a_barrier(self):
        result, _, _ = eliminate(
            "var p = new P(); var w = new W(); var a = p.f; start w; var b = p.f;",
            "class P { field f; } class W { def run() { } }",
        )
        assert not result.eliminated

    def test_join_is_a_barrier(self):
        result, _, _ = eliminate(
            "var p = new P(); var w = new W(); start w; "
            "var a = p.f; join w; var b = p.f;",
            "class P { field f; } class W { def run() { } }",
        )
        assert not result.eliminated

    def test_plain_allocation_not_a_barrier(self):
        result, _, _ = eliminate(
            "var p = new P(); var a = p.f; var q = new P(); var b = p.f;",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1


class TestControlFlow:
    def test_dominating_read_covers_join_point_read(self):
        result, _, _ = eliminate(
            "var p = new P(); var a = p.f; if (a > 0) { } var b = p.f;",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1

    def test_branch_arm_does_not_cover_join_point(self):
        result, _, _ = eliminate(
            "var p = new P(); if (true) { var a = p.f; } var b = p.f;",
            "class P { field f; }",
        )
        assert not result.eliminated

    def test_access_in_both_arms_does_not_cover_join(self):
        # dom-based Exec: neither arm dominates the join.  (pdom would
        # help here; the paper explains why it is useless in Java.)
        result, _, _ = eliminate(
            "var p = new P(); if (true) { var a = p.f; } "
            "else { var c = p.f; } var b = p.f;",
            "class P { field f; }",
        )
        assert not result.eliminated

    def test_pre_loop_access_covers_in_loop_access(self):
        result, _, _ = eliminate(
            "var p = new P(); var a = p.f; var i = 0; "
            "while (i < 3) { var b = p.f; i = i + 1; }",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1

    def test_loop_with_call_blocks_coverage(self):
        source = """
        class Main {
          static def nop() { }
          static def main() {
            var p = new P(); var a = p.f; var i = 0;
            while (i < 3) { nop(); var b = p.f; i = i + 1; }
          }
        }
        class P { field f; }
        """
        resolved = compile_source(source)
        function = lower_program(resolved)["Main.main"]
        result = eliminate_redundant_traces(function, traced_sites=None)
        assert not result.eliminated

    def test_in_loop_access_covers_itself_across_iterations(self):
        # A single in-loop access: nothing else can cover it, and it
        # must not be eliminated by its own earlier iterations via an
        # unsound cycle.
        result, _, _ = eliminate(
            "var p = new P(); var i = 0; "
            "while (i < 3) { var b = p.f; i = i + 1; }",
            "class P { field f; }",
        )
        assert not result.eliminated

    def test_two_in_loop_accesses_one_eliminated(self):
        result, _, _ = eliminate(
            "var p = new P(); var i = 0; "
            "while (i < 3) { var a = p.f; var b = p.f; i = i + 1; }",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1


class TestSyncNesting:
    def test_same_sync_block_eliminates(self):
        result, _, _ = eliminate(
            "var p = new P(); sync (p) { var a = p.f; var b = p.f; }",
            "class P { field f; }",
        )
        assert len(result.eliminated) == 1

    def test_outer_covers_deeper_nesting(self):
        result, _, _ = eliminate(
            "var p = new P(); var l = new L(); "
            "var a = p.f; sync (l) { var b = p.f; }",
            "class P { field f; } class L { }",
        )
        assert len(result.eliminated) == 1

    def test_inner_does_not_cover_outer(self):
        result, _, _ = eliminate(
            "var p = new P(); var l = new L(); "
            "sync (l) { var a = p.f; } var b = p.f;",
            "class P { field f; } class L { }",
        )
        # `a`'s lockset {l} is not a subset guarantee for `b`'s {}.
        assert not result.eliminated

    def test_sibling_sync_blocks_do_not_cover(self):
        result, _, _ = eliminate(
            "var p = new P(); var l = new L(); "
            "sync (l) { var a = p.f; } sync (l) { var b = p.f; }",
            "class P { field f; } class L { }",
        )
        # Different acquisitions of the same lock: distinct sync ids,
        # and neither stack is a prefix of the other beyond the shared
        # root — the `outer` condition fails.
        assert not result.eliminated


class TestTracedSiteRestriction:
    def test_untraced_source_cannot_justify(self):
        source = (
            "class Main { static def main() { "
            "var p = new P(); var a = p.f; var b = p.f; } }\n"
            "class P { field f; }"
        )
        resolved = compile_source(source)
        function = lower_program(resolved)["Main.main"]
        first_site = min(resolved.sites)
        # Pretend static analysis pruned the first read: it emits no
        # event and must not justify removing the second.
        result = eliminate_redundant_traces(
            function, traced_sites={sid for sid in resolved.sites if sid != first_site}
        )
        assert not result.eliminated

    def test_justification_map_points_to_weaker_site(self):
        result, sites, resolved = eliminate(
            "var p = new P(); p.f = 1; var a = p.f;",
            "class P { field f; }",
        )
        ((eliminated, justifier),) = result.justification.items()
        assert sites[justifier].access_kind.value == "WRITE"
        assert sites[eliminated].access_kind.value == "READ"
