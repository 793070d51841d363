"""Unit tests for the difflab's declarative core.

The expectation matrix is exercised with hand-built Verdict objects —
no interpreter involved — so every classification path (each expected
class, each violation class, the mode- and sharded-parity checks) is
pinned independently of what the fuzzer happens to generate.
"""

import pytest

from repro.difflab import (
    EXPECTED,
    MATRIX,
    VIOLATION,
    ScheduleSpec,
    Verdict,
    case_classes,
    classify_case,
    count_statements,
    expected_classes,
    fingerprint,
    lock_order_ascending,
    violation_classes,
)
from repro.difflab.lab import CaseResult
from repro.runtime import RandomPolicy, RoundRobinPolicy
from repro.runtime.replay import FallbackReplayPolicy


def verdict(name, locations=(), objects=(), races=0, counters=()):
    return Verdict(
        detector=name,
        locations=frozenset(locations),
        objects=frozenset(objects),
        races=races,
        counters=tuple(counters),
    )


def paper_counters(**overrides):
    base = {
        "accesses": 10,
        "owned_filtered": 2,
        "detector_processed": 8,
        "filtered_sum": 3,
        "monitored_locations": 4,
        "trie_nodes": 5,
        "report_signature": (),
    }
    base.update(overrides)
    return tuple(base.items())


class TestScheduleSpec:
    def test_roundtrip_all_kinds(self):
        for spec in (
            ScheduleSpec(kind="roundrobin"),
            ScheduleSpec(kind="random", seed=7),
            ScheduleSpec(kind="prefix", choices=(0, 1, 1, 0)),
        ):
            assert ScheduleSpec.from_json(spec.to_json()) == spec

    def test_policy_types(self):
        assert isinstance(ScheduleSpec(kind="roundrobin").policy(),
                          RoundRobinPolicy)
        assert isinstance(ScheduleSpec(kind="random", seed=3).policy(),
                          RandomPolicy)
        assert isinstance(
            ScheduleSpec(kind="prefix", choices=(1, 0)).policy(),
            FallbackReplayPolicy,
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScheduleSpec(kind="quantum").policy()

    def test_describe(self):
        assert ScheduleSpec(kind="roundrobin").describe() == "round-robin"
        assert "seed=4" in ScheduleSpec(kind="random", seed=4).describe()
        assert "2 steps" in ScheduleSpec(
            kind="prefix", choices=(0, 1)
        ).describe()


class TestMatrixShape:
    def test_class_inventories(self):
        assert set(expected_classes()) == {
            "eraser-single-lock-fp",
            "eraser-deferral-miss",
            "feasible-race-gap",
            "object-granularity-fp",
            "object-deferral-miss",
            "ownership-suppressed",
            "ownership-timing-shift",
            "static-elimination-miss",
            "predicted-not-observed",
            "lockset-fp-refuted",
        }
        assert set(violation_classes()) == {
            "definition1-miss",
            "precision-loss",
            "ownership-admitted-extra",
            "hb-inclusion-break",
            "mode-parity-break",
            "sharded-parity-break",
            "binlog-parity-break",
            "predictive-superset-break",
            "hybrid-exceeds-shb",
            "hybrid-lockset-break",
        }

    def test_every_row_names_sides_and_reason(self):
        for row in MATRIX:
            assert row.domain in ("locations", "objects")
            assert row.why
            assert row.on_left_extra or row.on_right_extra


class TestClassification:
    def test_agreement_is_silent(self):
        verdicts = {
            "reference": verdict("reference", {"#1.f0"}),
            "paper": verdict("paper", {"#1.f0"}),
        }
        assert classify_case(verdicts) == []

    def test_definition1_miss_is_violation(self):
        verdicts = {
            "reference": verdict("reference", {"#1.f0", "#1.f1"}),
            "paper": verdict("paper", {"#1.f0"}),
        }
        (d,) = classify_case(verdicts)
        assert d.klass == "definition1-miss"
        assert d.classification == VIOLATION
        assert d.items == ("#1.f1",)

    def test_precision_loss_is_violation(self):
        verdicts = {
            "reference": verdict("reference"),
            "paper": verdict("paper", {"#1.f0"}),
        }
        (d,) = classify_case(verdicts)
        assert d.klass == "precision-loss"
        assert d.is_violation

    def test_ownership_suppressed_is_expected(self):
        verdicts = {
            "paper": verdict("paper"),
            "reference-raw": verdict("reference-raw", {"#2.s"}),
        }
        (d,) = classify_case(verdicts)
        assert d.klass == "ownership-suppressed"
        assert d.classification == EXPECTED

    def test_hb_inclusion_break_vs_feasible_gap(self):
        verdicts = {
            "hb": verdict("hb", {"#1.f0"}),
            "reference-raw": verdict("reference-raw", {"#1.f1"}),
        }
        classes = {d.klass: d for d in classify_case(verdicts)}
        assert classes["hb-inclusion-break"].is_violation
        assert not classes["feasible-race-gap"].is_violation

    def test_eraser_row_expected_both_ways(self):
        verdicts = {
            "eraser": verdict("eraser", {"#1.f0"}),
            "paper": verdict("paper", {"#1.f1"}),
        }
        classes = {d.klass for d in classify_case(verdicts)}
        assert classes == {"eraser-single-lock-fp", "eraser-deferral-miss"}
        assert all(not d.is_violation for d in classify_case(verdicts))

    def test_object_row_uses_object_domain(self):
        verdicts = {
            "objectrace": verdict("objectrace", objects={"Shared#1"}),
            "paper": verdict("paper", {"#1.f0"}),  # locations ignored here
        }
        (d,) = classify_case(verdicts)
        assert d.klass == "object-granularity-fp"
        assert d.domain == "objects"

    def test_missing_detectors_skip_rows(self):
        # Injection runs drop the sharded battery; static axis optional.
        verdicts = {"paper": verdict("paper", {"#1.f0"})}
        assert classify_case(verdicts) == []


class TestPredictiveClassification:
    """The three predictive matrix rows, each direction pinned."""

    def test_predicted_not_observed_is_expected(self):
        verdicts = {
            "shb": verdict("shb", {"#1.x", "#1.y"}),
            "hb": verdict("hb", {"#1.y"}),
        }
        (d,) = classify_case(verdicts)
        assert d.klass == "predicted-not-observed"
        assert d.classification == EXPECTED
        assert d.items == ("#1.x",)

    def test_predictive_superset_break_is_violation(self):
        # An HB-observed race the predictor missed: the superset
        # theorem is broken, which only a detector bug can cause.
        verdicts = {
            "shb": verdict("shb"),
            "hb": verdict("hb", {"#1.x"}),
        }
        (d,) = classify_case(verdicts)
        assert d.klass == "predictive-superset-break"
        assert d.is_violation

    def test_hybrid_exceeds_shb_is_violation(self):
        verdicts = {
            "hybrid": verdict("hybrid", {"#1.x"}),
            "shb": verdict("shb"),
        }
        classes = {d.klass: d for d in classify_case(verdicts)}
        assert classes["hybrid-exceeds-shb"].is_violation

    def test_hybrid_filtering_shb_is_silent(self):
        # The conjunct dropping pure-SHB false positives is the design
        # working, not a discrepancy class.
        verdicts = {
            "hybrid": verdict("hybrid"),
            "shb": verdict("shb", {"#1.x"}),
        }
        assert classify_case(verdicts) == []

    def test_lockset_fp_refuted_is_expected(self):
        verdicts = {
            "hybrid": verdict("hybrid"),
            "reference-raw": verdict("reference-raw", {"#2.s"}),
        }
        (d,) = classify_case(verdicts)
        assert d.klass == "lockset-fp-refuted"
        assert d.classification == EXPECTED

    def test_hybrid_lockset_break_is_violation(self):
        verdicts = {
            "hybrid": verdict("hybrid", {"#1.x"}),
            "reference-raw": verdict("reference-raw"),
        }
        classes = {d.klass: d for d in classify_case(verdicts)}
        assert classes["hybrid-lockset-break"].is_violation

    def test_agreement_across_predictive_axes_is_silent(self):
        verdicts = {
            "hb": verdict("hb", {"#1.x"}),
            "shb": verdict("shb", {"#1.x"}),
            "hybrid": verdict("hybrid", {"#1.x"}),
            "reference-raw": verdict("reference-raw", {"#1.x"}),
        }
        assert classify_case(verdicts) == []


class TestFindHelpers:
    def test_class_items_collects_sorted_union(self):
        from repro.difflab import class_items

        verdicts = {
            "shb": verdict("shb", {"#1.y", "#1.x"}),
            "hb": verdict("hb"),
        }
        result = CaseResult(
            label="synthetic",
            source="",
            schedule=ScheduleSpec(),
            discrepancies=classify_case(verdicts),
        )
        assert class_items(result, "predicted-not-observed") == (
            "#1.x", "#1.y",
        )
        assert class_items(result, "lockset-fp-refuted") == ()

    def test_campaign_summary_lists_finds(self):
        from repro.difflab import Find
        from repro.difflab.lab import CampaignResult
        from repro.difflab.shrink import ShrinkStats

        result = CampaignResult(cases_run=1)
        result.finds.append(Find(
            fingerprint="cafebabe",
            klass="predicted-not-observed",
            source="",
            schedule=ScheduleSpec(),
            original_label="fuzz-0",
            stats=ShrinkStats(),
            items=("#1.x",),
            witness={"location": "#1.x", "choices": [0, 1]},
        ))
        result.finds.append(Find(
            fingerprint="deadbeef",
            klass="lockset-fp-refuted",
            source="",
            schedule=ScheduleSpec(),
            original_label="fuzz-1",
            stats=ShrinkStats(),
            items=("#2.s",),
        ))
        summary = result.summary()
        assert "FIND cafebabe [predicted-not-observed] (with witness)" in summary
        assert "FIND deadbeef [lockset-fp-refuted] (no witness)" in summary


class TestParityChecks:
    def test_mode_parity_break(self):
        verdicts = {
            "paper-live": verdict("paper-live", {"#1.f0"}, races=1),
            "paper": verdict("paper", races=0),
        }
        (d,) = classify_case(verdicts)
        assert d.klass == "mode-parity-break"
        assert d.is_violation

    def test_sharded_parity_checks_counters_not_just_reports(self):
        verdicts = {
            "paper": verdict("paper", {"#1.f0"}, races=1,
                             counters=paper_counters()),
            "paper-sharded-2": verdict(
                "paper-sharded-2", {"#1.f0"}, races=1,
                counters=paper_counters(trie_nodes=99),
            ),
        }
        (d,) = classify_case(verdicts, shards=(2,))
        assert d.klass == "sharded-parity-break"
        assert "trie_nodes" in d.detail

    def test_sharded_parity_ok(self):
        verdicts = {
            "paper": verdict("paper", {"#1.f0"}, races=1,
                             counters=paper_counters()),
            "paper-sharded-2": verdict(
                "paper-sharded-2", {"#1.f0"}, races=1,
                counters=paper_counters(),
            ),
        }
        assert classify_case(verdicts, shards=(2,)) == []


class TestCaseHelpers:
    def _result(self):
        verdicts = {
            "reference": verdict("reference", {"#1.f0"}),
            "paper": verdict("paper"),
            "reference-raw": verdict("reference-raw", {"#2.s"}),
        }
        return CaseResult(
            label="synthetic",
            source="",
            schedule=ScheduleSpec(),
            discrepancies=classify_case(verdicts),
        )

    def test_case_classes_split(self):
        result = self._result()
        assert case_classes(result) == {"definition1-miss"}
        assert case_classes(result, violations_only=False) == {
            "definition1-miss",
            "ownership-suppressed",
        }

    def test_fingerprint_stable_and_sensitive(self):
        rr = ScheduleSpec(kind="roundrobin")
        a = fingerprint("src", rr, ["x"])
        assert a == fingerprint("src", rr, ["x"])
        assert a != fingerprint("src2", rr, ["x"])
        assert a != fingerprint("src", ScheduleSpec(kind="random"), ["x"])
        assert a != fingerprint("src", rr, ["y"])


class TestSourceMetrics:
    SOURCE = """\
class Main {
  static def main() {
    var shared = new Shared();
    var w0 = new Worker0(shared);
    start w0;
    while (shared.f0 < 1) {
      shared.f0 = 1;
    }
    join w0;
  }
}
class Shared { field f0; }
class Worker0 {
  field s;
  def init(shared) { this.s = shared; }
  def run() { }
}
"""

    def test_count_statements(self):
        # 5 semicolon-terminated lines + the while header; class/field
        # declarations and one-line method bodies don't count.
        assert count_statements(self.SOURCE) == 6

    def test_lock_order_ascending(self):
        good = "sync (this.lock0) {\n  sync (this.lock1) {\n  }\n}\n"
        bad = "sync (this.lock1) {\n  sync (this.lock0) {\n  }\n}\n"
        assert lock_order_ascending(good)
        assert not lock_order_ascending(bad)
        assert lock_order_ascending(self.SOURCE)


RACY_PAIR = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 0;
    var a = new Worker(d); var b = new Worker(d);
    start a; start b; join a; join b;
    print d.x;
  }
}
class Data { field x; }
class Worker {
  field d;
  def init(d) { this.d = d; }
  def run() { this.d.x = this.d.x + 1; }
}
"""


class TestBinlogAxis:
    """The ``paper-binlog`` axis decodes through the production
    columnar ``BinaryLogReader.replay_into``, so a decoder bug there is
    a lab violation."""

    def _binlog_breaks(self, case):
        from repro.difflab.verdicts import compute_verdicts

        verdicts = compute_verdicts(case, shards=(2,))
        return [
            d for d in classify_case(verdicts, shards=(2,))
            if d.klass == "binlog-parity-break"
        ]

    def test_dropped_access_in_replay_into_is_a_parity_break(
        self, monkeypatch
    ):
        from repro.difflab.verdicts import execute_case
        from repro.runtime import MulticastSink
        from repro.runtime.binlog import BinaryLogReader

        case = execute_case(RACY_PAIR, ScheduleSpec())
        assert self._binlog_breaks(case) == []

        class DropFirstAccess(MulticastSink):
            dropped = False

            def on_access_parts(self, *parts):
                if not self.dropped:
                    self.dropped = True
                    return
                super().on_access_parts(*parts)

        replay_into = BinaryLogReader.replay_into

        def lossy_replay_into(self, sink, shard=-1, shards=1):
            replay_into(self, DropFirstAccess([sink]), shard, shards)

        monkeypatch.setattr(BinaryLogReader, "replay_into", lossy_replay_into)
        (broken,) = self._binlog_breaks(case)
        assert broken.is_violation
        assert "roundtrip_identical" in broken.detail
        assert "accesses" in broken.detail
