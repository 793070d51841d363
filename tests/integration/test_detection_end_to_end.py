"""End-to-end detection scenarios through the full pipeline."""

import pytest

from repro import check_source
from repro.detector import DetectorConfig

from ..conftest import detect, detect_unoptimized


class TestBasicScenarios:
    def test_racy_program_detected(self, racy_two_writer_source):
        det = detect(racy_two_writer_source)
        assert det.reports.object_count == 1

    def test_safe_program_clean(self, safe_two_writer_source):
        det = detect(safe_two_writer_source)
        assert det.reports.object_count == 0

    def test_check_source_api(self, racy_two_writer_source):
        reports = check_source(racy_two_writer_source)
        assert reports
        assert "DATARACE" in reports[0].describe()

    def test_racy_detected_under_many_seeds(self, racy_two_writer_source):
        for seed in range(10):
            det = detect(racy_two_writer_source, seed=seed)
            assert det.reports.object_count == 1, f"seed {seed}"

    def test_safe_clean_under_many_seeds(self, safe_two_writer_source):
        for seed in range(10):
            det = detect(safe_two_writer_source, seed=seed)
            assert det.reports.object_count == 0, f"seed {seed}"


class TestLockPatterns:
    def test_distinct_locks_race(self):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            s.x = 0;
            var a = new Worker(s, new L());
            var b = new Worker(s, new L());
            start a; start b; join a; join b;
          }
        }
        class Shared { field x; }
        class L { }
        class Worker {
          field s; field lock;
          def init(s, lock) { this.s = s; this.lock = lock; }
          def run() {
            sync (this.lock) { this.s.x = this.s.x + 1; }
          }
        }
        """
        det = detect(source)
        assert det.reports.object_count == 1

    def test_nested_common_lock_safe(self):
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            s.x = 0;
            var outer = new L(); var inner = new L();
            var a = new Worker(s, outer, inner);
            var b = new Worker(s, inner, outer);
            start a; start b; join a; join b;
          }
        }
        class Shared { field x; }
        class L { }
        class Worker {
          field s; field l1; field l2;
          def init(s, l1, l2) { this.s = s; this.l1 = l1; this.l2 = l2; }
          def run() {
            // Both workers hold BOTH locks when touching x (in
            // opposite orders, but the MJ scheduler cannot deadlock
            // here because acquisition pairs are serialized enough
            // under round-robin... and the locksets intersect).
            sync (this.l1) { sync (this.l2) { this.s.x = this.s.x + 1; } }
          }
        }
        """
        # NOTE: opposite lock orders can deadlock under some schedules;
        # the deterministic round-robin default with quantum 10 lets
        # each worker pass through its critical section whole.
        det = detect(source)
        assert det.reports.object_count == 0

    def test_lock_identity_not_name(self):
        # Two *different* lock objects stored in same-named fields do
        # not protect against each other.
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            s.x = 0;
            var a = new Worker(s); var b = new Worker(s);
            start a; start b; join a; join b;
          }
        }
        class Shared { field x; }
        class Worker {
          field s; field myLock;
          def init(s) { this.s = s; this.myLock = new Worker2(); }
          def run() {
            sync (this.myLock) { this.s.x = this.s.x + 1; }
          }
        }
        class Worker2 { }
        """
        det = detect(source)
        assert det.reports.object_count == 1

    def test_guarding_self_via_receiver(self):
        source = """
        class Main {
          static def main() {
            var c = new Counter();
            var a = new Worker(c); var b = new Worker(c);
            start a; start b; join a; join b;
            print c.n;
          }
        }
        class Counter {
          field n;
          def init() { this.n = 0; }
          sync def bump() { this.n = this.n + 1; }
        }
        class Worker {
          field c;
          def init(c) { this.c = c; }
          def run() { this.c.bump(); this.c.bump(); }
        }
        """
        det = detect(source)
        assert det.reports.object_count == 0


class TestReportingGuarantee:
    def test_at_least_one_report_per_racy_location(self):
        """Definition 1 on a program with three racy locations."""
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            s.x = 0; s.y = 0; s.z = 0;
            var a = new Worker(s); var b = new Worker(s);
            start a; start b; join a; join b;
          }
        }
        class Shared { field x; field y; field z; }
        class Worker {
          field s;
          def init(s) { this.s = s; }
          def run() {
            this.s.x = this.s.x + 1;
            this.s.y = this.s.y + 2;
            this.s.z = this.s.z + 3;
          }
        }
        """
        det = detect_unoptimized(source)
        racy_fields = {r.field for r in det.reports.reports}
        assert racy_fields == {"x", "y", "z"}

    def test_static_field_races_detected(self):
        source = """
        class Main {
          static def main() {
            G.counter = 0;
            var a = new W(); var b = new W();
            start a; start b; join a; join b;
            print G.counter;
          }
        }
        class G { static field counter; }
        class W {
          def run() { G.counter = G.counter + 1; }
        }
        """
        det = detect(source)
        assert det.reports.object_count == 1
        assert all(r.field == "counter" for r in det.reports.reports)

    def test_array_races_detected_at_array_granularity(self):
        source = """
        class Main {
          static def main() {
            var data = newarray(10);
            var a = new W(data, 0); var b = new W(data, 5);
            start a; start b; join a; join b;
          }
        }
        class W {
          field d; field base;
          def init(d, base) { this.d = d; this.base = base; }
          def run() {
            var i = 0;
            while (i < 5) {
              this.d[this.base + i] = i;
              i = i + 1;
            }
          }
        }
        """
        # The two workers touch disjoint index ranges, but footnote 1
        # merges all elements: the array is reported (a known source of
        # imprecision the paper accepts).
        det = detect(source)
        assert det.reports.object_count == 1

    def test_pure_read_sharing_is_not_reported(self):
        # Two unlocked reads are no race: IsRace (Section 2.4) needs a
        # write on one side.
        source = """
        class Main {
          static def main() {
            var s = new Shared();
            s.x = 1;
            var a = new R(s); var b = new R(s);
            start a; start b; join a; join b;
          }
        }
        class Shared { field x; }
        class R {
          field s;
          def init(s) { this.s = s; }
          def run() { var v = this.s.x; }
        }
        """
        assert detect(source).reports.object_count == 0


class TestOptimizationTransparency:
    """The paper verified "the same races were reported whether the
    optimizations ... were enabled or disabled" (Section 7.2).  We
    check it on programs where racy accesses recur."""

    RECURRING = """
    class Main {
      static def main() {
        var s = new Shared();
        s.x = 0;
        var a = new Worker(s); var b = new Worker(s);
        start a; start b; join a; join b;
      }
    }
    class Shared { field x; }
    class Worker {
      field s;
      def init(s) { this.s = s; }
      def run() {
        var i = 0;
        while (i < 20) {
          this.s.x = this.s.x + 1;
          i = i + 1;
        }
      }
    }
    """

    def test_same_racy_objects_with_and_without_optimizations(self):
        optimized = detect(self.RECURRING)
        unoptimized = detect_unoptimized(self.RECURRING)
        assert (
            optimized.reports.racy_objects == unoptimized.reports.racy_objects
        )

    def test_same_racy_objects_without_cache(self):
        plain = detect(self.RECURRING)
        nocache = detect(
            self.RECURRING, detector_config=DetectorConfig(cache=False)
        )
        assert plain.reports.racy_objects == nocache.reports.racy_objects
