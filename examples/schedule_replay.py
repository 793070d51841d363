#!/usr/bin/env python
"""Section 2.6: record a schedule online, reconstruct FullRace offline.

The paper pairs the detector with the DejaVu record/replay platform:
detect cheaply online, reconstruct the expensive FullRace set offline
during replay.  MJ schedules are recordable determinism, so this
workflow runs exactly.

Run:  python examples/schedule_replay.py
"""

from repro.detector import RaceDetector, ReferenceDetector
from repro.lang import compile_source
from repro.runtime import RandomPolicy, record_run, replay_run

RACY = """
class Main {
  static def main() {
    var d = new Data();
    d.hits = 0;
    var a = new Logger(d); var b = new Logger(d);
    start a; start b; join a; join b;
    print d.hits;
  }
}
class Data { field hits; }
class Logger {
  field d;
  def init(d) { this.d = d; }
  def run() {
    var i = 0;
    while (i < 3) {
      this.d.hits = this.d.hits + 1;   // racy increments
      i = i + 1;
    }
  }
}
"""


def main() -> None:
    print("=== Record online, reconstruct FullRace on replay ===")
    resolved = compile_source(RACY)
    online = RaceDetector(resolved=resolved)
    result, trace = record_run(
        resolved, sink=online, inner_policy=RandomPolicy(7)
    )
    print(f"online detection during recording: "
          f"{online.reports.object_count} racy object(s), "
          f"{online.stats.races_reported} report(s)")
    resolved = compile_source(RACY)
    oracle = ReferenceDetector()
    replay_run(resolved, trace, sink=oracle)
    print(f"replayed {len(trace)} recorded scheduling decisions")
    print(f"FullRace pairs reconstructed offline: {len(oracle.full_race)}")
    for pair in oracle.full_race[:5]:
        print(f"  {pair.key}: thread {pair.earlier.thread_id} "
              f"{pair.earlier.kind.value} {sorted(pair.earlier.lockset)} vs "
              f"thread {pair.later.thread_id} {pair.later.kind.value} "
              f"{sorted(pair.later.lockset)}")
    print("(The online detector reports one access per racy location —")
    print("Definition 1; the O(N²) enumeration is deferred to replay,")
    print("exactly the paper's DejaVu workflow from Section 2.6.)")


if __name__ == "__main__":
    main()
