"""Recording cost per event: the tuple log against the MJBL writer.

Three sinks record the same event streams:

* ``tuple log`` — :class:`~repro.runtime.events.RecordingSink`;
* ``MJBL file`` — :class:`~repro.runtime.binlog.BinaryLogSink` on a
  path in a temporary directory (format v1);
* ``MJBL memory`` — the same writer on an :class:`io.BytesIO`.

The inputs are the serve-mix programs (tsp2 at scale 8, mtrt2 at 6,
sor2 at 16, each on the compiled engine under ``RandomPolicy(2002)``)
and the seed-2002 200k-event ``synthlog`` trace.  Each input is timed
two ways, sink construction and finalization included:

* ``record`` — the recording itself: the program's run with the sink
  attached, or ``synthesize_into`` the sink;
* ``replay`` — ``replay_entries`` of the input's resident tuple log
  into the sink, so the sinks' own costs are all that differs.

Within each repeat the three sinks run back to back, starting with a
different sink each repeat; each cell is the median over the repeats,
in ns per event.

Run: ``PYTHONPATH=src python benchmarks/record_cost.py`` (about a
minute on a 2-vCPU host).  Prints a markdown table.
"""

from __future__ import annotations

import io
import statistics
import tempfile
import time
from pathlib import Path

from benchlib import ROOT  # noqa: F401  (puts src/ on the path)

from repro.lang import compile_source
from repro.runtime import RandomPolicy, engine_runner
from repro.runtime.binlog import BinaryLogSink
from repro.runtime.events import RecordingSink, replay_entries
from repro.runtime.synthlog import synthesize_into
from repro.workloads import BENCHMARKS

SEED = 2002
PROGRAMS = (("tsp2", 8), ("mtrt2", 6), ("sor2", 16))
PROGRAM_REPEATS = 31
SYNTH_EVENTS = 200_000
SYNTH_REPEATS = 7


def _inputs():
    """``(label, record(sink), repeats)`` per input."""
    runner = engine_runner("compiled")
    for name, scale in PROGRAMS:
        resolved = compile_source(BENCHMARKS[name].build(scale))
        yield (
            f"{name}-{scale}",
            lambda sink, resolved=resolved: runner(
                resolved, sink=sink, policy=RandomPolicy(SEED)
            ),
            PROGRAM_REPEATS,
        )
    yield (
        f"synthlog {SYNTH_EVENTS // 1000}k",
        lambda sink: synthesize_into(sink, SYNTH_EVENTS, seed=SEED),
        SYNTH_REPEATS,
    )


def interleaved(operation, sinks: dict, repeats: int) -> dict:
    """Median seconds of ``operation(make())`` per sink, over rotated
    rounds."""
    names = list(sinks)
    times = {name: [] for name in names}
    for repeat in range(repeats):
        turn = repeat % len(names)
        for name in names[turn:] + names[:turn]:
            started = time.perf_counter()
            operation(sinks[name]())
            times[name].append(time.perf_counter() - started)
    return {name: statistics.median(values) for name, values in times.items()}


def main() -> None:
    print("| input | events | timed | tuple log | MJBL file | MJBL memory "
          "| memory vs tuple |")
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory(prefix="record-cost-") as tmp:
        path = Path(tmp) / "record.mjbl"
        sinks = {
            "tuple log": RecordingSink,
            "MJBL file": lambda: BinaryLogSink(path),
            "MJBL memory": lambda: BinaryLogSink(io.BytesIO()),
        }
        for label, record, repeats in _inputs():
            rows = {"record": interleaved(record, sinks, repeats)}
            # The replay input is resident only while replay is timed:
            # held during recording, its tuples would slow every
            # collector pass there.
            log = RecordingSink()
            record(log)
            events = len(log.log)
            rows["replay"] = interleaved(
                lambda sink: replay_entries(log.log, sink), sinks, repeats
            )
            del log
            for timed, seconds in rows.items():
                ns = {name: value / events * 1e9 for name, value in seconds.items()}
                ratio = seconds["MJBL memory"] / seconds["tuple log"] - 1
                print(f"| {label} | {events:,} | {timed} "
                      f"| {ns['tuple log']:,.0f} | {ns['MJBL file']:,.0f} "
                      f"| {ns['MJBL memory']:,.0f} | {ratio:+.0%} |")


if __name__ == "__main__":
    main()
