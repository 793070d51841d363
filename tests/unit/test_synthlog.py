"""The synthetic trace generator behind the 10M-event benchmarks.

Its contract: exactly the requested event count, deterministic per
seed, well-formed (validates as schema v3, monitors balance, lifecycle
ordering holds), all eight event kinds present, and a race-report
volume bounded by the per-trace racy budget rather than the trace size.
"""

import pytest

from repro.detector import detect_sharded
from repro.runtime import RecordingSink
from repro.runtime.events import validate_entries
from repro.runtime.synthlog import synthesize_into


def _synth(events, **kwargs):
    sink = RecordingSink()
    count = synthesize_into(sink, events, **kwargs)
    return sink, count


class TestSynthlog:
    @pytest.mark.parametrize("events", [2_000, 10_000, 50_001])
    def test_exact_event_count(self, events):
        sink, count = _synth(events)
        assert count == events == len(sink.log)

    def test_deterministic_per_seed(self):
        first, _ = _synth(5_000, seed=7)
        second, _ = _synth(5_000, seed=7)
        other, _ = _synth(5_000, seed=8)
        assert first.log == second.log
        assert first.log != other.log

    def test_stream_is_valid_schema_v3(self):
        sink, _ = _synth(10_000)
        validate_entries(sink.log)

    def test_all_eight_kinds_present(self):
        sink, _ = _synth(10_000)
        tags = {entry[0] for entry in sink.log}
        assert tags == {
            RecordingSink.ACCESS, RecordingSink.ENTER, RecordingSink.EXIT,
            RecordingSink.START, RecordingSink.END, RecordingSink.JOIN,
            RecordingSink.WAIT, RecordingSink.NOTIFY,
        }

    def test_monitors_balance_per_thread(self):
        sink, _ = _synth(20_000)
        depth: dict = {}
        for entry in sink.log:
            if entry[0] == RecordingSink.ENTER:
                depth[entry[1]] = depth.get(entry[1], 0) + 1
            elif entry[0] == RecordingSink.EXIT:
                depth[entry[1]] = depth[entry[1]] - 1
                assert depth[entry[1]] >= 0
        assert all(d == 0 for d in depth.values())

    def test_race_volume_tracks_budget_not_scale(self):
        small, _ = _synth(20_000, racy_total=64)
        large, _ = _synth(80_000, racy_total=64)
        small_races = detect_sharded(small, 1).races
        large_races = detect_sharded(large, 1).races
        assert 0 < small_races <= 64
        assert 0 < large_races <= 64

    def test_rejects_infeasible_budget(self):
        sink = RecordingSink()
        with pytest.raises(ValueError, match="too small"):
            synthesize_into(sink, 100)
