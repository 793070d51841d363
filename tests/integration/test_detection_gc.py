"""The cyclic-GC pause around one shard's replay (``_detect_shard``).

Detection pauses CPython's cyclic collector while it replays a log:
the detector's state (tries, caches, tables) is large, live and
acyclic, so the collector's passes over it would find nothing.  These
tests pin both halves of that argument: the caller's collector setting
comes back whatever happens, and a detection leaves no garbage that
only the cyclic collector could free.
"""

import gc

import pytest

from repro.detector import detect_sharded
from repro.instrument import plan_instrumentation
from repro.lang import compile_source
from repro.runtime import LogCorruptError, RecordingSink, run_program
from repro.runtime.binlog import write_binary_log
from repro.runtime.synthlog import synthesize_file
from repro.workloads import ALL_WORKLOADS

from ..conftest import unbalanced_exit_log


@pytest.fixture(scope="module")
def synth_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("gc") / "synth.mjbl"
    synthesize_file(path, 20_000, seed=7)
    return path


@pytest.fixture(scope="module")
def tsp_log(tmp_path_factory):
    resolved = compile_source(ALL_WORKLOADS["tsp2"].build(6), filename="tsp2")
    plan = plan_instrumentation(resolved)
    log = RecordingSink()
    run_program(resolved, sink=log, trace_sites=plan.trace_sites)
    path = tmp_path_factory.mktemp("gc") / "tsp2.mjbl"
    write_binary_log(log, path)
    return path


@pytest.fixture
def collector_state():
    """Restores the collector setting a failing test may leave behind."""
    before = gc.isenabled()
    yield
    if before:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.usefixtures("collector_state")
class TestCollectorSettingIsRestored:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_after_detection(self, synth_log, enabled, shards):
        gc.enable() if enabled else gc.disable()
        result = detect_sharded(synth_log, shards)
        assert gc.isenabled() is enabled
        assert result.races > 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_a_damaged_log_raises_mid_replay(self, tmp_path, enabled):
        path = write_binary_log(unbalanced_exit_log(), tmp_path / "bad.mjbl")
        gc.enable() if enabled else gc.disable()
        with pytest.raises(LogCorruptError, match="unbalanced monitor exit"):
            detect_sharded(path, 1)
        assert gc.isenabled() is enabled


class TestDetectionLeavesNoCycles:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("log", ["synth_log", "tsp_log"])
    def test_collector_finds_nothing_unreachable(self, request, log, shards):
        path = request.getfixturevalue(log)
        gc.collect()
        result = detect_sharded(path, shards)
        assert result.races > 0
        assert gc.collect() == 0
        del result
        assert gc.collect() == 0
