"""No thread's cache holds a location at its ownership transition.

The pipeline runs the ownership filter (Section 7) before the per-thread
access caches (Section 4): while a location is owned its accesses
return before the cache is consulted, and once it is shared it stays
shared.  So Section 7.2's run-time fix — evict the location from every
thread's cache at the owned→shared transition — would never find an
entry to evict, and the detector does not perform it.  These tests pin
the invariant that makes leaving it out sound, on generated event
streams and on the benchmark workloads under both engines.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.detector import DetectorConfig, RaceDetector
from repro.detector.ownership import SHARED
from repro.runtime import engine_runner
from repro.runtime.events import ObjectKind

from .test_detector_vs_reference import feed, materialize, streams
from .test_engine_parity import compiled_workload


class TransitionProbe(RaceDetector):
    """Checks every thread's caches at each owned→shared transition."""

    def __init__(self, config=None, **kwargs):
        super().__init__(config=config, **kwargs)
        self.transitions_checked = 0

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind,
        object_label,
    ) -> None:
        merged = self._fields_merged and object_kind is not ObjectKind.CLASS
        record = self.location_record(object_uid, None if merged else field)
        key, owner = record.key, record.owner
        if owner is not None and owner is not SHARED and owner != thread_id:
            self.transitions_checked += 1
            for caches in self.cache._threads.values():  # noqa: SLF001
                for cache in (caches.read, caches.write):
                    # A slot holds its cached key or None.
                    assert not any(
                        slot == key
                        for slot in cache._slots  # noqa: SLF001
                    )
        super().on_access_parts(
            object_uid, field, thread_id, kind, site_id, object_kind,
            object_label,
        )


probe_configs = st.builds(
    DetectorConfig,
    cache_size=st.sampled_from([1, 2, 256]),
    fields_merged=st.booleans(),
    join_pseudolocks=st.booleans(),
)


class TestTransitionFindsNoCachedEntry:
    @settings(max_examples=300, deadline=None)
    @given(streams, probe_configs)
    def test_generated_streams(self, raw, config):
        feed(TransitionProbe(config), materialize(raw))

    @pytest.mark.parametrize("engine", ["ast", "compiled"])
    @pytest.mark.parametrize("name", ["tsp2", "mtrt2", "sor2"])
    def test_workloads(self, name, engine):
        resolved, plan = compiled_workload(name)
        probe = TransitionProbe(
            resolved=resolved, static_races=plan.static_races
        )
        engine_runner(engine)(
            resolved, sink=probe, trace_sites=plan.trace_sites
        )
        assert probe.transitions_checked > 0
