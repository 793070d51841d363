"""Pinned output of every post-mortem axis on the serve-mix inputs.

``repro serve`` replays every job's event stream through the two
baseline axes (``HappensBeforeDetector`` and ``EraserDetector``);
``check --predict`` and difflab replay the SHB and hybrid predictors,
the object-race baseline and the FullRace reference oracle (with and
without ownership).  The difflab corpus pins their verdicts on small
programs only; this module pins every report (or racing pair) field,
the racy location and object sets, and the race counts on the inputs
the service benchmark sends:

* tsp2 at scale 8, mtrt2 at scale 6 and sor2 at scale 16, recorded on
  the compiled engine under ``RandomPolicy(2002)`` and replayed from
  tuples, as the service replays program jobs;
* an 8k-event ``synthlog`` trace at seed 2002, replayed from MJBL v1
  and v2, as the service replays uploads.
"""

import hashlib
from dataclasses import fields

import pytest

from repro.baselines import EraserDetector, HappensBeforeDetector, ObjectRaceDetector
from repro.detector import DetectorConfig, ReferenceDetector
from repro.detector.predict import HybridPredictor, SHBPredictor
from repro.instrument import PlannerConfig, plan_instrumentation
from repro.lang import compile_source
from repro.runtime import (
    RandomPolicy,
    RecordingSink,
    engine_runner,
    replay_entries,
)
from repro.runtime.binlog import open_log
from repro.runtime.events import MemoryLocation
from repro.runtime.synthlog import synthesize_file
from repro.workloads import ALL_WORKLOADS

SEED = 2002
UPLOAD_EVENTS = 8_000
AXES = (
    ("hb", HappensBeforeDetector),
    ("eraser", EraserDetector),
    ("shb", SHBPredictor),
    ("hybrid", HybridPredictor),
    ("objectrace", ObjectRaceDetector),
    ("reference", lambda: ReferenceDetector(DetectorConfig())),
    ("reference-raw", lambda: ReferenceDetector(DetectorConfig(ownership=False))),
)

#: input -> axis -> (races, digest).  The hb and eraser digests were
#: computed before those baselines took their scalar access path, the
#: other five before the predictors, the object-race baseline and the
#: reference oracle took theirs; any drift in a report field, a racy
#: set or a count changes the digest.
PINNED = {
    "tsp2-8": {
        "hb": (148, "e818524e6a50459e"),
        "eraser": (7, "aff96ffa9b5002c2"),
        "shb": (282, "fe87b71223c8d146"),
        "hybrid": (274, "3e2495806dca65b1"),
        "objectrace": (15, "c6c8639d525aa15a"),
        "reference": (4314, "7d748e179b342409"),
        "reference-raw": (8294, "b596917bf4381477"),
    },
    "mtrt2-6": {
        "hb": (3, "536fdfb5b1baa3a6"),
        "eraser": (4, "eaffec01955ab2d5"),
        "shb": (3, "536fdfb5b1baa3a6"),
        "hybrid": (3, "536fdfb5b1baa3a6"),
        "objectrace": (3, "0588062c8c5d1f26"),
        "reference": (4, "b92c2b3eb88379a6"),
        "reference-raw": (2710, "104afec1c71b2ed0"),
    },
    "sor2-16": {
        "hb": (21, "d9a8d5a5ac1ead20"),
        "eraser": (35, "9b3917ac24b9cd3a"),
        "shb": (21, "d9a8d5a5ac1ead20"),
        "hybrid": (21, "d9a8d5a5ac1ead20"),
        "objectrace": (34, "07b0ed4716320710"),
        "reference": (99, "7f561bc0cb435f34"),
        "reference-raw": (573, "7366b14d940c3536"),
    },
    "upload": {
        "hb": (70, "a1ae332203680655"),
        "eraser": (26, "b62f69365e285c1a"),
        "shb": (121, "4a90a6c345d1778a"),
        "hybrid": (100, "0c44ab8f11075cd9"),
        "objectrace": (8, "d0c7b14d55d8a0f8"),
        "reference": (338, "778957bc3dcf3fb7"),
        "reference-raw": (465, "7ed3311df39e0d2d"),
    },
}


def axis_reports(detector) -> list:
    """The detector's reports, or the reference oracle's racing pairs."""
    return detector.pairs if hasattr(detector, "pairs") else detector.reports


def axis_digest(detector) -> str:
    """A hash of every report field (types included, through ``repr``),
    the sorted racy locations (where the axis has them) and objects,
    and the counts."""
    reports = axis_reports(detector)
    racy_locations = getattr(detector, "racy_locations", ())
    lines = [
        repr([(item.name, getattr(report, item.name)) for item in fields(report)])
        for report in reports
    ]
    if hasattr(detector, "racy_locations"):
        lines.append(repr(sorted(str(location) for location in racy_locations)))
    lines.append(repr(sorted(str(label) for label in detector.racy_objects)))
    lines.append(
        f"{len(reports)} {len(racy_locations)} {len(detector.racy_objects)}"
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def axis_results(replay) -> dict:
    results = {}
    for name, make_detector in AXES:
        detector = make_detector()
        replay(detector)
        assert all(
            type(location) is MemoryLocation
            for location in getattr(detector, "racy_locations", ())
        )
        results[name] = (len(axis_reports(detector)), axis_digest(detector))
    return results


def program_log(program: str, scale: int) -> list:
    source = ALL_WORKLOADS[program].build(scale)
    resolved = compile_source(source, filename=f"{program}.mj")
    plan = plan_instrumentation(resolved, PlannerConfig())
    log = RecordingSink()
    engine_runner("compiled")(
        resolved,
        sink=log,
        trace_sites=plan.trace_sites,
        policy=RandomPolicy(SEED),
    )
    return log.log


class TestPinnedAxes:
    @pytest.mark.parametrize(
        "program,scale", [("tsp2", 8), ("mtrt2", 6), ("sor2", 16)]
    )
    def test_program_axes(self, program, scale):
        entries = program_log(program, scale)
        results = axis_results(lambda sink: replay_entries(entries, sink))
        assert results == PINNED[f"{program}-{scale}"]

    @pytest.mark.parametrize("compress", [None, 6], ids=["v1", "v2"])
    def test_upload_axes(self, tmp_path, compress):
        path = tmp_path / "upload.mjbl"
        synthesize_file(path, UPLOAD_EVENTS, compress=compress, seed=SEED)
        with open_log(path) as reader:
            results = axis_results(reader.replay_into)
        assert results == PINNED["upload"]
