"""Serial sharding must hold one shard detector at a time.

The ``serial`` executor runs the shard worker in-process, one shard
after another, so a shard's detector (tries, ownership records, caches,
interned locksets) is garbage before the next one is built.  The
regression this pins: a serial path that builds every shard detector up
front and feeds them all in one pass keeps N detectors alive at once,
so 4 shards cost as much memory as one shard holding the whole log.
Each child process runs one ``detect_sharded`` call over a 100k-event
MJBL v1 file and reports its peak RSS growth.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.synthlog import synthesize_file

ROOT = Path(__file__).resolve().parents[2]

_CHILD = """
import json, resource, sys
from repro.detector import detect_sharded

path, shards = sys.argv[1], int(sys.argv[2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = detect_sharded(path, shards, executor="serial")
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"grown_kb": after - before, "races": result.races}))
"""


@pytest.fixture(scope="module")
def synth_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("shard-rss") / "synth.mjbl"
    synthesize_file(path, 100_000)
    return path


def _growth(path, shards):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(path), str(shards)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


def test_serial_shards_hold_one_detector_at_a_time(synth_log):
    one = _growth(synth_log, 1)
    four = _growth(synth_log, 4)
    assert four["races"] == one["races"]
    # Each of 4 shards builds about a quarter of the one-shard detector
    # state; holding all four at once would match the one-shard peak.
    assert four["grown_kb"] <= 0.6 * one["grown_kb"], (
        f"serial 4-shard detection grew RSS by {four['grown_kb']} KB vs "
        f"{one['grown_kb']} KB for one shard — are all shard detectors "
        f"alive at once?"
    )
