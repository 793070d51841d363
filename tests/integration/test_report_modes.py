"""One report across detection modes.

``check --report-json`` emits races in the canonical order sharded
detection merges into (stably sorted by location key), so an
on-the-fly run and a post-mortem run of the same input print the same
bytes, and every shard count prints the same races.  The inputs are
the shipped example programs plus the serve-mix workload builds, on
both engines and two seeds.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.workloads import ALL_WORKLOADS

PROGRAMS = Path(__file__).resolve().parents[2] / "examples" / "programs"

#: (workload, scale) pairs the service benchmark submits.
WORKLOADS = (("tsp2", 8), ("mtrt2", 6), ("sor2", 16))

INPUTS = sorted(path.stem for path in PROGRAMS.glob("*.mj")) + [
    f"{name}-{scale}" for name, scale in WORKLOADS
]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """Every input as an ``.mj`` path, keyed by input id."""
    paths = {path.stem: path for path in PROGRAMS.glob("*.mj")}
    directory = tmp_path_factory.mktemp("workloads")
    for name, scale in WORKLOADS:
        path = directory / f"{name}-{scale}.mj"
        path.write_text(ALL_WORKLOADS[name].build(scale))
        paths[path.stem] = path
    return paths


def report_json(capsys, *args):
    """``(exit code, stdout)`` of one ``check --report-json``."""
    code = main(["check", *args, "--report-json"])
    return code, capsys.readouterr().out


def races(out):
    return json.loads(out)["races"] if out else None


@pytest.mark.parametrize("seed", ["1", "2002"])
@pytest.mark.parametrize("engine", ["ast", "compiled"])
@pytest.mark.parametrize("name", INPUTS)
def test_live_post_mortem_and_shards_agree(sources, name, engine, seed, capsys):
    # A schedule that deadlocks (bank_transfer at seed 1) exits 2 with
    # no report in every mode.
    common = (str(sources[name]), "--engine", engine, "--seed", seed)
    code, live = report_json(capsys, *common)
    assert report_json(capsys, *common, "--post-mortem") == (code, live)
    for shards in ("2", "4"):
        sharded_code, sharded = report_json(capsys, *common, "--shards", shards)
        assert sharded_code == code
        assert races(sharded) == races(live)
