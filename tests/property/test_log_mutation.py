"""Seeded mutation at the log trust boundary.

``repro check --from-log`` opens a log with :func:`open_log` and hands
it to :func:`detect_sharded`; ``--predict``, difflab and ``repro
log-stats`` replay the same sources into the SHB and hybrid predictors,
the object-race baseline, the FullRace reference oracle and
:class:`LogStatsSink`, and ``log-stats --verify`` checks an MJBL file's
CRC.  The CLI and the service map only the :class:`LogSchemaError`
taxonomy to clean failures (exit 2/3/4, HTTP 404/422/400).  Any other
exception is a traceback and exit 1, or an HTTP 500.

Damaged logs must therefore either replay normally or raise a
:class:`LogSchemaError`, and nothing else, through every driver.  The
damage is 1–4 flipped bits or a truncation of a small v1 log, v2 log
and tuple-JSON log, plus one structural arm on the tuple-JSON log that
keeps the JSON well-formed: one column of one entry becomes another
JSON type, or a whole entry becomes a scalar.

Derandomized, so every run draws the same mutants.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ObjectRaceDetector
from repro.detector import DetectorConfig, ReferenceDetector, detect_sharded
from repro.detector.predict import HybridPredictor, SHBPredictor
from repro.runtime.binlog import LogStatsSink, open_log
from repro.runtime.events import LogSchemaError, RecordingSink, dump_log
from repro.runtime.synthlog import synthesize_file, synthesize_into

EVENTS = 3_000


def _v1(path):
    synthesize_file(path, EVENTS)


def _v2(path):
    synthesize_file(path, EVENTS, compress=6, records_per_block=512)


def _tuple_json(path):
    sink = RecordingSink()
    synthesize_into(sink, EVENTS // 3)
    path.write_text(json.dumps(dump_log(sink)))


def _bit_mutant(data: bytes, draw) -> bytes:
    """A truncation or 1-4 single-bit flips of ``data``."""
    last = len(data) - 1
    if draw(st.booleans()):
        return data[: draw(st.integers(0, last))]
    mutant = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        mutant[draw(st.integers(0, last))] ^= 1 << draw(st.integers(0, 7))
    return bytes(mutant)


#: One value of each JSON type a structural mutant substitutes.
JSON_VALUES = ([1], {"a": 1}, "x", None, 1.5, 5)


def _structural_mutant(data: bytes, draw) -> bytes:
    """The tuple-JSON log with one entry replaced by a scalar, or one
    column of one entry replaced by a value of another JSON type."""
    payload = json.loads(data)
    entries = payload["entries"]
    index = draw(st.integers(0, len(entries) - 1))
    if draw(st.booleans()):
        entries[index] = draw(st.sampled_from(JSON_VALUES[2:]))
    else:
        entry = entries[index]
        column = draw(st.integers(0, len(entry) - 1))
        entry[column] = draw(
            st.sampled_from(
                [v for v in JSON_VALUES[:-1] if type(v) is not type(entry[column])]
            )
        )
    return json.dumps(payload).encode()


#: Format -> (writer, suffix, mutation).
FORMATS = {
    "v1": (_v1, ".mjbl", _bit_mutant),
    "v2": (_v2, ".mjbl", _bit_mutant),
    "json": (_tuple_json, ".json", _bit_mutant),
    "json-structure": (_tuple_json, ".json", _structural_mutant),
}


def _replay(make_sink):
    return lambda source: source.replay_into(make_sink())


#: Driver -> what it does with an opened log source.
DRIVERS = {
    "sharded": lambda source: detect_sharded(source, 1),
    "sharded-3": lambda source: detect_sharded(source, 3),
    "shb": _replay(SHBPredictor),
    "hybrid": _replay(HybridPredictor),
    "objectrace": _replay(ObjectRaceDetector),
    "reference": _replay(lambda: ReferenceDetector(DetectorConfig())),
    "log-stats": _replay(LogStatsSink),
    "verify": lambda source: source.verify(),
}

#: ``verify`` is the MJBL record-region CRC; tuple logs have none.
#: ``sharded-3`` drives the shard-filtered decode (the uid-column
#: prescan, ``shard_blocks`` skipping), which the structural arm never
#: reaches: its mutants fail validation when the log opens.
CASES = [
    (fmt, driver)
    for fmt in sorted(FORMATS)
    for driver in DRIVERS
    if driver != "verify" or FORMATS[fmt][1] == ".mjbl"
    if driver != "sharded-3" or fmt != "json-structure"
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutation")


@pytest.fixture(scope="module")
def pristine(workdir):
    """Each format's intact log bytes."""
    logs = {}
    for name, (write, suffix, _) in FORMATS.items():
        path = workdir / f"pristine-{name}{suffix}"
        write(path)
        logs[name] = path.read_bytes()
    return logs


@pytest.mark.parametrize("fmt,driver", CASES)
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(choices=st.data())
def test_only_log_schema_errors_escape(fmt, driver, pristine, workdir, choices):
    _, suffix, mutate = FORMATS[fmt]
    path = workdir / f"mutant{suffix}"
    path.write_bytes(mutate(pristine[fmt], choices.draw))
    try:
        with open_log(path) as source:
            DRIVERS[driver](source)
    except LogSchemaError:
        pass
