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
damage is 1–4 flipped bits or a truncation of a small v1 and v2 log
(derandomized, so every run draws the same mutants).

A structural arm enumerates every rewrite of one numeric header field
(a record or access count, a section offset or length) or one
index-header field (block count, records per block) of the v2 log to 0,
1, its value ± 1 or 2**32 - 1.  Such a log is either rejected as
corrupt at a byte offset or still exactly the log that was written: it
decodes to the written entries, two shards find the written races, and
the record and access counts ``check --stats`` prints are the decoded
stream's.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ObjectRaceDetector
from repro.detector import DetectorConfig, ReferenceDetector, detect_sharded
from repro.detector.predict import HybridPredictor, SHBPredictor
from repro.runtime.binlog import LogCorruptError, LogStatsSink, open_log
from repro.runtime.events import LogSchemaError, RecordingSink
from repro.runtime.synthlog import synthesize_file

EVENTS = 3_000


def _v1(path):
    synthesize_file(path, EVENTS)


def _v2(path):
    synthesize_file(path, EVENTS, compress=6, records_per_block=512)


def _bit_mutant(data: bytes, draw) -> bytes:
    """A truncation or 1-4 single-bit flips of ``data``."""
    last = len(data) - 1
    if draw(st.booleans()):
        return data[: draw(st.integers(0, last))]
    mutant = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        mutant[draw(st.integers(0, last))] ^= 1 << draw(st.integers(0, 7))
    return bytes(mutant)


#: Format -> writer.  Bit mutants damage a v1 and a v2 log.
FORMATS = {"v1": _v1, "v2": _v2}

#: The MJBL header's numeric fields as name -> (byte offset, struct
#: format): record and access counts, then the records, strings and
#: index section offsets and lengths.
HEADER_FIELDS = {
    "record-count": (16, "<Q"), "access-count": (24, "<Q"),
    "records-offset": (32, "<Q"), "records-length": (40, "<Q"),
    "strings-offset": (48, "<Q"), "strings-length": (56, "<Q"),
    "index-offset": (64, "<Q"), "index-length": (72, "<I"),
}
#: The index header's two u32 fields; offsets are relative to the index
#: section.
INDEX_HEADER_FIELDS = {"block-count": (0, "<I"), "records-per-block": (4, "<I")}

#: Rewrite name -> the new value given the field's current one.
REWRITES = {
    "zero": lambda value: 0,
    "one": lambda value: 1,
    "minus-one": lambda value: value - 1,
    "plus-one": lambda value: value + 1,
    "u32-max": lambda value: 2**32 - 1,
}


def _structural_mutant(data: bytes, field: str, rewrite: str) -> bytes:
    """``data`` with one header or index-header field rewritten (modulo
    the field's width)."""
    if field in HEADER_FIELDS:
        offset, fmt = HEADER_FIELDS[field]
    else:
        (index,) = struct.unpack_from("<Q", data, HEADER_FIELDS["index-offset"][0])
        at, fmt = INDEX_HEADER_FIELDS[field]
        offset = index + at
    (value,) = struct.unpack_from(fmt, data, offset)
    mutant = bytearray(data)
    width = 8 * struct.calcsize(fmt)
    struct.pack_into(fmt, mutant, offset, REWRITES[rewrite](value) % (1 << width))
    return bytes(mutant)


def _replay(make_sink):
    return lambda source: source.replay_into(make_sink())


def _log_stats(source) -> None:
    """``repro log-stats``: one replay into :class:`LogStatsSink`, then
    the block summary.  The header counts must be the stream's."""
    stats = LogStatsSink()
    source.replay_into(stats)
    source.block_stats()
    assert (source.record_count, source.access_count) == (
        stats.events, stats.counts[RecordingSink.ACCESS]
    )


#: Driver -> what it does with an opened log source.
DRIVERS = {
    "sharded": lambda source: detect_sharded(source, 1),
    "sharded-3": lambda source: detect_sharded(source, 3),
    "shb": _replay(SHBPredictor),
    "hybrid": _replay(HybridPredictor),
    "objectrace": _replay(ObjectRaceDetector),
    "reference": _replay(lambda: ReferenceDetector(DetectorConfig())),
    "log-stats": _log_stats,
    "verify": lambda source: source.verify(),
}

CASES = [(fmt, driver) for fmt in sorted(FORMATS) for driver in DRIVERS]

#: The structural arm's grid: every field x rewrite, through every
#: driver and through ``exact``, which compares the log with the
#: written one.
STRUCTURE_CASES = [
    (field, rewrite, driver)
    for field in [*HEADER_FIELDS, *INDEX_HEADER_FIELDS]
    for rewrite in sorted(REWRITES)
    for driver in [*DRIVERS, "exact"]
]


def _decoded(source):
    """A log source's entries, its races at two shards and its header
    counts."""
    sink = RecordingSink()
    source.replay_into(sink)
    races = [str(report.key) for report in detect_sharded(source, 2).reports.reports]
    return list(sink.log), races, (source.record_count, source.access_count)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutation")


@pytest.fixture(scope="module")
def pristine(workdir):
    """Each format's intact log bytes."""
    logs = {}
    for name, write in FORMATS.items():
        path = workdir / f"pristine-{name}.mjbl"
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
    path = workdir / "mutant.mjbl"
    path.write_bytes(_bit_mutant(pristine[fmt], choices.draw))
    try:
        with open_log(path) as source:
            DRIVERS[driver](source)
    except LogSchemaError:
        pass


@pytest.fixture(scope="module")
def written(pristine, workdir):
    """The v2 log as written: see :func:`_decoded`."""
    path = workdir / "written-v2.mjbl"
    path.write_bytes(pristine["v2"])
    with open_log(path) as source:
        assert len(source.blocks) == 6
        return _decoded(source)


@pytest.mark.parametrize("field,rewrite,driver", STRUCTURE_CASES)
def test_header_rewrite_is_rejected_or_harmless(
    field, rewrite, driver, pristine, written, workdir
):
    path = workdir / "rewritten.mjbl"
    path.write_bytes(_structural_mutant(pristine["v2"], field, rewrite))
    try:
        with open_log(path) as source:
            if driver == "exact":
                assert _decoded(source) == written
            else:
                DRIVERS[driver](source)
    except LogCorruptError as error:
        assert error.offset is not None
