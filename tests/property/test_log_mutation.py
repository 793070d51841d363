"""Seeded mutation at the log trust boundary.

``repro check --from-log`` opens a log with :func:`open_log` and hands
it to :func:`detect_sharded`; the CLI and the service map only the
:class:`LogSchemaError` taxonomy to clean failures (exit 2/3/4, HTTP
404/422/400).  Any other exception is a traceback and exit 1, or an
HTTP 500.  Damaged bytes — 1–4 flipped bits, or a truncation — of a
small v1 log, v2 log and tuple-JSON log must therefore either detect
normally or raise a :class:`LogSchemaError`, and nothing else.

Derandomized, so every run draws the same mutants.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.detector import detect_sharded
from repro.runtime.binlog import open_log
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


FORMATS = {"v1": (_v1, ".mjbl"), "v2": (_v2, ".mjbl"), "json": (_tuple_json, ".json")}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutation")


@pytest.fixture(scope="module")
def pristine(workdir):
    """Each format's intact log bytes."""
    logs = {}
    for name, (write, suffix) in FORMATS.items():
        path = workdir / f"pristine{suffix}"
        write(path)
        logs[name] = (path.read_bytes(), suffix)
    return logs


def _mutant(data: bytes, draw) -> bytes:
    """A truncation or 1-4 single-bit flips of ``data``."""
    last = len(data) - 1
    if draw(st.booleans()):
        return data[: draw(st.integers(0, last))]
    mutant = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        mutant[draw(st.integers(0, last))] ^= 1 << draw(st.integers(0, 7))
    return bytes(mutant)


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(choices=st.data())
def test_only_log_schema_errors_escape(name, pristine, workdir, choices):
    data, suffix = pristine[name]
    path = workdir / f"mutant{suffix}"
    path.write_bytes(_mutant(data, choices.draw))
    try:
        with open_log(path) as source:
            detect_sharded(source, 1)
    except LogSchemaError:
        pass
