"""The service wire protocol: report schema, classification, taxonomy.

Everything machine-readable the daemon emits is defined here, and the
CLI's ``repro check --report-json`` builds its output from the same
functions — that is what makes "service report byte-identical to CLI
report" a testable contract rather than a hope: both sides serialize
:func:`detection_report` through :func:`canonical_json`.

The report shape follows the lotus concurrency checker's
``--report-json`` discipline (SNIPPETS.md): one stable, versioned JSON
object per analysis with classified findings, so downstream tooling
can diff reports across runs, builds, and transport (CLI vs HTTP).
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from ..detector.sharded import canonical_report_order
from ..lang import MJError, MJRuntimeError
from ..runtime.binlog import MAGIC
from ..runtime.events import (
    LogCorruptError,
    LogNotFoundError,
    LogSchemaError,
    LogSchemaMismatchError,
)

#: Version of the ``report`` object schema.  Bump when fields change
#: meaning or layout; additions are allowed within a version.
REPORT_SCHEMA_VERSION = 1

#: CLI exit codes for the log-error taxonomy (``repro`` man contract).
EXIT_CLEAN = 0
EXIT_RACY = 1
EXIT_ERROR = 2
EXIT_CORRUPT = 3
EXIT_SCHEMA_MISMATCH = 4


#: The stages every job's ``timing`` and ``repro check --phase-times``
#: report, in seconds: ``load`` (compile and plan, or the compile-cache
#: lookup; for a log, the spool write plus ``open_log``), ``run`` (the
#: engine run), ``detect`` (sharded detection, merge included) and
#: ``axes`` (every further replay of the log).  Each is timed as a
#: whole, never per event.
STAGES = ("load", "run", "detect", "axes")


def canonical_json(payload) -> str:
    """The one canonical serialization: sorted keys, no whitespace.

    Byte-identity claims (cache-hit vs cold-run, service vs CLI) are
    all claims about this encoding.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


# ----------------------------------------------------------------------
# Payload classification (the upload trust boundary's first gate).


KIND_PROGRAM = "program"
KIND_BINARY_LOG = "binary-log"


def classify_payload(body: bytes) -> str:
    """Classify an uploaded body by magic bytes.

    ``MJBL`` magic → binary log; anything else is treated as MJ source
    text (``MJBL`` is the only at-rest log format).
    """
    if body[: len(MAGIC)] == MAGIC:
        return KIND_BINARY_LOG
    return KIND_PROGRAM


# ----------------------------------------------------------------------
# The shared report payload.


def _encode_lockset(lockset) -> list:
    return sorted(lockset)


def _race_payload(report) -> dict:
    """One :class:`~repro.detector.report.RaceReport`, JSON-safe."""
    from ..detector.weaker import THREAD_BOTTOM
    from ..lang.ast import AccessKind

    prior_thread = (
        None if report.prior.thread is THREAD_BOTTOM else report.prior.thread
    )
    return {
        "object": report.object_label,
        "field": report.field,
        "location": str(report.key),
        "site": report.site_descriptor
        or f"site {report.current.site_id}",
        "current": {
            "thread": report.current.thread_id,
            "kind": "write" if report.current.is_write else "read",
            "site_id": report.current.site_id,
            "locks": _encode_lockset(report.current_lockset),
        },
        "prior": {
            "thread": prior_thread,
            "kind": (
                "write"
                if report.prior.kind is AccessKind.WRITE
                else "read"
            ),
            "locks": _encode_lockset(report.prior.lockset),
        },
        "static_partners": list(report.static_partners),
        "message": report.describe(),
    }


def detection_report(
    reports,
    stats,
    cache_stats=None,
    output=(),
) -> dict:
    """The ``report`` object: the single schema the CLI prints and the
    daemon embeds in job results.

    Races come in :func:`~repro.detector.sharded.canonical_report_order`
    (stably sorted by location key), the order sharded detection
    merges into, so an on-the-fly run, a post-mortem run at any shard
    count and a service job all print the same bytes.

    ``reports`` is a sequence of race reports, ``stats`` the detector's
    :class:`~repro.detector.pipeline.PipelineStats`, ``cache_stats``
    the access-cache statistics (None when the cache is disabled or the
    run was sharded without cache counters), ``output`` the program's
    print lines (empty for log-only analysis).
    """
    races = [
        _race_payload(report) for report in canonical_report_order(reports)
    ]
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "verdict": "racy" if races else "clean",
        "race_count": len(races),
        "races": races,
        "racy_locations": sorted({race["location"] for race in races}),
        "racy_objects": sorted({race["object"] for race in races}),
        "funnel": {
            "accesses": stats.accesses,
            "owned_filtered": stats.owned_filtered,
            "cache_hits": stats.cache_hits,
            "weaker_filtered": stats.detector_weaker_filtered,
            "detector_processed": stats.detector_processed,
            "races_reported": stats.races_reported,
        },
        "cache": None
        if cache_stats is None
        else {
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "hit_rate": cache_stats.hit_rate,
        },
        "output": list(output),
    }


def verdict_payload(name: str, locations, objects, races: int) -> dict:
    """One detector axis's normalized answer, for the NDJSON stream."""
    return {
        "axis": name,
        "racy_locations": sorted(str(key) for key in locations),
        "racy_objects": sorted(str(label) for label in objects),
        "races": races,
    }


# ----------------------------------------------------------------------
# Error taxonomy → exit codes and HTTP statuses.


class ErrorClass(NamedTuple):
    """One row of :data:`ERROR_TAXONOMY`."""

    #: The exception class the row covers (subclasses included).
    kind: type
    #: The stable machine name services and scripts branch on.
    taxonomy: str
    #: ``repro``'s exit code.
    exit_code: int
    #: The HTTP status the daemon answers.
    http_status: int
    #: What ``repro`` prints on stderr before the message.
    prefix: str


#: The one classification of errors, most specific class first: missing
#: → 404, damaged bytes → 422 (the message names the byte offset),
#: schema skew → 400; MJ compile and runtime errors are 422 (a
#: well-formed request, an unprocessable program).  An error no row
#: covers is ``internal``: HTTP 500, and the CLI lets it propagate.
ERROR_TAXONOMY = (
    ErrorClass(LogNotFoundError, "not-found", EXIT_ERROR, 404, "error: "),
    ErrorClass(
        LogCorruptError, "corrupt", EXIT_CORRUPT, 422,
        "error: corrupt event log: ",
    ),
    ErrorClass(
        LogSchemaMismatchError, "schema-mismatch", EXIT_SCHEMA_MISMATCH, 400,
        "error: event-log schema mismatch: ",
    ),
    ErrorClass(MJRuntimeError, "runtime-error", EXIT_ERROR, 422, "error: "),
    ErrorClass(MJError, "compile-error", EXIT_ERROR, 422, "error: "),
    ErrorClass(LogSchemaError, "log-error", EXIT_ERROR, 422, "error: "),
)


def classify_error(error: BaseException) -> Optional[ErrorClass]:
    """The first :data:`ERROR_TAXONOMY` row covering ``error``, or
    None for an unclassified error."""
    for row in ERROR_TAXONOMY:
        if isinstance(error, row.kind):
            return row
    return None


def exit_code_for(error: BaseException) -> int:
    """The CLI exit code for a classified error (2 otherwise)."""
    row = classify_error(error)
    return EXIT_ERROR if row is None else row.exit_code


def http_status_for(error: BaseException) -> int:
    """The HTTP status the daemon answers for an error (500 when
    unclassified)."""
    row = classify_error(error)
    return 500 if row is None else row.http_status


def error_taxonomy(error: BaseException) -> str:
    """The stable machine name of an error class."""
    row = classify_error(error)
    return "internal" if row is None else row.taxonomy


def error_payload(error: BaseException) -> dict:
    """The JSON body of an error response (or errored job result)."""
    payload: dict = {
        "error": str(error),
        "taxonomy": error_taxonomy(error),
    }
    offset: Optional[int] = getattr(error, "offset", None)
    if offset is not None:
        payload["offset"] = offset
    return payload
