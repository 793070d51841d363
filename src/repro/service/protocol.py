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
from typing import Optional

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


def exit_code_for(error: BaseException) -> int:
    """The CLI exit code for a classified log error."""
    if isinstance(error, LogNotFoundError):
        return EXIT_ERROR
    if isinstance(error, LogCorruptError):
        return EXIT_CORRUPT
    if isinstance(error, LogSchemaMismatchError):
        return EXIT_SCHEMA_MISMATCH
    return EXIT_ERROR


def http_status_for(error: BaseException) -> int:
    """The HTTP status the daemon answers for a classified error.

    The same taxonomy as the CLI exit codes: missing → 404, damaged
    bytes → 422 (the body names the byte offset), schema skew or a
    payload that is not a log/program at all → 400.  MJ compile and
    runtime errors are 422 (well-formed request, unprocessable
    program); everything unclassified is a 500.
    """
    if isinstance(error, LogNotFoundError):
        return 404
    if isinstance(error, LogCorruptError):
        return 422
    if isinstance(error, LogSchemaMismatchError):
        return 400
    if isinstance(error, (MJError, LogSchemaError)):
        return 422
    return 500


def error_taxonomy(error: BaseException) -> str:
    """The stable machine name of an error class."""
    if isinstance(error, LogNotFoundError):
        return "not-found"
    if isinstance(error, LogCorruptError):
        return "corrupt"
    if isinstance(error, LogSchemaMismatchError):
        return "schema-mismatch"
    if isinstance(error, MJRuntimeError):
        return "runtime-error"
    if isinstance(error, MJError):
        return "compile-error"
    if isinstance(error, LogSchemaError):
        return "log-error"
    return "internal"


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
