"""Race-detection-as-a-service: the ``repro serve`` daemon.

The paper's pitch is that precise datarace detection is cheap enough to
run routinely; this package is how "routinely" scales past one CLI
invocation.  A long-lived asyncio HTTP daemon accepts POSTed MJ
programs or MJBL binary event logs, classifies them by magic bytes,
and dispatches detection jobs to a bounded pool of
long-lived worker processes — CPU-bound detection never blocks the
event loop, and each worker's content-addressed compile cache compiles
a distinct program exactly once per daemon lifetime.

Layout (see ``docs/service.md`` for the HTTP contract):

* :mod:`repro.service.protocol` — the machine-readable report schema
  shared with ``repro check --report-json``, payload classification,
  and the log-error-taxonomy → HTTP-status mapping.
* :mod:`repro.service.cache` — the content-addressed compile cache
  (sha256 of filename + source → resolved program + instrumentation
  plan), process-local to each worker.
* :mod:`repro.service.jobs` — job records, the worker-side execution
  of one job, and the bounded worker pool with per-job wall-clock
  timeouts (timeout kills the worker and respawns it).
* :mod:`repro.service.app` — the asyncio HTTP/1.1 front end: submit /
  poll / stream endpoints, FIFO queue with 429 backpressure, graceful
  SIGTERM drain.
"""

from importlib import import_module

from .protocol import (
    REPORT_SCHEMA_VERSION,
    canonical_json,
    classify_payload,
    detection_report,
    error_payload,
    http_status_for,
)

__all__ = [
    "CompileCache",
    "JobRecord",
    "REPORT_SCHEMA_VERSION",
    "ServeConfig",
    "WorkerPool",
    "canonical_json",
    "classify_payload",
    "detection_report",
    "error_payload",
    "http_status_for",
    "serve_forever",
]

#: Exports resolved on first use, so that ``check --report-json`` and the
#: CLI's error exits, which need only :mod:`~repro.service.protocol`,
#: do not import asyncio and the worker pool.
_LAZY = {
    "CompileCache": "cache",
    "JobRecord": "jobs",
    "ServeConfig": "app",
    "WorkerPool": "jobs",
    "serve_forever": "app",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
