"""The asyncio HTTP/1.1 front end of ``repro serve``.

Stdlib only: :func:`asyncio.start_server` plus a small hand-rolled
HTTP/1.1 request parser with keep-alive (HTTP/1.1 requests reuse the
connection until the client sends ``Connection: close``; NDJSON
streams and oversized uploads always terminate it).  The event loop
owns accept/parse/respond and the job bookkeeping; all detection runs
in the worker pool
(:mod:`repro.service.jobs`), so a slow job never stalls health checks,
polls, or new submissions.

Endpoints (the full contract lives in ``docs/service.md``):

``POST /submit``
    Body is MJ source or an MJBL binary log — classified by magic
    bytes.  Query parameters: ``engine``, ``seed``,
    ``filename`` (program jobs), ``wait=1`` (block until the job
    finishes and return the full result), ``stream=1`` (NDJSON: one
    line per detector-axis verdict as each completes, then the final
    job record).  Default is async: ``202`` with the job id, poll
    ``GET /jobs/<id>``.  A full queue answers ``429`` with
    ``Retry-After``; a draining daemon answers ``503``.  Uploaded logs
    are validated *at submission*, so damaged bytes fail fast with the
    log-error taxonomy mapped onto HTTP: missing → 404, corrupt →
    422 (body carries the byte offset), schema mismatch → 400.

``GET /jobs/<id>``
    The job record (state, timing, axis verdicts so far, result or
    error).  Polling always answers 200; the taxonomy status is on the
    ``wait=1`` response and inside the record.

``GET /stats``
    Pool counters, queue depth, and merged per-worker compile-cache
    counters.

``GET /healthz``
    Liveness (and whether the daemon is draining).

``SIGTERM``/``SIGINT`` starts a graceful drain: stop accepting
submissions, finish every queued and in-flight job, then exit.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from ..lang import MJError
from ..runtime import DEFAULT_ENGINE, ENGINES
from .jobs import WorkerPool
from .protocol import (
    KIND_PROGRAM,
    canonical_json,
    classify_payload,
    error_payload,
    http_status_for,
)

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upload ceiling: a 64 MiB MJBL log is ~2.4M access records — far past
#: anything the harness produces; bigger uploads get a 413, not an OOM.
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass
class ServeConfig:
    """``repro serve`` knobs, exactly the CLI flags."""

    host: str = "127.0.0.1"
    port: int = 8787
    workers: int = 2
    queue_depth: int = 16
    timeout: float = 30.0
    #: Engine worker program runs default to (per-job ``engine=`` query
    #: parameter overrides).
    engine: str = DEFAULT_ENGINE


def _validate_upload(kind: str, body: bytes) -> None:
    """Fail fast at the submission trust boundary.

    Log uploads are validated here, in the parent, so a damaged log is
    a *request* error (422 with a byte offset) at submit time, not a
    failed job discovered by polling.  Binary logs validate
    structurally in O(1) and decode their string table; v2 logs
    additionally inflate-check their compressed blocks (one zlib pass,
    no record decoding) so a garbled deflated span is caught here with
    its block offset.  Program bodies only need to be text here;
    compile errors are real work and stay in the workers.
    """
    from ..runtime.binlog import open_log, temporary_binary_log

    if kind == KIND_PROGRAM:
        try:
            body.decode("utf-8")
        except UnicodeDecodeError as error:
            raise MJError(
                f"program source is not valid UTF-8 "
                f"(byte {error.start})"
            ) from error
        return
    with temporary_binary_log() as spool:
        spool.write_bytes(body)
        with open_log(spool) as log:
            log.validate_blocks()


class ServiceApp:
    """One daemon instance: HTTP server + worker pool + drain logic."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.pool = WorkerPool(
            workers=config.workers,
            timeout=config.timeout,
            queue_depth=config.queue_depth,
        )
        self.draining = False
        self._shutdown = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Signal-safe: flip to draining and wake the main coroutine."""
        self.draining = True
        self._shutdown.set()

    async def run_until_shutdown(self) -> None:
        await self._shutdown.wait()
        # Graceful drain: stop accepting, let open connections finish,
        # run the queue dry, then stop the workers.
        self._server.close()
        await self._server.wait_closed()
        await self.pool.drain()

    async def stop(self) -> None:
        """Hard stop for tests: no drain, just tear everything down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.pool.stop()

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        # HTTP/1.1 keep-alive: serve requests off one connection until
        # the client closes, sends ``Connection: close``, or a response
        # that must terminate the connection (NDJSON streams, a 413
        # whose body was never read) is written.
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers, body, version = request
                keep_alive = body is not None and self._wants_keep_alive(
                    version, headers
                )
                must_close = await self._route(
                    writer, method, target, headers, body, keep_alive
                )
                await writer.drain()
                if must_close or not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        except Exception as error:  # noqa: BLE001 — last-resort 500
            try:
                self._respond(writer, 500, error_payload(error))
            except ConnectionError:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    @staticmethod
    def _wants_keep_alive(version: str, headers: dict) -> bool:
        """HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an
        explicit ``Connection`` header wins either way."""
        connection = headers.get("connection", "").lower()
        if "close" in connection:
            return False
        if "keep-alive" in connection:
            return True
        return version == "HTTP/1.1"

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, version = (
                line.decode("latin-1").rstrip("\r\n").split(" ", 2)
            )
        except ValueError:
            return None
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if length > MAX_BODY_BYTES:
            # 413 downstream; the unread body poisons the connection,
            # so the handler must close it after responding.
            return method, target, headers, None, version
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body, version

    def _respond(
        self, writer, status: int, payload, extra_headers=(),
        keep_alive: bool = False,
    ) -> None:
        body = canonical_json(payload).encode("utf-8") + b"\n"
        head = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
            *extra_headers,
            "",
            "",
        ]
        writer.write("\r\n".join(head).encode("latin-1") + body)

    def _start_stream(self, writer) -> None:
        head = [
            "HTTP/1.1 200 OK",
            "Content-Type: application/x-ndjson",
            "Connection: close",
            "",
            "",
        ]
        writer.write("\r\n".join(head).encode("latin-1"))

    async def _stream_line(self, writer, payload) -> None:
        writer.write(canonical_json(payload).encode("utf-8") + b"\n")
        await writer.drain()

    # -- routing ---------------------------------------------------------

    async def _route(
        self, writer, method, target, headers, body, keep_alive: bool
    ) -> bool:
        """Answer one request; returns True when the connection must
        close regardless of the keep-alive negotiation."""
        url = urlsplit(target)
        path = url.path
        if body is None:
            self._respond(
                writer,
                413,
                {
                    "error": f"body exceeds {MAX_BODY_BYTES} bytes",
                    "taxonomy": "too-large",
                },
            )
            return True
        if path == "/healthz":
            self._respond(
                writer, 200, {"ok": True, "draining": self.draining},
                keep_alive=keep_alive,
            )
            return False
        if path == "/stats":
            stats = self.pool.stats()
            stats["draining"] = self.draining
            self._respond(writer, 200, stats, keep_alive=keep_alive)
            return False
        if path.startswith("/jobs/"):
            record = self.pool.jobs.get(path[len("/jobs/"):])
            if record is None:
                self._respond(
                    writer,
                    404,
                    {"error": "no such job", "taxonomy": "not-found"},
                    keep_alive=keep_alive,
                )
            else:
                self._respond(
                    writer, 200, record.to_json(), keep_alive=keep_alive
                )
            return False
        if path == "/submit":
            if method != "POST":
                self._respond(
                    writer,
                    405,
                    {"error": "POST required", "taxonomy": "bad-request"},
                    keep_alive=keep_alive,
                )
                return False
            return await self._submit(writer, url, body, keep_alive)
        self._respond(
            writer,
            404,
            {"error": f"no route {path}", "taxonomy": "not-found"},
            keep_alive=keep_alive,
        )
        return False

    async def _submit(self, writer, url, body: bytes,
                      keep_alive: bool) -> bool:
        if self.draining:
            self._respond(
                writer,
                503,
                {"error": "daemon is draining", "taxonomy": "draining"},
                keep_alive=keep_alive,
            )
            return False
        query = parse_qs(url.query)

        def param(name: str) -> Optional[str]:
            values = query.get(name)
            return values[-1] if values else None

        engine = param("engine") or self.config.engine
        if engine not in ENGINES:
            self._respond(
                writer,
                400,
                {
                    "error": f"unknown engine {engine!r} "
                    f"(choose from: {', '.join(sorted(ENGINES))})",
                    "taxonomy": "bad-request",
                },
                keep_alive=keep_alive,
            )
            return False
        seed_raw = param("seed")
        try:
            seed = int(seed_raw) if seed_raw is not None else None
        except ValueError:
            self._respond(
                writer,
                400,
                {
                    "error": f"seed must be an integer, got {seed_raw!r}",
                    "taxonomy": "bad-request",
                },
                keep_alive=keep_alive,
            )
            return False

        kind = classify_payload(body)
        try:
            _validate_upload(kind, body)
        except Exception as error:  # noqa: BLE001 — taxonomy-mapped
            self._respond(
                writer, http_status_for(error), error_payload(error),
                keep_alive=keep_alive,
            )
            return False

        payload = {
            "kind": kind,
            "body": body,
            "engine": engine if kind == KIND_PROGRAM else None,
            "seed": seed,
            "filename": param("filename") or "<input>",
        }
        record = self.pool.submit(kind, payload)
        if record is None:
            self._respond(
                writer,
                429,
                {
                    "error": "job queue is full",
                    "taxonomy": "backpressure",
                },
                extra_headers=("Retry-After: 1",),
                keep_alive=keep_alive,
            )
            return False

        if param("stream"):
            # Subscribe before the first await: the dispatcher cannot
            # have run yet, so no event can be missed.  The NDJSON
            # stream has no length framing, so it always terminates the
            # connection.
            queue: asyncio.Queue = asyncio.Queue()
            record.subscribers.append(queue)
            self._start_stream(writer)
            await self._stream_line(writer, record.to_json())
            while True:
                event = await queue.get()
                if event is None:
                    break
                _tag, payload = event
                await self._stream_line(writer, payload)
            return True
        if param("wait"):
            await record.completed.wait()
            status = 200 if record.error is None else record.status_code
            self._respond(
                writer, status, record.to_json(), keep_alive=keep_alive
            )
            return False
        self._respond(writer, 202, record.to_json(), keep_alive=keep_alive)
        return False


async def _serve(config: ServeConfig) -> int:
    app = ServiceApp(config)
    await app.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, app.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loops; Ctrl-C still raises KeyboardInterrupt
    print(
        f"repro serve: listening on {config.host}:{app.port} "
        f"({config.workers} workers, queue depth {config.queue_depth}, "
        f"timeout {config.timeout:g}s, engine {config.engine})",
        flush=True,
    )
    try:
        await app.run_until_shutdown()
    finally:
        print("repro serve: drained, shutting down", file=sys.stderr,
              flush=True)
    return 0


def serve_forever(config: ServeConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code."""
    try:
        return asyncio.run(_serve(config))
    except KeyboardInterrupt:
        return 0
