"""Detection jobs and the bounded worker pool.

Detection is CPU-bound Python, so the daemon never runs it on the
event loop: jobs go to a small pool of **long-lived** worker processes
(long-lived is what makes the per-worker
:class:`~repro.service.cache.CompileCache` worth having — a fork-per-
job pool would start every job cold).  Each worker owns one duplex
pipe; the parent dispatches one job at a time to an idle worker and a
single reader thread multiplexes all pipes back into the event loop
with :func:`multiprocessing.connection.wait`.

Per-job wall-clock timeouts are enforced with real cancellation: a
watchdog kills the worker process (SIGKILL — CPU-bound detection holds
the GIL, so nothing gentler is reliable), marks the job ``timeout``,
and respawns a fresh worker so pool capacity is restored.  A worker
that dies for any other reason mid-job fails that job and is respawned
the same way.

Worker-side execution mirrors ``repro check --post-mortem``: a
program job runs its engine into a lone
:class:`~repro.runtime.events.RecordingSink`, and from there it takes
the one detection path an upload takes — the same
:func:`~repro.detector.sharded.detect_sharded` call ``check
--from-log`` makes, then the extra axes replayed over the same log.
Same engine runners, same detector configuration, same report payload:
that is what makes the service's reports byte-identical to ``repro
check --report-json`` for the same inputs.  Every job times the same
four :data:`~repro.service.protocol.STAGES`, never individual events.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional

from .cache import UNCACHED, CompileCache
from .protocol import (
    KIND_BINARY_LOG,
    KIND_PROGRAM,
    STAGES,
    detection_report,
    error_payload,
    http_status_for,
    verdict_payload,
)

#: Job states, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
TIMEOUT = "timeout"

#: The detector axes a job replays beyond the paper detector, in the
#: order their verdicts stream out.
EXTRA_AXES = ("hb", "eraser")


# ----------------------------------------------------------------------
# Worker-side execution.


def execute_job(payload: dict, cache: CompileCache, emit) -> dict:
    """Run one job to completion inside a worker process.

    ``payload`` carries the raw upload plus options; ``emit`` receives
    one :func:`~repro.service.protocol.verdict_payload` per detector
    axis as it completes (the NDJSON stream rides on this).  Returns
    the job result; log/compile errors propagate to the caller, which
    maps them through the error taxonomy.
    """
    kind = payload["kind"]
    if kind == KIND_PROGRAM:
        return _execute_program(payload, cache, emit)
    if kind == KIND_BINARY_LOG:
        return _execute_log(payload, emit)
    raise ValueError(f"unknown job kind {kind!r}")


def _policy(seed):
    from ..runtime import RandomPolicy, RoundRobinPolicy

    return RandomPolicy(seed) if seed is not None else RoundRobinPolicy()


def _replay_axes(replay, emit) -> list:
    """Replay the recorded stream through the non-paper axes, emitting
    each verdict as it completes.  ``replay`` is the log source's
    ``replay_into``, delivering the full stream (including run-end)
    into the sink it is given."""
    from ..baselines import EraserDetector, HappensBeforeDetector

    detectors = {
        "hb": HappensBeforeDetector,
        "eraser": EraserDetector,
    }
    verdicts = []
    for axis in EXTRA_AXES:
        detector = detectors[axis]()
        replay(detector)
        verdict = verdict_payload(
            axis,
            detector.racy_locations,
            detector.racy_objects,
            len(detector.reports),
        )
        verdicts.append(verdict)
        emit(verdict)
    return verdicts


def _execute_program(payload: dict, cache: CompileCache, emit) -> dict:
    from ..runtime import RecordingSink, engine_runner

    source = payload["body"].decode("utf-8")
    engine = payload["engine"]
    timing = dict.fromkeys(STAGES, 0.0)

    started = time.perf_counter()
    cached = cache.lookup(source, payload.get("filename", "<input>"))
    timing["load"] = time.perf_counter() - started

    log = RecordingSink()
    started = time.perf_counter()
    result = engine_runner(engine)(
        cached.resolved,
        sink=log,
        trace_sites=cached.plan.trace_sites,
        policy=_policy(payload.get("seed")),
    )
    timing["run"] = time.perf_counter() - started

    return {
        "kind": KIND_PROGRAM,
        "engine": engine,
        "cache": {
            "status": cached.status,
            "fingerprint": cached.fingerprint,
        },
        **_detect(
            log,
            timing,
            emit,
            output=result.output,
            resolved=cached.resolved,
            static_races=cached.plan.static_races,
        ),
    }


def _execute_log(payload: dict, emit) -> dict:
    from ..runtime.binlog import open_log, temporary_binary_log

    timing = dict.fromkeys(STAGES, 0.0)
    started = time.perf_counter()
    with temporary_binary_log() as spool:
        spool.write_bytes(payload["body"])
        # open_log is the single validation point.
        with open_log(spool) as log:
            timing["load"] = time.perf_counter() - started
            detected = _detect(log, timing, emit)
    return {
        "kind": KIND_BINARY_LOG,
        "engine": None,
        "cache": {"status": UNCACHED, "fingerprint": None},
        **detected,
    }


def _detect(
    log, timing: dict, emit, output=(), resolved=None, static_races=None
) -> dict:
    """The one detection path every job takes, after its log exists:
    the exact ``repro check --post-mortem`` / ``--from-log`` code path
    (one shard, serial, default configuration, no re-validation), then
    the hb and eraser axes replayed over the same log.  Fills
    ``timing``'s ``detect`` and ``axes`` stages and returns the
    result's ``timing``, ``report`` and ``axes``."""
    from ..detector import DetectorConfig, detect_sharded

    started = time.perf_counter()
    sharded = detect_sharded(
        log,
        1,
        config=DetectorConfig(),
        resolved=resolved,
        static_races=static_races,
        validate=False,
    )
    timing["detect"] = time.perf_counter() - started
    paper = verdict_payload(
        "paper",
        sharded.reports.racy_locations,
        sharded.reports.racy_objects,
        len(sharded.reports.reports),
    )
    emit(paper)
    started = time.perf_counter()
    axes = [paper] + _replay_axes(log.replay_into, emit)
    timing["axes"] = time.perf_counter() - started
    return {
        "timing": timing,
        "report": detection_report(
            sharded.reports.reports,
            sharded.stats,
            sharded.cache_stats,
            output=output,
        ),
        "axes": axes,
    }


def _worker_main(conn) -> None:
    """The worker process body: serve jobs until the pipe closes."""
    cache = CompileCache()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        job_id, payload = message

        def emit(event, _job_id=job_id):
            conn.send(("axis", _job_id, event))

        try:
            result = execute_job(payload, cache, emit)
            result["compile_cache"] = cache.counters()
            conn.send(("done", job_id, result))
        except BaseException as error:  # noqa: BLE001 — taxonomy-mapped
            conn.send(
                ("error", job_id, error_payload(error),
                 http_status_for(error))
            )
    conn.close()


# ----------------------------------------------------------------------
# Parent-side job records and the pool.


@dataclass
class JobRecord:
    """Everything the daemon knows about one job."""

    id: str
    kind: str
    engine: Optional[str]
    state: str = QUEUED
    submitted_monotonic: float = 0.0
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[dict] = None
    #: HTTP status a waier/poller should surface for a failed job.
    status_code: int = 200
    #: Verdicts per detector axis, in completion order.
    axes: list = field(default_factory=list)
    #: NDJSON subscribers: asyncio queues fed axis/final events.
    subscribers: list = field(default_factory=list)
    #: Set once the job reaches a terminal state.
    completed: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def queue_seconds(self) -> float:
        if self.started_monotonic is None:
            return time.monotonic() - self.submitted_monotonic
        return self.started_monotonic - self.submitted_monotonic

    @property
    def run_seconds(self) -> Optional[float]:
        if self.started_monotonic is None:
            return None
        end = self.finished_monotonic
        if end is None:
            end = time.monotonic()
        return end - self.started_monotonic

    def to_json(self) -> dict:
        payload = {
            "job": {
                "id": self.id,
                "kind": self.kind,
                "engine": self.engine,
                "state": self.state,
                "queue_seconds": self.queue_seconds,
                "run_seconds": self.run_seconds,
            },
            "axes": list(self.axes),
            "result": self.result,
            "error": self.error,
        }
        return payload

    def _publish(self, event) -> None:
        for queue in self.subscribers:
            queue.put_nowait(event)

    def finish(
        self,
        state: str,
        result: Optional[dict] = None,
        error: Optional[dict] = None,
        status_code: int = 200,
    ) -> None:
        self.state = state
        self.result = result
        self.error = error
        self.status_code = status_code
        self.finished_monotonic = time.monotonic()
        self.completed.set()
        self._publish(("final", self.to_json()))
        self._publish(None)  # stream sentinel
        self.subscribers.clear()


@dataclass
class _Worker:
    index: int
    process: multiprocessing.Process
    conn: object
    job_id: Optional[str] = None
    deadline: Optional[float] = None
    dead: bool = False


class WorkerPool:
    """Bounded workers + FIFO queue + timeouts + graceful drain."""

    def __init__(
        self,
        workers: int = 2,
        timeout: float = 30.0,
        queue_depth: int = 16,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self.worker_count = workers
        self.timeout = timeout
        self.queue_depth = queue_depth
        self.jobs: dict[str, JobRecord] = {}
        self.counters = {
            "submitted": 0,
            "rejected": 0,
            "done": 0,
            "error": 0,
            "timeout": 0,
        }
        #: Latest compile-cache counters reported by each worker slot.
        self.worker_cache: dict[int, dict] = {}
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
        self._idle: asyncio.Queue = asyncio.Queue()
        self._workers: list[_Worker] = []
        self._by_job: dict[str, _Worker] = {}
        self._mp = multiprocessing.get_context("fork")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks: list = []
        self._reader: Optional[threading.Thread] = None
        self._stopping = False
        self._next_index = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for _ in range(self.worker_count):
            worker = self._spawn()
            self._workers.append(worker)
            self._idle.put_nowait(worker)
        self._reader = threading.Thread(
            target=self._reader_main, name="repro-serve-reader", daemon=True
        )
        self._reader.start()
        self._tasks = [
            asyncio.create_task(self._dispatch_loop()),
            asyncio.create_task(self._watchdog_loop()),
        ]

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-serve-worker-{self._next_index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(
            index=self._next_index, process=process, conn=parent_conn
        )
        self._next_index += 1
        return worker

    async def drain(self) -> None:
        """Finish every queued and in-flight job, then stop workers."""
        while self._queue.qsize() or self._by_job:
            await asyncio.sleep(0.05)
        await self.stop()

    async def stop(self) -> None:
        """Stop now: cancel loops, shut workers down, join the reader."""
        self._stopping = True
        for task in self._tasks:
            task.cancel()
        for worker in self._workers:
            if worker.dead:
                continue
            try:
                worker.conn.send(None)
            except (OSError, BrokenPipeError, ValueError):
                pass
        if self._reader is not None:
            self._reader.join(timeout=2.0)
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            worker.conn.close()

    # -- submission ------------------------------------------------------

    def submit(self, kind: str, payload: dict) -> Optional[JobRecord]:
        """Enqueue one job; None means the queue is full (HTTP 429)."""
        record = JobRecord(
            id=uuid.uuid4().hex[:12],
            kind=kind,
            engine=payload.get("engine"),
            submitted_monotonic=time.monotonic(),
        )
        try:
            self._queue.put_nowait((record, payload))
        except asyncio.QueueFull:
            self.counters["rejected"] += 1
            return None
        self.counters["submitted"] += 1
        self.jobs[record.id] = record
        return record

    def stats(self) -> dict:
        cache_totals = {"hits": 0, "misses": 0, "entries": 0}
        plan_fp = None
        for counters in self.worker_cache.values():
            for key in cache_totals:
                cache_totals[key] += counters.get(key, 0)
            plan_fp = counters.get("plan_fingerprint", plan_fp)
        lookups = cache_totals["hits"] + cache_totals["misses"]
        return {
            "workers": self.worker_count,
            "queue_depth": self.queue_depth,
            "queued": self._queue.qsize(),
            "running": len(self._by_job),
            "jobs": dict(self.counters),
            "compile_cache": {
                **cache_totals,
                "hit_rate": (
                    cache_totals["hits"] / lookups if lookups else 0.0
                ),
                # All workers share one planner config, so one
                # fingerprint describes every key in the pool.
                "plan_fingerprint": plan_fp,
            },
        }

    # -- internals -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            # Idle worker first, queue second: a job stays *in* the
            # queue until a worker can take it, so "queue full" (429)
            # means exactly `queue_depth` jobs pending — the dispatcher
            # never holds an extra one in flight.
            worker = await self._idle.get()
            while worker.dead:
                worker = await self._idle.get()
            record, payload = await self._queue.get()
            record.state = RUNNING
            record.started_monotonic = time.monotonic()
            worker.job_id = record.id
            worker.deadline = time.monotonic() + self.timeout
            self._by_job[record.id] = worker
            try:
                worker.conn.send((record.id, payload))
            except (OSError, BrokenPipeError, ValueError):
                self._fail_worker(worker, "worker pipe closed at dispatch")

    async def _watchdog_loop(self) -> None:
        while True:
            await asyncio.sleep(0.05)
            now = time.monotonic()
            for worker in list(self._workers):
                if (
                    worker.dead
                    or worker.job_id is None
                    or worker.deadline is None
                    or now < worker.deadline
                ):
                    continue
                record = self.jobs.get(worker.job_id)
                self._retire(worker, kill=True)
                if record is not None and not record.completed.is_set():
                    self.counters["timeout"] += 1
                    record.finish(
                        TIMEOUT,
                        error={
                            "error": (
                                f"job exceeded the {self.timeout:g}s "
                                f"wall-clock budget; worker killed"
                            ),
                            "taxonomy": "timeout",
                        },
                        status_code=504,
                    )

    def _retire(self, worker: _Worker, kill: bool) -> None:
        """Take a worker out of service and restore pool capacity."""
        worker.dead = True
        if worker.job_id is not None:
            self._by_job.pop(worker.job_id, None)
            worker.job_id = None
        if kill and worker.process.is_alive():
            worker.process.kill()
        try:
            worker.conn.close()
        except OSError:
            pass
        self._workers.remove(worker)
        replacement = self._spawn()
        self._workers.append(replacement)
        self._idle.put_nowait(replacement)

    def _fail_worker(self, worker: _Worker, reason: str) -> None:
        record = (
            self.jobs.get(worker.job_id)
            if worker.job_id is not None
            else None
        )
        self._retire(worker, kill=True)
        if record is not None and not record.completed.is_set():
            self.counters["error"] += 1
            record.finish(
                ERROR,
                error={"error": reason, "taxonomy": "worker-died"},
                status_code=500,
            )

    def _reader_main(self) -> None:
        wait = multiprocessing.connection.wait
        while not self._stopping:
            by_conn = {
                worker.conn: worker
                for worker in list(self._workers)
                if not worker.dead
            }
            if not by_conn:
                time.sleep(0.05)
                continue
            try:
                ready = wait(list(by_conn), timeout=0.2)
            except OSError:
                continue
            for conn in ready:
                worker = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    if not worker.dead and not self._stopping:
                        self._loop.call_soon_threadsafe(
                            self._fail_worker,
                            worker,
                            "worker process died mid-job",
                        )
                    continue
                self._loop.call_soon_threadsafe(
                    self._on_message, worker, message
                )

    def _on_message(self, worker: _Worker, message) -> None:
        tag, job_id = message[0], message[1]
        record = self.jobs.get(job_id)
        if record is None or record.completed.is_set():
            # A late message from a worker whose job already timed out.
            return
        if tag == "axis":
            record.axes.append(message[2])
            record._publish(("axis", message[2]))
            return
        if tag == "done":
            result = message[2]
            self.worker_cache[worker.index] = result.pop(
                "compile_cache", {}
            )
            self.counters["done"] += 1
            record.finish(DONE, result=result)
        elif tag == "error":
            self.counters["error"] += 1
            record.finish(ERROR, error=message[2], status_code=message[3])
        if worker.job_id == job_id and not worker.dead:
            worker.job_id = None
            worker.deadline = None
            self._by_job.pop(job_id, None)
            self._idle.put_nowait(worker)
