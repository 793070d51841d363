"""The serve-mix load generator: start ``repro serve``, drive it over
HTTP, stop it.

Standard library only, and no ``repro`` import: this process runs next
to the daemon it measures, and its own resident set must stay below
the daemon's so the serve peak RSS is the daemon's.

The spec (written by the parent, see :mod:`servemix`) names the request
kinds — body file, query string, whether each request gets a unique
trailing comment — the seeded cyclic order they are sent in, and the
phase lengths:

* warm-up: two passes of the cycle, untimed; the first report of each
  kind is returned for the parent's ``check --report-json`` gate;
* phase A, closed loop: two keep-alive connections send a fixed number
  of requests back to back; completed jobs per second is the capacity;
* phase B, open loop: a fixed number of requests fall due at a fixed
  rate and go out over at most two connections; each latency is timed
  from its due time.

Both phases send whole cycles of the mix.
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import ROOT, NullTracer, SpeedSampler, canonical_hash, child_env

CONNECTIONS = 2
WORKERS = 2
QUEUE_DEPTH = 64
JOB_TIMEOUT_S = 60


class Daemon:
    """One ``repro serve`` process on an OS-assigned port."""

    def __init__(self, work: Path) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(WORKERS),
                "--engine", "compiled",
                "--queue-depth", str(QUEUE_DEPTH),
                "--timeout", str(JOB_TIMEOUT_S),
            ],
            cwd=ROOT,
            env=child_env(work),
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stdout.readline()
        match = re.search(r":(\d+) \(", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve printed no port: {banner!r}")
        self.port = int(match.group(1))

    @classmethod
    def start(cls, work: Path) -> "Daemon":
        """Spawn and wait until ``/healthz`` answers 200."""
        daemon = cls(work)
        try:
            while daemon.get("/healthz")[0] != 200:
                time.sleep(0.005)
        except BaseException:
            daemon.stop()
            raise
        return daemon

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; kill if it will not stop."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One keep-alive connection; sends requests and checks answers."""

    def __init__(self, load: "Load") -> None:
        self.load = load
        self.conn = None

    def send(self, index: int, op: str) -> dict:
        """Send request ``index`` of the cycle and return its outcome."""
        load = self.load
        kind = load.kinds[load.order[index % len(load.order)]]
        body = load.bodies[kind["name"]]
        if kind["unique"]:
            body += f"\n// request {next(load.unique)}\n".encode()
        outcome = {"kind": kind["name"], "ok": False, "start": time.perf_counter()}
        with load.tracer.span("http.request", op) as span:
            try:
                if self.conn is None:
                    self.conn = http.client.HTTPConnection(
                        "127.0.0.1", load.port, timeout=JOB_TIMEOUT_S + 30
                    )
                self.conn.request(
                    "POST", f"/submit?wait=1&{kind['query']}", body=body
                )
                response = self.conn.getresponse()
                payload = response.read()
                outcome["end"] = time.perf_counter()
                record = json.loads(payload)
            except (OSError, http.client.HTTPException, ValueError) as error:
                outcome["end"] = time.perf_counter()
                outcome["error"] = repr(error)
                if self.conn is not None:
                    self.conn.close()
                    self.conn = None
                return outcome
            if response.status != 200 or record["job"]["state"] != "done":
                outcome["error"] = f"HTTP {response.status}"
                return outcome
            job = record["job"]
            outcome.update(
                ok=True,
                report=record["result"]["report"],
                queue_s=job["queue_seconds"],
                run_s=job["run_seconds"],
            )
            if span is not None:
                # Server-side durations, placed flush against the answer:
                # what remains of the request span is HTTP and transfer.
                end = outcome["end"]
                run_start = end - job["run_seconds"]
                load.tracer.add("service.run", op, run_start, end, span["id"])
                load.tracer.add(
                    "service.queue", op, run_start - job["queue_seconds"],
                    run_start, span["id"],
                )
        return outcome

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


class Load:
    """Drives one running daemon through the warm-up and both phases."""

    def __init__(self, spec: dict, port: int, tracer) -> None:
        self.kinds = spec["kinds"]
        self.order = spec["order"]
        self.port = port
        self.tracer = tracer
        self.bodies = {
            kind["name"]: Path(kind["body"]).read_bytes() for kind in self.kinds
        }
        self.unique = itertools.count()

    def _fan_out(self, worker) -> None:
        clients = [Client(self) for _ in range(CONNECTIONS)]
        threads = [
            threading.Thread(target=worker, args=(client,)) for client in clients
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            for client in clients:
                client.close()

    def warm_up(self) -> list:
        """Two passes of the cycle, so each worker compiles the hit
        kinds once; returns every outcome."""
        indices = iter(range(2 * len(self.order)))
        outcomes = []

        def worker(client):
            for index in indices:
                outcomes.append(client.send(index, f"warm#{index}"))

        self._fan_out(worker)
        return outcomes

    def closed_loop(self, total: int):
        """Phase A: ``total`` requests back to back over every
        connection; returns ``(outcomes, elapsed_s)``."""
        counter = itertools.count()
        outcomes = []
        started = time.perf_counter()

        def worker(client):
            while (index := next(counter)) < total:
                outcomes.append(client.send(index, f"closed#{index}"))

        self._fan_out(worker)
        return outcomes, time.perf_counter() - started

    def open_loop(self, rate: float, total: int) -> list:
        """Phase B: ``total`` requests falling due at ``rate`` per
        second; each outcome gains ``latency_s`` and ``late_s`` (send
        time minus due time), both measured from the due time."""
        counter = itertools.count()
        outcomes = []
        started = time.perf_counter()

        def worker(client):
            while (index := next(counter)) < total:
                due = started + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                outcome = client.send(index, f"open#{index}")
                outcome["due"] = due
                outcome["late_s"] = sent - due
                outcome["latency_s"] = outcome["end"] - due
                outcomes.append(outcome)

        self._fan_out(worker)
        return outcomes


def _digest(outcomes) -> list:
    """Compact per-request record for the parent's oracle and metrics."""
    return [
        {
            "kind": outcome["kind"],
            "ok": outcome["ok"],
            "hash": canonical_hash(outcome["report"]) if outcome["ok"] else None,
            "error": outcome.get("error"),
            "queue_s": outcome.get("queue_s"),
            "run_s": outcome.get("run_s"),
            "latency_s": outcome.get("latency_s"),
            "latency_ref_s": outcome.get("latency_ref_s"),
            "late_s": outcome.get("late_s"),
        }
        for outcome in outcomes
    ]


def run_load(spec: dict, tracer=None) -> dict:
    """Set up the daemon ``setup_repeats`` times (the last one serves),
    then warm up and run both phases, all under a :class:`SpeedSampler`.

    Set-ups and requests are rescaled one by one with the samples taken
    during each.
    """
    tracer = tracer or NullTracer()
    spawns = []
    daemon = None
    with SpeedSampler() as sampler:
        try:
            for _ in range(spec["setup_repeats"]):
                if daemon is not None:
                    daemon.stop()
                    daemon = None
                started = time.perf_counter()
                daemon = Daemon.start(Path(spec["work"]))
                spawns.append((started, time.perf_counter()))
            load = Load(spec, daemon.port, tracer)
            warm = load.warm_up()
            closed, elapsed = load.closed_loop(spec["closed_requests"])
            opened = load.open_loop(spec["rate"], spec["open_requests"])
            _, stats = daemon.get("/stats")
        finally:
            if daemon is not None:
                daemon.stop()
    for outcome in opened:
        outcome["latency_ref_s"] = outcome["latency_s"] * sampler.factor(
            outcome["due"], outcome["end"]
        )
    # Each connection is busy back to back, so the phase lasts its
    # connections' summed request times divided by their number.
    closed_ref_s = sum(
        (outcome["end"] - outcome["start"])
        * sampler.factor(outcome["start"], outcome["end"])
        for outcome in closed
    ) / CONNECTIONS
    reports = {}
    for outcome in warm:
        if outcome["ok"]:
            reports.setdefault(outcome["kind"], outcome["report"])
    return {
        "setup_s": [
            (end - start) * sampler.factor(start, end) for start, end in spawns
        ],
        "warm": _digest(warm),
        "warm_reports": reports,
        "closed": _digest(closed),
        "closed_wall_s": elapsed,
        "closed_ref_s": closed_ref_s,
        "open": _digest(opened),
        "stats": stats,
    }
