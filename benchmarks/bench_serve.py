"""The ``repro serve`` throughput benchmark: sustained jobs/sec under
concurrent load.

A real daemon subprocess (the exact ``repro serve`` entry point) is
hammered by a pool of client threads submitting a mixed corpus —
several distinct MJ programs across both engines plus a recorded MJBL
binary log — every submission ``wait=1`` so a
completed HTTP response means a completed detection job.  Each row
scales the worker pool (1 / 2 / 4 processes) against the same client
pressure, so the committed numbers show how detection throughput
scales with workers and what the content-addressed compile cache
contributes (the program corpus is deliberately smaller than the job
count, so steady state is mostly cache hits).  Every row runs twice:
once opening a fresh connection per request and once with each client
thread holding one persistent connection, exercising the daemon's
HTTP/1.1 keep-alive path and measuring what connection reuse buys.

Before any timing is accepted, the harness asserts the parity gate:
for every distinct program and log in the mix, the service's JSON
report is byte-identical to ``repro check --report-json`` run locally
on the same input.  A throughput number for a daemon that answers
*different* races than the CLI would be meaningless.

Running ``PYTHONPATH=src python benchmarks/bench_serve.py`` writes
``BENCH_serve.json`` at the repo root; ``--smoke`` (alias ``--quick``)
runs one small row and prints instead of writing (CI).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchlib import ROOT, machine_metadata, runner_parser

#: (workers, client threads, total jobs) per committed row.
BENCH_ROWS = ((1, 4, 60), (2, 4, 60), (4, 8, 120))
SMOKE_ROWS = ((2, 2, 10),)

#: Distinct program count: small enough that a steady-state run is
#: mostly compile-cache hits, large enough to exercise misses.
PROGRAM_VARIANTS = 4

PROGRAM_TEMPLATE = """
class Main {{
  static def main() {{
    var d = new Data();
    d.x = {seed};
    var a = new Worker(d); var b = new Worker(d);
    start a; start b; join a; join b;
    print d.x;
  }}
}}
class Data {{ field x; }}
class Worker {{
  field d;
  def init(d) {{ this.d = d; }}
  def run() {{ this.d.x = this.d.x + {seed}; }}
}}
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _canonical(payload) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


class DaemonUnderTest:
    def __init__(self, workers: int, queue_depth: int):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--workers", str(workers),
                "--queue-depth", str(queue_depth),
                "--timeout", "120",
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stdout.readline()
        self.port = int(re.search(r":(\d+) \(", banner).group(1))

    def connect(self) -> http.client.HTTPConnection:
        """A persistent connection for the keep-alive arm."""
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=300
        )

    def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        conn: http.client.HTTPConnection | None = None,
    ):
        if conn is not None:
            # Persistent arm: ride the daemon's HTTP/1.1 keep-alive —
            # http.client reuses the socket as long as the server
            # answers ``Connection: keep-alive``.
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=300
        )
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()


def _build_corpus(tmp: Path) -> list[tuple[str, str, bytes]]:
    """The submission mix: (label, query suffix, body) triples, one
    per distinct input; engines alternate across program variants."""
    from repro.cli import main as repro_main

    corpus: list[tuple[str, str, bytes]] = []
    for index in range(PROGRAM_VARIANTS):
        engine = "compiled" if index % 2 else "ast"
        source = PROGRAM_TEMPLATE.format(seed=index + 1)
        path = tmp / f"variant{index}.mj"
        path.write_text(source)
        corpus.append((
            f"program-{index}-{engine}",
            f"engine={engine}&seed=1&filename={path}",
            source.encode(),
        ))
    # One recorded binary log.
    program = tmp / "logged.mj"
    program.write_text(PROGRAM_TEMPLATE.format(seed=9))
    log_path = tmp / "logged.mjbl"
    code = repro_main([
        "run", str(program), "--record-binary", str(log_path),
    ])
    assert code == 0, "recording the benchmark log failed"
    corpus.append(("binary-log", "", log_path.read_bytes()))
    return corpus


def _cli_report(label: str, query: str, body: bytes, tmp: Path) -> str:
    """What ``repro check --report-json`` prints for this input."""
    args = [sys.executable, "-m", "repro", "check", "--report-json"]
    if label.startswith("program"):
        match = re.search(r"filename=([^&]+)", query)
        engine = re.search(r"engine=([^&]+)", query).group(1)
        args += [match.group(1), "--engine", engine, "--seed", "1"]
    else:
        path = tmp / f"parity-{label}.log"
        path.write_bytes(body)
        args += ["--from-log", str(path)]
    proc = subprocess.run(
        args, env=_env(), capture_output=True, text=True
    )
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout.strip()


def _assert_parity(daemon: DaemonUnderTest, corpus, tmp: Path) -> None:
    for label, query, body in corpus:
        status, record = daemon.request(
            "POST", f"/submit?wait=1&{query}" if query else "/submit?wait=1",
            body,
        )
        assert status == 200, (label, status, record)
        service_report = _canonical(record["result"]["report"])
        cli_report = _cli_report(label, query, body, tmp)
        assert service_report == cli_report, (
            f"{label}: service report diverges from repro check"
        )


def _measure_row(
    workers: int,
    clients: int,
    jobs: int,
    corpus,
    persistent: bool = False,
) -> dict:
    daemon = DaemonUnderTest(workers, queue_depth=max(64, jobs))
    try:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
            _assert_parity(daemon, corpus, Path(tmp))

        assignments = [corpus[i % len(corpus)] for i in range(jobs)]
        cursor = {"next": 0}
        lock = threading.Lock()
        failures: list = []

        def client():
            # Persistent arm: one connection per client thread, reused
            # for every job it drives (the daemon's keep-alive path).
            conn = daemon.connect() if persistent else None
            try:
                while True:
                    with lock:
                        index = cursor["next"]
                        if index >= len(assignments):
                            return
                        cursor["next"] = index + 1
                    label, query, body = assignments[index]
                    path = (
                        f"/submit?wait=1&{query}"
                        if query
                        else "/submit?wait=1"
                    )
                    try:
                        status, record = daemon.request(
                            "POST", path, body, conn=conn
                        )
                        if status != 200 or record["job"]["state"] != "done":
                            failures.append((label, status, record))
                    except Exception as error:  # noqa: BLE001
                        failures.append((label, repr(error)))
                        return
            finally:
                if conn is not None:
                    conn.close()

        threads = [threading.Thread(target=client) for _ in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        assert not failures, failures[:3]

        _, stats = daemon.request("GET", "/stats")
    finally:
        daemon.close()
    cache = stats["compile_cache"]
    return {
        "workers": workers,
        "clients": clients,
        "jobs": jobs,
        "connection": "keep-alive" if persistent else "per-request",
        "seconds": round(elapsed, 3),
        "jobs_per_second": round(jobs / elapsed, 2),
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_hit_rate": round(cache["hit_rate"], 3),
        "jobs_done": stats["jobs"]["done"],
        "parity_checked": True,
    }


def generate(quick: bool = False, repeats: int = 1) -> dict:
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-serve-corpus-") as tmp:
        corpus = _build_corpus(Path(tmp))
        rows = []
        for workers, clients, jobs in (SMOKE_ROWS if quick else BENCH_ROWS):
            for persistent in (False, True):
                mode = "keep-alive" if persistent else "per-request"
                print(
                    f"[bench] serve: {workers} workers, {clients} clients, "
                    f"{jobs} jobs, {mode} connections ...",
                    flush=True,
                )
                best = None
                for _ in range(repeats):
                    row = _measure_row(
                        workers, clients, jobs, corpus, persistent=persistent
                    )
                    if best is None or row["seconds"] < best["seconds"]:
                        best = row
                rows.append(best)
                print(
                    f"[bench]   {best['seconds']:.2f}s = "
                    f"{best['jobs_per_second']:.1f} jobs/s, "
                    f"cache hit rate {best['cache_hit_rate']:.0%}",
                    flush=True,
                )
    return {
        "benchmark": (
            "repro serve: sustained detection jobs/sec under "
            "concurrent mixed load"
        ),
        "mix": (
            f"{PROGRAM_VARIANTS} distinct programs (ast + compiled "
            f"engines, seeded random schedule) + 1 MJBL binary log, "
            f"submitted wait=1 round-robin"
        ),
        "parity_gate": (
            "before timing, every distinct input's service report is "
            "asserted byte-identical to `repro check --report-json`"
        ),
        "quick": quick,
        "repeats": repeats,
        "machine": machine_metadata(),
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = runner_parser(
        "Measure repro serve throughput under concurrent load.",
        "BENCH_serve.json",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="alias for --quick (one small row, print, no JSON)",
    )
    parser.set_defaults(repeats=1)
    options = parser.parse_args(argv)
    quick = options.quick or options.smoke
    if options.repeats < 1:
        parser.error("--repeats must be at least 1")
    payload = generate(quick=quick, repeats=options.repeats)
    text = json.dumps(payload, indent=2)
    if quick:
        print(text)
    else:
        Path(options.output).write_text(text + "\n")
        print(f"[bench] wrote {options.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
