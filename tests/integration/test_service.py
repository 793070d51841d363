"""Lifecycle tests for the ``repro serve`` daemon, over real HTTP.

Each fixture starts the daemon as a subprocess on an OS-assigned port
(the banner line prints it), drives it with ``http.client``, and tears
it down with SIGTERM — the same drain path production uses.  Covered
here, per the service contract (docs/service.md):

* service reports byte-identical to ``repro check --report-json``,
  for source submissions and for recorded MJBL logs;
* compile-cache hits return byte-identical reports to cold runs;
* queue-full submissions answer 429 + ``Retry-After``;
* a job overrunning its wall-clock budget is killed, reported as
  ``timeout``, and the pool keeps serving afterwards;
* malformed uploads fail at submit time with the log-error taxonomy
  mapped to 404/422/400 (422 bodies carry the byte offset);
* NDJSON streaming emits one verdict per detector axis, and the hb and
  eraser verdicts equal the baselines replayed in-process;
* SIGTERM drains in-flight jobs before exit.

Every daemon runs in its own session, so killing its process group
takes its forked workers with it; a module teardown asserts that no
process of any of those groups survives.
"""

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

import pytest

import repro
from repro.cli import main

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

RACY = """
class Main {
  static def main() {
    var d = new Data();
    d.x = 0;
    var a = new Worker(d); var b = new Worker(d);
    start a; start b; join a; join b;
    print d.x;
  }
}
class Data { field x; }
class Worker {
  field d;
  def init(d) { this.d = d; }
  def run() { this.d.x = this.d.x + 1; }
}
"""

SLOW = """
class Main {
  static def main() {
    var i = 0;
    while (i < 5000000) { i = i + 1; }
    print i;
  }
}
"""

MEDIUM = SLOW.replace("5000000", "300000")

TERMINAL = ("done", "error", "timeout")

#: Process group of every daemon this module started.
PROCESS_GROUPS = []


def surviving_processes(groups) -> list:
    """Live pids in any of ``groups``, read from /proc.  Zombies do not
    count: a killed worker is an orphan, reaped whenever init gets to
    it."""
    alive = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesized command: state, ppid, pgrp, ...
        state, _, group = stat.rsplit(")", 1)[1].split()[:3]
        if state != "Z" and int(group) in groups:
            alive.append(int(entry.name))
    return alive


@pytest.fixture(scope="module", autouse=True)
def no_daemon_outlives_the_module():
    yield
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + 10
    while surviving_processes(PROCESS_GROUPS) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert surviving_processes(PROCESS_GROUPS) == []


class Daemon:
    def __init__(self, *extra_args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *extra_args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        PROCESS_GROUPS.append(self.proc.pid)
        banner = self.proc.stdout.readline()
        match = re.search(r":(\d+) \(", banner)
        assert match, f"no port in banner: {banner!r}"
        self.port = int(match.group(1))

    def request(self, method, path, body=b"", timeout=60):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return (
                response.status,
                dict(response.getheaders()),
                response.read(),
            )
        finally:
            conn.close()

    def submit_json(self, path, body, expect=None):
        status, headers, data = self.request("POST", path, body)
        if expect is not None:
            assert status == expect, (status, data)
        return status, headers, json.loads(data)

    def poll_until_terminal(self, job_id, budget=30.0):
        deadline = time.monotonic() + budget
        while time.monotonic() < deadline:
            _, _, data = self.request("GET", f"/jobs/{job_id}")
            record = json.loads(data)
            if record["job"]["state"] in TERMINAL:
                return record
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never finished")

    def terminate(self, budget=30.0):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            self.kill()
            raise

    def kill(self):
        """SIGKILL the daemon's process group, so its forked workers
        (one may be spinning on an endless job) die with it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=10)


@pytest.fixture(scope="module")
def daemon():
    """One shared single-worker daemon for the functional tests (a
    single worker makes compile-cache behavior deterministic)."""
    instance = Daemon("--workers", "1")
    yield instance
    instance.kill()


def canonical(payload) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def cli_report_json(capsys, *args) -> str:
    main(["check", *args, "--report-json"])
    return capsys.readouterr().out.strip()


def baseline_verdicts(replay) -> list:
    """The hb and eraser verdicts of a stream replayed in-process into
    fresh baselines, as the service computes its extra axes."""
    from repro.baselines import EraserDetector, HappensBeforeDetector
    from repro.service.protocol import verdict_payload

    verdicts = []
    for axis, detector_class in (
        ("hb", HappensBeforeDetector),
        ("eraser", EraserDetector),
    ):
        detector = detector_class()
        replay(detector)
        verdicts.append(
            verdict_payload(
                axis,
                detector.racy_locations,
                detector.racy_objects,
                len(detector.reports),
            )
        )
    return verdicts


class TestEndpoints:
    def test_healthz(self, daemon):
        status, _, payload = daemon.submit_json("/healthz", b"")
        assert (status, payload) == (200, {"ok": True, "draining": False})

    def test_unknown_route_404(self, daemon):
        status, _, data = daemon.request("GET", "/nope")
        assert status == 404
        assert json.loads(data)["taxonomy"] == "not-found"

    def test_unknown_job_404(self, daemon):
        status, _, data = daemon.request("GET", "/jobs/deadbeef")
        assert status == 404

    def test_submit_requires_post(self, daemon):
        status, _, _ = daemon.request("GET", "/submit")
        assert status == 405

    def test_unknown_engine_400(self, daemon):
        status, _, data = daemon.request(
            "POST", "/submit?engine=jit", RACY.encode()
        )
        assert status == 400
        assert "jit" in json.loads(data)["error"]

    def test_bad_seed_400(self, daemon):
        status, _, _ = daemon.request(
            "POST", "/submit?seed=banana", RACY.encode()
        )
        assert status == 400


class TestProgramJobs:
    def test_report_byte_identical_to_cli(self, daemon, tmp_path, capsys):
        program = tmp_path / "racy.mj"
        program.write_text(RACY)
        _, _, record = daemon.submit_json(
            f"/submit?wait=1&seed=1&filename={program}",
            RACY.encode(),
            expect=200,
        )
        assert record["job"]["state"] == "done"
        expected = cli_report_json(capsys, str(program), "--seed", "1")
        assert canonical(record["result"]["report"]) == expected

    def test_cache_hit_report_byte_identical_to_cold_run(self, daemon):
        body = RACY.encode()
        _, _, cold = daemon.submit_json(
            "/submit?wait=1&seed=7&filename=cached.mj", body, expect=200
        )
        _, _, warm = daemon.submit_json(
            "/submit?wait=1&seed=7&filename=cached.mj", body, expect=200
        )
        assert cold["result"]["cache"]["status"] == "miss"
        assert warm["result"]["cache"]["status"] == "hit"
        assert (
            warm["result"]["cache"]["fingerprint"]
            == cold["result"]["cache"]["fingerprint"]
        )
        assert canonical(warm["result"]["report"]) == canonical(
            cold["result"]["report"]
        )

    def test_report_byte_identical_across_engines(self, daemon):
        reports = []
        for engine in ("ast", "compiled"):
            _, _, record = daemon.submit_json(
                f"/submit?wait=1&seed=3&engine={engine}&filename=engines.mj",
                RACY.encode(),
                expect=200,
            )
            reports.append(canonical(record["result"]["report"]))
        assert reports[0] == reports[1]

    def test_async_submit_then_poll(self, daemon):
        status, _, accepted = daemon.submit_json(
            "/submit", RACY.encode(), expect=202
        )
        record = daemon.poll_until_terminal(accepted["job"]["id"])
        assert record["job"]["state"] == "done"
        assert record["result"]["report"]["verdict"] == "racy"
        assert [axis["axis"] for axis in record["axes"]] == [
            "paper", "hb", "eraser",
        ]

    def test_axis_verdicts_match_in_process_baselines(self, daemon):
        from repro.runtime import (
            DEFAULT_ENGINE,
            RandomPolicy,
            RecordingSink,
            engine_runner,
            replay_entries,
        )
        from repro.service.cache import CompileCache
        from repro.workloads import ALL_WORKLOADS

        source = ALL_WORKLOADS["tsp2"].build(4)
        _, _, record = daemon.submit_json(
            "/submit?wait=1&seed=5&filename=axes.mj",
            source.encode(),
            expect=200,
        )
        cached = CompileCache().lookup(source, "axes.mj")
        log = RecordingSink()
        engine_runner(DEFAULT_ENGINE)(
            cached.resolved,
            sink=log,
            trace_sites=cached.plan.trace_sites,
            policy=RandomPolicy(5),
        )
        expected = baseline_verdicts(
            lambda sink: replay_entries(log.log, sink)
        )
        assert expected[0]["races"] > 0
        assert record["axes"][1:] == expected

    def test_compile_error_is_422_job_error(self, daemon):
        status, _, record = daemon.submit_json(
            "/submit?wait=1", b"class Main { oops }"
        )
        assert status == 422
        assert record["job"]["state"] == "error"
        assert record["error"]["taxonomy"] == "compile-error"

    def test_stream_emits_one_line_per_axis(self, daemon):
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=60
        )
        try:
            conn.request(
                "POST", "/submit?stream=1&seed=2", RACY.encode()
            )
            response = conn.getresponse()
            assert response.status == 200
            assert (
                response.getheader("Content-Type")
                == "application/x-ndjson"
            )
            lines = [
                json.loads(line)
                for line in response.read().decode().splitlines()
            ]
        finally:
            conn.close()
        assert lines[0]["job"]["state"] in ("queued", "running")
        assert [line["axis"] for line in lines[1:-1]] == [
            "paper", "hb", "eraser",
        ]
        assert lines[-1]["job"]["state"] == "done"

    def test_stats_counts_cache_and_jobs(self, daemon):
        _, _, stats = daemon.submit_json("/stats", b"")
        assert stats["workers"] == 1
        assert stats["jobs"]["done"] >= 1
        cache = stats["compile_cache"]
        assert cache["hits"] + cache["misses"] == pytest.approx(
            cache["hits"] + cache["misses"]
        )


class TestKeepAlive:
    def test_connection_is_reused_across_requests(self, daemon):
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=60
        )
        try:
            sock = None
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
                assert json.loads(response.read())["ok"] is True
                if sock is None:
                    sock = conn.sock
                else:
                    # http.client only keeps the socket if the server
                    # honored keep-alive — same object means reuse.
                    assert conn.sock is sock
        finally:
            conn.close()

    def test_submissions_work_over_one_connection(self, daemon):
        conn = http.client.HTTPConnection(
            "127.0.0.1", daemon.port, timeout=60
        )
        try:
            for seed in (11, 12):
                conn.request(
                    "POST", f"/submit?wait=1&seed={seed}", RACY.encode()
                )
                response = conn.getresponse()
                assert response.status == 200
                record = json.loads(response.read())
                assert record["job"]["state"] == "done"
        finally:
            conn.close()

    def test_connection_close_is_honored(self, daemon):
        import socket

        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=30
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n"
                b"Host: x\r\nConnection: close\r\n\r\n"
            )
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed, as requested
                data = data + chunk
        head = data.split(b"\r\n\r\n", 1)[0].decode()
        assert "Connection: close" in head

    def test_http_10_defaults_to_close(self, daemon):
        import socket

        with socket.create_connection(
            ("127.0.0.1", daemon.port), timeout=30
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data = data + chunk
        head = data.split(b"\r\n\r\n", 1)[0].decode()
        assert "Connection: close" in head


class TestLogJobs:
    @pytest.fixture(scope="class")
    def binary_log(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("logs")
        program = tmp_path / "racy.mj"
        program.write_text(RACY)
        log_path = tmp_path / "racy.mjbl"
        assert main([
            "run", str(program), "--record-binary", str(log_path),
        ]) == 0
        return log_path

    def test_mjbl_report_byte_identical_to_cli(
        self, daemon, binary_log, capsys
    ):
        _, _, record = daemon.submit_json(
            "/submit?wait=1", binary_log.read_bytes(), expect=200
        )
        assert record["job"]["kind"] == "binary-log"
        expected = cli_report_json(capsys, "--from-log", str(binary_log))
        assert canonical(record["result"]["report"]) == expected

    def test_axis_verdicts_match_in_process_baselines(
        self, daemon, tmp_path
    ):
        from repro.runtime.binlog import open_log
        from repro.runtime.synthlog import synthesize_file

        path = tmp_path / "synth.mjbl"
        synthesize_file(path, 4_000, seed=5)
        _, _, record = daemon.submit_json(
            "/submit?wait=1", path.read_bytes(), expect=200
        )
        with open_log(path) as reader:
            expected = baseline_verdicts(reader.replay_into)
        assert expected[0]["races"] > 0
        assert record["axes"][1:] == expected

    def test_truncated_mjbl_is_422_with_offset(self, daemon, binary_log):
        status, _, data = daemon.request(
            "POST", "/submit", binary_log.read_bytes()[:40]
        )
        payload = json.loads(data)
        assert status == 422
        assert payload["taxonomy"] == "corrupt"
        assert payload["offset"] == 40

    @pytest.mark.parametrize("compress", [None, 6])
    def test_invalid_utf8_string_table_is_422_with_offset(
        self, daemon, binary_log, tmp_path, compress
    ):
        from repro.runtime.binlog import write_binary_log

        from ..conftest import garble_string_table

        path = tmp_path / "badutf8.mjbl"
        write_binary_log(binary_log, path, compress=compress)
        entry = garble_string_table(path)
        status, _, body = daemon.request("POST", "/submit", path.read_bytes())
        payload = json.loads(body)
        assert status == 422
        assert payload["taxonomy"] == "corrupt"
        assert payload["offset"] == entry

    def test_compressed_mjbl_report_matches_v1(
        self, daemon, binary_log, tmp_path
    ):
        from repro.runtime.binlog import write_binary_log

        v2_path = tmp_path / "racy_v2.mjbl"
        write_binary_log(binary_log, v2_path, compress=6)
        _, _, v1_record = daemon.submit_json(
            "/submit?wait=1", binary_log.read_bytes(), expect=200
        )
        _, _, v2_record = daemon.submit_json(
            "/submit?wait=1", v2_path.read_bytes(), expect=200
        )
        assert v2_record["job"]["kind"] == "binary-log"
        assert canonical(v2_record["result"]["report"]) == canonical(
            v1_record["result"]["report"]
        )

    def test_garbled_compressed_block_is_422_with_offset(
        self, daemon, tmp_path
    ):
        from repro.runtime.binlog import BinaryLogReader
        from repro.runtime.synthlog import synthesize_file

        path = tmp_path / "synth_v2.mjbl"
        synthesize_file(path, 10_000, compress=6, records_per_block=512)
        with BinaryLogReader(path) as reader:
            block_offset = next(
                b.offset for b in reader.blocks if b.compressed
            )
        data = bytearray(path.read_bytes())
        data[block_offset] = 0xFF  # break the zlib stream header
        status, _, body = daemon.request("POST", "/submit", bytes(data))
        payload = json.loads(body)
        assert status == 422
        assert payload["taxonomy"] == "corrupt"
        assert payload["offset"] == block_offset

    def test_future_mjbl_version_is_400(self, daemon, binary_log):
        import struct

        from repro.runtime.binlog import BINLOG_VERSION_COMPRESSED

        data = bytearray(binary_log.read_bytes())
        struct.pack_into("<I", data, 4, BINLOG_VERSION_COMPRESSED + 1)
        status, _, body = daemon.request("POST", "/submit", bytes(data))
        assert status == 400
        assert json.loads(body)["taxonomy"] == "schema-mismatch"

    def test_unbalanced_monitor_exit_is_422(self, daemon, tmp_path):
        from repro.runtime.binlog import write_binary_log

        from ..conftest import unbalanced_exit_log

        path = write_binary_log(unbalanced_exit_log(), tmp_path / "unbalanced.mjbl")
        status, _, record = daemon.submit_json("/submit?wait=1", path.read_bytes())
        assert status == 422
        assert record["error"]["taxonomy"] == "corrupt"
        assert "unbalanced monitor exit" in record["error"]["error"]

    def test_json_body_is_a_compile_error(self, daemon):
        # A retired tuple-JSON log is not MJBL, so it is MJ source that
        # does not compile: the documented 422 job error, never a 500.
        body = b'  {"version": 3, "entries": [["start", 0, 1], ["end", 1]]}'
        status, _, record = daemon.submit_json("/submit?wait=1", body)
        assert status == 422
        assert record["job"]["kind"] == "program"
        assert record["error"]["taxonomy"] == "compile-error"


class TestStageTiming:
    """Every job kind times the same four stages, each as a whole."""

    STAGES = {"load", "run", "detect", "axes"}

    def result(self, daemon, body, query="") -> dict:
        _, _, record = daemon.submit_json(
            f"/submit?wait=1{query}", body, expect=200
        )
        timing = record["result"]["timing"]
        assert set(timing) == self.STAGES
        assert all(
            isinstance(seconds, float) and seconds >= 0.0
            for seconds in timing.values()
        )
        return record["result"]

    def test_program_miss_then_hit(self, daemon):
        body = (RACY + "// stage timing\n").encode()
        for status in ("miss", "hit"):
            result = self.result(daemon, body, "&seed=3")
            assert result["cache"]["status"] == status
            assert result["timing"]["run"] > 0.0

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_uploads_have_no_run_stage(self, daemon, tmp_path, fmt):
        from repro.runtime.binlog import write_binary_log
        from repro.runtime.synthlog import synthesize_file

        path = tmp_path / "synth.mjbl"
        synthesize_file(path, 2_000, seed=7)
        if fmt == "v2":
            write_binary_log(path, tmp_path / "v2.mjbl", compress=6)
            path = tmp_path / "v2.mjbl"
        timing = self.result(daemon, path.read_bytes())["timing"]
        assert timing["run"] == 0.0
        assert timing["detect"] > 0.0


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self):
        daemon = Daemon(
            "--workers", "1", "--queue-depth", "1", "--timeout", "60"
        )
        try:
            daemon.submit_json("/submit", SLOW.encode(), expect=202)
            # Give the dispatcher a beat to hand the slow job to the
            # worker, freeing the queue slot for exactly one more.
            time.sleep(0.3)
            daemon.submit_json("/submit", RACY.encode(), expect=202)
            status, headers, data = daemon.request(
                "POST", "/submit", RACY.encode()
            )
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert json.loads(data)["taxonomy"] == "backpressure"
        finally:
            daemon.kill()


class TestTimeouts:
    def test_overrunning_job_is_killed_and_pool_recovers(self):
        daemon = Daemon("--workers", "1", "--timeout", "1.0")
        try:
            _, _, accepted = daemon.submit_json(
                "/submit", SLOW.encode(), expect=202
            )
            record = daemon.poll_until_terminal(accepted["job"]["id"])
            assert record["job"]["state"] == "timeout"
            assert record["error"]["taxonomy"] == "timeout"
            # The worker was killed and respawned: the pool still
            # serves new jobs afterwards.
            _, _, after = daemon.submit_json(
                "/submit?wait=1", RACY.encode(), expect=200
            )
            assert after["job"]["state"] == "done"
            _, _, stats = daemon.submit_json("/stats", b"")
            assert stats["jobs"]["timeout"] == 1
        finally:
            daemon.kill()


class TestGracefulDrain:
    def test_sigterm_finishes_in_flight_jobs(self):
        daemon = Daemon("--workers", "1")
        outcome = {}

        def waiter():
            outcome["response"] = daemon.submit_json(
                "/submit?wait=1", MEDIUM.encode()
            )

        thread = threading.Thread(target=waiter)
        try:
            thread.start()
            time.sleep(0.3)  # let the submission land before the signal
            exit_code = daemon.terminate()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert exit_code == 0
            status, _, record = outcome["response"]
            assert status == 200
            assert record["job"]["state"] == "done"
            assert record["result"]["report"]["output"] == ["300000"]
        finally:
            daemon.kill()
            thread.join(timeout=5)

    def test_draining_daemon_rejects_new_submissions(self):
        daemon = Daemon("--workers", "1")
        try:
            daemon.submit_json("/submit", SLOW.encode(), expect=202)
            time.sleep(0.2)
            daemon.proc.send_signal(signal.SIGTERM)
            time.sleep(0.2)
            # The listener socket is closed during drain; either the
            # connection is refused outright or (if raced) answered 503.
            try:
                status, _, _ = daemon.request(
                    "POST", "/submit", RACY.encode(), timeout=5
                )
            except (ConnectionError, OSError):
                return
            assert status == 503
        finally:
            daemon.kill()
