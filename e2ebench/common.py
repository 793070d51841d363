"""Shared pieces of the end-to-end benchmark.

* :func:`summarize` — median and quartiles of a sample list;
* :func:`canonical_hash` — digest of a report in the canonical
  ``--report-json`` encoding;
* :class:`Clock` — times one operation and rescales it to reference
  machine speed with calibration probes run around it;
* :class:`SpeedSampler` — the same rescaling for a phase whose work
  runs in other processes, from probes sampled during it;
* :class:`Tracer` — in-memory spans around the public calls the
  benchmark makes, written out at the end with each span's self time;
* :func:`run_isolated` — run a child interpreter that does one thing,
  returning its JSON answer and its peak RSS (:func:`peak_rss_mb`).

This module imports nothing from ``repro`` at module level: the serve
workload's load generator imports it, and that process must stay small
so the daemon's processes set the serve peak RSS.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Scratch space for logs, spools, and results, inside the checkout.
STATE_DIR = ROOT / ".e2ebench"


def pin_hash_seed() -> None:
    """Re-execute this interpreter once with ``PYTHONHASHSEED=0``.

    The detector's per-thread caches place entries by ``hash(key)`` of
    location keys that contain strings, so with randomized string
    hashing the cache-hit and weaker-filtered counters (and the report
    bytes that carry them) differ from process to process.  Every
    process of a run — parent, timed child, daemon, and the oracles —
    must hash alike for their reports to be comparable.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def require_source_tree() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``, or exit 2.

    The benchmark measures the checkout it sits in; an installed
    ``repro`` elsewhere on the path must never stand in for it.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2ebench: no repro source tree at {SRC}\n")
        raise SystemExit(2)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def load_benchmark() -> dict:
    """The metric and workload definitions from ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_FILE.read_text())


# ----------------------------------------------------------------------
# Statistics.


def summarize(samples) -> dict:
    """Median, first and third quartile, and count of ``samples``.

    Quartiles use :func:`statistics.quantiles` with its default
    (exclusive) method; a single sample is its own quartiles.
    """
    values = [float(value) for value in samples]
    if not values:
        raise ValueError("summarize needs at least one sample")
    if len(values) == 1:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": 1}
    p25, median, p75 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "p25": p25,
        "p75": p75,
        "n": len(values),
    }


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def text_hash(text: str) -> str:
    """SHA-256 of ``text`` as UTF-8, hex."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_hash(payload) -> str:
    """SHA-256 of ``payload`` in the canonical report encoding (sorted
    keys, no whitespace, raw UTF-8) — the bytes ``check --report-json``
    prints for the same report."""
    return text_hash(json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ))


# ----------------------------------------------------------------------
# Timing.

#: Work in the two calibration kernels, the memory kernel's buffer, and
#: the geometric mean of the two kernels' wall times on the reference
#: machine (the 2-CPU Xeon box the baseline was taken on, in its fast
#: phase).
CPU_ITERATIONS = 40_000
MEMORY_PROBES = 20_000
MEMORY_BYTES = 1 << 21
KERNEL_REFERENCE_S = 0.005


def _cpu_kernel(iterations: int) -> float:
    table: dict = {}
    scratch: list = []
    started = time.perf_counter()
    for index in range(iterations):
        table[index & 1023] = index
        scratch.append(table.get(index & 511, 0) + index)
        if len(scratch) > 64:
            scratch.clear()
    return time.perf_counter() - started


def _memory_kernel(buffer: bytearray, probes: int) -> float:
    mask = len(buffer) - 1
    index = total = 0
    started = time.perf_counter()
    for _ in range(probes):
        index = (index + 2654435761) & mask
        total += buffer[index]
    return time.perf_counter() - started


def kernel_seconds(buffer: bytearray, size: float = 1.0) -> float:
    """The machine-speed probe: geometric mean of two fixed pure-Python
    kernels' wall times; ``size`` scales both kernels' work (and the
    reference time with it).

    One kernel is dict stores and probes plus list churn, the
    interpreter paths the detector and the MJ engines spend their time
    in; the other reads ``buffer`` (``MEMORY_BYTES``) at scattered
    offsets, which slows down as neighbours contend for caches and
    memory.  Neither touches ``repro``, so no change to the program can
    move them.
    """
    cpu = _cpu_kernel(round(CPU_ITERATIONS * size))
    memory = _memory_kernel(buffer, round(MEMORY_PROBES * size))
    return (cpu * memory) ** 0.5


class Clock:
    """Times operations in reference-machine seconds.

    The shared host this benchmark runs on slows by up to 1.8x in
    spells from under a second to several seconds long, which no run
    length averages away.  Each
    timed operation is therefore bracketed by :func:`kernel_seconds`
    probes and its wall time multiplied by ``KERNEL_REFERENCE_S`` over
    the mean of the two probes.  A code change moves the operation and not
    the kernel, so it still shows in full; a host slowdown moves both
    and cancels.
    """

    def __init__(self) -> None:
        self._buffer = bytearray(MEMORY_BYTES)
        self._kernel = kernel_seconds(self._buffer)

    def factor(self) -> float:
        """Rescale factor for an interval that just ended, and re-arm."""
        kernel = kernel_seconds(self._buffer)
        factor = KERNEL_REFERENCE_S / ((self._kernel + kernel) / 2)
        self._kernel = kernel
        return factor

    def time(self, operation):
        """Run ``operation()``; return ``(value, wall_s, scaled_s)``."""
        started = time.perf_counter()
        value = operation()
        wall = time.perf_counter() - started
        return value, wall, wall * self.factor()


class SpeedSampler:
    """Host speed sampled on every CPU while other processes do the
    timed work (the serve daemon's workers), for a per-phase factor.

    Bracketing cannot follow work that runs in other processes while
    the host's speed changes under it from one moment to the next.
    One thread per CPU this process may use, each pinned to its CPU,
    runs a tenth-size probe every 50 ms; :meth:`factor` turns the
    samples inside an interval into the factor :class:`Clock` would
    apply.  The probes take about 1% of each CPU and hold the GIL for
    half a millisecond at a time.  They share the CPUs with the work
    they calibrate, so their factors run below 1 under load.
    """

    SIZE = 0.1
    PERIOD_S = 0.05

    def __init__(self) -> None:
        self.samples: list = []
        self._buffer = bytearray(MEMORY_BYTES)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def __enter__(self) -> "SpeedSampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only, on Linux
        while not self._stop.wait(self.PERIOD_S):
            seconds = kernel_seconds(self._buffer, size=self.SIZE)
            self.samples.append((time.perf_counter(), seconds))

    def factor(self, start: float, end: float) -> float:
        """Reference-speed factor for the interval ``[start, end]``,
        widened by one sampling period each way so that even a short
        interval holds samples from every CPU."""
        window = [
            seconds
            for at, seconds in self.samples
            if start - self.PERIOD_S <= at <= end + self.PERIOD_S
        ]
        return KERNEL_REFERENCE_S * self.SIZE / statistics.mean(window)


# ----------------------------------------------------------------------
# Tracing.


class Tracer:
    """Spans kept in memory, written once at the end of a run.

    A span is ``{id, parent, name, start, end, workload, op}``; spans of
    one check or request share an ``op``.  Nesting follows a per-thread
    stack, so concurrent request threads each get their own parents.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = self.add(
            name, op, time.perf_counter(), None,
            stack[-1]["id"] if stack else None,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def add(self, name, op, start, end, parent=None) -> dict:
        """Record a span measured elsewhere (e.g. server-side timings)."""
        span = {
            "id": next(self._ids),
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "workload": self.workload,
            "op": op,
        }
        self.spans.append(span)
        return span

    def self_times(self) -> dict:
        """Per span id: duration minus the part its children cover."""
        children: dict = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for child in sorted(
                children.get(span["id"], ()), key=lambda item: item["start"]
            ):
                start = max(child["start"], cursor)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            result[span["id"]] = span["end"] - span["start"] - covered
        return result

    def write(self, path: Path) -> None:
        self_times = self.self_times()
        spans = [dict(span, self=self_times[span["id"]]) for span in self.spans]
        by_name: dict = {}
        for span in spans:
            entry = by_name.setdefault(span["name"], {"count": 0, "self_s": 0.0})
            entry["count"] += 1
            entry["self_s"] += span["self"]
        path.write_text(json.dumps(
            {"workload": self.workload, "self_time_by_name": by_name,
             "spans": spans},
            indent=1,
        ) + "\n")


def traced(tracer, name: str, op: str, call):
    """``call()`` inside a span."""
    with tracer.span(name, op):
        return call()


class NullTracer:
    """The untraced path: same call sites, no spans."""

    def span(self, name: str, op: str):
        return contextlib.nullcontext()


# ----------------------------------------------------------------------
# Child processes.


def child_env(work: Path) -> dict:
    """Environment for benchmark children: this checkout's ``src`` on
    the path, temp files inside the checkout, a fixed hash seed, and no
    ``REPRO_*`` overrides (the benchmark names its engine explicitly)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(work)
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildFailed(RuntimeError):
    """A benchmark child exited nonzero, timed out, or printed no answer."""


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has waited
    for (a daemon it started and stopped), in MB.

    This process's own peak is ``VmHWM``, which starts afresh at exec.
    ``ru_maxrss`` would not do for it: Linux charges the spawning
    process's high-water mark to an exec'd child, so a child spawned by
    a large parent would report the parent's size.
    """
    own = 0.0
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                own = int(line.split()[1]) / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return max(own, children)


def run_isolated(argv, work: Path, timeout: float):
    """Run ``python argv...`` in a fresh interpreter rooted at the
    checkout; return ``(answer, peak_rss_mb)``.

    The child prints one JSON object as its last line, carrying its own
    :func:`peak_rss_mb` under ``peak_rss_mb``.  It is killed at
    ``timeout`` seconds.
    """
    proc = subprocess.Popen(
        [sys.executable, *map(str, argv)],
        cwd=ROOT,
        env=child_env(work),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        output, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{argv[1:]} ran past {timeout}s") from None
    lines = output.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{argv[1:]} exited {proc.returncode}")
    answer = json.loads(lines[-1])
    return answer, answer.pop("peak_rss_mb")
