"""The serve workload: ``repro serve --workers 2`` under a seeded mix.

The parent builds the inputs and gates the answers; the load itself
runs in :mod:`serveload`.  The mix, one of each per cycle, in a seeded
cyclic order:

* ``tsp2-8``, ``mtrt2-6``, ``sor2-16`` — the programs at those scales,
  which hit the per-worker compile cache after warm-up;
* ``mtrt2-6-miss`` — the mtrt2 program with a unique trailing ``//``
  comment on every request, so every request misses the cache and
  pays compile and plan;
* ``upload-v1``, ``upload-v2`` — a seeded 8k-event ``synthlog`` trace
  as MJBL v1 and as deflated MJBL v2.

Every kind costs the daemon 55-100 ms on the reference machine, so
latency is one band rather than one cluster per kind, and its median
does not jump between clusters from run to run.

Every program job runs the paper detector live plus the hb and eraser
replay axes; every upload is validated at submit and then detected.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
from pathlib import Path
from urllib.parse import urlencode

from common import canonical_hash, percentile, summarize, text_hash
from ladder import layer_metrics
from livecheck import program_ladder, program_source
from logcheck import log_ladder, upload_axes_seconds
from serveload import run_load

from repro.cli import main as repro_main
from repro.runtime.synthlog import synthesize_file

PROGRAMS = (("tsp2", 8), ("mtrt2", 6), ("sor2", 16))
QUICK_PROGRAMS = (("tsp2", 4), ("mtrt2", 3), ("sor2", 6))
UPLOAD_EVENTS = 8_000
QUICK_UPLOAD_EVENTS = 1_000
#: Open-loop arrival rate, jobs/s: about 40% of the closed-loop
#: capacity on the reference machine (~24 jobs/s), so queueing shows in
#: the tail but the daemon is far from saturated.
RATE = 10.0
SETUP_REPEATS = 7
#: Shares of the run's seconds spent in the closed and open loops.
CLOSED_SHARE = 0.4
OPEN_SHARE = 0.6
#: Closed-loop capacity on the reference machine, jobs/s.  The closed
#: loop sends a fixed number of whole cycles sized to last its share of
#: the seconds there, so every run sends the same requests (each cache
#: miss grows a worker's compile cache, so memory depends on the count).
REFERENCE_CAPACITY = 24.0


def _program_kind(name: str, path: Path, seed: int, unique: bool) -> dict:
    return {
        "name": name,
        "body": str(path),
        "query": urlencode(
            {"engine": "compiled", "seed": seed, "filename": str(path)}
        ),
        "unique": unique,
        "cli": ["check", str(path), "--report-json",
                "--engine", "compiled", "--seed", str(seed)],
    }


def _upload_kind(name: str, path: Path) -> dict:
    return {
        "name": name,
        "body": str(path),
        "query": "",
        "unique": False,
        "cli": ["check", "--from-log", str(path), "--report-json"],
    }


def _whole_cycles(requests: float, cycle: int) -> int:
    return cycle * max(1, round(requests / cycle))


def build_spec(seed: int, seconds: float, quick: bool, work: Path) -> dict:
    """Write the mix's inputs under ``work`` and describe the load."""
    kinds = []
    for program, scale in QUICK_PROGRAMS if quick else PROGRAMS:
        _, source = program_source(program, scale)
        path = work / f"{program}-{scale}.mj"
        path.write_text(source)
        kinds.append(_program_kind(f"{program}-{scale}", path, seed, False))
    program, scale = (QUICK_PROGRAMS if quick else PROGRAMS)[1]
    miss = work / f"{program}-{scale}-miss.mj"
    miss.write_text(Path(kinds[1]["body"]).read_text())
    kinds.append(_program_kind(f"{program}-{scale}-miss", miss, seed, True))
    events = QUICK_UPLOAD_EVENTS if quick else UPLOAD_EVENTS
    for name, compress in (("upload-v1", None), ("upload-v2", 6)):
        path = work / f"{name}.mjbl"
        synthesize_file(path, events, compress=compress, seed=seed)
        kinds.append(_upload_kind(name, path))
    order = list(range(len(kinds)))
    random.Random(seed).shuffle(order)
    return {
        "kinds": kinds,
        "order": order,
        "closed_requests": _whole_cycles(
            REFERENCE_CAPACITY * CLOSED_SHARE * seconds, len(order)
        ),
        "open_requests": _whole_cycles(
            RATE * OPEN_SHARE * seconds, len(order)
        ),
        "rate": RATE,
        "setup_repeats": SETUP_REPEATS,
        "work": str(work),
    }


def cli_reports(spec: dict) -> dict:
    """``repro check --report-json`` for each kind, in-process."""
    texts = {}
    for kind in spec["kinds"]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = repro_main(kind["cli"])
        if code not in (0, 1):
            raise RuntimeError(f"check --report-json failed on {kind['name']}")
        texts[kind["name"]] = buffer.getvalue().strip()
    return texts


def judge(answer: dict, texts: dict):
    """``(attempted, failed)``: the warm-up reports must equal the CLI's
    byte for byte, and every request must succeed with its kind's
    report."""
    expected = {name: text_hash(text) for name, text in texts.items()}
    failed = sum(
        1
        for name in texts
        if canonical_hash(answer["warm_reports"].get(name)) != expected[name]
    )
    requests = answer["warm"] + answer["closed"] + answer["open"]
    bad = [
        request
        for request in requests
        if not request["ok"] or request["hash"] != expected[request["kind"]]
    ]
    for request in bad[:3]:
        print(f"serve-mix: {request['kind']} failed: "
              f"{request['error'] or 'report differs from check --report-json'}",
              file=sys.stderr)
    return len(texts) + len(requests), failed + len(bad)


def metrics(answer: dict) -> dict:
    ok_closed = [request for request in answer["closed"] if request["ok"]]
    latencies = [request["latency_ref_s"] * 1000 for request in answer["open"]]
    return {
        "setup_s": summarize(answer["setup_s"]),
        "p50_ms": summarize(latencies),
        "ops_per_s": summarize([len(ok_closed) / answer["closed_ref_s"]]),
    }


def extras(answer: dict) -> dict:
    """Service-side numbers a serve run yields alongside its metrics."""
    opened = answer["open"]
    done = [request for request in answer["closed"] + opened if request["ok"]]
    http = [
        (request["latency_s"] - request["late_s"] - request["queue_s"]
         - request["run_s"]) * 1000
        for request in opened
        if request["ok"]
    ]
    stats = answer["stats"]
    return {
        "p90_ms": percentile([r["latency_ref_s"] * 1000 for r in opened], 0.9),
        "p90_wall_ms": percentile([r["latency_s"] * 1000 for r in opened], 0.9),
        "p50_wall_ms": statistics.median(r["latency_s"] * 1000 for r in opened),
        "ops_wall_per_s": sum(r["ok"] for r in answer["closed"])
        / answer["closed_wall_s"],
        "open_requests": len(opened),
        "closed_requests": len(answer["closed"]),
        "service.queue_ms": statistics.median(r["queue_s"] * 1000 for r in done),
        "service.run_ms": statistics.median(r["run_s"] * 1000 for r in done),
        "service.http_ms": statistics.median(http),
        "service.late_ms": statistics.median(r["late_s"] * 1000 for r in opened),
        "service.cache_hit_ratio": stats["compile_cache"]["hit_rate"],
        "service.rejected": stats["jobs"]["rejected"],
    }


def trace(seed: int, seconds: float, quick: bool, clock, tracer, work: Path):
    """The ladder over one cycle of the mix (per job), then a shortened
    traced load for the service's own spans; every report is checked
    against ``check --report-json``."""
    spec = build_spec(seed, seconds / 2, quick, work)
    texts = cli_reports(spec)
    expected = {name: text_hash(text) for name, text in texts.items()}
    ladders, checked, failed = [], 0, 0
    for kind in spec["kinds"]:
        path = Path(kind["body"])
        if kind["name"].startswith("upload"):
            ladder = log_ladder(path, clock, tracer)
        else:
            ladder = program_ladder(
                str(path), path.read_text(), seed, clock, tracer
            )
        checked += len(ladder["hashes"])
        failed += sum(h != expected[kind["name"]] for h in ladder["hashes"])
        ladders.append(ladder)
    share = 1 / len(ladders)
    per_layer = layer_metrics([(share, ladder) for ladder in ladders])
    answer = run_load(spec, tracer)
    attempted, load_failed = judge(answer, texts)
    found = extras(answer)
    found.update(upload_axes_seconds(work / "upload-v1.mjbl", clock))
    return {
        "per_layer": per_layer,
        "extras": found,
        "traced_check": sum(share * ladder["traced_check"] for ladder in ladders),
        "untraced_check": sum(
            share * ladder["untraced_check"] for ladder in ladders
        ),
        "attempted": attempted + checked,
        "failed": failed + load_failed,
    }
