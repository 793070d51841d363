"""The layer ladder: the same input run again and again with detector
layers switched on one at a time, timed from outside.

Rungs, bottom to top (the paper's Table 2 method, extended down to the
runtime):

``null``
    the event source delivers every event into a :class:`NullSink`;
``lockset``
    plus lockset attachment (:class:`LocksetSink`);
``trie``
    plus the lockset trie — ``RaceDetector`` with ownership and cache off;
``ownership``
    plus the ownership filter — ``RaceDetector`` with the cache off;
``full``
    plus the per-thread access caches — the Full detector.

A layer's cost is the difference between adjacent rung medians; a
negative cost means the layer's filter saves more than it costs.
"""

from __future__ import annotations

import statistics

from common import traced
from sinks import LocksetSink, NullSink, detector_counts

from repro.detector import DetectorConfig, RaceDetector

RUNGS = ("null", "lockset", "trie", "ownership", "full")
#: Runs per rung; each rung reports its median.
RUNG_REPEATS = 3

_CONFIGS = {
    "trie": DetectorConfig(ownership=False, cache=False),
    "ownership": DetectorConfig(cache=False),
    "full": DetectorConfig(),
}


def rung_sink(rung: str, **detector_kwargs):
    """A fresh sink for ``rung`` (detector rungs get ``detector_kwargs``)."""
    if rung == "null":
        return NullSink()
    if rung == "lockset":
        return LocksetSink()
    return RaceDetector(config=_CONFIGS[rung], **detector_kwargs)


def climb(clock, tracer, prepare, repeats: int = RUNG_REPEATS) -> dict:
    """Time every rung ``repeats`` times.

    ``prepare(rung, op)`` builds one run outside the timed region and
    returns ``(run, sink)``; ``run()`` is the timed call.  Returns the
    per-rung median seconds plus the Full detector's counts and the
    last Full run's value (for the oracle).
    """
    medians = {}
    full_sink = full_value = None
    for rung in RUNGS:
        samples = []
        for index in range(repeats):
            op = f"{rung}#{index}"
            run, sink = prepare(rung, op)
            value, _, scaled = clock.time(
                lambda: traced(tracer, "ladder.run", op, run)
            )
            samples.append(scaled)
        medians[rung] = statistics.median(samples)
        if rung == "full":
            full_sink, full_value = sink, value
    return {
        "rungs": medians,
        "counts": detector_counts(full_sink),
        "full_sink": full_sink,
        "full_value": full_value,
    }


def layer_metrics(parts) -> dict:
    """Per-layer metrics from ``[(weight, ladder), ...]``.

    Live and log workloads pass one ladder; the serve mix passes one per
    distinct request kind, weighted by its share of the mix, so every
    time and count is per job.
    """
    rungs = {
        rung: sum(weight * ladder["rungs"][rung] for weight, ladder in parts)
        for rung in RUNGS
    }
    counts = {
        key: sum(weight * ladder["counts"][key] for weight, ladder in parts)
        for key in parts[0][1]["counts"]
    }
    detector_s = rungs["full"] - rungs["null"]
    return {
        "source.s": rungs["null"],
        "lockset.s": rungs["lockset"] - rungs["null"],
        "trie.s": rungs["trie"] - rungs["lockset"],
        "ownership.s": rungs["ownership"] - rungs["trie"],
        "cache.s": rungs["full"] - rungs["ownership"],
        "detector.s": detector_s,
        "detector.ns_per_event": detector_s / max(1, counts["events"]) * 1e9,
        "detector.events": counts["events"],
        "detector.races": counts["races"],
        "ownership.filtered_ratio": counts["owned"] / max(1, counts["events"]),
        "cache.hit_ratio": counts["cache_hits"] / max(1, counts["cache_lookups"]),
        "trie.processed": counts["processed"],
        "trie.weaker_filtered": counts["weaker"],
        "trie.nodes": counts["nodes"],
        "trie.locations": counts["locations"],
        "lockset.interned": counts["locksets"],
    }
