"""Executing one (program, schedule) case through every detector.

One *case* is a fully deterministic pair: MJ source text plus a
:class:`ScheduleSpec`.  :func:`execute_case` runs it once with every
access site traced (recording the tuple-encoded log and an on-the-fly
paper detector simultaneously), and optionally a second time under the
full static instrumentation plan (the §5–§7 optimized pipeline), whose
event stream legitimately differs.

:func:`compute_verdicts` then fans the recorded log out to the whole
detector battery and normalizes each detector's answer into a
:class:`Verdict`: racy locations and objects as plain strings, the
report count, and the counters the sharded-parity expectations check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..baselines import (
    EraserDetector,
    HappensBeforeDetector,
    ObjectRaceDetector,
)
from ..detector.config import DetectorConfig
from ..detector.pipeline import RaceDetector
from ..detector.predict import make_predictor
from ..detector.reference import ReferenceDetector
from ..detector.sharded import canonical_report_order, detect_sharded
from ..instrument.planner import PlannerConfig, plan_instrumentation
from ..lang.resolver import compile_source
from ..runtime.events import MulticastSink, RecordingSink, replay_entries
from ..runtime.replay import FallbackReplayPolicy, ScheduleTrace
from ..runtime.scheduler import RandomPolicy, RoundRobinPolicy

#: Shard counts the lab exercises by default (the PR-1 engine's edge
#: cases live at 1 and at counts above the object population).
DEFAULT_SHARDS = (1, 2, 8)


@dataclass(frozen=True)
class ScheduleSpec:
    """A deterministic, serializable schedule description.

    ``kind`` is one of ``"roundrobin"`` (fixed-quantum round-robin),
    ``"random"`` (the seeded :class:`RandomPolicy`), or ``"prefix"`` (a
    recorded decision prefix replayed via
    :class:`~repro.runtime.replay.FallbackReplayPolicy`, falling back to
    round-robin — the shrinker's output form).
    """

    kind: str = "roundrobin"
    seed: int = 0
    choices: tuple = ()

    def policy(self):
        if self.kind == "roundrobin":
            return RoundRobinPolicy()
        if self.kind == "random":
            return RandomPolicy(self.seed)
        if self.kind == "prefix":
            return FallbackReplayPolicy(ScheduleTrace(list(self.choices)))
        raise ValueError(f"unknown schedule kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "roundrobin":
            return "round-robin"
        if self.kind == "random":
            return f"random(seed={self.seed})"
        return f"prefix({len(self.choices)} steps, then round-robin)"

    def to_json(self) -> dict:
        payload: dict = {"kind": self.kind}
        if self.kind == "random":
            payload["seed"] = self.seed
        if self.kind == "prefix":
            payload["choices"] = list(self.choices)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "ScheduleSpec":
        return cls(
            kind=payload["kind"],
            seed=payload.get("seed", 0),
            choices=tuple(payload.get("choices", ())),
        )


@dataclass
class CaseRun:
    """The raw material of one executed case."""

    source: str
    schedule: ScheduleSpec
    #: Tuple-encoded event log with every access site traced.
    log: list
    #: The paper detector that ran on-the-fly during the recording run.
    live_detector: RaceDetector
    #: Program output of the recording run (determinism checks).
    output: list
    #: Log recorded under the full static instrumentation plan, or None
    #: when the static axis is disabled.
    static_log: Optional[list] = None


@dataclass(frozen=True)
class Verdict:
    """One detector's normalized answer for one case."""

    detector: str
    locations: frozenset
    objects: frozenset
    races: int
    #: Counters for the exact-parity expectations (sharded vs serial).
    counters: tuple = ()

    def counter_map(self) -> dict:
        return dict(self.counters)


def _norm_locations(keys) -> frozenset:
    return frozenset(str(key) for key in keys)


def _norm_objects(labels) -> frozenset:
    return frozenset(str(label) for label in labels)


class EngineDivergence(Exception):
    """The selected engine and the AST reference engine disagreed."""


def execute_case(
    source: str,
    schedule: ScheduleSpec,
    detector_factory: Optional[Callable[[], RaceDetector]] = None,
    include_static_axis: bool = True,
    max_steps: int = 2_000_000,
    engine: str = "ast",
) -> CaseRun:
    """Run one case, recording the all-sites log plus a live detector.

    The program is compiled fresh per run (the planner mutates the AST
    in place), and each run gets a fresh policy instance so the
    schedules are identical across runs of the same spec.

    With ``engine`` other than ``"ast"``, the recording run executes on
    that engine and the AST interpreter reruns the same case as the
    differential reference: program output and the tuple-encoded event
    log must match exactly, otherwise :class:`EngineDivergence` is
    raised (and surfaces as a lab error).
    """
    factory = detector_factory if detector_factory is not None else RaceDetector
    resolved = compile_source(source)
    log = RecordingSink()
    live = factory()
    result = _run(
        resolved,
        MulticastSink([log, live]),
        trace_sites=None,
        policy=schedule.policy(),
        max_steps=max_steps,
        engine=engine,
    )
    if engine != "ast":
        reference_log = RecordingSink()
        reference_result = _run(
            compile_source(source),
            reference_log,
            trace_sites=None,
            policy=schedule.policy(),
            max_steps=max_steps,
            engine="ast",
        )
        if reference_result.output != result.output:
            raise EngineDivergence(
                f"engine {engine!r} output diverged from the ast "
                f"reference: {result.output!r} != "
                f"{reference_result.output!r}"
            )
        if reference_log.log != log.log:
            raise EngineDivergence(
                f"engine {engine!r} event log diverged from the ast "
                f"reference ({len(log.log)} vs "
                f"{len(reference_log.log)} entries)"
            )
    static_log: Optional[list] = None
    if include_static_axis:
        resolved_static = compile_source(source)
        plan = plan_instrumentation(resolved_static, PlannerConfig())
        static_sink = RecordingSink()
        _run(
            resolved_static,
            static_sink,
            trace_sites=plan.trace_sites,
            policy=schedule.policy(),
            max_steps=max_steps,
            engine=engine,
        )
        static_log = static_sink.log
    return CaseRun(
        source=source,
        schedule=schedule,
        log=log.log,
        live_detector=live,
        output=result.output,
        static_log=static_log,
    )


def _run(resolved, sink, trace_sites, policy, max_steps, engine="ast"):
    from ..runtime import engine_runner

    return engine_runner(engine)(
        resolved,
        sink=sink,
        trace_sites=trace_sites,
        policy=policy,
        max_steps=max_steps,
    )


def _paper_verdict(name: str, detector: RaceDetector) -> Verdict:
    reports = detector.reports
    stats = detector.stats
    return Verdict(
        detector=name,
        locations=_norm_locations(reports.racy_locations),
        objects=_norm_objects(reports.racy_objects),
        races=len(reports.reports),
        counters=(
            ("accesses", stats.accesses),
            ("owned_filtered", stats.owned_filtered),
            ("detector_processed", stats.detector_processed),
            ("filtered_sum", stats.cache_hits + stats.detector_weaker_filtered),
            ("monitored_locations", detector.monitored_locations),
            ("trie_nodes", detector.total_trie_nodes()),
            (
                "report_signature",
                tuple(
                    (str(r.key), r.current.thread_id, r.current.site_id)
                    for r in canonical_report_order(reports.reports)
                ),
            ),
        ),
    )


def compute_verdicts(
    case: CaseRun,
    shards: Sequence[int] = DEFAULT_SHARDS,
    detector_factory: Optional[Callable[[], RaceDetector]] = None,
    config: Optional[DetectorConfig] = None,
) -> dict:
    """Run the full battery over one executed case.

    Returns ``{detector name: Verdict}``.  When ``detector_factory`` is
    given (bug injection), the sharded battery is skipped — the shard
    workers construct plain :class:`RaceDetector` instances internally,
    so an injected bug would make the parity axis compare a broken
    serial detector against correct shards and drown the interesting
    violation in parity noise.
    """
    factory = detector_factory if detector_factory is not None else RaceDetector
    cfg = config if config is not None else DetectorConfig()
    verdicts: dict = {}

    verdicts["paper-live"] = _paper_verdict("paper-live", case.live_detector)

    paper = factory()
    replay_entries(case.log, paper)
    verdicts["paper"] = _paper_verdict("paper", paper)

    # The at-rest-format axis: round-trip the tuple log through the
    # MJBL binary format and rerun the paper detector over the stream
    # the production columnar decoder (``replay_into``) delivers, also
    # recorded as tuples.  Entry-for-entry round-trip identity and
    # verdict parity are both theorems; either breaking is a lab
    # violation (``binlog-parity-break``).
    from ..runtime.binlog import (
        BinaryLogReader,
        temporary_binary_log,
        write_binary_log,
    )

    decoded = RecordingSink()
    binlog_paper = factory()
    with temporary_binary_log() as roundtrip_path:
        write_binary_log(case.log, roundtrip_path)
        with BinaryLogReader(roundtrip_path) as reader:
            reader.replay_into(MulticastSink([decoded, binlog_paper]))
    binlog_verdict = _paper_verdict("paper-binlog", binlog_paper)
    verdicts["paper-binlog"] = Verdict(
        detector="paper-binlog",
        locations=binlog_verdict.locations,
        objects=binlog_verdict.objects,
        races=binlog_verdict.races,
        counters=binlog_verdict.counters
        + (("roundtrip_identical", decoded.log == list(case.log)),),
    )

    if detector_factory is None:
        for count in shards:
            sharded = detect_sharded(case.log, count, config=cfg, validate=False)
            verdicts[f"paper-sharded-{count}"] = Verdict(
                detector=f"paper-sharded-{count}",
                locations=_norm_locations(sharded.reports.racy_locations),
                objects=_norm_objects(sharded.reports.racy_objects),
                races=sharded.races,
                counters=(
                    ("accesses", sharded.stats.accesses),
                    ("owned_filtered", sharded.stats.owned_filtered),
                    ("detector_processed", sharded.stats.detector_processed),
                    (
                        "filtered_sum",
                        sharded.stats.cache_hits
                        + sharded.stats.detector_weaker_filtered,
                    ),
                    ("monitored_locations", sharded.monitored_locations),
                    ("trie_nodes", sharded.trie_nodes),
                    (
                        "report_signature",
                        tuple(
                            (str(r.key), r.current.thread_id, r.current.site_id)
                            for r in sharded.reports.reports
                        ),
                    ),
                ),
            )

    reference = ReferenceDetector(cfg)
    replay_entries(case.log, reference)
    verdicts["reference"] = Verdict(
        detector="reference",
        locations=_norm_locations(reference.racy_locations),
        objects=_norm_objects(reference.racy_objects),
        races=len(reference.pairs),
    )

    reference_raw = ReferenceDetector(cfg.but(ownership=False))
    replay_entries(case.log, reference_raw)
    verdicts["reference-raw"] = Verdict(
        detector="reference-raw",
        locations=_norm_locations(reference_raw.racy_locations),
        objects=_norm_objects(reference_raw.racy_objects),
        races=len(reference_raw.pairs),
    )

    eraser = EraserDetector()
    replay_entries(case.log, eraser)
    verdicts["eraser"] = Verdict(
        detector="eraser",
        locations=_norm_locations(eraser.racy_locations),
        objects=_norm_objects(eraser.racy_objects),
        races=len(eraser.reports),
    )

    hb = HappensBeforeDetector()
    replay_entries(case.log, hb)
    verdicts["hb"] = Verdict(
        detector="hb",
        locations=_norm_locations(hb.racy_locations),
        objects=_norm_objects(hb.racy_objects),
        races=len(hb.reports),
    )

    # The predictive axes: SHB and the hybrid lockset+HB predictor run
    # over the same recorded stream.  Their expectation rows are
    # theorems of the battery designs: shb ⊇ hb (prediction only adds
    # reports) and hybrid ⊆ reference-raw (every hybrid report is a
    # lockset race); the expected directions are the two predictive
    # discrepancy classes.
    for mode in ("shb", "hybrid"):
        predictor = make_predictor(mode)
        replay_entries(case.log, predictor)
        verdicts[mode] = Verdict(
            detector=mode,
            locations=_norm_locations(predictor.racy_locations),
            objects=_norm_objects(predictor.racy_objects),
            races=len(predictor.reports),
        )

    objectrace = ObjectRaceDetector()
    replay_entries(case.log, objectrace)
    verdicts["objectrace"] = Verdict(
        detector="objectrace",
        locations=frozenset(),
        objects=_norm_objects(objectrace.racy_objects),
        races=len(objectrace.reports),
    )

    if case.static_log is not None:
        static = factory()
        replay_entries(case.static_log, static)
        verdicts["paper-static"] = Verdict(
            detector="paper-static",
            locations=_norm_locations(static.reports.racy_locations),
            objects=_norm_objects(static.reports.racy_objects),
            races=len(static.reports.reports),
        )

    return verdicts
