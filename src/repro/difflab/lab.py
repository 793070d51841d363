"""The differential race-oracle lab: campaign driver.

A *campaign* sweeps a corpus of fuzzed (program seed, schedule seed)
cases through the whole detector battery
(:func:`~repro.difflab.verdicts.compute_verdicts`), classifies every
pairwise discrepancy against the expectation matrix
(:func:`~repro.difflab.expectations.classify_case`), and — on any
*violation* — invokes the automatic shrinker to minimize the failing
program and schedule before reporting it.

The lab is the repo's standing answer to "is the detector still
correct?": expected discrepancy classes are *evidence the battery has
teeth* (the baselines really do disagree in the documented ways), while
a single violation is a soundness/precision bug, delivered as a small
reproducer rather than a 100-line fuzz program.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..detector.config import DetectorConfig
from ..lang.errors import MJError
from ..runtime.scheduler import DeadlockError, StepLimitExceeded
from ..workloads.fuzz import generate_program
from .expectations import classify_case
from .shrink import (
    ShrinkStats,
    count_statements,
    lock_order_ascending,
    record_schedule_trace,
    shrink_program,
    shrink_schedule,
)
from .verdicts import (
    DEFAULT_SHARDS,
    EngineDivergence,
    ScheduleSpec,
    compute_verdicts,
    execute_case,
)

#: Step budget per fuzz case: generous for fuzzer-sized programs, small
#: enough that a pathological candidate fails fast during shrinking.
DEFAULT_MAX_STEPS = 200_000


@dataclass
class CaseResult:
    """One classified case."""

    label: str
    source: str
    schedule: ScheduleSpec
    discrepancies: list
    #: ``{detector name: Verdict}`` — empty when the case errored.
    verdicts: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def violations(self) -> list:
        return [d for d in self.discrepancies if d.is_violation]

    @property
    def expected(self) -> list:
        return [d for d in self.discrepancies if not d.is_violation]


@dataclass
class Violation:
    """A shrunk, fingerprinted counterexample for one violating case."""

    fingerprint: str
    classes: tuple
    source: str
    schedule: ScheduleSpec
    original_label: str
    stats: ShrinkStats
    discrepancies: list = field(default_factory=list)


@dataclass
class Find:
    """A shrunk reproducer for a *hunted* expected class.

    Hunting campaigns (``difflab --predict``) target documented
    discrepancy classes rather than violations: the first case
    exhibiting each hunted class is DDmin-shrunk into a committable
    reproducer.  ``predicted-not-observed`` finds additionally carry a
    synthesized witness schedule (when the search locates one) proving
    the prediction by execution.
    """

    fingerprint: str
    klass: str
    source: str
    schedule: ScheduleSpec
    original_label: str
    stats: ShrinkStats
    #: The offending locations, from the shrunk case.
    items: tuple = ()
    #: ``Witness.to_json()`` payload, or None.
    witness: Optional[dict] = None


@dataclass
class CampaignResult:
    cases_run: int = 0
    errors: list = field(default_factory=list)
    #: expected discrepancy class → number of cases exhibiting it.
    expected_counts: Counter = field(default_factory=Counter)
    violations: list = field(default_factory=list)
    #: shrunk reproducers for hunted expected classes (non-failing).
    finds: list = field(default_factory=list)
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def summary(self) -> str:
        lines = [
            f"difflab: {self.cases_run} cases in {self.duration:.1f}s, "
            f"{len(self.violations)} violation(s), "
            f"{len(self.errors)} error(s)"
        ]
        for klass, count in sorted(self.expected_counts.items()):
            lines.append(f"  expected {klass}: {count} case(s)")
        for violation in self.violations:
            lines.append(
                f"  VIOLATION {violation.fingerprint} "
                f"[{', '.join(violation.classes)}] from "
                f"{violation.original_label}: {violation.stats.describe()}"
            )
        for find in self.finds:
            witness = "with witness" if find.witness else "no witness"
            lines.append(
                f"  FIND {find.fingerprint} [{find.klass}] ({witness}) "
                f"from {find.original_label}: {find.stats.describe()}"
            )
        for label, message in self.errors:
            lines.append(f"  ERROR {label}: {message}")
        return "\n".join(lines)


def fingerprint(source: str, schedule: ScheduleSpec, classes: Sequence[str]) -> str:
    """Stable short id for a reproducer: program + schedule + classes."""
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update(repr(schedule.to_json()).encode())
    digest.update(",".join(sorted(classes)).encode())
    return digest.hexdigest()[:12]


def run_case(
    source: str,
    schedule: ScheduleSpec,
    label: str = "case",
    detector_factory: Optional[Callable] = None,
    config: Optional["DetectorConfig"] = None,
    shards: Sequence[int] = DEFAULT_SHARDS,
    include_static_axis: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = "ast",
) -> CaseResult:
    """Execute and classify one case; runtime failures become errors."""
    if detector_factory is None and config is not None:
        # A plain config sweep: the paper detectors must run under the
        # same semantics as the references they are compared against.
        from ..detector.pipeline import RaceDetector

        detector_factory = lambda: RaceDetector(config=config)  # noqa: E731
    try:
        case = execute_case(
            source,
            schedule,
            detector_factory=detector_factory,
            include_static_axis=include_static_axis,
            max_steps=max_steps,
            engine=engine,
        )
    except (
        MJError,
        DeadlockError,
        StepLimitExceeded,
        RecursionError,
        EngineDivergence,
    ) as exc:
        return CaseResult(
            label=label,
            source=source,
            schedule=schedule,
            discrepancies=[],
            error=f"{type(exc).__name__}: {exc}",
        )
    verdicts = compute_verdicts(
        case, shards=shards, detector_factory=detector_factory, config=config
    )
    return CaseResult(
        label=label,
        source=source,
        schedule=schedule,
        discrepancies=classify_case(verdicts, shards=shards),
        verdicts=verdicts,
    )


def case_classes(result: CaseResult, violations_only: bool = True) -> frozenset:
    pool = result.violations if violations_only else result.discrepancies
    return frozenset(d.klass for d in pool)


def make_predicate(
    target_classes: frozenset,
    violations_only: bool = True,
    detector_factory: Optional[Callable] = None,
    config: Optional["DetectorConfig"] = None,
    shards: Sequence[int] = DEFAULT_SHARDS,
    include_static_axis: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    extra_check: Optional[Callable[[CaseResult], bool]] = None,
    engine: str = "ast",
):
    """Build the shrinker's *interesting* test.

    A candidate is interesting iff it keeps the fuzzer's syntactic lock
    order, executes cleanly, and still exhibits **every** target class
    with the same classification — "fails for the same classified
    reason", not merely "fails somehow".  ``extra_check`` lets callers
    impose additional shape constraints on the minimized case (e.g. the
    corpus generator insists the discrepancy stays on a shared data
    field rather than collapsing into the constructor-init pattern).
    """

    def interesting(source: str, schedule: ScheduleSpec) -> bool:
        if not lock_order_ascending(source):
            return False
        result = run_case(
            source,
            schedule,
            detector_factory=detector_factory,
            config=config,
            shards=shards,
            include_static_axis=include_static_axis,
            max_steps=max_steps,
            engine=engine,
        )
        if result.error is not None:
            return False
        if not target_classes <= case_classes(result, violations_only):
            return False
        return extra_check is None or extra_check(result)

    return interesting


def shrink_case(
    source: str,
    schedule: ScheduleSpec,
    target_classes: frozenset,
    violations_only: bool = True,
    detector_factory: Optional[Callable] = None,
    config: Optional["DetectorConfig"] = None,
    shards: Sequence[int] = DEFAULT_SHARDS,
    include_static_axis: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_rounds: int = 40,
    extra_check: Optional[Callable[[CaseResult], bool]] = None,
    engine: str = "ast",
) -> tuple:
    """Minimize (source, schedule) while preserving ``target_classes``.

    Returns ``(source, schedule, stats)``.  Program first (schedule
    fixed), then schedule (program fixed) — re-running the program pass
    after a schedule change rarely pays for its cost on fuzzer-sized
    inputs.
    """
    interesting = make_predicate(
        target_classes,
        violations_only=violations_only,
        detector_factory=detector_factory,
        config=config,
        shards=shards,
        include_static_axis=include_static_axis,
        max_steps=max_steps,
        extra_check=extra_check,
        engine=engine,
    )
    stats = ShrinkStats(
        initial_schedule=schedule.describe(),
    )
    small, stats = shrink_program(
        source,
        lambda candidate: interesting(candidate, schedule),
        max_rounds=max_rounds,
        stats=stats,
    )
    small_schedule = shrink_schedule(
        small,
        schedule,
        interesting,
        lambda src, spec: record_schedule_trace(src, spec, max_steps),
    )
    stats.final_schedule = small_schedule.describe()
    # Final validation: determinism (double run) on the shrunk case.
    final = run_case(
        small, small_schedule, detector_factory=detector_factory,
        config=config, shards=shards,
        include_static_axis=include_static_axis, max_steps=max_steps,
        engine=engine,
    )
    if final.error is not None or not (
        target_classes <= case_classes(final, violations_only)
    ):  # pragma: no cover - defensive; predicate already enforced this.
        return source, schedule, stats
    return small, small_schedule, stats


def class_items(result: CaseResult, klass: str) -> tuple:
    """The offending location/object strings for one class, sorted."""
    items: set = set()
    for discrepancy in result.discrepancies:
        if discrepancy.klass == klass:
            items.update(discrepancy.items)
    return tuple(sorted(items))


def synthesize_witness(
    source: str,
    items: Sequence[str],
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = "ast",
    seeds: int = 64,
):
    """Search for a witness schedule for any of ``items``.

    Returns the first :class:`~repro.detector.predict.Witness` whose
    replay observes an HB race at a predicted location, or None when
    every item resists the search budget (pure SHB's lock-protected
    false positives have no witness by design).
    """
    from ..detector.predict import find_witness

    for item in items:
        witness = find_witness(
            source, item, seeds=seeds, max_steps=max_steps, engine=engine
        )
        if witness is not None:
            return witness
    return None


def default_schedules(count: int) -> list:
    """The campaign's schedule axis: round-robin, then seeded random."""
    specs = [ScheduleSpec(kind="roundrobin")]
    specs.extend(
        ScheduleSpec(kind="random", seed=seed) for seed in range(max(count - 1, 0))
    )
    return specs[:count]


def run_campaign(
    programs: int = 12,
    schedules: int = 3,
    budget: Optional[float] = None,
    seed0: int = 0,
    fuzzer_kwargs: Optional[dict] = None,
    detector_factory: Optional[Callable] = None,
    config: Optional["DetectorConfig"] = None,
    shards: Sequence[int] = DEFAULT_SHARDS,
    shrink: bool = True,
    include_static_axis: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
    progress: Optional[Callable[[str], None]] = None,
    engine: str = "ast",
    hunt_classes: Optional[frozenset] = None,
) -> CampaignResult:
    """Sweep fuzzed cases; classify; shrink every violating case.

    With a ``budget`` (seconds) the sweep keeps drawing program seeds
    past ``programs`` until time is up; without one it runs exactly
    ``programs × schedules`` cases.  Violations with a fingerprint
    already seen (same shrunk source/schedule/classes) are deduplicated.

    ``hunt_classes`` names *expected* discrepancy classes to hunt: the
    first case exhibiting each is shrunk (preserving the class) into a
    :class:`Find`; ``predicted-not-observed`` finds get a witness
    synthesis pass.  Hunting never fails a campaign — finds are
    candidate corpus entries, not bugs.
    """
    kwargs = dict(fuzzer_kwargs or {})
    kwargs.setdefault("n_workers", 3)
    kwargs.setdefault("n_fields", 3)
    kwargs.setdefault("n_locks", 2)
    specs = default_schedules(schedules)
    started = time.monotonic()
    result = CampaignResult()
    seen_fingerprints = set()
    hunted_found: set = set()

    program_index = 0
    while True:
        if budget is not None:
            if time.monotonic() - started >= budget:
                break
        elif program_index >= programs:
            break
        seed = seed0 + program_index
        source = generate_program(seed, **kwargs)
        for spec in specs:
            if budget is not None and time.monotonic() - started >= budget:
                break
            label = f"fuzz(seed={seed}, schedule={spec.describe()})"
            case = run_case(
                source,
                spec,
                label=label,
                detector_factory=detector_factory,
                config=config,
                shards=shards,
                include_static_axis=include_static_axis,
                max_steps=max_steps,
                engine=engine,
            )
            result.cases_run += 1
            if case.error is not None:
                result.errors.append((label, case.error))
                continue
            for klass in {d.klass for d in case.expected}:
                result.expected_counts[klass] += 1
            if hunt_classes:
                for klass in sorted(
                    (hunt_classes & {d.klass for d in case.expected})
                    - hunted_found
                ):
                    hunted_found.add(klass)
                    if progress is not None:
                        progress(f"hunted {klass} in {label}, shrinking")
                    if shrink:
                        small, small_spec, stats = shrink_case(
                            case.source,
                            spec,
                            frozenset([klass]),
                            violations_only=False,
                            detector_factory=detector_factory,
                            config=config,
                            shards=shards,
                            include_static_axis=include_static_axis,
                            max_steps=max_steps,
                            engine=engine,
                        )
                    else:
                        small, small_spec = case.source, spec
                        stats = ShrinkStats(
                            initial_statements=count_statements(case.source),
                            final_statements=count_statements(case.source),
                            initial_schedule=spec.describe(),
                            final_schedule=spec.describe(),
                        )
                    shrunk = run_case(
                        small, small_spec, detector_factory=detector_factory,
                        config=config, shards=shards,
                        include_static_axis=include_static_axis,
                        max_steps=max_steps, engine=engine,
                    )
                    items = class_items(shrunk, klass)
                    witness = None
                    if klass == "predicted-not-observed":
                        witness = synthesize_witness(
                            small, items, max_steps=max_steps, engine=engine
                        )
                    result.finds.append(
                        Find(
                            fingerprint=fingerprint(small, small_spec, [klass]),
                            klass=klass,
                            source=small,
                            schedule=small_spec,
                            original_label=label,
                            stats=stats,
                            items=items,
                            witness=witness.to_json() if witness else None,
                        )
                    )
            violating = case_classes(case, violations_only=True)
            if violating:
                if progress is not None:
                    progress(f"violation in {label}: {sorted(violating)}")
                if shrink:
                    small, small_spec, stats = shrink_case(
                        case.source,
                        spec,
                        violating,
                        detector_factory=detector_factory,
                        config=config,
                        shards=shards,
                        include_static_axis=include_static_axis,
                        max_steps=max_steps,
                        engine=engine,
                    )
                else:
                    small, small_spec = case.source, spec
                    stats = ShrinkStats(
                        initial_statements=count_statements(case.source),
                        final_statements=count_statements(case.source),
                        initial_schedule=spec.describe(),
                        final_schedule=spec.describe(),
                    )
                print_classes = tuple(sorted(violating))
                fp = fingerprint(small, small_spec, print_classes)
                if fp in seen_fingerprints:
                    continue
                seen_fingerprints.add(fp)
                shrunk_result = run_case(
                    small,
                    small_spec,
                    detector_factory=detector_factory,
                    config=config,
                    shards=shards,
                    include_static_axis=include_static_axis,
                    max_steps=max_steps,
                    engine=engine,
                )
                result.violations.append(
                    Violation(
                        fingerprint=fp,
                        classes=print_classes,
                        source=small,
                        schedule=small_spec,
                        original_label=label,
                        stats=stats,
                        discrepancies=shrunk_result.violations,
                    )
                )
        program_index += 1

    result.duration = time.monotonic() - started
    return result
