"""Sound predictive race detection from a single recorded trace.

Every other member of the battery judges the *observed* interleaving
(the FullRace reference judges observed locksets).  The predictors here
follow Sulzmann & Stadtmüller's hybrid dynamic race prediction (arXiv
2004.06969): from one recorded trace they report races realizable in
*schedulable reorderings* of that trace.

Two predictors share one engine:

* :class:`SHBPredictor` — a schedulable-happens-before pass.  The SHB
  relation keeps the HB edges that survive **every** schedulable
  reordering of the trace — program order, thread start/join, and
  notify→wait condition edges — but *drops* the lock release→acquire
  coupling: two critical sections on the same lock happened in some
  order, yet the opposite order is schedulable, so the lock edge is an
  artifact of the observed schedule.  In its place SHB adds
  *lock-coupled write→read edges*: when a read observes a write and
  both held a common **real** lock, mutual exclusion forces the
  writer's critical section to complete before the reader's began in
  any reordering that preserves the read's value, so the edge is
  stable.  Because every SHB edge is also an HB edge (the common-lock
  write→read edge is implied by HB's release→acquire chain), the SHB
  relation is a subset of the HB relation and therefore — with the
  identical Djit check-then-update structure — **every HB-reported race
  is SHB-reported**: prediction only ever adds reports
  (``predicted-not-observed``), never loses one.

* :class:`HybridPredictor` — SHB plus the lockset conjunct: report only
  pairs that are SHB-unordered **and** hold disjoint locksets
  (including the ``S_j`` join pseudo-locks, ownership off — exactly the
  ``reference-raw`` admission rule).  The conjunct filters pure SHB's
  one false-positive family (conflicting accesses in different critical
  sections on a common lock, which no reordering can overlap) and makes
  every hybrid report a lockset race the FullRace reference also
  enumerates.

Both consume schema-v3 event logs through the same trust boundary as
:func:`~repro.detector.sharded.detect_sharded`: a
:class:`~repro.runtime.events.RecordingSink`, a raw tuple list, a
mapped :class:`~repro.runtime.binlog.BinaryLogReader`, or an on-disk
``MJBL`` path (validated once by ``open_log``).

``predicted-not-observed`` reports are backed by execution, not
assertion: :func:`find_witness` searches schedulable reorderings for a
decision trace under which the plain HB detector *observes* a race at
the predicted location, and :func:`replay_witness` re-executes that
trace (on any engine) to re-confirm it.  See ``docs/prediction.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..baselines.happens_before import HappensBeforeDetector
from ..lang.ast import AccessKind
from .locksets import LockTracker, join_pseudo_lock

#: Predictor registry for CLI/difflab flag values.
PREDICTORS = ("shb", "hybrid")


@dataclass(frozen=True)
class PredictedRace:
    """One predicted racing pair, mirroring the HB report shape."""

    location: object
    object_label: str
    current_thread: int
    prior_thread: int
    site_id: int
    kind: str  # "write-write" | "write-read" | "read-write"

    def describe(self) -> str:
        return (
            f"predicted {self.kind} race on {self.location} "
            f"({self.object_label}): thread {self.prior_thread} vs "
            f"thread {self.current_thread} at site {self.site_id}"
        )


@dataclass
class _PredictHistory:
    """Per-location state: last write + last read per thread.

    The write keeps the writer's full clock snapshot (the write→read
    edge joins it into the reader) and its lockset (edge coupling and
    the hybrid conjunct); reads keep epoch + lockset per thread.
    """

    #: (thread, epoch, clock snapshot, lockset), or None.
    write: Optional[tuple] = None
    #: thread id -> (epoch, lockset).
    reads: dict = field(default_factory=dict)


def _real_locks_intersect(a: frozenset, b: frozenset) -> bool:
    """A common *real* lock (positive uid).  Pseudo-locks (negative)
    are excluded: the mutual-exclusion argument that makes the
    write→read edge schedulable-stable only holds for real monitors,
    and the start/join edges already order every sound pseudo-lock
    case."""
    if len(a) > len(b):
        a, b = b, a
    for lock in a:
        if lock >= 0 and lock in b:
            return True
    return False


class SHBPredictor(HappensBeforeDetector):
    """Schedulable-happens-before race prediction over one trace.

    A :class:`HappensBeforeDetector` — same sparse vector clocks, same
    epoch increments, same check-then-update per access — with the lock
    clocks removed and lock-coupled write→read edges added.  Keeping the
    increments identical (monitor exit, start, notify, join all tick the
    local clock even though the exit no longer publishes an edge) keeps
    epoch numbering aligned with the HB baseline, which is what makes
    the superset theorem hold pointwise: every clock entry here is ≤ the
    HB detector's entry at the same trace point, so every HB "unordered"
    verdict is also an SHB "unordered" verdict.
    """

    name = "shb"
    report_class = PredictedRace

    def __init__(self) -> None:
        super().__init__()
        self.locks = LockTracker()
        self.locks.acquire_pseudo(0, join_pseudo_lock(0))

    # -- synchronization events ------------------------------------------

    def on_monitor_enter(self, thread_id, lock_uid, reentrant) -> None:
        # No release→acquire edge: the opposite acquisition order is
        # schedulable (paper §2.2's feasible races are exactly the
        # races this edge hides).  The tracker still records the lock
        # for edge coupling and the hybrid conjunct.
        if not reentrant:
            self.locks.enter(thread_id, lock_uid)

    def on_monitor_exit(self, thread_id, lock_uid, reentrant) -> None:
        if not reentrant:
            self.locks.exit(thread_id, lock_uid)
            self._increment(thread_id)

    def on_thread_start(self, parent_id: int, child_id: int) -> None:
        super().on_thread_start(parent_id, child_id)
        self.locks.acquire_pseudo(child_id, join_pseudo_lock(child_id))

    def on_thread_end(self, thread_id: int) -> None:
        self.locks.release_pseudo(thread_id, join_pseudo_lock(thread_id))

    def on_thread_join(self, joiner_id: int, joined_id: int) -> None:
        super().on_thread_join(joiner_id, joined_id)
        self.locks.acquire_pseudo(joiner_id, join_pseudo_lock(joined_id))

    # -- accesses ---------------------------------------------------------

    def _admit(self, lockset: frozenset, prior_lockset: frozenset) -> bool:
        """Hook for the hybrid's lockset conjunct; pure SHB admits all."""
        return True

    def on_access_parts(
        self, object_uid, field, thread_id, kind, site_id, object_kind, object_label
    ) -> None:
        key = (object_uid, field)
        history = self._locations.get(key)
        if history is None:
            history = self._locations[key] = _PredictHistory()
        clock = self._clock(thread_id)
        lockset = self.locks.lockset(thread_id)

        if kind is AccessKind.WRITE:
            if history.write is not None:
                w_thread, w_epoch, _w_clock, w_locks = history.write
                if (
                    w_thread != thread_id
                    and not clock.happened_before(w_thread, w_epoch)
                    and self._admit(lockset, w_locks)
                ):
                    self._report(
                        key, object_label, thread_id, site_id, w_thread, "write-write"
                    )
            for r_thread, (r_epoch, r_locks) in history.reads.items():
                if (
                    r_thread != thread_id
                    and not clock.happened_before(r_thread, r_epoch)
                    and self._admit(lockset, r_locks)
                ):
                    self._report(
                        key, object_label, thread_id, site_id, r_thread, "read-write"
                    )
            history.write = (
                thread_id,
                clock.get(thread_id, 0),
                clock.copy(),
                lockset,
            )
            history.reads = {}
        else:
            if history.write is not None:
                w_thread, w_epoch, w_clock, w_locks = history.write
                if w_thread != thread_id and _real_locks_intersect(
                    w_locks, lockset
                ):
                    # The lock-coupled write→read edge: the reader saw
                    # a value written inside a critical section on a
                    # lock it also holds, so the writer's section
                    # completed first in every value-preserving
                    # reordering.  Joining before the check makes the
                    # pair ordered, exactly as HB's lock edge does.
                    clock.join(w_clock)
                if (
                    w_thread != thread_id
                    and not clock.happened_before(w_thread, w_epoch)
                    and self._admit(lockset, w_locks)
                ):
                    self._report(
                        key, object_label, thread_id, site_id, w_thread, "write-read"
                    )
            history.reads[thread_id] = (clock.get(thread_id, 0), lockset)


class HybridPredictor(SHBPredictor):
    """SHB prediction with the lockset conjunct (the hybrid of arXiv
    2004.06969): report only SHB-unordered pairs whose locksets are
    disjoint.

    The lockset semantics mirror ``reference-raw`` exactly — real locks
    from the monitor stream, the monotone ``S_j`` join pseudo-locks, no
    ownership filter — so every hybrid report names a pair the FullRace
    reference also admits: ``hybrid ⊆ reference-raw`` is a theorem, and
    its converse gap is the ``lockset-fp-refuted`` class (disjoint-
    lockset pairs that start/join/condition edges order in every
    schedulable reordering, e.g. initialization writes the child only
    reads after ``start``).
    """

    name = "hybrid"

    def _admit(self, lockset: frozenset, prior_lockset: frozenset) -> bool:
        return not (lockset & prior_lockset)


def make_predictor(mode: str):
    """Instantiate a predictor by registry name (``shb`` / ``hybrid``)."""
    if mode == "shb":
        return SHBPredictor()
    if mode == "hybrid":
        return HybridPredictor()
    raise ValueError(
        f"unknown predictor {mode!r} (have: {', '.join(PREDICTORS)})"
    )


def predict_races(log, mode: str = "hybrid", validate: bool = True):
    """Run one predictor over a recorded log; returns the predictor.

    ``log`` accepts the same shapes as
    :func:`~repro.detector.sharded.detect_sharded`: a
    :class:`~repro.runtime.events.RecordingSink`, a raw list of
    tuple-encoded entries, a mapped
    :class:`~repro.runtime.binlog.BinaryLogReader`, or a path to an
    on-disk ``MJBL`` log (``open_log`` is the single validation
    point).
    """
    from ..runtime.binlog import log_source

    with log_source(log, validate) as source:
        predictor = make_predictor(mode)
        source.replay_into(predictor)
    return predictor


# ---------------------------------------------------------------------------
# Witnesses: prediction soundness checked by execution.


@dataclass(frozen=True)
class Witness:
    """A machine-checkable reordering witnessing one predicted race.

    ``choices`` is a complete scheduler decision trace (the
    record/replay format of :mod:`repro.runtime.replay`); replaying it
    produces an interleaving in which the plain HB detector *observes*
    a race at ``location`` — turning a ``predicted-not-observed``
    report into an observed one.
    """

    location: str
    choices: tuple

    def to_json(self) -> dict:
        return {"location": self.location, "choices": list(self.choices)}

    @classmethod
    def from_json(cls, payload: dict) -> "Witness":
        return cls(
            location=payload["location"],
            choices=tuple(payload["choices"]),
        )


def _hb_locations_for_trace(
    resolved, policy, max_steps: int, engine: str
) -> tuple:
    """Run under ``policy`` recording decisions; return the HB-observed
    racy locations (as strings) plus the recorded decision trace."""
    from ..runtime import engine_runner
    from ..runtime.replay import RecordingPolicy

    recording = RecordingPolicy(policy)
    hb = HappensBeforeDetector()
    engine_runner(engine)(
        resolved, sink=hb, policy=recording, max_steps=max_steps
    )
    return (
        {str(location) for location in hb.racy_locations},
        tuple(recording.trace.choices),
    )


def find_witness(
    source: str,
    location: str,
    seeds: int = 64,
    max_steps: int = 200_000,
    engine: str = "ast",
) -> Optional[Witness]:
    """Search schedulable reorderings for one that *observes* a race at
    ``location`` (stringified) under the plain HB detector.

    Candidates: round-robin, then ``seeds`` seeded random schedules.
    Every candidate run records its full decision trace, so a hit
    yields an exact, engine-portable :class:`Witness`.  Returns None
    when no candidate observes the race — either the prediction is one
    of pure SHB's documented lock-protected false positives, or the
    search budget was too small.
    """
    from ..lang.errors import MJError
    from ..lang.resolver import compile_source
    from ..runtime.scheduler import (
        DeadlockError,
        RandomPolicy,
        RoundRobinPolicy,
        StepLimitExceeded,
    )

    policies = [RoundRobinPolicy()]
    policies.extend(RandomPolicy(seed) for seed in range(seeds))
    for policy in policies:
        try:
            observed, choices = _hb_locations_for_trace(
                compile_source(source), policy, max_steps, engine
            )
        except (MJError, DeadlockError, StepLimitExceeded, RecursionError):
            continue
        if location in observed:
            return Witness(location=location, choices=choices)
    return None


def replay_witness(
    source: str,
    witness: Witness,
    max_steps: int = 200_000,
    engine: str = "ast",
) -> bool:
    """Re-execute a witness decision-for-decision (exact replay, both
    exhaustion directions checked) and return whether the HB detector
    observed a race at the witnessed location."""
    from ..lang.resolver import compile_source
    from ..runtime.replay import ScheduleTrace, replay_run

    hb = HappensBeforeDetector()
    replay_run(
        compile_source(source),
        ScheduleTrace(list(witness.choices)),
        sink=hb,
        max_steps=max_steps,
        engine=engine,
    )
    return witness.location in {str(loc) for loc in hb.racy_locations}
