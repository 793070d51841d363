"""Committed reproducer corpus (``tests/corpus/``).

Every corpus entry is a pair of files sharing a stem:

* ``<name>.mj`` — the (usually shrunk) MJ program, runnable on its own;
* ``<name>.json`` — metadata: the schedule spec, a stable fingerprint,
  the discrepancy classes the entry exhibits with their classification,
  the full per-detector verdict matrix (racy locations/objects and
  report counts) observed when the entry was minted, and free-form
  notes explaining *why* the discrepancy is the documented one.

The corpus serves two masters: the fast PR gate re-runs every entry and
asserts the verdict matrix byte-for-byte (a regression in any detector
or baseline flips a matrix cell), and the lab's ``--corpus`` mode uses
the class annotations to prove each documented discrepancy class is
actually reproduced by at least one committed case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .expectations import EXPECTED
from .lab import DEFAULT_MAX_STEPS, case_classes, fingerprint, run_case
from .verdicts import DEFAULT_SHARDS, ScheduleSpec

#: Repo-relative default corpus directory.
DEFAULT_CORPUS = Path(__file__).resolve().parents[3] / "tests" / "corpus"


@dataclass
class CorpusEntry:
    name: str
    source: str
    schedule: ScheduleSpec
    #: ``"expected"`` or ``"violation"`` — committed entries are always
    #: expected; violation entries exist transiently in ``--out`` dirs.
    classification: str
    #: Discrepancy classes this entry must exhibit.
    classes: tuple
    fingerprint: str
    #: ``{detector: {"locations": [...], "objects": [...], "races": n}}``
    verdicts: dict = field(default_factory=dict)
    notes: str = ""
    #: For ``predicted-not-observed`` entries: a
    #: :class:`~repro.detector.predict.Witness` payload — a recorded
    #: scheduler decision trace whose exact replay makes the plain HB
    #: detector *observe* a race at the predicted location.  The gate
    #: re-executes it on every verification.
    witness: Optional[dict] = None

    def describe(self) -> str:
        return (
            f"{self.name} [{self.classification}: {', '.join(self.classes)}] "
            f"schedule={self.schedule.describe()}"
        )


def verdict_matrix(result) -> dict:
    """The serializable per-detector matrix for a classified case."""
    raise_on = result.error
    if raise_on is not None:
        raise ValueError(f"case errored, no matrix: {raise_on}")
    matrix: dict = {}
    for detector, verdict in result.verdicts.items():
        matrix[detector] = {
            "locations": sorted(verdict.locations),
            "objects": sorted(verdict.objects),
            "races": verdict.races,
        }
    return matrix


def save_entry(
    directory: Path,
    name: str,
    source: str,
    schedule: ScheduleSpec,
    classes: Sequence[str],
    classification: str = EXPECTED,
    notes: str = "",
    shards: Sequence[int] = DEFAULT_SHARDS,
    max_steps: int = DEFAULT_MAX_STEPS,
    witness=None,
) -> CorpusEntry:
    """Mint and write a corpus entry, recording its verdict matrix.

    ``predicted-not-observed`` entries must supply a ``witness`` (a
    :class:`~repro.detector.predict.Witness` or its JSON payload); it
    is replay-validated before anything is written.
    """
    from ..detector.predict import Witness, replay_witness

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    result = run_case(source, schedule, shards=shards, max_steps=max_steps)
    if result.error is not None:
        raise ValueError(f"corpus candidate errored: {result.error}")
    exhibited = case_classes(result, violations_only=classification != EXPECTED)
    missing = set(classes) - exhibited
    if missing:
        raise ValueError(
            f"corpus candidate does not exhibit {sorted(missing)} "
            f"(got {sorted(exhibited)})"
        )
    if witness is not None and not isinstance(witness, Witness):
        witness = Witness.from_json(witness)
    if "predicted-not-observed" in classes and witness is None:
        raise ValueError(
            f"corpus entry {name} is annotated predicted-not-observed "
            f"but carries no witness schedule — predictions are "
            f"verified by execution, not assertion"
        )
    if witness is not None and not replay_witness(
        source, witness, max_steps=max_steps
    ):
        raise ValueError(
            f"corpus entry {name}: witness replay does not observe an "
            f"HB race at {witness.location}"
        )
    entry = CorpusEntry(
        name=name,
        source=source,
        schedule=schedule,
        classification=classification,
        classes=tuple(sorted(classes)),
        fingerprint=fingerprint(source, schedule, classes),
        verdicts=verdict_matrix(result),
        notes=notes,
        witness=witness.to_json() if witness is not None else None,
    )
    (directory / f"{name}.mj").write_text(source)
    payload = {
        "fingerprint": entry.fingerprint,
        "schedule": schedule.to_json(),
        "classification": classification,
        "classes": list(entry.classes),
        "verdicts": entry.verdicts,
        "notes": notes,
    }
    if entry.witness is not None:
        payload["witness"] = entry.witness
    (directory / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return entry


def load_corpus(directory: Optional[Path] = None) -> list:
    """All corpus entries under ``directory``, sorted by name."""
    directory = Path(directory) if directory is not None else DEFAULT_CORPUS
    entries = []
    for meta_path in sorted(directory.glob("*.json")):
        source_path = meta_path.with_suffix(".mj")
        if not source_path.exists():
            raise FileNotFoundError(
                f"corpus entry {meta_path.name} has no matching .mj file"
            )
        payload = json.loads(meta_path.read_text())
        entries.append(
            CorpusEntry(
                name=meta_path.stem,
                source=source_path.read_text(),
                schedule=ScheduleSpec.from_json(payload["schedule"]),
                classification=payload.get("classification", EXPECTED),
                classes=tuple(payload.get("classes", ())),
                fingerprint=payload.get("fingerprint", ""),
                verdicts=payload.get("verdicts", {}),
                notes=payload.get("notes", ""),
                witness=payload.get("witness"),
            )
        )
    return entries


def verify_entry(
    entry: CorpusEntry,
    shards: Sequence[int] = DEFAULT_SHARDS,
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = "ast",
) -> list:
    """Re-run one committed entry; return human-readable problems.

    Checks, in order: the case still executes cleanly; no *new*
    violations appeared; every annotated class is still exhibited; and
    the recorded per-detector verdict matrix still matches exactly.
    """
    problems: list = []
    result = run_case(
        entry.source, entry.schedule, label=entry.name, shards=shards,
        max_steps=max_steps, engine=engine,
    )
    if result.error is not None:
        return [f"{entry.name}: execution failed: {result.error}"]
    if entry.classification == EXPECTED and result.violations:
        problems.extend(
            f"{entry.name}: unexpected violation: {d.describe()}"
            for d in result.violations
        )
    exhibited = case_classes(
        result, violations_only=entry.classification != EXPECTED
    )
    for klass in entry.classes:
        if klass not in exhibited:
            problems.append(
                f"{entry.name}: no longer exhibits {klass} "
                f"(got {sorted(exhibited)})"
            )
    fresh = verdict_matrix(result)
    for detector, recorded in entry.verdicts.items():
        current = fresh.get(detector)
        if current is None:
            problems.append(
                f"{entry.name}: detector {detector} missing from battery"
            )
        elif current != recorded:
            problems.append(
                f"{entry.name}: {detector} verdict drifted: "
                f"recorded {recorded} vs current {current}"
            )
    if "predicted-not-observed" in entry.classes and entry.witness is None:
        problems.append(
            f"{entry.name}: predicted-not-observed entry carries no "
            f"witness schedule"
        )
    if entry.witness is not None:
        problems.extend(check_witness(entry, max_steps=max_steps, engine=engine))
    return problems


def check_witness(
    entry: CorpusEntry,
    max_steps: int = DEFAULT_MAX_STEPS,
    engine: str = "ast",
) -> list:
    """Replay one entry's witness; return human-readable problems.

    The witness is an exact decision trace: the replay must consume it
    completely (both exhaustion directions checked) and the plain HB
    detector must *observe* a race at the predicted location — the
    executable proof behind a ``predicted-not-observed`` annotation.
    """
    from ..detector.predict import Witness, replay_witness
    from ..runtime.replay import ReplayDivergence

    if entry.witness is None:
        return [f"{entry.name}: no witness to check"]
    witness = Witness.from_json(entry.witness)
    try:
        observed = replay_witness(
            entry.source, witness, max_steps=max_steps, engine=engine
        )
    except ReplayDivergence as exc:
        return [
            f"{entry.name}: witness replay diverged ({engine} engine): {exc}"
        ]
    if not observed:
        return [
            f"{entry.name}: witness replays but the HB detector does "
            f"not observe a race at {witness.location} ({engine} engine)"
        ]
    return []


def verify_corpus(
    directory: Optional[Path] = None,
    shards: Sequence[int] = DEFAULT_SHARDS,
    engine: str = "ast",
) -> tuple:
    """Verify every entry; returns ``(entries, problems)``."""
    entries = load_corpus(directory)
    problems: list = []
    for entry in entries:
        problems.extend(
            verify_entry(entry, shards=shards, engine=engine)
        )
    return entries, problems
