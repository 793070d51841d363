"""The content-addressed compile cache.

MJ compilation is front-loaded: lexing, parsing, resolution, the static
datarace analysis, escape analysis, and instrumentation planning all
happen before the first event is executed — and a detection service
sees the same programs over and over (CI re-checking a commit, a fuzz
driver mutating one seed, a benchmark hammering one workload).  The
cache keys the *finished* front end by content: sha256 over the
submission's filename and source bytes plus the producing planner's
fingerprint (configuration + plan schema version) maps to the resolved
program plus its instrumentation plan, so each distinct program is
compiled once per worker lifetime and every later job reuses the
artifacts — and an entry can never be served to a lookup that would
have planned it differently.

Reuse is sound because a ``(resolved, plan)`` pair is immutable after
planning: the planner mutates the AST *during* planning (which is why
one may never re-plan a resolved program), but execution only reads
it, and every engine run constructs fresh runtime state (uid
allocator, scheduler, heap), so repeated runs over one cached entry
are byte-identical — the service's cache-parity test pins exactly
that.  The closure-compiled engine still lowers the cached AST to
closures per run (its compiled code deliberately closes over engine
instance state), but that is the cheap single AST walk; the expensive
analyses are what the cache amortizes.

The cache is process-local.  Each long-lived worker process owns one
instance; entries are never shipped across the pipe (resolved programs
close over AST nodes and are expensive to pickle), which is exactly
why the pool keeps workers alive across jobs instead of forking per
job.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..instrument.planner import PlannerConfig, plan_instrumentation
from ..lang.resolver import compile_source

#: Cache-status values carried in job results.
HIT = "hit"
MISS = "miss"
UNCACHED = "n/a"

#: Bumped whenever the shape of the cached artifacts changes — a new
#: plan field, a different site-id assignment, a resolver change that
#: alters what execution reads from the cached front end.
PLAN_SCHEMA_VERSION = 2

#: Compiled programs one cache keeps: a worker's memory stays bounded
#: however many distinct programs it sees, while a daemon's recurring
#: working set (far smaller) stays resident.
MAX_ENTRIES = 256


def plan_fingerprint(planner: Optional[PlannerConfig] = None) -> str:
    """Fingerprint of the instrumentation-plan *producer*.

    Covers the planner configuration (every analysis toggle) and the
    plan schema version, so cached entries are addressed by what was
    compiled *and how*: two daemons (or two epochs of one codebase)
    that would plan the same source differently can never alias keys.
    """
    config = planner if planner is not None else PlannerConfig()
    digest = hashlib.sha256()
    digest.update(f"plan-schema:{PLAN_SCHEMA_VERSION}".encode("utf-8"))
    digest.update(b"\x00")
    digest.update(repr(config).encode("utf-8"))
    return digest.hexdigest()[:16]


def source_fingerprint(
    source: str,
    filename: str = "<input>",
    plan: Optional[str] = None,
) -> str:
    """sha256 over ``filename NUL source NUL plan`` — the content address.

    The filename participates because it is embedded in every site
    descriptor (and therefore in race-report bytes): the same source
    submitted under two names is two distinct report streams.  The
    ``plan`` component is the :func:`plan_fingerprint` of the planner
    that will compile on a miss — the original key hashed only the
    submission, so one address could name artifacts from two different
    planner configurations or plan schemas.
    """
    digest = hashlib.sha256()
    digest.update(filename.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(source.encode("utf-8"))
    digest.update(b"\x00")
    digest.update((plan if plan is not None else plan_fingerprint()).encode())
    return digest.hexdigest()


@dataclass
class CachedProgram:
    """One compiled front end: everything detection needs but the run."""

    fingerprint: str
    filename: str
    resolved: object
    plan: object
    #: Whether *this lookup* hit ("hit") or compiled fresh ("miss").
    status: str = MISS


class CompileCache:
    """Content-addressed map: fingerprint → :class:`CachedProgram`."""

    def __init__(
        self,
        max_entries: int = MAX_ENTRIES,
        planner: Optional[PlannerConfig] = None,
    ) -> None:
        #: Least recently used first: a hit moves its entry to the end,
        #: and a miss at capacity evicts the front.
        self._entries: OrderedDict[str, CachedProgram] = OrderedDict()
        self.max_entries = max_entries
        self.planner = planner if planner is not None else PlannerConfig()
        #: The plan component every key of this cache carries.
        self.plan_fingerprint = plan_fingerprint(self.planner)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, source: str, filename: str = "<input>"
    ) -> CachedProgram:
        """The compiled front end for ``source``, compiling on miss.

        Compile errors propagate (and are *not* negatively cached: a
        malformed submission should not poison the address of a later
        valid one — fingerprints are content addresses, so a different
        body is a different key anyway).
        """
        fingerprint = source_fingerprint(
            source, filename, plan=self.plan_fingerprint
        )
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(fingerprint)
            return CachedProgram(
                fingerprint=fingerprint,
                filename=filename,
                resolved=entry.resolved,
                plan=entry.plan,
                status=HIT,
            )
        self.misses += 1
        resolved = compile_source(source, filename=filename)
        plan = plan_instrumentation(resolved, self.planner)
        entry = CachedProgram(
            fingerprint=fingerprint,
            filename=filename,
            resolved=resolved,
            plan=plan,
            status=MISS,
        )
        if len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
        self._entries[fingerprint] = entry
        return entry

    def counters(self) -> dict:
        """JSON-safe counters for ``/stats`` aggregation."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "plan_fingerprint": self.plan_fingerprint,
        }
