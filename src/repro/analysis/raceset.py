"""The static datarace analysis: computing the static datarace set.

Section 5.1's conservative formulation for a statement pair ``(x, y)``:

.. math::

   IsMayRace(x, y) \\iff AccMayConflict(x, y)
        \\land \\lnot MustSameThread(x, y)
        \\land \\lnot MustCommonSync(x, y)

with equation (2) for ``AccMayConflict`` (may points-to intersection
plus field equality — and, as the datarace conditions require, at least
one write), equation (3) for ``MustSameThread`` (must points-to of the
reaching thread roots), and equation (4) for ``MustCommonSync`` (the
ICG MustSync dataflow).  The escape refinements of Section 5.4 remove
conflicts whose only common objects are thread-local or thread-specific.

Any site that is in no ``IsMayRace`` pair is a non-datarace statement:
the instrumenter never inserts a trace for it.  The result also keeps
per-site prune reasons so the experiment harness can report *why* the
static phase removed instrumentation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from ..lang.resolver import ResolvedProgram
from .escape import EscapeInfo, analyze_escape
from .icfg import ICG, build_icg
from .immutability import ImmutabilityInfo, analyze_immutability
from .pointsto import (
    AbstractObject,
    ObjectCategory,
    PointsToResult,
    analyze_points_to,
)
from .single_instance import SingleInstanceInfo, analyze_single_instance


@dataclass
class StaticRaceStats:
    sites_total: int = 0
    sites_unreachable: int = 0
    sites_racy: int = 0
    pairs_checked: int = 0
    pairs_conflicting: int = 0
    pairs_pruned_same_thread: int = 0
    pairs_pruned_common_sync: int = 0
    pairs_pruned_escape: int = 0
    pairs_pruned_immutability: int = 0
    pairs_racy: int = 0


@dataclass
class StaticRaceSet:
    """The analysis result.

    ``racy_sites`` holds the site ids of the static datarace set.
    ``may_race_pairs`` holds the surviving pairs — the "usually small
    set of source locations whose execution could potentially race"
    that the paper surfaces for debugging (Section 2.6).
    """

    racy_sites: set[int]
    may_race_pairs: list[tuple[int, int]]
    stats: StaticRaceStats
    points_to: PointsToResult
    single_instance: SingleInstanceInfo
    icg: ICG
    escape: EscapeInfo
    immutability: Optional[ImmutabilityInfo] = None

    def partners_of(self, site_id: int) -> set[int]:
        """Sites that may race with ``site_id`` (debugging support)."""
        partners = set()
        for a, b in self.may_race_pairs:
            if a == site_id:
                partners.add(b)
            elif b == site_id:
                partners.add(a)
        return partners


class StaticRaceAnalysis:
    """Runs the full static phase (Figure 1's first box).

    ``immutability=True`` additionally runs the construction-
    immutability analysis (the Section 10 extension) and prunes pairs
    whose only conflicts are on construction-immutable fields.
    """

    def __init__(self, resolved: ResolvedProgram, immutability: bool = False):
        self._resolved = resolved
        self._immutability = immutability

    def analyze(self) -> StaticRaceSet:
        points_to = analyze_points_to(self._resolved)
        single = analyze_single_instance(self._resolved, points_to)
        icg = build_icg(self._resolved, points_to, single)
        escape = analyze_escape(self._resolved, points_to)
        immutability = (
            analyze_immutability(self._resolved, points_to)
            if self._immutability
            else None
        )

        stats = StaticRaceStats(sites_total=len(self._resolved.sites))
        stats.sites_unreachable = stats.sites_total - len(points_to.site_bases)

        sites = list(points_to.site_bases.values())
        # Group sites by field name: sites on different fields can never
        # conflict, so only same-field pairs are examined.
        by_field: dict[str, list] = defaultdict(list)
        for site in sites:
            by_field[site.field_name].append(site)

        racy: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for group in by_field.values():
            for i, x in enumerate(group):
                # Include the diagonal: a site can race with another
                # execution of itself in a different thread.
                for y in group[i:]:
                    stats.pairs_checked += 1
                    if self._is_may_race(
                        x, y, points_to, icg, escape, immutability, stats
                    ):
                        stats.pairs_racy += 1
                        racy.add(x.site_id)
                        racy.add(y.site_id)
                        pairs.append((x.site_id, y.site_id))
        stats.sites_racy = len(racy)

        return StaticRaceSet(
            racy_sites=racy,
            may_race_pairs=pairs,
            stats=stats,
            points_to=points_to,
            single_instance=single,
            icg=icg,
            escape=escape,
            immutability=immutability,
        )

    # ------------------------------------------------------------------

    def _is_may_race(
        self, x, y, points_to, icg, escape, immutability, stats
    ) -> bool:
        # Datarace condition 1 (static form, eq. 2): may touch the same
        # location, with at least one write.
        if not (x.is_write or y.is_write):
            return False
        common = self._common_objects(x, y, points_to)
        if not common:
            return False
        stats.pairs_conflicting += 1

        # Escape refinement (Section 5.4): drop common objects that are
        # provably confined to one thread.
        raceable = {
            obj for obj in common if self._raceable_object(obj, x.field_name, escape)
        }
        if not raceable:
            stats.pairs_pruned_escape += 1
            return False

        # Immutability refinement (Section 10 extension, opt-in): a
        # construction-immutable field cannot race after publication.
        if immutability is not None:
            raceable = {
                obj
                for obj in raceable
                if not immutability.field_is_immutable(obj, x.field_name)
            }
            if not raceable:
                stats.pairs_pruned_immutability += 1
                return False

        # Datarace condition 2 (eq. 3): always the same thread?
        must_x = icg.must_thread_of(x.method)
        must_y = icg.must_thread_of(y.method)
        if must_x & must_y:
            stats.pairs_pruned_same_thread += 1
            return False

        # Datarace condition 3 (eq. 4): always a common lock?
        sync_x = icg.must_sync_at(x.method, x.sync_stack)
        sync_y = icg.must_sync_at(y.method, y.sync_stack)
        if sync_x & sync_y:
            stats.pairs_pruned_common_sync += 1
            return False
        return True

    @staticmethod
    def _common_objects(x, y, points_to) -> frozenset:
        if x.kind == "static" or y.kind == "static":
            if x.kind != y.kind:
                return frozenset()
            if x.owner_class != y.owner_class:
                return frozenset()
            return frozenset(
                {AbstractObject(ObjectCategory.CLASS, x.owner_class)}
            )
        return points_to.site_objects(x.site_id) & points_to.site_objects(
            y.site_id
        )

    @staticmethod
    def _raceable_object(obj, field_name, escape: EscapeInfo) -> bool:
        if obj.category is ObjectCategory.CLASS:
            return True  # Static fields are always shared.
        if escape.is_thread_local(obj):
            return False
        if escape.field_is_thread_specific(obj, field_name):
            return False
        if escape.object_is_thread_specific(obj):
            return False
        return True


def analyze_static_races(
    resolved: ResolvedProgram, immutability: bool = False
) -> StaticRaceSet:
    """Run the complete static datarace analysis."""
    return StaticRaceAnalysis(resolved, immutability=immutability).analyze()
