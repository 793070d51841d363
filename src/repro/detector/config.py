"""Configuration of the dynamic detection pipeline.

The flags correspond to the paper's experimental configurations:

* ``cache=False``          → the ``NoCache`` column of Table 2;
* ``ownership=False``      → the ``NoOwnership`` column of Table 3;
* ``fields_merged=True``   → the ``FieldsMerged`` column of Table 3;
* ``join_pseudolocks``     → the ``S_j`` modeling of Section 2.3 (on by
  default; turning it off shows the spurious post-join reports the
  paper contrasts with Eraser in Section 8.3);
* ``read_read_races``      → footnote 2's memory-model variant.

The *static* configurations of Table 2 (``NoStatic``, ``NoDominators``,
``NoPeeling``) live in :class:`repro.instrument.planner.PlannerConfig`,
since they select which sites are instrumented rather than how events
are processed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DetectorConfig:
    ownership: bool = True
    cache: bool = True
    cache_size: int = 256
    fields_merged: bool = False
    join_pseudolocks: bool = True
    read_read_races: bool = False

    def but(self, **changes) -> "DetectorConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


#: The paper's complete algorithm ("Full" in Tables 2 and 3).
FULL = DetectorConfig()
#: Table 3 variants.
FIELDS_MERGED = FULL.but(fields_merged=True)
NO_OWNERSHIP = FULL.but(ownership=False)
#: Table 2 variant (dynamic side).
NO_CACHE = FULL.but(cache=False)
