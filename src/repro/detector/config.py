"""Configuration of the dynamic detection pipeline.

The flags correspond to the paper's experimental configurations:

* ``cache=False``          → the ``NoCache`` column of Table 2;
* ``ownership=False``      → the ``NoOwnership`` column of Table 3;
* ``fields_merged=True``   → the ``FieldsMerged`` column of Table 3;
* ``join_pseudolocks``     → the ``S_j`` modeling of Section 2.3 (on by
  default; turning it off shows the spurious post-join reports the
  paper contrasts with Eraser in Section 8.3).

The *static* configurations of Table 2 (``NoStatic``, ``NoDominators``,
``NoPeeling``) live in :class:`repro.instrument.planner.PlannerConfig`,
since they select which sites are instrumented rather than how events
are processed.  The named columns themselves are defined once, as the
``CONFIG_*`` presets of :mod:`repro.harness.runner`.
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

    def but(self, **changes) -> "DetectorConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

