"""The ownership model (Sections 2.3 and 7).

``start`` ordering is approximated with per-location *ownership*: the
first thread to access a location owns it, and accesses by the owner
are invisible to the detector.  The first access by a *different*
thread moves the location to the shared state; that access and all
subsequent ones flow through to the rest of the pipeline.  This
captures the ubiquitous idiom of one thread initializing data that a
child thread later processes without locking, which would otherwise be
reported as a race (the paper's ``NoOwnership`` column in Table 3 shows
the flood of spurious reports without it).

State machine, per location::

    VIRGIN (absent) ──first access by t──▶ EXCLUSIVE(t)
    EXCLUSIVE(t)    ──access by t──▶ EXCLUSIVE(t)      (filtered)
    EXCLUSIVE(t)    ──access by u≠t──▶ SHARED           (transition)
    SHARED          ──any access──▶ SHARED              (admitted)

``SHARED`` is *terminal*: no edge leaves it (``reown`` is restricted to
still-owned locations).
"""

from __future__ import annotations

from dataclasses import dataclass


#: Marker for locations in the shared state (owner = ⊥ in the paper).
SHARED = object()


@dataclass
class OwnershipStats:
    owned_filtered: int = 0
    transitions: int = 0
    shared_passed: int = 0


class OwnershipFilter:
    """Tracks each location's owner and filters owned accesses."""

    def __init__(self) -> None:
        self._owners: dict = {}
        self.stats = OwnershipStats()

    def admit(self, key, thread_id: int) -> tuple[bool, bool]:
        """Process an access to ``key`` by ``thread_id``.

        Returns ``(admit, transitioned)``: ``admit`` is True when the
        event must flow to the detector; ``transitioned`` is True when
        this very access moved the location from owned to shared (the
        pipeline must then evict the location from all caches before
        processing the event — Section 7.2).
        """
        owner = self._owners.get(key, None)
        if owner is SHARED:
            self.stats.shared_passed += 1
            return True, False
        if owner is None:
            self._owners[key] = thread_id
            self.stats.owned_filtered += 1
            return False, False
        if owner == thread_id:
            self.stats.owned_filtered += 1
            return False, False
        self._owners[key] = SHARED
        self.stats.transitions += 1
        return True, True

    def reown(self, key, thread_id: int) -> None:
        """Re-assign ownership of a still-owned location (condition-sync
        handoff): the access that would have transitioned the location to
        shared is instead treated as the new owner's first access and
        stays filtered.  Callers must not use this on SHARED locations.
        """
        self._owners[key] = thread_id
        self.stats.owned_filtered += 1

    def is_shared(self, key) -> bool:
        return self._owners.get(key) is SHARED

    def owner_of(self, key):
        """The owner thread id, ``SHARED``, or ``None`` (never accessed)."""
        return self._owners.get(key)
