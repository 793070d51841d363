"""Unit tests for the weaker-than relation (Section 3.1)."""

import pytest

from repro.detector import (
    THREAD_BOTTOM,
    THREAD_TOP,
    StoredAccess,
    access_leq,
    access_meet,
    is_race,
    thread_leq,
    thread_meet,
    weaker_than,
)
from repro.lang.ast import AccessKind

READ = AccessKind.READ
WRITE = AccessKind.WRITE


def acc(loc="m", thread=1, locks=(), kind=READ):
    return StoredAccess(
        location=loc, thread=thread, lockset=frozenset(locks), kind=kind
    )


class TestThreadOrder:
    def test_reflexive(self):
        assert thread_leq(1, 1)
        assert thread_leq(THREAD_BOTTOM, THREAD_BOTTOM)

    def test_bottom_below_everything(self):
        assert thread_leq(THREAD_BOTTOM, 1)
        assert thread_leq(THREAD_BOTTOM, THREAD_TOP)

    def test_distinct_threads_incomparable(self):
        assert not thread_leq(1, 2)
        assert not thread_leq(2, 1)

    def test_top_not_below_concrete(self):
        assert not thread_leq(THREAD_TOP, 1)

    def test_concrete_not_below_bottom(self):
        assert not thread_leq(1, THREAD_BOTTOM)


class TestAccessOrder:
    def test_reflexive(self):
        assert access_leq(READ, READ)
        assert access_leq(WRITE, WRITE)

    def test_write_below_read(self):
        assert access_leq(WRITE, READ)

    def test_read_not_below_write(self):
        assert not access_leq(READ, WRITE)


class TestMeets:
    def test_thread_meet_identity(self):
        assert thread_meet(3, 3) == 3

    def test_thread_meet_with_top(self):
        assert thread_meet(THREAD_TOP, 5) == 5
        assert thread_meet(5, THREAD_TOP) == 5

    def test_thread_meet_distinct_is_bottom(self):
        assert thread_meet(1, 2) is THREAD_BOTTOM

    def test_thread_meet_with_bottom(self):
        assert thread_meet(THREAD_BOTTOM, 7) is THREAD_BOTTOM

    def test_access_meet(self):
        assert access_meet(READ, READ) is READ
        assert access_meet(WRITE, WRITE) is WRITE
        assert access_meet(READ, WRITE) is WRITE
        assert access_meet(WRITE, READ) is WRITE


class TestWeakerThan:
    def test_reflexive(self):
        a = acc(locks={1, 2}, kind=WRITE)
        assert weaker_than(a, a)

    def test_subset_lockset_is_weaker(self):
        assert weaker_than(acc(locks={1}), acc(locks={1, 2}))

    def test_superset_lockset_not_weaker(self):
        assert not weaker_than(acc(locks={1, 2}), acc(locks={1}))

    def test_different_location_never_weaker(self):
        assert not weaker_than(acc(loc="a"), acc(loc="b"))

    def test_write_weaker_than_read(self):
        assert weaker_than(acc(kind=WRITE), acc(kind=READ))

    def test_read_not_weaker_than_write(self):
        assert not weaker_than(acc(kind=READ), acc(kind=WRITE))

    def test_bottom_thread_weaker(self):
        assert weaker_than(acc(thread=THREAD_BOTTOM), acc(thread=3))

    def test_different_threads_incomparable(self):
        assert not weaker_than(acc(thread=1), acc(thread=2))

    def test_antisymmetry_on_strict_pair(self):
        p = acc(locks={1})
        q = acc(locks={1, 2})
        assert weaker_than(p, q) and not weaker_than(q, p)


class TestIsRace:
    def test_basic_write_write_race(self):
        assert is_race(acc(thread=1, kind=WRITE), acc(thread=2, kind=WRITE))

    def test_read_read_not_race(self):
        assert not is_race(acc(thread=1, kind=READ), acc(thread=2, kind=READ))

    def test_one_write_makes_a_race_in_either_order(self):
        read, write = acc(thread=1, kind=READ), acc(thread=2, kind=WRITE)
        assert is_race(read, write)
        assert is_race(write, read)

    def test_common_lock_prevents_race(self):
        assert not is_race(
            acc(thread=1, locks={9}, kind=WRITE),
            acc(thread=2, locks={9, 4}, kind=WRITE),
        )

    def test_same_thread_not_race(self):
        assert not is_race(acc(thread=1, kind=WRITE), acc(thread=1, kind=WRITE))

    def test_different_locations_not_race(self):
        assert not is_race(
            acc(loc="a", thread=1, kind=WRITE), acc(loc="b", thread=2, kind=WRITE)
        )

    def test_rejects_pseudothread(self):
        with pytest.raises(ValueError):
            is_race(acc(thread=THREAD_BOTTOM), acc(thread=2))


class TestTheorem1:
    """Spot-check the weaker-than theorem: p ⊑ q ∧ IsRace(q, r) ⟹ IsRace(p, r)."""

    @pytest.mark.parametrize(
        "p,q,r",
        [
            (
                acc(thread=1, locks={1}, kind=WRITE),
                acc(thread=1, locks={1, 2}, kind=READ),
                acc(thread=2, locks={3}, kind=WRITE),
            ),
            (
                acc(thread=1, locks=set(), kind=WRITE),
                acc(thread=1, locks={5}, kind=WRITE),
                acc(thread=3, locks={9}, kind=READ),
            ),
        ],
    )
    def test_examples(self, p, q, r):
        assert weaker_than(p, q)
        if is_race(q, r):
            assert is_race(p, r)
