"""Unit tests for the virtual clock and the fixed-priority run queue."""

import random

import pytest

from repro.composite.scheduler import (
    CYCLES_PER_US,
    RunQueue,
    VirtualClock,
    cycles_to_us,
)
from repro.composite.thread import SimThread, ThreadState


def make_thread(tid, prio):
    return SimThread(tid, f"t{tid}", prio, "app0", lambda s, t: iter(()))


def list_building_pick(threads, rr):
    """The reference pick: the best-priority ready peers as a list, the
    ``rr``-th of them; returns ``(thread, rr after the pick)``."""
    best_prio = None
    peers = None
    for t in threads:
        if t.state is not ThreadState.READY:
            continue
        if best_prio is None or t.prio < best_prio:
            best_prio = t.prio
            peers = [t]
        elif t.prio == best_prio:
            peers.append(t)
    if peers is None:
        return None, rr
    return peers[rr % len(peers)], rr + 1


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(100)
        clock.advance(50)
        assert clock.now == 150

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_timers_fire_in_order(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(200, lambda: fired.append("b"))
        clock.schedule(100, lambda: fired.append("a"))
        clock.advance(150)
        for cb in clock.pop_due():
            cb()
        assert fired == ["a"]
        clock.advance(100)
        for cb in clock.pop_due():
            cb()
        assert fired == ["a", "b"]

    def test_same_expiry_fifo(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(10, lambda: fired.append(1))
        clock.schedule(10, lambda: fired.append(2))
        clock.advance(10)
        for cb in clock.pop_due():
            cb()
        assert fired == [1, 2]

    def test_next_expiry(self):
        clock = VirtualClock()
        assert clock.next_expiry() is None
        clock.schedule(42, lambda: None)
        assert clock.next_expiry() == 42

    def test_skip_to_next_expiry(self):
        clock = VirtualClock()
        assert not clock.skip_to_next_expiry()
        clock.schedule(500, lambda: None)
        assert clock.skip_to_next_expiry()
        assert clock.now == 500

    def test_skip_does_not_rewind(self):
        clock = VirtualClock()
        clock.advance(1000)
        clock.schedule(500, lambda: None)
        clock.skip_to_next_expiry()
        assert clock.now == 1000

    def test_cycles_to_us(self):
        assert cycles_to_us(CYCLES_PER_US) == 1.0
        assert cycles_to_us(2400 * 10) == 10.0


class TestRunQueue:
    def test_empty_pick(self):
        assert RunQueue().pick() is None

    def test_priority_order(self):
        q = RunQueue()
        low = make_thread(1, prio=10)
        high = make_thread(2, prio=1)
        q.add(low)
        q.add(high)
        assert q.pick() is high

    def test_blocked_threads_skipped(self):
        q = RunQueue()
        t1 = make_thread(1, prio=1)
        t2 = make_thread(2, prio=5)
        q.add(t1)
        q.add(t2)
        t1.state = ThreadState.BLOCKED
        assert q.pick() is t2

    def test_round_robin_among_equal_priorities(self):
        q = RunQueue()
        a = make_thread(1, prio=5)
        b = make_thread(2, prio=5)
        q.add(a)
        q.add(b)
        picks = {q.pick(), q.pick()}
        assert picks == {a, b}
        # ``pick`` takes no per-step list; the list-building pick it
        # replaced is the reference, tie-break counter included.
        rng = random.Random(0x5C4ED)
        states = (ThreadState.READY,) * 3 + (
            ThreadState.BLOCKED, ThreadState.DONE, ThreadState.CRASHED,
        )
        for __ in range(1000):
            q = RunQueue()
            for tid in range(rng.randrange(8)):
                t = make_thread(tid, prio=rng.choice((1, 3, 5, 5, 6)))
                t.state = rng.choice(states)
                q.add(t)
            q._rr = rr = rng.randrange(1000)
            expected, expected_rr = list_building_pick(q._threads, rr)
            assert q.pick() is expected
            assert q._rr == expected_rr

    def test_all_done(self):
        q = RunQueue()
        t = make_thread(1, prio=1)
        q.add(t)
        assert not q.all_done()
        t.state = ThreadState.DONE
        assert q.all_done()
        crashed = make_thread(2, prio=1)
        crashed.state = ThreadState.CRASHED
        q.add(crashed)
        assert q.all_done()

    def test_blocked_listing(self):
        q = RunQueue()
        t = make_thread(1, prio=1)
        q.add(t)
        assert q.blocked() == []
        t.state = ThreadState.BLOCKED
        assert q.blocked() == [t]

    def test_remove(self):
        q = RunQueue()
        t = make_thread(1, prio=1)
        q.add(t)
        q.remove(t)
        assert q.pick() is None
