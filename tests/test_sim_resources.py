"""Mutex, SpinLock, WaitQueue, CoreSet semantics."""

import pytest

from repro.sim.kernel import SimulationError, Timeout
from repro.sim.resources import CoreSet, Mutex, SpinLock, WaitQueue


class TestMutex:
    def test_uncontended_acquire_is_instant(self, sim):
        mutex = Mutex(sim)
        done = []

        def proc():
            yield from mutex.acquire()
            done.append(sim.now)
            mutex.release()

        sim.spawn(proc())
        sim.run()
        assert done == [0.0]
        assert mutex.holder is None

    def test_fifo_handoff_order(self, sim):
        mutex = Mutex(sim)
        order = []

        def proc(tag, arrive):
            yield Timeout(arrive)
            yield from mutex.acquire()
            order.append(tag)
            yield Timeout(10.0)
            mutex.release()

        sim.spawn(proc("first", 0))
        sim.spawn(proc("second", 1))
        sim.spawn(proc("third", 2))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_take_only_when_free(self, sim):
        mutex = Mutex(sim)
        taken = []

        def proc(tag):
            taken.append((tag, mutex.take()))
            yield Timeout(1.0)

        sim.spawn(proc("first"))
        sim.spawn(proc("second"))
        sim.run()
        assert taken == [("first", True), ("second", False)]
        assert mutex.total_acquisitions == 1
        assert mutex.total_waits == 0

    def test_reset_frees_and_drops_waiters(self, sim):
        mutex = Mutex(sim)
        got = []

        def holder():
            yield from mutex.acquire()
            yield Timeout(100.0)

        def waiter():
            yield Timeout(1.0)
            yield from mutex.acquire()
            got.append(sim.now)

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run(until=5.0)
        assert mutex.queue_length == 1
        mutex.reset()
        assert mutex.holder is None and mutex.queue_length == 0

        def newcomer():
            yield from mutex.acquire()
            got.append(sim.now)
            mutex.release()

        sim.spawn(newcomer())
        sim.run()
        # The dropped waiter is never handed the mutex.
        assert got == [5.0]

    def test_release_unheld_raises(self, sim):
        mutex = Mutex(sim)

        def proc():
            mutex.release()
            yield Timeout(0)

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_release_by_non_holder_raises(self, sim):
        mutex = Mutex(sim)

        def holder():
            yield from mutex.acquire()
            yield Timeout(10.0)
            mutex.release()

        def intruder():
            yield Timeout(1.0)
            mutex.release()

        sim.spawn(holder())
        sim.spawn(intruder())
        with pytest.raises(SimulationError):
            sim.run()

    def test_try_acquire_timeout_gives_up(self, sim):
        mutex = Mutex(sim)
        results = []

        def holder():
            yield from mutex.acquire()
            yield Timeout(100.0)
            mutex.release()

        def impatient():
            yield Timeout(1.0)
            got = yield from mutex.try_acquire(5.0)
            results.append((got, sim.now))

        sim.spawn(holder())
        sim.spawn(impatient())
        sim.run()
        assert results == [(False, 6.0)]

    def test_cancelled_waiter_skipped_on_release(self, sim):
        """A timed-out waiter must not receive the lock (deadlock risk)."""
        mutex = Mutex(sim)
        order = []

        def holder():
            yield from mutex.acquire()
            yield Timeout(50.0)
            mutex.release()

        def quitter():
            yield Timeout(1.0)
            got = yield from mutex.try_acquire(5.0)
            order.append(("quitter", got))

        def patient():
            yield Timeout(2.0)
            yield from mutex.acquire()
            order.append(("patient", sim.now))
            mutex.release()

        sim.spawn(holder())
        sim.spawn(quitter())
        sim.spawn(patient())
        sim.run()
        assert ("quitter", False) in order
        assert ("patient", 50.0) in order
        assert mutex.holder is None

    def test_wait_accounting(self, sim):
        mutex = Mutex(sim)

        def holder():
            yield from mutex.acquire()
            yield Timeout(10.0)
            mutex.release()

        def waiter():
            yield Timeout(1.0)
            yield from mutex.acquire()
            mutex.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert mutex.total_waits == 1
        assert mutex.total_wait_time == pytest.approx(9.0)
        assert mutex.total_acquisitions == 2


class TestSpinLock:
    def test_acquire_within_spin_budget(self, sim):
        lock = SpinLock(sim, spin_timeout=20.0, spin_overhead=0.0)
        results = []

        def holder():
            yield from lock.acquire()
            yield Timeout(5.0)
            lock.release()

        def spinner():
            yield Timeout(1.0)
            got = yield from lock.try_acquire()
            results.append((got, sim.now))
            if got:
                lock.release()

        sim.spawn(holder())
        sim.spawn(spinner())
        sim.run()
        assert results == [(True, 5.0)]
        assert lock.timeouts == 0

    def test_spin_timeout_abandons(self, sim):
        lock = SpinLock(sim, spin_timeout=3.0, spin_overhead=0.0)
        results = []

        def holder():
            yield from lock.acquire()
            yield Timeout(100.0)
            lock.release()

        def spinner():
            yield Timeout(1.0)
            got = yield from lock.try_acquire()
            results.append((got, sim.now))

        sim.spawn(holder())
        sim.spawn(spinner())
        sim.run()
        assert results == [(False, 4.0)]
        assert lock.timeouts == 1

    def test_spin_overhead_charged(self, sim):
        lock = SpinLock(sim, spin_timeout=5.0, spin_overhead=0.5)
        times = []

        def proc():
            got = yield from lock.try_acquire()
            times.append((got, sim.now))
            lock.release()

        sim.spawn(proc())
        sim.run()
        assert times == [(True, 0.5)]


class TestWaitQueue:
    def test_put_then_get(self, sim):
        queue = WaitQueue(sim)
        items = []

        def producer():
            queue.put("a")
            queue.put("b")
            yield Timeout(0)

        def consumer():
            yield Timeout(1.0)
            items.append((yield from queue.get()))
            items.append((yield from queue.get()))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert items == ["a", "b"]

    def test_get_blocks_until_put(self, sim):
        queue = WaitQueue(sim)
        items = []

        def consumer():
            item = yield from queue.get()
            items.append((item, sim.now))

        def producer():
            yield Timeout(5.0)
            queue.put("late")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert items == [("late", 5.0)]

    def test_getters_served_fifo(self, sim):
        queue = WaitQueue(sim)
        got = []

        def consumer(tag, arrive):
            yield Timeout(arrive)
            item = yield from queue.get()
            got.append((tag, item))

        def producer():
            yield Timeout(10.0)
            queue.put(1)
            queue.put(2)

        sim.spawn(consumer("first", 0))
        sim.spawn(consumer("second", 1))
        sim.spawn(producer())
        sim.run()
        assert got == [("first", 1), ("second", 2)]

    def test_iterate_and_drain(self, sim):
        queue = WaitQueue(sim)
        got = []

        def getter():
            got.append((yield from queue.get()))

        queue.put("a")
        queue.put("b")
        assert list(queue) == ["a", "b"]
        assert queue.drain() == ["a", "b"]
        assert len(queue) == 0
        sim.spawn(getter())  # parks: the queue is empty
        sim.run()
        assert queue.drain() == []
        queue.put("c")  # the dropped getter does not take it
        sim.run()
        assert got == []
        assert list(queue) == ["c"]

    def test_peak_length_tracked(self, sim):
        queue = WaitQueue(sim)

        def producer():
            for i in range(5):
                queue.put(i)
            yield Timeout(0)

        sim.spawn(producer())
        sim.run()
        assert queue.peak_length == 5
        assert queue.total_puts == 5


class TestCoreSet:
    def test_single_core_serializes(self, sim):
        cpu = CoreSet(sim, 1)
        finish = []

        def proc(tag):
            yield from cpu.consume(10.0)
            finish.append((tag, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert finish == [("a", 10.0), ("b", 20.0)]

    def test_two_cores_run_in_parallel(self, sim):
        cpu = CoreSet(sim, 2)
        finish = []

        def proc(tag):
            yield from cpu.consume(10.0)
            finish.append((tag, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert finish == [("a", 10.0), ("b", 10.0)]

    def test_zero_cost_is_free(self, sim):
        cpu = CoreSet(sim, 1)

        def proc():
            yield from cpu.consume(0.0)
            yield Timeout(0)

        sim.spawn(proc())
        sim.run()
        assert cpu.total_bursts == 0

    def test_utilization(self, sim):
        cpu = CoreSet(sim, 2)

        def proc():
            yield from cpu.consume(10.0)

        sim.spawn(proc())
        sim.run()
        assert cpu.utilization(10.0) == pytest.approx(0.5)

    def test_book_is_fifo(self, sim):
        """Bookings take the earliest-free core in arrival order, so a
        later burst never ends before an earlier one."""
        cpu = CoreSet(sim, 2)
        delays = [cpu.book(10.0) for _ in range(5)]
        assert delays == [10.0, 10.0, 20.0, 20.0, 30.0]
        assert cpu.total_bursts == 5
        assert cpu.total_busy == 50.0
        assert cpu.queue_delay == 20.0

    def test_book_from_the_current_time(self, sim):
        cpu = CoreSet(sim, 1)
        delays = []

        def proc():
            delays.append(cpu.book(4.0))
            yield Timeout(10.0)
            # The core went idle at 4.0: a burst now starts at once.
            delays.append(cpu.book(3.0))

        sim.spawn(proc())
        sim.run()
        assert delays == [4.0, 3.0]

    def test_requires_at_least_one_core(self, sim):
        with pytest.raises(ValueError):
            CoreSet(sim, 0)
