"""Synchronisation primitives built on the DES kernel.

These model the constructs whose *wait-time variance* the paper studies:
mutexes (InnoDB's buffer-pool mutex, Postgres's WALWriteLock), spin locks
with bounded wait (the Lazy-LRU-Update modification), and waitable FIFO
queues (VoltDB's task queues and the background log-flusher inbox).
"""

from collections import deque

from repro.sim.kernel import SimulationError, WaitEvent


class _MutexEntry:
    """One parked acquirer; ``cancelled`` marks a timed-out spin waiter."""

    __slots__ = ("process", "event", "cancelled")

    def __init__(self, process, event):
        self.process = process
        self.event = event
        self.cancelled = False


class Mutex:
    """A FIFO mutex with explicit hand-off.

    ``yield from mutex.acquire()`` blocks until the mutex is held by the
    calling process; :meth:`release` hands it to the next non-cancelled
    waiter.  Wait times are pure queueing delay on the virtual clock.
    """

    def __init__(self, sim, name="mutex"):
        self.sim = sim
        self.name = name
        self.holder = None
        self._waiters = deque()
        # Cumulative contention accounting, used by tests and tuning studies.
        self.total_waits = 0
        self.total_wait_time = 0.0
        self.total_acquisitions = 0

    @property
    def queue_length(self):
        return sum(1 for entry in self._waiters if not entry.cancelled)

    def take(self):
        """Take the mutex if it is free (never blocks); True if taken."""
        if self.holder is None:
            self.holder = self.sim.current
            self.total_acquisitions += 1
            return True
        return False

    def acquire(self):
        """Generator: block until this process holds the mutex."""
        if self.take():
            return
        entry = _MutexEntry(self.sim.current, self.sim.event())
        self._waiters.append(entry)
        started = self.sim.now
        self.total_waits += 1
        yield WaitEvent(entry.event)
        self.total_wait_time += self.sim.now - started
        self.total_acquisitions += 1

    def try_acquire(self, timeout):
        """Generator: like :meth:`acquire` but give up after ``timeout``.

        Evaluates to ``True`` if the mutex was acquired, ``False`` if the
        wait was abandoned.  Used by :class:`SpinLock`.
        """
        if self.take():
            return True
        entry = _MutexEntry(self.sim.current, self.sim.event())
        self._waiters.append(entry)
        started = self.sim.now
        self.total_waits += 1
        fired = yield WaitEvent(entry.event, timeout=timeout)
        self.total_wait_time += self.sim.now - started
        if not fired:
            entry.cancelled = True
            return False
        self.total_acquisitions += 1
        return True

    def release(self):
        """Hand the mutex to the next live waiter, or free it."""
        if self.holder is None:
            raise SimulationError("release of unheld mutex %r" % self.name)
        if self.holder is not self.sim.current:
            raise SimulationError(
                "mutex %r released by %r but held by %r"
                % (self.name, self.sim.current, self.holder)
            )
        while self._waiters:
            entry = self._waiters.popleft()
            if entry.cancelled:
                continue
            self.holder = entry.process
            entry.event.fire()
            return
        self.holder = None

    def reset(self):
        """Free the mutex and drop its waiters, with no hand-off: on a
        node crash the holder and every waiter died with the server."""
        self.holder = None
        self._waiters.clear()

    def __repr__(self):
        return "<Mutex %s holder=%r waiters=%d>" % (
            self.name,
            self.holder,
            self.queue_length,
        )


class SpinLock:
    """A mutex acquired by spinning with a bounded wait.

    This models the Lazy-LRU-Update change (Section 6.1): replace the
    buffer-pool mutex with a spin lock and abandon the wait after
    ``spin_timeout`` microseconds (paper: 0.01 ms = 10 µs), falling back to
    a thread-local backlog of deferred LRU updates.

    Spinning costs ``spin_overhead`` of virtual time per acquisition to
    model the (small) extra CPU burn relative to a sleeping mutex.
    """

    def __init__(self, sim, name="spinlock", spin_timeout=10.0, spin_overhead=0.05):
        self.sim = sim
        self.name = name
        self.spin_timeout = spin_timeout
        self.spin_overhead = spin_overhead
        self._mutex = Mutex(sim, name=name + ".inner")
        self.timeouts = 0

    @property
    def holder(self):
        return self._mutex.holder

    @property
    def total_acquisitions(self):
        return self._mutex.total_acquisitions

    def try_acquire(self):
        """Generator: evaluate to True if acquired within the spin budget."""
        acquired = yield from self._mutex.try_acquire(self.spin_timeout)
        if self.spin_overhead:
            yield self.spin_overhead
        if not acquired:
            self.timeouts += 1
        return acquired

    def acquire(self):
        """Generator: unbounded acquire (spin until granted)."""
        yield from self._mutex.acquire()

    def release(self):
        self._mutex.release()

    def reset(self):
        """See :meth:`Mutex.reset`."""
        self._mutex.reset()


class CoreSet:
    """A fixed set of CPU cores served FIFO.

    Models the finite processor of the paper's testbed (2 sockets, 16
    cores): a simulated thread's CPU burst occupies one core for its
    duration, and when all cores are busy the burst queues.  Near
    saturation this is what stretches transaction latencies — and
    therefore lock hold times — the way the paper's hardware did.

    Implemented with per-core busy-until horizons rather than processes:
    a burst is assigned the earliest-free core, exactly FIFO in arrival
    order because the event loop is deterministic.
    """

    def __init__(self, sim, n_cores, name="cpu"):
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.name = name
        self.n_cores = n_cores
        self._busy_until = [0.0] * n_cores
        self.total_busy = 0.0
        self.total_bursts = 0

    @property
    def queue_delay(self):
        """Delay a burst arriving now would wait before running."""
        return max(0.0, min(self._busy_until) - self.sim.now)

    def utilization(self, span):
        """Fraction of core-time used over ``span`` microseconds."""
        if span <= 0:
            return 0.0
        return self.total_busy / (span * self.n_cores)

    def book(self, cost):
        """Book a burst of ``cost`` > 0 on the earliest-free core; returns
        its delay from now to its end (queueing plus ``cost``) to yield."""
        self.total_bursts += 1
        self.total_busy += cost
        busy = self._busy_until
        start = min(busy)
        index = busy.index(start)
        now = self.sim.now
        if now > start:
            start = now
        end = start + cost
        busy[index] = end
        return end - now

    def consume(self, cost):
        """Generator: run a CPU burst of ``cost`` on the earliest-free core."""
        if cost > 0:
            yield self.book(cost)


class WaitQueue:
    """An unbounded FIFO queue with blocking ``get``.

    Models VoltDB's per-site task queues and the background flusher inbox.
    ``put`` is immediate; ``yield from queue.get()`` parks until an item is
    available.  Items are delivered to getters in FIFO order.
    """

    def __init__(self, sim, name="queue"):
        self.sim = sim
        self.name = name
        self._items = deque()
        self._getters = deque()
        # Peak/total accounting for the VoltDB queueing study.
        self.total_puts = 0
        self.peak_length = 0

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        """The queued items, oldest first (parked getters are not items)."""
        return iter(self._items)

    def drain(self):
        """Remove and return every item; drop every parked getter (on a
        node crash they are dead processes that would swallow puts)."""
        items = list(self._items)
        self._items.clear()
        self._getters.clear()
        return items

    def put(self, item):
        """Enqueue ``item``, waking the longest-waiting getter if any."""
        self.total_puts += 1
        if self._getters:
            event = self._getters.popleft()
            event.fire(item)
            return
        self._items.append(item)
        if len(self._items) > self.peak_length:
            self.peak_length = len(self._items)

    def get(self):
        """Generator: evaluate to the next item, blocking if empty."""
        if self._items:
            return self._items.popleft()
        event = self.sim.event()
        self._getters.append(event)
        yield WaitEvent(event)
        return event.value

    def __repr__(self):
        return "<WaitQueue %s len=%d getters=%d>" % (
            self.name,
            len(self._items),
            len(self._getters),
        )
