"""The buffer pool: page table, pool mutex, miss path, traced functions.

Cost model (virtual time):

- a page-table hit costs ``hit_cost`` (hash lookup + frame pin);
- promoting a page (make-young) takes the pool mutex and holds it for
  ``list_op_cost`` — the *wait* for that mutex is the variance source the
  paper attributes to ``buf_pool_mutex_enter``;
- a miss takes the mutex to find a victim (``evict_op_cost`` hold time),
  and — as in MySQL 5.6's single-page-flush pathology — if the victim is
  dirty the evicting thread writes it back *while holding the mutex*;
  the subsequent read of the wanted page happens outside the mutex;
- with Lazy LRU Update enabled, make-young uses a spin lock bounded by
  ``llu_spin_timeout`` (paper: 0.01 ms); on timeout the update is pushed
  to the caller's backlog and applied on a later successful acquisition.

The traced function names match InnoDB so TProfiler's findings read like
Table 1: ``buf_page_make_young`` -> ``buf_pool_mutex_enter`` ->
``buf_LRU_make_block_young``; the miss path is ``buf_read_page`` ->
``buf_pool_mutex_enter`` / ``buf_LRU_get_free_block``.  Each path is one
flat generator carrying those frames as inline tracer markers.

The pool owns the hit protocol, as public steps: ``lookup`` counts the
access, a hit pauses for ``hit_cost`` and asks ``hit_check`` (evicted
meanwhile, promote via ``make_young``, or done), a miss takes
``read_in``.  The checks are plain calls, so the MySQL statement loop
runs them with no generator per page access; ``fix_page`` is the same
steps as one generator.

The pool's state is plain data: the page table maps each resident page
id to a frame number, and the dirty pages are one set of resident ids.
Prewarmed pages share frame 0; every read-in takes the next number of a
counter that never resets, so a process paused on a page can tell
whether the frame it saw is still the resident one.
"""

from itertools import count

from repro.bufferpool.lru import LRUList
from repro.sim.resources import Mutex, SpinLock


class BufferPoolConfig:
    """Pool sizing and cost parameters (times in microseconds)."""

    def __init__(
        self,
        capacity_pages=1000,
        page_bytes=16384,
        old_ratio=3.0 / 8.0,
        young_reorder_depth=0.25,
        hit_cost=1.0,
        list_op_cost=2.0,
        evict_op_cost=5.0,
        lazy_lru=False,
        llu_spin_timeout=10.0,
        llu_backlog_apply_cost=1.0,
    ):
        self.capacity_pages = capacity_pages
        self.page_bytes = page_bytes
        self.old_ratio = old_ratio
        self.young_reorder_depth = young_reorder_depth
        self.hit_cost = hit_cost
        self.list_op_cost = list_op_cost
        self.evict_op_cost = evict_op_cost
        self.lazy_lru = lazy_lru
        self.llu_spin_timeout = llu_spin_timeout
        self.llu_backlog_apply_cost = llu_backlog_apply_cost


class BufferPool:
    """An InnoDB-style buffer pool bound to a data disk and a tracer."""

    def __init__(self, sim, tracer, disk, config=None, name="buf_pool"):
        self.sim = sim
        self.tracer = tracer
        self.disk = disk
        self.config = config or BufferPoolConfig()
        self.name = name
        # page id -> frame number; the dirty subset of its keys.
        self._pages = {}
        self._dirty = set()
        self._frames = count(1)
        self._lru = LRUList(
            self.config.capacity_pages,
            old_ratio=self.config.old_ratio,
            young_reorder_depth=self.config.young_reorder_depth,
        )
        if self.config.lazy_lru:
            self.mutex = SpinLock(
                sim,
                name=name + ".mutex",
                spin_timeout=self.config.llu_spin_timeout,
            )
        else:
            self.mutex = Mutex(sim, name=name + ".mutex")
        # Accounting.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0
        self.make_youngs = 0
        self.llu_deferrals = 0
        self.llu_applied = 0
        # What a hit pauses for, as a float (the statement loops yield it).
        self.hit_cost = float(self.config.hit_cost)
        # Telemetry instruments.  The hold-time histogram measures how
        # long the pool mutex stays held per critical section — the
        # quantity LLU shrinks and the paper's Table 1 indicts.
        tm = sim.telemetry
        self._tm = tm
        self._t_hits = tm.counter(name + ".hits")
        self._t_misses = tm.counter(name + ".misses")
        # The hit/miss counters shadow the plain accounting attributes
        # one-for-one; the hit counter is the single hottest instrument
        # in a run, so both are folded in bulk at registry flush (always
        # before a snapshot) instead of paying an inc per page access.
        self._flushed_hits = 0
        self._flushed_misses = 0
        tm.add_flush_hook(self._flush_counters)
        self._t_evictions = tm.counter(name + ".evictions")
        self._t_writebacks = tm.counter(name + ".dirty_writebacks")
        self._t_deferrals = tm.counter(name + ".llu_deferrals")
        self._t_hold_hist = tm.histogram(name + ".mutex_hold_time")
        self._t_resident = tm.gauge(name + ".resident_pages")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def hit_ratio(self):
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def _flush_counters(self):
        """Fold the deferred hit/miss totals into their counters."""
        delta = self.hits - self._flushed_hits
        if delta:
            self._t_hits.inc(delta)
            self._flushed_hits = self.hits
        delta = self.misses - self._flushed_misses
        if delta:
            self._t_misses.inc(delta)
            self._flushed_misses = self.misses

    def contains(self, page_id):
        return page_id in self._pages

    def crash(self):
        """Whole-node crash: every cached page is gone (cold restart).

        The pool restarts empty — no prewarm; the first transactions
        after recovery pay miss-path disk reads, which is part of the
        crash's latency footprint.  The pool mutex is reset: its holder
        and parked waiters died with the worker pool.
        """
        self._pages.clear()
        self._dirty.clear()
        lru = self._lru
        self._lru = LRUList(lru.capacity, lru.old_ratio, lru.young_reorder_depth)
        self.mutex.reset()
        self._t_resident.set(0)

    def prewarm(self, page_ids):
        """Populate the pool (up to capacity) without virtual time or I/O.

        Models a warmed server: the paper measures steady state, not the
        cold-start transient.  Pages are inserted clean at the old head;
        the LRU will sort itself out as traffic arrives.  Returns the
        number of pages resident afterwards.

        An empty pool takes :meth:`LRUList.fill`, which shares its list
        orders between pools prewarmed from the same page-id tuple; the
        page table and dirty set are always this pool's own.  Every
        prewarmed page gets frame 0.
        """
        pages = self._pages
        if not pages:
            pages.update(dict.fromkeys(self._lru.fill(page_ids), 0))
            return len(pages)
        capacity = self.config.capacity_pages
        n = len(pages)
        fresh = []
        append = fresh.append
        for page_id in page_ids:
            if n >= capacity:
                break
            if page_id in pages:
                continue
            pages[page_id] = 0
            n += 1
            append(page_id)
        self._lru.insert_old_many(fresh)
        return len(pages)

    def lookup(self, page_id):
        """The frame ``page_id`` is resident in, or None; counts a hit or miss."""
        frame = self._pages.get(page_id)
        if frame is None:
            self.misses += 1
        else:
            self.hits += 1
        return frame

    def hit_check(self, page_id, frame, dirty=False):
        """What a hit on ``frame`` does after its ``hit_cost`` pause.

        ``"evicted"`` if the frame was evicted or replaced meanwhile (take
        the miss path); else the page is dirtied if asked and the answer
        is ``"promote"`` if the LRU list wants it made young, or ``"done"``.
        """
        if self._pages.get(page_id) != frame:
            return "evicted"
        if dirty:
            self._dirty.add(page_id)
        if self._lru.needs_make_young(page_id):
            return "promote"
        return "done"

    def fix_page(self, ctx, page_id, dirty=False, backlog=None):
        """Generator: pin ``page_id``, reading it in on a miss.

        Evaluates to the frame number the access ended on.  ``backlog``
        is the calling worker's deferred-LRU-update list; it is only
        consulted when the pool runs with Lazy LRU Update.
        """
        while True:
            frame = self.lookup(page_id)
            if frame is None:
                return (yield from self.read_in(ctx, page_id, dirty))
            yield self.hit_cost
            state = self.hit_check(page_id, frame, dirty)
            if state != "evicted":
                break
        if state == "promote":
            yield from self.make_young(ctx, page_id, backlog)
        return frame

    # ------------------------------------------------------------------
    # Make-young path (buf_page_make_young)
    # ------------------------------------------------------------------

    def make_young(self, ctx, page_id, backlog):
        """Generator: ``buf_page_make_young`` for a hit that needs promoting.

        One flat generator with inline markers for the frames below it
        (see :mod:`repro.core.tracing`): ``buf_pool_mutex_enter`` at site
        ``make_young``, then ``buf_LRU_make_block_young`` under the
        mutex.  With Lazy LRU Update the mutex is a spin lock; a spin
        timeout defers the promotion to the worker's ``backlog``.
        """
        tracer = self.tracer
        charge = tracer.probe_charge()
        instrumented = tracer.instrumented if ctx is not None else ()
        on_young = "buf_page_make_young" in instrumented
        on_mutex = "buf_pool_mutex_enter" in instrumented
        on_block = "buf_LRU_make_block_young" in instrumented
        if on_young:
            yield from charge
            young_frame = tracer.enter(ctx, "buf_page_make_young")
        if on_mutex:
            yield from charge
            mutex_frame = tracer.enter(ctx, "buf_pool_mutex_enter", "make_young")
        mutex = self.mutex
        lazy = self.config.lazy_lru
        if lazy:
            acquired = yield from mutex.try_acquire()
        else:
            yield from mutex.acquire()
            acquired = True
        if on_mutex:
            yield from charge
            tracer.exit(ctx, mutex_frame)
        if acquired:
            held_since = self.sim.now
            if lazy and backlog:
                yield from self._apply_backlog(backlog)
            if on_block:
                yield from charge
                block_frame = tracer.enter(ctx, "buf_LRU_make_block_young")
            self.make_youngs += 1
            yield self.config.list_op_cost
            if page_id in self._pages:
                self._lru.make_young(page_id)
            if on_block:
                yield from charge
                tracer.exit(ctx, block_frame)
            self._t_hold_hist.observe(self.sim.now - held_since)
            mutex.release()
        else:
            self.llu_deferrals += 1
            self._t_deferrals.inc()
            if backlog is not None:
                backlog.append(page_id)
        if on_young:
            yield from charge
            tracer.exit(ctx, young_frame)

    def _apply_backlog(self, backlog):
        """Apply deferred updates (skipping pages evicted meanwhile)."""
        pending, backlog[:] = list(backlog), []
        for page_id in pending:
            if page_id not in self._pages:
                continue  # evicted since the deferral; nothing to do
            self.llu_applied += 1
            yield self.config.llu_backlog_apply_cost
            self._lru.make_young(page_id)

    # ------------------------------------------------------------------
    # Miss path (buf_read_page)
    # ------------------------------------------------------------------

    def read_in(self, ctx, page_id, dirty=False):
        """Generator: ``buf_read_page``; evaluates to the page's frame number.

        Markers for ``buf_pool_mutex_enter`` (site ``read_page``) and
        ``buf_LRU_get_free_block``, which finds a free frame while
        holding the pool mutex — evicting a victim if the pool is full,
        and writing a dirty victim back *under the mutex* (the MySQL 5.6
        single-page-flush pathology that makes hold times heavy-tailed
        under memory pressure).  The wanted page is read outside it, and
        marked dirty at the end if ``dirty`` and the frame is still
        resident.
        """
        tracer = self.tracer
        charge = tracer.probe_charge()
        instrumented = tracer.instrumented if ctx is not None else ()
        on_read = "buf_read_page" in instrumented
        on_mutex = "buf_pool_mutex_enter" in instrumented
        on_free = "buf_LRU_get_free_block" in instrumented
        if on_read:
            yield from charge
            read_frame = tracer.enter(ctx, "buf_read_page")
        if on_mutex:
            yield from charge
            mutex_frame = tracer.enter(ctx, "buf_pool_mutex_enter", "read_page")
        yield from self.mutex.acquire()
        if on_mutex:
            yield from charge
            tracer.exit(ctx, mutex_frame)
        held_since = self.sim.now
        config = self.config
        pages = self._pages
        # Somebody else may have read the page in while we waited.
        frame = pages.get(page_id)
        if frame is not None:
            self._t_hold_hist.observe(self.sim.now - held_since)
            self.mutex.release()
            yield config.hit_cost
        else:
            if on_free:
                yield from charge
                free_frame = tracer.enter(ctx, "buf_LRU_get_free_block")
            yield config.evict_op_cost
            lru = self._lru
            victim_id = lru.victim() if len(lru) >= lru.capacity else None
            if victim_id is not None:
                del pages[victim_id]
                lru.remove(victim_id)
                self.evictions += 1
                self._t_evictions.inc()
                dirty_pages = self._dirty
                if victim_id in dirty_pages:
                    dirty_pages.remove(victim_id)
                    self.dirty_writebacks += 1
                    self._t_writebacks.inc()
                    yield from self.disk.write(config.page_bytes)
            if on_free:
                yield from charge
                tracer.exit(ctx, free_frame)
            # Reserve the slot so concurrent missers don't double-read,
            # then read the page contents outside the mutex.
            frame = pages[page_id] = next(self._frames)
            self._lru.insert_old(page_id)
            self._t_hold_hist.observe(self.sim.now - held_since)
            self._t_resident.set(len(pages))
            self.mutex.release()
            yield from self.disk.read(config.page_bytes)
        if on_read:
            yield from charge
            tracer.exit(ctx, read_frame)
        # The frame may have been evicted during the read: then there is
        # nothing left to dirty.
        if dirty and pages.get(page_id) == frame:
            self._dirty.add(page_id)
        return frame

    def __repr__(self):
        return "<BufferPool %s pages=%d/%d hit_ratio=%.2f>" % (
            self.name,
            len(self._pages),
            self.config.capacity_pages,
            self.hit_ratio,
        )
