"""Buffer pool: LRU behaviour, miss path, Lazy LRU Update, prewarm."""

import gc
import importlib.util
import os

import pytest

from repro.bench.digest import run_digest
from repro.bench.runner import run_experiment
from repro.bufferpool.lru import LRUList
from repro.bufferpool.pool import BufferPool, BufferPoolConfig
from repro.core.annotations import TransactionContext, TransactionLog
from repro.core.tracing import Tracer
from repro.sim.disk import Disk, DiskConfig
from repro.sim.kernel import Timeout
from repro.sim.rand import Streams
from repro.storage.tables import TableCatalog
from tests.util import hash_seed_outputs


class TestLRUList:
    def test_insert_old_keeps_first_insert_as_victim(self):
        lru = LRUList(10)
        lru.insert_old("a")
        lru.insert_old("b")
        assert "a" in lru and "b" in lru
        # The earliest unpromoted page is the replacement victim.
        assert lru.victim() == "a"

    def test_make_young_promotes(self):
        lru = LRUList(10)
        for page in "abcde":
            lru.insert_old(page)
        lru.make_young("a")
        assert "a" in lru.young_pages

    def test_victim_from_old_tail(self):
        lru = LRUList(10)
        for page in "abc":
            lru.insert_old(page)
        # "a" was inserted first so sits at the old tail.
        assert lru.victim() == "a"

    def test_old_ratio_maintained(self):
        lru = LRUList(16, old_ratio=3.0 / 8.0)
        for i in range(16):
            lru.insert_old(i)
        for i in range(16):
            lru.make_young(i)
        # After promotions, rebalancing keeps the old list near target.
        assert abs(len(lru.old_pages) - lru.old_target) <= 1

    def test_needs_make_young_for_old_pages(self):
        lru = LRUList(10)
        lru.insert_old("a")
        assert lru.needs_make_young("a")

    def test_fresh_young_page_not_repromoted(self):
        lru = LRUList(40)
        for i in range(20):
            lru.insert_old(i)
        for i in range(20):
            lru.make_young(i)
        # Page 19 was promoted last: it sits at the young head.
        assert not lru.needs_make_young(19)

    def test_stale_young_page_repromoted(self):
        lru = LRUList(40)
        for i in range(20):
            lru.insert_old(i)
        lru.make_young(0)
        for i in range(1, 20):
            lru.make_young(i)
        # 19 promotions since page 0's: it has sunk past the zone.
        assert lru.needs_make_young(0)

    def test_remove(self):
        lru = LRUList(4)
        lru.insert_old("a")
        lru.remove("a")
        assert "a" not in lru
        with pytest.raises(KeyError):
            lru.remove("a")

    def test_insert_beyond_capacity_raises(self):
        lru = LRUList(2)
        lru.insert_old("a")
        lru.insert_old("b")
        with pytest.raises(RuntimeError):
            lru.insert_old("c")

    def test_duplicate_insert_raises(self):
        lru = LRUList(4)
        lru.insert_old("a")
        with pytest.raises(KeyError):
            lru.insert_old("a")

    def test_unknown_page_queries_raise(self):
        lru = LRUList(4)
        with pytest.raises(KeyError):
            lru.make_young("ghost")
        with pytest.raises(KeyError):
            lru.needs_make_young("ghost")


def make_pool(sim, **config_kwargs):
    streams = Streams(5)
    disk = Disk(sim, streams.stream("disk"), DiskConfig.page_cache())
    log = TransactionLog()
    tracer = Tracer(sim, None, instrumented=set(), log=log)
    pool = BufferPool(sim, tracer, disk, BufferPoolConfig(**config_kwargs))
    return pool, disk


def run_fix(sim, pool, ctx, page_id, dirty=False, backlog=None):
    result = {}

    def proc():
        frame = yield from pool.fix_page(ctx, page_id, dirty=dirty, backlog=backlog)
        result["frame"] = frame

    sim.spawn(proc())
    sim.run()
    return result["frame"]


class TestBufferPool:
    def test_miss_then_hit(self, sim):
        pool, disk = make_pool(sim, capacity_pages=8)
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "p1")
        assert pool.misses == 1
        assert disk.reads == 1
        run_fix(sim, pool, ctx, "p1")
        assert pool.hits == 1
        assert disk.reads == 1

    def test_eviction_when_full(self, sim):
        pool, disk = make_pool(sim, capacity_pages=4)
        ctx = TransactionContext(sim, 1, "t")
        for i in range(6):
            run_fix(sim, pool, ctx, "p%d" % i)
        assert pool.evictions == 2
        assert len(pool._pages) == 4

    def test_dirty_victim_written_back(self, sim):
        pool, disk = make_pool(sim, capacity_pages=2)
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "dirty1", dirty=True)
        run_fix(sim, pool, ctx, "dirty2", dirty=True)
        writes_before = disk.writes
        run_fix(sim, pool, ctx, "p3")
        run_fix(sim, pool, ctx, "p4")
        assert disk.writes > writes_before
        assert pool.dirty_writebacks >= 1

    def test_prewarm_fills_to_capacity(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=3)
        count = pool.prewarm(["a", "b", "c", "d", "e"])
        assert count == 3
        assert pool.contains("a") and not pool.contains("d")

    def test_prewarm_costs_no_time_or_io(self, sim):
        pool, disk = make_pool(sim, capacity_pages=8)
        pool.prewarm(["a", "b"])
        assert sim.now == 0.0
        assert disk.reads == 0

    def test_hit_ratio(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=8)
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "p")
        run_fix(sim, pool, ctx, "p")
        run_fix(sim, pool, ctx, "p")
        assert pool.hit_ratio == pytest.approx(2.0 / 3.0)

    def test_make_young_tracked(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=8)
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "p")  # miss: inserted at old head
        run_fix(sim, pool, ctx, "p")  # hit in old: promoted
        assert pool.make_youngs == 1


class TestLazyLRU:
    def test_llu_defers_on_contention(self, sim):
        pool, _disk = make_pool(
            sim, capacity_pages=8, lazy_lru=True, llu_spin_timeout=2.0
        )
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["p", "q"])
        backlog = []
        done = []

        def hog():
            yield from pool.mutex.acquire()
            yield Timeout(50.0)
            pool.mutex.release()

        def toucher():
            yield Timeout(1.0)
            yield from pool.fix_page(ctx, "p", backlog=backlog)
            done.append(sim.now)

        sim.spawn(hog())
        sim.spawn(toucher())
        sim.run()
        # The toucher gave up after the spin timeout instead of waiting 50.
        assert done[0] < 10.0
        assert pool.llu_deferrals == 1
        assert backlog == ["p"]

    def test_llu_applies_backlog_on_next_acquire(self, sim):
        pool, _disk = make_pool(
            sim, capacity_pages=8, lazy_lru=True, llu_spin_timeout=2.0
        )
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["p", "q"])
        # Touch a page that is in the old sublist (so make-young fires)
        # with another resident page in the deferred backlog.
        target = pool._lru.old_pages[0]
        other = "p" if target == "q" else "q"
        backlog = [other]

        def toucher():
            yield from pool.fix_page(ctx, target, backlog=backlog)

        sim.spawn(toucher())
        sim.run()
        assert backlog == []
        assert pool.llu_applied == 1

    def test_llu_skips_evicted_backlog_pages(self, sim):
        pool, _disk = make_pool(
            sim, capacity_pages=8, lazy_lru=True, llu_spin_timeout=2.0
        )
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["q"])
        backlog = ["gone"]  # page no longer resident

        def toucher():
            yield from pool.fix_page(ctx, "q", backlog=backlog)

        sim.spawn(toucher())
        sim.run()
        assert backlog == []
        assert pool.llu_applied == 0

    def test_eager_pool_never_defers(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=8, lazy_lru=False)
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["p"])
        run_fix(sim, pool, ctx, "p")
        assert pool.llu_deferrals == 0


class TestEvictionRace:
    def test_hit_retries_as_miss_if_evicted_during_pause(self, sim):
        """A page evicted while the hitting process pauses must be
        re-read, not promoted as a ghost."""
        pool, disk = make_pool(sim, capacity_pages=2, hit_cost=50.0)
        ctx = TransactionContext(sim, 1, "t")
        pool.prewarm(["p", "q"])
        outcome = {}

        def hitter():
            frame = yield from pool.fix_page(ctx, "p")
            outcome["frame"] = frame

        def evictor():
            # While the hitter pays its 5us hit cost, storm the pool so
            # "p" gets evicted.
            ctx2 = TransactionContext(sim, 2, "t")
            yield Timeout(1.0)
            yield from pool.fix_page(ctx2, "r1")
            yield from pool.fix_page(ctx2, "r2")

        sim.spawn(hitter())
        sim.spawn(evictor())
        sim.run()
        # The hitter ends on a fresh read-in frame for "p", not on the
        # evicted prewarm frame (0) promoted as a ghost.
        assert outcome["frame"] != 0
        assert pool._pages["p"] == outcome["frame"]
        assert pool.misses >= 3  # r1, r2, and the retried "p"

    def test_reader_does_not_dirty_a_frame_re_read_during_its_read(self, sim):
        """A dirtying reader whose frame is evicted and read in again
        while its own disk read is in flight leaves the new frame clean,
        as setting ``dirty`` on the detached frame object always did."""
        pool, _disk = make_pool(sim, capacity_pages=2)
        frames = {}

        def fix(tag, page_id, start, dirty=False):
            ctx = TransactionContext(sim, int(start) + 1, "t")
            yield Timeout(start)
            frames[tag] = yield from pool.fix_page(ctx, page_id, dirty=dirty)

        # The writer reserves "p" and starts its read; meanwhile "r1"
        # fills the pool, "r2" evicts "p" and "p" is read in again.
        sim.spawn(fix("writer", "p", 0.0, dirty=True))
        sim.spawn(fix("r1", "r1", 1.0))
        sim.spawn(fix("r2", "r2", 2.0))
        sim.spawn(fix("again", "p", 3.0))
        sim.run()
        assert frames["writer"] != frames["again"] == pool._pages["p"]
        assert pool._dirty == set()
        ctx = TransactionContext(sim, 9, "t")
        for i in range(4):
            run_fix(sim, pool, ctx, "s%d" % i)
        assert not pool.contains("p")
        assert pool.dirty_writebacks == 0


class TestHitSteps:
    """``lookup`` and ``hit_check``: the plain steps of ``fix_page`` that
    the statement loop runs without its generator."""

    def test_hit_check_after_eviction_reports_the_miss_path(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=2)
        pool.prewarm(["p", "q"])
        frame = pool.lookup("p")
        assert frame == 0 and pool.hits == 1
        # While the hit would pause, read-ins evict "p" and read it back
        # into a new frame: the frame seen at lookup is gone either way.
        ctx = TransactionContext(sim, 1, "t")
        for page_id in ("r1", "r2", "p"):
            run_fix(sim, pool, ctx, page_id)
        assert pool.lookup("p") not in (None, frame)
        assert pool.hit_check("p", frame, dirty=True) == "evicted"
        # Nothing was dirtied on the stale frame's behalf.
        run_fix(sim, pool, ctx, "s1")
        run_fix(sim, pool, ctx, "s2")
        assert not pool.contains("p")
        assert pool.dirty_writebacks == 0
        assert pool.hit_check("p", frame) == "evicted"
        assert pool.lookup("p") is None

    def test_hit_check_promotes_old_pages_once(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=8)
        pool.prewarm(["p"])
        frame = pool.lookup("p")
        # A prewarmed page sits in the old sublist: promote it.
        assert pool.hit_check("p", frame) == "promote"
        ctx = TransactionContext(sim, 1, "t")
        run_fix(sim, pool, ctx, "p")
        assert pool.make_youngs == 1
        # Now at the young head, a hit leaves the list alone.
        assert pool.hit_check("p", frame) == "done"

    def test_lookup_counts_hits_and_misses(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=8)
        pool.prewarm(["p"])
        assert pool.lookup("p") == 0
        assert pool.lookup("absent") is None
        assert (pool.hits, pool.misses) == (1, 1)


class TestInsertOldMany:
    """``insert_old_many`` must equal a loop of ``insert_old`` calls.

    From empty and from a non-empty list, with the same errors.  The
    closed-form fill of an empty list is ``LRUList.fill``, pinned by
    ``TestPrewarmImage``.
    """

    @staticmethod
    def _state(lru):
        return (list(lru._young), list(lru._old), dict(lru._stamp), lru._clock)

    @pytest.mark.parametrize("n", [1, 2, 5, 37, 100, 511, 513, 2000])
    def test_from_empty_matches_insert_old_loop(self, n):
        bulk = LRUList(capacity=4096)
        loop = LRUList(capacity=4096)
        pages = ["p%d" % i for i in range(n)]
        bulk.insert_old_many(pages)
        for page in pages:
            loop.insert_old(page)
        assert self._state(bulk) == self._state(loop)

    @pytest.mark.parametrize("old_ratio", [0.125, 3.0 / 8.0, 0.5, 0.9])
    def test_vector_path_matches_scalar_closed_form(self, old_ratio):
        n = 600
        pages = ["p%d" % i for i in range(n)]
        vector = LRUList(capacity=4096, old_ratio=old_ratio)
        scalar = LRUList(capacity=4096, old_ratio=old_ratio)
        vector.insert_old_many(pages)
        for page in pages:
            scalar.insert_old(page)
        assert self._state(vector) == self._state(scalar)

    def test_non_empty_fallback_matches_loop(self):
        bulk = LRUList(capacity=4096)
        loop = LRUList(capacity=4096)
        for lru in (bulk, loop):
            lru.insert_old("seed-1")
            lru.insert_old("seed-2")
            lru.make_young("seed-1")
        pages = ["p%d" % i for i in range(700)]
        bulk.insert_old_many(pages)
        for page in pages:
            loop.insert_old(page)
        assert self._state(bulk) == self._state(loop)

    def test_duplicate_page_raises_keyerror(self):
        lru = LRUList(capacity=4096)
        with pytest.raises(KeyError):
            lru.insert_old_many(["a", "b", "a"])

    def test_duplicate_against_vector_guard(self):
        # >512 pages with one duplicate raises exactly like insert_old.
        pages = ["p%d" % i for i in range(600)] + ["p0"]
        lru = LRUList(capacity=4096)
        with pytest.raises(KeyError):
            lru.insert_old_many(pages)

    def test_over_capacity_raises(self):
        lru = LRUList(capacity=16)
        with pytest.raises(RuntimeError):
            lru.insert_old_many(["p%d" % i for i in range(17)])


CLUSTER_GOLDEN = "mysql-4shard-2pc-repl/seed7/telemetry-on"


def cluster_golden_digest():
    """Digest of the 4-shard golden cell, built as the goldens script does."""
    script = os.path.join(
        os.path.dirname(__file__), "..", "scripts", "gen_equivalence_goldens.py"
    )
    spec = importlib.util.spec_from_file_location("gen_goldens", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    config = dict(module.golden_configs())[CLUSTER_GOLDEN]
    return run_digest(run_experiment(config))


class TestPrewarmImage:
    """An empty pool's prewarm: shared list orders, per-pool frames.

    Every pool prewarmed from the same page-id tuple (with the same
    capacity and old ratio) copies one cached fill image; the result
    must be exactly what a loop of ``insert_old`` builds.
    """

    @staticmethod
    def _page_ids(**schema):
        return TableCatalog.from_schema(schema or {"a": 9000, "b": 30000}).page_ids()

    @staticmethod
    def _state(pool):
        lru = pool._lru
        return (
            list(pool._pages),
            list(lru._young),
            list(lru._old),
            dict(lru._stamp),
            lru._clock,
        )

    @pytest.mark.parametrize("old_ratio", [0.125, 3.0 / 8.0, 0.5, 0.9])
    def test_image_hit_matches_insert_old_loop(self, sim, old_ratio):
        ids = self._page_ids()
        loop = LRUList(capacity=len(ids) + 5, old_ratio=old_ratio)
        for page_id in ids:
            loop.insert_old(page_id)
        expected = (
            list(ids), list(loop._young), list(loop._old), dict(loop._stamp),
            loop._clock,
        )
        first, _ = make_pool(sim, capacity_pages=len(ids) + 5, old_ratio=old_ratio)
        first.prewarm(ids)
        image = LRUList._fill_image
        second, _ = make_pool(sim, capacity_pages=len(ids) + 5, old_ratio=old_ratio)
        second.prewarm(ids)
        assert LRUList._fill_image is image  # the second pool hit
        assert self._state(first) == expected
        assert self._state(second) == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 37, 513, 2000])
    def test_fill_matches_insert_old_loop(self, n):
        # A list source never enters the image; repeats are skipped.
        pages = ["p%d" % i for i in range(n)] + ["p0", "p1"]
        fill = LRUList(capacity=4096)
        loop = LRUList(capacity=4096)
        inserted = fill.fill(pages)
        for page in dict.fromkeys(pages):
            loop.insert_old(page)
        assert inserted == tuple(dict.fromkeys(pages))
        assert TestInsertOldMany._state(fill) == TestInsertOldMany._state(loop)

    def test_fill_rejects_a_non_empty_list(self):
        lru = LRUList(capacity=16)
        lru.insert_old("a")
        with pytest.raises(RuntimeError):
            lru.fill(["b"])

    def test_frames_and_lists_are_per_pool(self, sim):
        ids = self._page_ids()
        pools = [make_pool(sim, capacity_pages=len(ids))[0] for _ in range(2)]
        for pool in pools:
            pool.prewarm(ids)
        a, b = pools
        assert a._pages is not b._pages and a._dirty is not b._dirty
        assert a._lru._young is not b._lru._young
        assert a._lru._old is not b._lru._old
        untouched = self._state(b)
        page_id = a._lru.old_pages[0]
        run_fix(sim, a, TransactionContext(sim, 1, "t"), page_id, dirty=True)
        assert a._dirty == {page_id} and a.make_youngs == 1
        assert b._dirty == set()
        assert self._state(b) == untouched
        assert a._lru._young != b._lru._young
        assert b._lru._stamp[page_id] == 0

    def test_prewarm_allocates_no_per_page_gc_objects(self, sim):
        ids = tuple(range(50_000))
        pool = make_pool(sim, capacity_pages=len(ids))[0]
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            pool.prewarm(ids)
            after = len(gc.get_objects())
        finally:
            if enabled:
                gc.enable()
        assert len(pool._pages) == len(ids)
        assert after - before < 100

    @pytest.mark.parametrize(
        "change",
        [
            {"capacity_pages": 1},
            {"old_ratio": 0.5},
            {"schema": {"a": 9000, "b": 30001}},
        ],
        ids=["capacity", "old_ratio", "catalog-shape"],
    )
    def test_changed_key_misses(self, sim, change):
        ids = self._page_ids()
        base = {"capacity_pages": len(ids) + 10, "old_ratio": 3.0 / 8.0}
        make_pool(sim, **base)[0].prewarm(ids)
        image = LRUList._fill_image
        assert image[0] is ids
        kwargs = dict(base)
        kwargs["capacity_pages"] += change.get("capacity_pages", 0)
        kwargs["old_ratio"] = change.get("old_ratio", kwargs["old_ratio"])
        other = self._page_ids(**change["schema"]) if "schema" in change else ids
        pool = make_pool(sim, **kwargs)[0]
        pool.prewarm(other)
        assert LRUList._fill_image is not image
        loop = LRUList(capacity=kwargs["capacity_pages"], old_ratio=kwargs["old_ratio"])
        for page_id in other:
            loop.insert_old(page_id)
        assert list(pool._lru._young) == list(loop._young)
        assert list(pool._lru._old) == list(loop._old)

    @pytest.mark.parametrize("source", ["list", "over-capacity"])
    def test_uncacheable_sources_leave_the_image(self, sim, source):
        ids = self._page_ids()
        make_pool(sim, capacity_pages=len(ids))[0].prewarm(ids)
        image = LRUList._fill_image
        if source == "list":
            pool = make_pool(sim, capacity_pages=len(ids))[0]
            pool.prewarm(list(ids))
        else:
            pool = make_pool(sim, capacity_pages=len(ids) - 7)[0]
            pool.prewarm(ids)
        assert LRUList._fill_image is image
        loop = LRUList(capacity=pool.config.capacity_pages)
        for page_id in ids[: pool.config.capacity_pages]:
            loop.insert_old(page_id)
        assert list(pool._pages) == list(ids[: pool.config.capacity_pages])
        assert list(pool._lru._young) == list(loop._young)
        assert list(pool._lru._old) == list(loop._old)

    def test_non_empty_pool_prewarms_incrementally(self, sim):
        pool, _disk = make_pool(sim, capacity_pages=700)
        run_fix(sim, pool, TransactionContext(sim, 1, "t"), "read-first")
        ids = ["p%d" % i for i in range(1000)] + ["read-first"]
        assert pool.prewarm(ids) == 700
        loop = LRUList(capacity=700)
        for page_id in ["read-first"] + ids[:699]:
            loop.insert_old(page_id)
        assert list(pool._pages) == ["read-first"] + ids[:699]
        assert list(pool._lru._young) == list(loop._young)
        assert list(pool._lru._old) == list(loop._old)

    def test_cluster_digest_warm_equals_cold(self):
        warm = [cluster_golden_digest() for _ in range(2)]
        cold = hash_seed_outputs(
            "import sys, json; sys.path[:0] = json.loads(sys.argv[1]); "
            "from tests.test_bufferpool import cluster_golden_digest; "
            "print(cluster_golden_digest())",
            hash_seeds=("0",),
        )[0].strip()
        assert warm == [cold, cold]
