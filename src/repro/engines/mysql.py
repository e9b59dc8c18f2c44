"""The simulated MySQL/InnoDB engine (thread-per-connection).

Composes the full substrate stack — 2PL lock manager with pluggable
scheduler, young/old buffer pool (optionally Lazy LRU Update), redo log
with the three ``innodb_flush_log_at_trx_commit`` policies, and B-tree
storage — under the call graph of the real server, so TProfiler's
profiles name the functions Table 1 names:

    do_command
      dispatch_command
        mysql_execute_command
          row_search_for_mysql        (selects)
            btr_cur_search_to_nth_level
              buf_page_make_young -> buf_pool_mutex_enter [make_young]
                                     buf_LRU_make_block_young
              buf_read_page       -> buf_pool_mutex_enter [read_page]
                                     buf_LRU_get_free_block
            sel_set_rec_lock -> lock_rec_lock
              lock_wait_suspend_thread -> os_event_wait   [site A]
          row_upd_step                (updates)
            lock_rec_lock -> lock_wait_suspend_thread -> os_event_wait [B]
            btr_cur_search_to_nth_level ...
          row_ins                     (inserts)
            lock_rec_lock ...
            row_ins_clust_index_entry_low
              btr_cur_search_to_nth_level ...
          innobase_commit -> trx_commit
            log_write_up_to -> fil_flush

Every attempt and every 2PC branch runs one flat statement loop
(``_mysql_loop``) with these frames as inline tracer markers, so an
instrumented run executes the same generator as an uninstrumented one;
the buffer pool carries its own markers, the redo log wraps its
``log_write_up_to`` / ``fil_flush`` generators with ``Tracer.traced``.
The loop owns no cost policy and reads no other module's private
fields: CPU bursts, the B-tree descent and insert paths, the buffer
pool's hit protocol and the lock_sys scan are each priced by the
substrate that owns them, through public steps.

Locks are held to commit (strict 2PL); a deadlock or lock-wait timeout
aborts the attempt, releases everything, and retries under the base
engine's :class:`~repro.faults.RetryPolicy` (exponential backoff with
jitter from the dedicated ``mysql.retry`` stream) — latency is measured
from first submission to final commit, as the paper's client does.
"""

from repro.core.callgraph import CallGraph
from repro.engines.base import Engine
from repro.exec.schema import register_config
from repro.faults.retry import RetryPolicy
from repro.lockmgr.locks import LockMode
from repro.lockmgr.manager import LockManager, RequestStatus
from repro.lockmgr.scheduling import make_scheduler
from repro.bufferpool.pool import BufferPool, BufferPoolConfig
from repro.sim.disk import Disk, DiskConfig
from repro.sim.rand import LogNormal
from repro.sim.resources import CoreSet
from repro.storage.tables import TableCatalog
from repro.wal.mysql_log import FlushPolicy, RedoLog, RedoLogConfig


#: The per-connection frames above the statements; 2PC branches have none.
_SESSION_FRAMES = ("do_command", "dispatch_command", "mysql_execute_command")


def mysql_callgraph():
    """The static call graph TProfiler navigates."""
    edges = {
        "do_command": ["dispatch_command"],
        "dispatch_command": ["mysql_execute_command"],
        "mysql_execute_command": [
            "row_search_for_mysql",
            "row_upd_step",
            "row_ins",
            "innobase_commit",
        ],
        "row_search_for_mysql": [
            "btr_cur_search_to_nth_level",
            "sel_set_rec_lock",
        ],
        "sel_set_rec_lock": ["lock_rec_lock"],
        "row_upd_step": ["lock_rec_lock", "btr_cur_search_to_nth_level"],
        "row_ins": ["lock_rec_lock", "row_ins_clust_index_entry_low"],
        "row_ins_clust_index_entry_low": ["btr_cur_search_to_nth_level"],
        "lock_rec_lock": ["lock_wait_suspend_thread"],
        "lock_wait_suspend_thread": ["os_event_wait"],
        "btr_cur_search_to_nth_level": ["buf_page_make_young", "buf_read_page"],
        "buf_page_make_young": [
            "buf_pool_mutex_enter",
            "buf_LRU_make_block_young",
        ],
        "buf_read_page": ["buf_pool_mutex_enter", "buf_LRU_get_free_block"],
        "innobase_commit": ["trx_commit"],
        "trx_commit": ["log_write_up_to"],
        "log_write_up_to": ["fil_flush"],
    }
    return CallGraph.from_dict("do_command", edges)


@register_config
class MySQLConfig:
    """Engine configuration (times in microseconds)."""

    def __init__(
        self,
        scheduler="FCFS",
        strict_vats_arrival=False,
        n_workers=64,
        buffer_pool_fraction=1.2,
        buffer_pool_pages=None,
        lazy_lru=False,
        llu_spin_timeout=10.0,
        flush_policy=FlushPolicy.EAGER_FLUSH,
        group_commit=True,
        log_disk=None,
        data_disk=None,
        n_cores=16,
        statement_cpu=300.0,
        statement_cpu_cv=0.5,
        row_cpu=2.0,
        commit_cpu=6.0,
        prewarm=True,
        lock_sys_bookkeeping=True,
        lock_wait_timeout=10_000_000.0,
        max_attempts=12,
        backoff_range=(500.0, 2000.0),
        max_queue_depth=None,
        txn_deadline=None,
    ):
        self.scheduler = scheduler
        self.strict_vats_arrival = strict_vats_arrival
        self.n_workers = n_workers
        self.buffer_pool_fraction = buffer_pool_fraction
        self.buffer_pool_pages = buffer_pool_pages
        self.lazy_lru = lazy_lru
        self.llu_spin_timeout = llu_spin_timeout
        self.flush_policy = flush_policy
        self.group_commit = group_commit
        self.log_disk = log_disk or DiskConfig.battery_backed()
        self.data_disk = data_disk or DiskConfig.page_cache()
        self.n_cores = n_cores
        self.statement_cpu = statement_cpu
        self.statement_cpu_cv = statement_cpu_cv
        self.row_cpu = row_cpu
        self.commit_cpu = commit_cpu
        self.prewarm = prewarm
        self.lock_sys_bookkeeping = lock_sys_bookkeeping
        self.lock_wait_timeout = lock_wait_timeout
        self.max_attempts = max_attempts
        self.backoff_range = backoff_range
        self.max_queue_depth = max_queue_depth
        self.txn_deadline = txn_deadline


class MySQLEngine(Engine):
    name = "mysql"
    supports_branches = True

    def __init__(self, sim, tracer, workload, streams, config=None):
        self.config = config or MySQLConfig()
        cfg = self.config
        super().__init__(
            sim,
            tracer,
            cfg.n_workers,
            retry_policy=RetryPolicy(
                max_attempts=cfg.max_attempts,
                base_backoff=cfg.backoff_range[0],
                max_backoff=cfg.backoff_range[1],
            ),
            retry_rng=streams.stream("mysql.retry"),
            max_queue_depth=cfg.max_queue_depth,
            txn_deadline=cfg.txn_deadline,
        )
        self.workload = workload
        self.catalog = TableCatalog.from_schema(workload.schema)
        self.rng = streams.stream("mysql.engine")
        scheduler = make_scheduler(
            self.config.scheduler,
            rng=streams.stream("mysql.scheduler"),
            strict_arrival=self.config.strict_vats_arrival,
        )
        self.lockmgr = LockManager(
            sim,
            scheduler,
            wait_timeout=self.config.lock_wait_timeout,
            bookkeeping=self.config.lock_sys_bookkeeping,
            release_rng=streams.stream("mysql.lockmgr_release"),
        )
        self.data_disk = Disk(
            sim, streams.stream("mysql.data_disk"), self.config.data_disk, "data"
        )
        self.log_disk = Disk(
            sim, streams.stream("mysql.log_disk"), self.config.log_disk, "log"
        )
        capacity = self.config.buffer_pool_pages
        if capacity is None:
            capacity = max(
                16, int(self.catalog.total_pages * self.config.buffer_pool_fraction)
            )
        pool_config = BufferPoolConfig(
            capacity_pages=capacity,
            lazy_lru=self.config.lazy_lru,
            llu_spin_timeout=self.config.llu_spin_timeout,
        )
        self.pool = BufferPool(sim, tracer, self.data_disk, pool_config)
        if self.config.prewarm:
            self.pool.prewarm(self.catalog.page_ids())
        self.cpu = CoreSet(sim, self.config.n_cores)
        self._stmt_cpu_dist = LogNormal(
            self.config.statement_cpu, self.config.statement_cpu_cv
        )
        self.redo = RedoLog(
            sim,
            tracer,
            self.log_disk,
            RedoLogConfig(
                policy=self.config.flush_policy,
                group_commit=self.config.group_commit,
            ),
        )

    # ------------------------------------------------------------------
    # Transaction execution
    # ------------------------------------------------------------------

    def _attempt(self, worker, ctx, spec):
        """One attempt (returns a generator); retries run in the base loop."""
        return self._mysql_loop(worker, ctx, spec.ops, None)

    def _mysql_loop(self, worker, ctx, ops, branch):
        """Generator: the statement loop; True on commit (or branch success).

        The one body every run executes — instrumented or not, single
        node or 2PC branch.  The call graph's frames are inline tracer
        markers (:mod:`repro.core.tracing`) guarded by booleans computed
        once per attempt, so an uninstrumented statement pays only those
        tests.  Each cost policy lives in the substrate that owns it; the
        loop asks for it through plain (non-generator) steps and yields
        the delay itself — :meth:`CoreSet.book` for a CPU burst,
        :meth:`BTreeIndex.descent_path` and :meth:`BTreeIndex.insert_cost`,
        :meth:`BufferPool.lookup` and :meth:`BufferPool.hit_check` for a
        page access — because the kernel resumes every yield through each
        frame of a delegation chain, and chain depth is the largest
        wall-clock cost of a run.  Only the paths that can block are
        generators, with markers of their own: the record lock
        (:meth:`LockManager.request_timed`) and its wait, and the buffer
        pool's miss and make-young paths.

        With a ``branch`` (a 2PC participant) the loop opens no
        ``do_command`` / ``dispatch_command`` / ``mysql_execute_command``
        frames, runs no commit, keeps its locks on failure (the branch
        release hook frees them) and sets ``branch.redo_bytes``.
        """
        tracer = self.tracer
        charge = tracer.probe_charge()
        instrumented = tracer.instrumented
        enter = tracer.enter
        leave = tracer.exit
        session = branch is None
        session_names = [
            name for name in _SESSION_FRAMES if session and name in instrumented
        ]
        on_select = "row_search_for_mysql" in instrumented
        on_update = "row_upd_step" in instrumented
        on_insert = "row_ins" in instrumented
        on_search = "btr_cur_search_to_nth_level" in instrumented
        on_sel_lock = "sel_set_rec_lock" in instrumented
        on_lock = "lock_rec_lock" in instrumented
        on_clust = "row_ins_clust_index_entry_low" in instrumented
        on_commit = "innobase_commit" in instrumented
        on_trx = "trx_commit" in instrumented
        redo_bytes = 0
        check = self.check
        book = self.cpu.book
        sample = self._stmt_cpu_dist.sample
        rng = self.rng
        tables = self.catalog.tables
        pool = self.pool
        lookup = pool.lookup
        hit_check = pool.hit_check
        hit_cost = pool.hit_cost
        backlog = worker.llu_backlog
        lockmgr = self.lockmgr
        request_timed = lockmgr.request_timed
        row_cpu = self.config.row_cpu
        GRANTED = RequestStatus.GRANTED
        session_frames = []
        for name in session_names:
            yield from charge
            session_frames.append(enter(ctx, name))
        ok = True
        for op in ops:
            # Parse/plan/execute CPU runs on a finite core set: near
            # saturation, CPU queueing stretches statements and therefore
            # lock hold times — the paper's hardware regime.
            cost = sample(rng)
            if cost > 0:
                yield book(cost)
            table = tables[op.table]
            kind = op.kind
            key = op.key
            if kind == "select":
                on_stmt = on_select
                if on_stmt:
                    yield from charge
                    stmt_frame = enter(ctx, "row_search_for_mysql")
                dirty = False
            else:
                if kind == "update":
                    on_stmt = on_update
                    stmt = "row_upd_step"
                else:
                    on_stmt = on_insert
                    stmt = "row_ins"
                if on_stmt:
                    yield from charge
                    stmt_frame = enter(ctx, stmt)
                # Updates and inserts take the record lock (site B)
                # before the descent.
                if on_lock:
                    yield from charge
                    lock_frame = enter(ctx, "lock_rec_lock")
                request = yield from request_timed(
                    ctx, table.lock_id(key), LockMode.X
                )
                if request.status is not GRANTED:
                    ok = yield from self._lock_wait(ctx, request, "B")
                if on_lock:
                    yield from charge
                    leave(ctx, lock_frame)
                dirty = True
                if ok and kind == "insert":
                    table.inserts += 1
                    if on_clust:
                        yield from charge
                        clust_frame = enter(ctx, "row_ins_clust_index_entry_low")
            if ok:
                # The B-tree descent: one buffer-pool access per level,
                # the steps of BufferPool.fix_page without its generator;
                # only the leaf is dirtied.
                if on_search:
                    yield from charge
                    search_frame = enter(ctx, "btr_cur_search_to_nth_level")
                index_obj = table.index
                level_cost = index_obj.level_cpu_cost
                path = index_obj.descent_path(key)
                leaf = path[-1]
                for page_id in path:
                    dirty_here = dirty and page_id == leaf
                    yield level_cost
                    while True:
                        frame = lookup(page_id)
                        if frame is None:
                            yield from pool.read_in(ctx, page_id, dirty_here)
                            break
                        yield hit_cost
                        state = hit_check(page_id, frame, dirty_here)
                        if state != "evicted":
                            if state == "promote":
                                yield from pool.make_young(ctx, page_id, backlog)
                            break
                if on_search:
                    yield from charge
                    leave(ctx, search_frame)
                if kind == "select":
                    yield row_cpu
                    if op.lock is not None:
                        # sel_set_rec_lock -> lock_rec_lock (site A).
                        if on_sel_lock:
                            yield from charge
                            sel_frame = enter(ctx, "sel_set_rec_lock")
                        if on_lock:
                            yield from charge
                            lock_frame = enter(ctx, "lock_rec_lock")
                        mode = LockMode.X if op.lock == "X" else LockMode.S
                        request = yield from request_timed(
                            ctx, table.lock_id(key), mode
                        )
                        if request.status is not GRANTED:
                            ok = yield from self._lock_wait(ctx, request, "A")
                        if on_lock:
                            yield from charge
                            leave(ctx, lock_frame)
                        if on_sel_lock:
                            yield from charge
                            leave(ctx, sel_frame)
                elif kind == "update":
                    yield row_cpu
                else:
                    yield index_obj.insert_cost(rng)
                    if on_clust:
                        yield from charge
                        leave(ctx, clust_frame)
            if on_stmt:
                yield from charge
                leave(ctx, stmt_frame)
            if not ok:
                break
            redo_bytes += table.redo_bytes(kind)
            if check.enabled:
                check.record_op(ctx, op, op.lock is not None)
        if not session:
            if ok:
                branch.redo_bytes = redo_bytes
            return ok
        if ok:
            if on_commit:
                yield from charge
                commit_frame = enter(ctx, "innobase_commit")
            yield self.config.commit_cpu
            if redo_bytes:
                if on_trx:
                    yield from charge
                    trx_frame = enter(ctx, "trx_commit")
                yield from self.redo.commit(ctx, redo_bytes)
                if on_trx:
                    yield from charge
                    leave(ctx, trx_frame)
            if on_commit:
                yield from charge
                leave(ctx, commit_frame)
            repl = self.replication
            if repl is not None and redo_bytes:
                # Lossless semisync (AFTER_SYNC): the ack wait happens
                # with locks still held, so replication latency stretches
                # lock hold times — a cross-layer coupling the variance
                # tree surfaces as repl_ack_wait feeding lock waits
                # downstream.
                yield from repl.commit_barrier(ctx, redo_bytes)
        yield from lockmgr.release_all_timed(ctx)
        for frame in reversed(session_frames):
            yield from charge
            leave(ctx, frame)
        return ok

    def _lock_wait(self, ctx, request, site):
        """Generator: the slow path of ``lock_rec_lock``; True if granted.

        A waiting request suspends in ``lock_wait_suspend_thread`` ->
        ``os_event_wait``; ``site`` is ``"A"`` for locking selects and
        ``"B"`` for updates and inserts, so the two waits show up as
        separate factors.  A deadlock or a timeout sets
        ``ctx.abort_reason``.
        """
        if request.status is RequestStatus.WAITING:
            tracer = self.tracer
            charge = tracer.probe_charge()
            on_suspend = "lock_wait_suspend_thread" in tracer.instrumented
            on_wait = "os_event_wait" in tracer.instrumented
            if on_suspend:
                yield from charge
                suspend_frame = tracer.enter(ctx, "lock_wait_suspend_thread", site)
            if on_wait:
                yield from charge
                wait_frame = tracer.enter(ctx, "os_event_wait", site)
            yield from self.lockmgr.wait(request)
            if on_wait:
                yield from charge
                tracer.exit(ctx, wait_frame)
            if on_suspend:
                yield from charge
                tracer.exit(ctx, suspend_frame)
        status = request.status
        if status is RequestStatus.GRANTED:
            return True
        ctx.abort_reason = (
            "deadlock" if status is RequestStatus.DEADLOCK else "timeout"
        )
        return False

    # ------------------------------------------------------------------
    # 2PC participant branches (XA)
    # ------------------------------------------------------------------

    #: The XA prepare / commit record appended per participant round.
    XA_RECORD_BYTES = 64

    def _branch_execute(self, worker, ctx, branch):
        """One participant slice: the statement loop in branch mode —
        no commit, and locks stay held until the global decision."""
        return self._mysql_loop(worker, ctx, branch.spec.ops, branch)

    def _branch_prepare(self, ctx, branch):
        # XA PREPARE: the branch's redo plus a prepare record must be on
        # stable storage before the yes vote leaves the node.
        yield self.config.commit_cpu
        if branch.redo_bytes:
            yield from self.redo.commit(
                ctx, branch.redo_bytes + self.XA_RECORD_BYTES
            )

    def _branch_commit(self, ctx, branch):
        # XA COMMIT: the decision is sealed with a second forced record —
        # the per-participant cost that makes distributed commit waits a
        # first-order variance source.
        yield self.config.commit_cpu
        if branch.redo_bytes:
            yield from self.redo.commit(ctx, self.XA_RECORD_BYTES)

    def _branch_release(self, ctx, branch):
        yield from self.lockmgr.release_all_timed(ctx)

    # ------------------------------------------------------------------
    # Node crash and recovery hooks (repro.recovery)
    # ------------------------------------------------------------------

    def _crash_volatile(self, report):
        # Redo tail past the durable LSN, the lock table and every cached
        # page die with the server; the devices themselves survive.
        lost = self.redo.crash()
        self.lockmgr.crash()
        self.pool.crash()
        return lost

    def _held_locks(self, ctx):
        return self.lockmgr.held_locks(ctx)

    def _recovery_replay(self):
        # ARIES analysis + redo collapsed to a sequential scan of the
        # durable redo prefix on the log device.
        replayed = yield from self.log_disk.read_sequential(
            int(self.redo.durable_lsn)
        )
        return replayed
