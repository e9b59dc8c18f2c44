"""End-to-end engine behaviour on small runs."""

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.engines.mysql import MySQLConfig, mysql_callgraph
from repro.engines.postgres import PostgresConfig, postgres_callgraph
from repro.engines.voltdb import VoltDBConfig, voltdb_callgraph
from repro.wal.mysql_log import FlushPolicy


def small_mysql(n_txns=200, **engine_kwargs):
    return ExperimentConfig(
        engine="mysql",
        workload="tpcc",
        workload_kwargs={"warehouses": 8},
        engine_config=MySQLConfig(**engine_kwargs),
        seed=11,
        n_txns=n_txns,
        rate_tps=500.0,
        warmup_fraction=0.0,
    )


class TestMySQLEngine:
    def test_all_transactions_complete(self):
        result = run_experiment(small_mysql())
        assert len(result.log) == 200
        assert result.failed_txns == 0
        assert all(t.latency > 0 for t in result.traces)

    def test_sustains_offered_rate(self):
        result = run_experiment(small_mysql())
        assert result.throughput_tps == pytest.approx(500.0, rel=0.15)

    def test_locks_all_released_at_end(self):
        result = run_experiment(small_mysql())
        assert result.engine.lockmgr._objects == {}
        assert result.engine.lockmgr._held == {}

    def test_traces_have_instrumented_factors(self):
        config = small_mysql()
        config = config.replaced(instrumented=frozenset({"do_command"}))
        result = run_experiment(config)
        trace = result.traces[0]
        assert ("do_command", "<root>") in trace.durations

    def test_read_only_txns_skip_redo(self):
        result = run_experiment(small_mysql())
        redo = result.engine.redo
        committed_writers = sum(
            1
            for t in result.traces
            if t.txn_type not in ("OrderStatus", "StockLevel")
        )
        assert len(redo._commits) == committed_writers

    def test_lazy_flush_policy_wired(self):
        result = run_experiment(small_mysql(flush_policy=FlushPolicy.LAZY_WRITE))
        redo = result.engine.redo
        assert redo.config.policy is FlushPolicy.LAZY_WRITE

    def test_prewarm_gives_high_hit_ratio(self):
        result = run_experiment(small_mysql())
        assert result.engine.pool.hit_ratio > 0.9

    def test_no_prewarm_cold_misses(self):
        result = run_experiment(small_mysql(prewarm=False))
        assert result.engine.pool.misses > 100

    def test_deadlocks_are_retried_not_failed(self):
        # Tiny warehouse count + upgrades make deadlocks likely.
        config = ExperimentConfig(
            engine="mysql",
            workload="tpcc",
            workload_kwargs={"warehouses": 1, "warehouse_zipf_theta": None},
            engine_config=MySQLConfig(),
            seed=3,
            n_txns=400,
            rate_tps=800.0,
            warmup_fraction=0.0,
        )
        result = run_experiment(config)
        # Whether or not deadlocks occurred, nothing may be lost.
        assert len(result.log) == 400
        committed = sum(1 for t in result.log.traces if t.committed)
        assert committed + result.failed_txns == 400

    def test_vats_scheduler_selected(self):
        result = run_experiment(small_mysql(scheduler="VATS"))
        assert result.engine.lockmgr.scheduler.name == "VATS"


class TestPostgresEngine:
    def small(self, n_txns=200, **kwargs):
        return ExperimentConfig(
            engine="postgres",
            workload="tpcc",
            workload_kwargs={"warehouses": 8},
            engine_config=PostgresConfig(**kwargs),
            seed=11,
            n_txns=n_txns,
            rate_tps=500.0,
            warmup_fraction=0.0,
        )

    def test_all_transactions_complete(self):
        result = run_experiment(self.small())
        assert len(result.log) == 200
        assert result.failed_txns == 0

    def test_wal_commits_match_writers(self):
        result = run_experiment(self.small())
        writers = sum(
            1 for t in result.traces if t.txn_type not in ("OrderStatus", "StockLevel")
        )
        assert len(result.engine.wal._commits) == writers
        assert result.engine.wal.lost_on_crash() == []

    def test_parallel_wal_uses_both_streams(self):
        result = run_experiment(self.small(parallel_wal=True))
        rounds = [w.flush_rounds for w in result.engine.wal.writers]
        assert all(r > 0 for r in rounds)

    def test_block_size_configurable(self):
        result = run_experiment(self.small(wal_block_size=32768))
        assert result.engine.wal.config.block_size == 32768


class TestVoltDBEngine:
    def small(self, n_txns=200, **kwargs):
        return ExperimentConfig(
            engine="voltdb",
            workload="tpcc",
            workload_kwargs={"warehouses": 8},
            engine_config=VoltDBConfig(**kwargs),
            seed=11,
            n_txns=n_txns,
            rate_tps=500.0,
            warmup_fraction=0.0,
        )

    def test_all_transactions_complete(self):
        result = run_experiment(self.small())
        assert len(result.log) == 200
        assert all(t.committed for t in result.log.traces)

    def test_intervals_recorded(self):
        result = run_experiment(self.small())
        # VoltDB traces span queue wait + execution; latency >= busy time.
        assert all(t.latency > 0 for t in result.traces)

    def test_queue_wait_factor_recorded_when_instrumented(self):
        config = self.small().replaced(
            instrumented=frozenset({"transaction", "[waiting in queue]"})
        )
        result = run_experiment(config)
        trace = result.traces[0]
        assert ("transaction", "<root>") in trace.durations
        keys = [k for k in trace.durations if k[0] == "[waiting in queue]"]
        assert keys

    def test_more_workers_less_queueing(self):
        few = run_experiment(self.small(n_workers=1))
        many = run_experiment(self.small(n_workers=16))
        assert sum(many.engine.queue_waits) < sum(few.engine.queue_waits)


class TestCallGraphs:
    @pytest.mark.parametrize(
        "factory, root",
        [
            (mysql_callgraph, "do_command"),
            (postgres_callgraph, "exec_simple_query"),
            (voltdb_callgraph, "transaction"),
        ],
    )
    def test_roots_and_acyclicity(self, factory, root):
        graph = factory()
        assert graph.root == root
        assert graph.graph_height >= 2  # deep enough for specificity
        # height computation implies acyclicity
        for name in graph.functions:
            assert graph.height(name) >= 0

    def test_mysql_graph_names_paper_functions(self):
        graph = mysql_callgraph()
        for name in (
            "os_event_wait",
            "lock_wait_suspend_thread",
            "buf_pool_mutex_enter",
            "row_ins_clust_index_entry_low",
            "btr_cur_search_to_nth_level",
            "fil_flush",
        ):
            assert name in graph

    def test_postgres_graph_names_paper_functions(self):
        graph = postgres_callgraph()
        assert "LWLockAcquireOrWait" in graph
        assert "ReleasePredicateLocks" in graph


class TestUnknownProbeNames:
    """A typo in ``instrumented`` fails the run instead of profiling nothing."""

    @staticmethod
    def _config(engine, **overrides):
        return ExperimentConfig(
            engine=engine,
            workload="tpcc",
            workload_kwargs={"warehouses": 2},
            seed=3,
            n_txns=10,
            warmup_fraction=0.0,
            **overrides,
        )

    def test_mysql_lists_every_unknown_name(self):
        config = self._config(
            "mysql", instrumented=("do_command", "row_search", "lock_wait")
        )
        with pytest.raises(ValueError, match="lock_wait, row_search$"):
            run_experiment(config)

    def test_postgres_rejects_a_mysql_name(self):
        config = self._config("postgres", instrumented=("ExecutorRun", "fil_flush"))
        with pytest.raises(ValueError, match="postgres call graph: fil_flush$"):
            run_experiment(config)

    def test_voltdb_rejects_an_unknown_name(self):
        config = self._config("voltdb", instrumented=("transaction", "queue_wait"))
        with pytest.raises(ValueError, match="voltdb call graph: queue_wait$"):
            run_experiment(config)

    def test_layer_frames_stay_allowed(self):
        config = self._config(
            "mysql",
            instrumented=(
                "do_command", "dist_prepare_wait", "repl_ack_wait",
                "recovery_replay",
            ),
        )
        assert len(run_experiment(config).log) == 10
