"""Differential testing: zero-cost tracing markers change nothing.

Each SQL engine runs one statement loop whose call-graph frames are
inline tracer markers, and VoltDB attributes its time with manual
records.  Hypothesis generates random workload programs — benchmark,
seed, arrival rate, worker count, topology — and runs each one twice:
once uninstrumented and once with every engine factor instrumented at
``probe_cost=0``.  Zero-cost probes may not change anything observable,
so the full run digests — latency sequence, final clock, metrics
snapshot, abort/fault counts — must be byte-identical.

Topologies cover a single node, a 2-shard 2PC cluster (the markers run
in branch mode) and a single node with one semi-sync replica.

This is the engine-level analogue of ``test_kernel_differential``: the
goldens pin a handful of fixed macro cells, these tests walk the
configuration space around them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.engines.mysql import MySQLConfig, mysql_callgraph
from repro.engines.postgres import PostgresConfig
from repro.engines.voltdb import VoltDBConfig
from repro.replication import ReplicationConfig

#: Every traced factor in each engine: instrumenting all of them opens
#: every marker on every statement.
MYSQL_PROBES = tuple(mysql_callgraph().functions)
POSTGRES_PROBES = (
    "exec_simple_query", "PortalRun", "ExecutorRun", "index_fetch",
    "PredicateLockTuple", "heap_lock_tuple", "LockAcquireExtended",
    "ProcSleep", "CommitTransaction", "RecordTransactionCommit",
    "XLogFlush", "ReleasePredicateLocks",
)
VOLTDB_PROBES = (
    "transaction", "execute_procedure", "init_procedure",
    "run_plan_fragments", "[waiting in queue]",
)

#: Small benchmarks with different op shapes: TPC-C mixes reads, writes
#: and explicit lock modes; YCSB is key-value point ops; TATP is short
#: read-mostly transactions.
_workloads = st.sampled_from(
    [
        ("tpcc", {"warehouses": 2}),
        ("ycsb", {}),
        ("tatp", {}),
    ]
)
_seeds = st.integers(min_value=0, max_value=2**16)
_n_txns = st.integers(min_value=20, max_value=50)
_rates = st.sampled_from([200.0, 500.0, 2_000.0])
_topologies = st.sampled_from(["single", "2pc", "semi-sync"])


def _config(engine, workload, topology, **fields):
    name, kwargs = workload
    kwargs = dict(kwargs)
    if topology == "2pc":
        fields["num_shards"] = 2
        if name == "tpcc":
            kwargs["remote_payment_prob"] = 0.15
    elif topology == "semi-sync":
        fields["replicas"] = 1
        fields["replication"] = ReplicationConfig(mode="semi_sync")
    return ExperimentConfig(
        engine=engine,
        workload=name,
        workload_kwargs=kwargs,
        warmup_fraction=0.0,
        **fields,
    )


def _digests(config, probes):
    fast = run_digest(run_experiment(config))
    traced = run_digest(
        run_experiment(config.replaced(instrumented=probes, probe_cost=0.0))
    )
    return fast, traced


@settings(max_examples=10, deadline=None)
@given(
    workload=_workloads,
    seed=_seeds,
    n_txns=_n_txns,
    rate=_rates,
    topology=_topologies,
    buffer_pool_fraction=st.sampled_from([1.2, 0.05]),
    lazy_lru=st.booleans(),
)
def test_mysql_zero_cost_markers_are_invisible(
    workload, seed, n_txns, rate, topology, buffer_pool_fraction, lazy_lru
):
    # A pool far below the working set exercises the miss, eviction and
    # make-young markers; Lazy LRU Update the spin-lock deferral path.
    config = _config(
        "mysql",
        workload,
        topology,
        engine_config=MySQLConfig(
            n_workers=8,
            buffer_pool_fraction=buffer_pool_fraction,
            lazy_lru=lazy_lru,
        ),
        seed=seed,
        n_txns=n_txns,
        rate_tps=rate,
    )
    fast, traced = _digests(config, MYSQL_PROBES)
    assert fast == traced


@settings(max_examples=10, deadline=None)
@given(
    workload=_workloads,
    seed=_seeds,
    n_txns=_n_txns,
    rate=_rates,
    topology=_topologies,
)
def test_postgres_fast_path_matches_traced(workload, seed, n_txns, rate, topology):
    config = _config(
        "postgres",
        workload,
        topology,
        engine_config=PostgresConfig(n_workers=8),
        seed=seed,
        n_txns=n_txns,
        rate_tps=rate,
    )
    fast, traced = _digests(config, POSTGRES_PROBES)
    assert fast == traced


@settings(max_examples=10, deadline=None)
@given(
    workload=_workloads,
    seed=_seeds,
    n_txns=_n_txns,
    rate=_rates,
    n_workers=st.integers(min_value=1, max_value=4),
)
def test_voltdb_fast_path_matches_traced(workload, seed, n_txns, rate, n_workers):
    config = _config(
        "voltdb",
        workload,
        "single",
        engine_config=VoltDBConfig(n_workers=n_workers),
        seed=seed,
        n_txns=n_txns,
        rate_tps=rate,
    )
    fast, traced = _digests(config, VOLTDB_PROBES)
    assert fast == traced
