"""Distributed waits appearing in the variance tree (cluster smoke).

The cluster's promise is methodological: sharding and 2PC add *new*
variance sources (coordinator prepare/commit waits over a heavy-tailed
network), and the top-down tree must attribute them with the same
machinery that attributes lock waits and log flushes.  These smoke tests
sweep the cross-shard fraction (remote TPC-C Payments, 0% -> 30%) and
check the methodology's directional claims:

- the share of total latency charged to the ``dist_*`` coordinator
  frames grows strictly monotonically with the cross-shard fraction
  (time shares are stable at tiny N where variance shares are noisy),
  and
- by 30% remote payments, distributed commit machinery is a first-order
  factor — a ``dist_*`` frame ranks in the variance tree's top-3
  non-wrapper names alongside the single-node champions.
"""

import json

import pytest

from repro.bench.runner import ExperimentConfig, run_experiment
from repro.core.variance_tree import VarianceTree

pytestmark = pytest.mark.smoke_bench

N_TXNS = 600

MYSQL_COMMIT_PATH = (
    "do_command",
    "dispatch_command",
    "mysql_execute_command",
    "innobase_commit",
    "trx_commit",
    "log_write_up_to",
    "fil_flush",
)

REMOTE_SWEEP = (0.0, 0.1, 0.2, 0.3)


def cluster_config(remote_payment_prob, **overrides):
    fields = dict(
        engine="mysql",
        workload="tpcc",
        workload_kwargs={
            "warehouses": 16,
            "remote_payment_prob": remote_payment_prob,
            "remote_warehouse_prob": 0.0,
        },
        seed=31,
        n_txns=N_TXNS,
        rate_tps=200.0,
        warmup_fraction=0.0,
        instrumented=MYSQL_COMMIT_PATH,
        num_shards=4,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


DIST_KEYS = (("dist_prepare_wait", "cluster"), ("dist_commit_wait", "cluster"))

#: The outermost frames measure whole-transaction latency (each nests
#: the entire commit path), so they trivially top every ranking; the
#: interesting competition is among the factors below them.
WRAPPER_NAMES = {"do_command", "dispatch_command", "mysql_execute_command"}


def dist_time_share(result):
    """Fraction of total post-warmup latency spent in coordinator waits."""
    total = sum(t.latency for t in result.traces)
    dist = sum(
        sum(t.durations.get(key, 0.0) for key in DIST_KEYS)
        for t in result.traces
    )
    return dist / total


def test_dist_wait_share_grows_with_cross_shard_fraction():
    rows = []
    for prob in REMOTE_SWEEP:
        result = run_experiment(cluster_config(prob))
        cross = result.cluster_stats["cross_shard_txns"]
        rows.append((prob, cross, dist_time_share(result), result))
    print()
    for prob, cross, share, _result in rows:
        print(
            "  remote=%4.0f%%  cross_shard=%3d  dist time share=%6.2f%%"
            % (100.0 * prob, cross, 100.0 * share)
        )
    # 0% remote payments -> no cross-shard transactions, zero dist share.
    assert rows[0][1] == 0
    assert rows[0][2] == 0.0
    # More cross-shard transactions, and strictly more of the latency
    # budget paid to the coordinator.
    crosses = [cross for _prob, cross, _share, _result in rows]
    shares = [share for _prob, _cross, share, _result in rows]
    assert all(a < b for a, b in zip(crosses, crosses[1:]))
    assert all(a < b for a, b in zip(shares, shares[1:]))
    # At 30% remote payments the distributed commit machinery is a
    # first-order factor: a dist_* frame ranks top-3 among non-wrapper
    # names in the variance tree.
    top = sorted(
        VarianceTree(rows[-1][3].traces).name_shares().items(),
        key=lambda kv: kv[1],
        reverse=True,
    )
    contenders = [name for name, _share in top if name not in WRAPPER_NAMES]
    print("  top non-wrapper factors at 30%%: %s" % (contenders[:3],))
    assert set(contenders[:3]) & {"dist_prepare_wait", "dist_commit_wait"}


def test_clustered_smoke_run_is_reproducible():
    config = cluster_config(0.2)
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.latencies == second.latencies
    assert json.dumps(first.metrics_snapshot(), sort_keys=True) == json.dumps(
        second.metrics_snapshot(), sort_keys=True
    )
