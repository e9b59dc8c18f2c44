#!/usr/bin/env python
"""Regenerate the kernel-equivalence golden digests.

Usage::

    PYTHONPATH=src python scripts/gen_equivalence_goldens.py

Writes ``tests/goldens/equivalence_digests.json``: one SHA-256 digest
per (engine, seed, telemetry) cell, one fault-plan run and a 4-shard
2PC + replication cell with telemetry on and off, each
covering the run's full observable output (exact latency sequence,
final virtual clock, metrics snapshot, abort/failure/fault counts —
see ``repro.bench.digest``).

Also writes ``tests/goldens/instrumented_digests.json``: five cells run
with probes attached, each storing its run digest and a trace
attribution digest (every trace's ``durations``/``under`` maps, failed
traces included), so the instrumented statement loops are pinned down
to where each frame's time was attributed.

These goldens were captured from the *pre-optimisation* kernel and are
the contract every kernel fast path must honour: same (config, seed) ⇒
byte-identical RunResult.  Only regenerate them for an intentional
semantic change to the simulation (new engine behaviour, workload fix),
never to make a performance patch pass.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import paperconfig as pc
from repro.bench.digest import run_digest, trace_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.engines.mysql import mysql_callgraph
from repro.engines.postgres import postgres_callgraph
from repro.faults import named_plan
from repro.replication import ReplicationConfig

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "goldens",
    "equivalence_digests.json",
)
INSTRUMENTED_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "goldens",
    "instrumented_digests.json",
)

SEEDS = (7, 21, 99)
N_TXNS = 250


def golden_configs():
    """Yield (key, ExperimentConfig) pairs for every golden cell."""
    factories = {
        "mysql": lambda **kw: pc.mysql_128wh_experiment("VATS", **kw),
        "postgres": pc.postgres_experiment,
        "voltdb": pc.voltdb_experiment,
    }
    for engine, factory in sorted(factories.items()):
        for seed in SEEDS:
            base = factory(seed=seed, n_txns=N_TXNS)
            for telemetry in (True, False):
                key = "%s/seed%d/telemetry-%s" % (
                    engine, seed, "on" if telemetry else "off")
                yield key, base.replaced(telemetry=telemetry)
    # One chaos run: the fault subsystem's scheduling (extra fault
    # processes, retries, crash-restarts) must survive the fast paths too.
    chaos = pc.mysql_128wh_experiment(
        "VATS", seed=SEEDS[0], n_txns=N_TXNS,
    ).replaced(fault_plan=named_plan("full-chaos"))
    yield "mysql/seed7/full-chaos", chaos
    # One sharded run: 4 MySQL shards with 2PC, one semi-sync replica
    # each serving reads, oracles on.  It is the only cell where several
    # buffer pools are prewarmed in one process.
    workload_kwargs = pc.tpcc_contended_kwargs()
    workload_kwargs["remote_payment_prob"] = 0.15
    cluster = ExperimentConfig(
        engine="mysql",
        workload="tpcc",
        workload_kwargs=workload_kwargs,
        engine_config=pc.mysql_128wh("VATS"),
        seed=SEEDS[0],
        n_txns=N_TXNS,
        rate_tps=pc.RATE_TPS,
        num_shards=4,
        replicas=1,
        replication=ReplicationConfig(mode="semi_sync",
                                      read_policy="replica_ok"),
        check=True,
    )
    for telemetry in (True, False):
        key = "mysql-4shard-2pc-repl/seed%d/telemetry-%s" % (
            SEEDS[0], "on" if telemetry else "off")
        yield key, cluster.replaced(telemetry=telemetry)


def instrumented_configs():
    """Yield (key, ExperimentConfig) pairs for the probed golden cells."""
    seed = SEEDS[0]
    mysql_all = tuple(mysql_callgraph().functions)
    postgres_all = tuple(postgres_callgraph().functions)
    profile = pc.mysql_2wh_experiment(seed=seed, n_txns=N_TXNS).replaced(
        instrumented=mysql_all, probe_cost=0.05,
    )
    yield "mysql-2wh/all-probes-0.05", profile
    yield "mysql-128wh-vats/subset-probes-2.0", pc.mysql_128wh_experiment(
        "VATS", seed=seed, n_txns=N_TXNS,
    ).replaced(
        instrumented=("do_command", "row_upd_step", "lock_rec_lock",
                      "os_event_wait"),
        probe_cost=2.0,
    )
    yield "postgres/all-probes-0.05", pc.postgres_experiment(
        seed=seed, n_txns=N_TXNS,
    ).replaced(instrumented=postgres_all, probe_cost=0.05)
    workload_kwargs = pc.tpcc_contended_kwargs()
    workload_kwargs["remote_payment_prob"] = 0.15
    yield "mysql-2shard-2pc/all-probes-0.05", ExperimentConfig(
        engine="mysql",
        workload="tpcc",
        workload_kwargs=workload_kwargs,
        engine_config=pc.mysql_128wh("VATS"),
        seed=seed,
        n_txns=N_TXNS,
        rate_tps=pc.RATE_TPS,
        num_shards=2,
        check=True,
        instrumented=mysql_all,
        probe_cost=0.05,
    )
    yield "mysql-2wh/all-probes-0.05/node-crash", profile.replaced(
        fault_plan=named_plan("node-crash", node_crash_times=((0, 150_000.0),)),
    )


def instrumented_digests(config):
    """The stored value of one probed cell: run and trace digests."""
    result = run_experiment(config)
    return {"run": run_digest(result), "traces": trace_digest(result.log)}


def _write(path, digests):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %d digests to %s" % (len(digests), path))


def main():
    digests = {}
    for key, config in golden_configs():
        digests[key] = run_digest(run_experiment(config))
        print("%s  %s" % (digests[key], key))
    _write(GOLDEN_PATH, digests)
    probed = {}
    for key, config in instrumented_configs():
        probed[key] = instrumented_digests(config)
        print("%s %s  %s" % (probed[key]["run"], probed[key]["traces"], key))
    _write(INSTRUMENTED_PATH, probed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
