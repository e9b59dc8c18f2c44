#!/usr/bin/env python
"""Two smoke-scale checks on the engines' wall-clock fast paths.

Usage::

    PYTHONPATH=src python scripts/perf_smoke_checks.py --check markers
    PYTHONPATH=src python scripts/perf_smoke_checks.py --check telemetry

Checks:

- ``markers``: the tracing markers cost nothing when their probes are
  off.  Each case runs once plain and once with its probes on at
  ``probe_cost=0``; the two run digests must be equal.  Cases: MySQL
  single-node, MySQL 2-shard 2PC, Postgres and VoltDB.
- ``telemetry``: the telemetry-on run of the 200-txn ``mysql-tpcc-vats``
  macro takes at most 1.10x the telemetry-off run (best of 5 each).

Each check prints one line per measurement and exits non-zero on
failure.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import paperconfig as pc
from repro.bench import perf
from repro.bench.digest import run_digest
from repro.bench.runner import run_experiment
from repro.engines.mysql import mysql_callgraph

#: Bound on the telemetry-on / telemetry-off wall-time ratio.
TELEMETRY_BOUND = 1.10


def marker_cases():
    """name -> (config, probe names) for the fast-vs-traced check."""
    mysql = tuple(mysql_callgraph().functions)
    shards = pc.mysql_128wh_experiment("VATS", seed=7, n_txns=200)
    shards = shards.replaced(
        num_shards=2,
        workload_kwargs=dict(shards.workload_kwargs,
                             remote_payment_prob=0.15))
    return {
        "mysql": (pc.mysql_2wh_experiment(seed=7, n_txns=200), mysql),
        "mysql-2shard-2pc": (shards, mysql),
        "postgres": (
            pc.postgres_experiment(seed=7, n_txns=200),
            ("exec_simple_query", "PortalRun", "ExecutorRun",
             "index_fetch", "PredicateLockTuple", "heap_lock_tuple",
             "LockAcquireExtended", "ProcSleep", "CommitTransaction",
             "RecordTransactionCommit", "XLogFlush",
             "ReleasePredicateLocks"),
        ),
        "voltdb": (
            pc.voltdb_experiment(seed=7, n_txns=200),
            ("transaction", "execute_procedure", "init_procedure",
             "run_plan_fragments", "[waiting in queue]"),
        ),
    }


def check_markers():
    for name, (base, probes) in marker_cases().items():
        fast = run_digest(run_experiment(base))
        traced = run_digest(run_experiment(
            base.replaced(instrumented=probes, probe_cost=0.0)))
        if fast != traced:
            raise SystemExit("%s fast path drifted from traced" % name)
        print("%s: fast == traced (%s...)" % (name, fast[:12]))


def best_wall(config, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_experiment(config)
        times.append(time.perf_counter() - start)
    return min(times)


def check_telemetry():
    config = perf.macro_config(
        "mysql-tpcc-vats", seed=perf.MACRO_SEED, n_txns=200)
    off = best_wall(config.replaced(telemetry=False))
    on = best_wall(config)
    ratio = on / off
    print("telemetry on/off: %.3f (%.4fs / %.4fs)" % (ratio, on, off))
    if ratio > TELEMETRY_BOUND:
        raise SystemExit(
            "telemetry-on run is %.2fx the telemetry-off run at smoke "
            "scale (bound: %.2fx) - batched instrument updates have "
            "regressed" % (ratio, TELEMETRY_BOUND))


CHECKS = {"markers": check_markers, "telemetry": check_telemetry}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="smoke-scale checks on the engines' fast paths"
    )
    parser.add_argument("--check", choices=sorted(CHECKS), required=True)
    args = parser.parse_args(argv)
    CHECKS[args.check]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
