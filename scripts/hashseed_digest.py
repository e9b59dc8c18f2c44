#!/usr/bin/env python
"""Print the run digest of one fixed fault case, after checking the run.

Usage::

    PYTHONHASHSEED=0 python scripts/hashseed_digest.py --case crash > a.txt
    PYTHONHASHSEED=12345 python scripts/hashseed_digest.py --case crash > b.txt
    diff a.txt b.txt

Runs must be pure functions of (config, seed) across processes, so the
digest must not depend on ``PYTHONHASHSEED``; running the script under
two hash seeds and diffing the outputs checks that.  Before printing,
the run must account for every transaction and pass every oracle.

Cases:

- ``crash``: 2-shard MySQL TPC-C with a node crash and a coordinator
  crash (recovery: WAL redo replay and 2PC termination).
- ``failover``: one MySQL primary with two semi-sync replicas serving
  reads; the primary crashes while the replicas lag, so a replica is
  promoted.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.digest import run_digest
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.faults.plan import FaultPlan
from repro.replication import ReplicationConfig


def crash_case():
    plan = FaultPlan(name="ci-crash",
                     node_crash_times=((0, 60_000.0), ("coord", 140_000.0)))
    r = run_experiment(ExperimentConfig(
        engine="mysql", n_txns=80, rate_tps=600.0, seed=23, num_shards=2,
        workload_kwargs={"warehouses": 8, "remote_payment_prob": 0.35},
        fault_plan=plan, check=True))
    assert sum(r.outcome_counts.values()) == 80, r.outcome_counts
    assert r.check_report() == []
    return r


def failover_case():
    plan = FaultPlan(name="ci-failover",
                     node_crash_times=((0, 45_000.0),),
                     replica_lag_windows=((0.0, 45_000.0),),
                     replica_lag_stall_us=1_000.0)
    r = run_experiment(ExperimentConfig(
        engine="mysql", n_txns=60, rate_tps=600.0, seed=23,
        workload_kwargs={"warehouses": 4}, replicas=2,
        replication=ReplicationConfig(mode="semi_sync", ack_k=1,
                                      read_policy="replica_ok",
                                      staleness_bound_us=50_000.0),
        fault_plan=plan, check=True))
    assert sum(r.outcome_counts.values()) == 60, r.outcome_counts
    assert r.check_report() == []
    assert any(rec.kind == "promote" for rec in r.history.repl)
    return r


CASES = {"crash": crash_case, "failover": failover_case}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="print the run digest of a fixed fault case"
    )
    parser.add_argument("--case", choices=sorted(CASES), required=True)
    args = parser.parse_args(argv)
    print(run_digest(CASES[args.case]()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
